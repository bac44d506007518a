//! One store for many sparsely filled FIFO queues: a switch's N×N
//! virtual output queues, or every input buffer of a fabric.
//!
//! A 64-port switch has 4 096 VOQs, and at load 0.1 they hold about six
//! cells between them. One `VecDeque` per queue made that 4 096 heap
//! buffers (a 128 KiB header table plus a buffer per queue ever used);
//! [`Voqs`] threads every queue's FIFO through one slab of resident
//! items instead. Each queue is three `u32` words — head, tail and
//! length — and each slab slot an item plus the index of the slot behind
//! it in its queue. A popped slot goes onto a free list and the next push
//! reuses it, so the slab grows only to the high-water mark of resident
//! items and then stays put: no allocation once a run has warmed up.
//!
//! `CompiledFabric` keeps one queue per input port, in arrival order,
//! and treats the entries of input i tagged for output o as VOQ (i, o).
//! [`nth`](Voqs::nth) and [`remove_first`](Voqs::remove_first) are for
//! it: the first reads the oldest cell not yet requesting, and the
//! second takes the oldest requesting cell bound for a matched output
//! and says, from the same walk, whether that VOQ still requests.
//!
//! `NIL` ends a queue and the free list; an empty queue has `NIL` as both
//! head and tail.

/// The end of a queue or of the free list.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Queue {
    head: u32,
    tail: u32,
    len: u32,
}

impl Queue {
    const EMPTY: Queue = Queue {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// A resident item and the slot behind it in its queue (or in the free
/// list, once popped).
#[derive(Clone, Copy)]
struct Slot<T> {
    item: T,
    next: u32,
}

/// `queues` FIFO queues over one slab of resident items.
pub struct Voqs<T: Copy> {
    queues: Vec<Queue>,
    slab: Vec<Slot<T>>,
    /// First free slab slot; the free slots are chained through `next`.
    free: u32,
    /// Items resident over all queues.
    total: usize,
}

impl<T: Copy> Voqs<T> {
    /// `queues` empty queues, indexed `0..queues`.
    pub fn new(queues: usize) -> Self {
        Voqs {
            queues: vec![Queue::EMPTY; queues],
            slab: Vec::new(),
            free: NIL,
            total: 0,
        }
    }

    /// Append `item` to queue `q`; returns the queue's new length.
    pub fn push(&mut self, q: usize, item: T) -> usize {
        let slot = Slot { item, next: NIL };
        let at = match self.free {
            NIL => {
                let at = self.slab.len();
                assert!(at < NIL as usize, "more resident items than u32 indexes");
                self.slab.push(slot);
                at as u32
            }
            at => {
                self.free = self.slab[at as usize].next;
                self.slab[at as usize] = slot;
                at
            }
        };
        let queue = &mut self.queues[q];
        match queue.tail {
            NIL => queue.head = at,
            tail => self.slab[tail as usize].next = at,
        }
        queue.tail = at;
        queue.len += 1;
        self.total += 1;
        queue.len as usize
    }

    /// Remove and return the head of queue `q`, if any.
    pub fn pop(&mut self, q: usize) -> Option<T> {
        let queue = &mut self.queues[q];
        let at = queue.head;
        if at == NIL {
            return None;
        }
        let slot = &mut self.slab[at as usize];
        queue.head = slot.next;
        if queue.head == NIL {
            queue.tail = NIL;
        }
        queue.len -= 1;
        slot.next = self.free;
        self.free = at;
        self.total -= 1;
        Some(slot.item)
    }

    /// The head of queue `q`, if any.
    pub fn front(&self, q: usize) -> Option<&T> {
        match self.queues[q].head {
            NIL => None,
            at => Some(&self.slab[at as usize].item),
        }
    }

    /// Item `k` of queue `q`, counted from its head at 0, if the queue
    /// holds that many; a walk of `k` links.
    #[inline]
    pub fn nth(&self, q: usize, k: usize) -> Option<&T> {
        let mut at = self.queues[q].head;
        for _ in 0..k {
            if at == NIL {
                return None;
            }
            at = self.slab[at as usize].next;
        }
        match at {
            NIL => None,
            at => Some(&self.slab[at as usize].item),
        }
    }

    /// Remove and return the first of queue `q`'s first `within` items
    /// that `tagged` picks, with whether another of those `within` items
    /// is picked as well; `None`, and the queue untouched, if none is.
    /// One walk: the search stops at the item, and the look for another
    /// goes on from behind it.
    #[inline]
    pub fn remove_first(
        &mut self,
        q: usize,
        within: usize,
        tagged: impl Fn(&T) -> bool,
    ) -> Option<(T, bool)> {
        let (mut before, mut at) = (NIL, self.queues[q].head);
        for seen in 0..within {
            if at == NIL {
                return None;
            }
            let slot = self.slab[at as usize];
            if !tagged(&slot.item) {
                (before, at) = (at, slot.next);
                continue;
            }
            let queue = &mut self.queues[q];
            match before {
                NIL => queue.head = slot.next,
                before => self.slab[before as usize].next = slot.next,
            }
            if queue.tail == at {
                queue.tail = before;
            }
            queue.len -= 1;
            self.slab[at as usize].next = self.free;
            self.free = at;
            self.total -= 1;
            let mut behind = slot.next;
            let mut another = false;
            for _ in seen + 1..within {
                if behind == NIL {
                    break;
                }
                let slot = &self.slab[behind as usize];
                if tagged(&slot.item) {
                    another = true;
                    break;
                }
                behind = slot.next;
            }
            return Some((slot.item, another));
        }
        None
    }

    /// Items in queue `q`.
    pub fn len(&self, q: usize) -> usize {
        self.queues[q].len as usize
    }

    /// Whether queue `q` is empty.
    pub fn is_empty(&self, q: usize) -> bool {
        self.queues[q].head == NIL
    }

    /// Items resident over all queues.
    pub fn total(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Queue `q`'s items, walked head to tail through the slab links;
    /// stops after one step more than the slab holds, so a cycle shows
    /// as an overlong queue instead of a hang.
    fn contents(v: &Voqs<u64>, q: usize) -> Vec<u64> {
        let mut items = Vec::new();
        let mut at = v.queues[q].head;
        while at != NIL && items.len() <= v.slab.len() {
            items.push(v.slab[at as usize].item);
            at = v.slab[at as usize].next;
        }
        items
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Append an item carrying the tag given, from a three-letter
        /// alphabet, in its low two bits: tagged searches hit and miss.
        Push(u64),
        Pop,
        /// Pop until the queue is empty, so that it refills from empty.
        Drain,
        /// Read item `k`, `k` drawn over `0..=len` from the number given.
        Nth(usize),
        /// Remove the first item tagged with the tag given among the
        /// first `k`, `k` drawn as for `Nth`.
        Remove(usize, u64),
    }

    /// Queues of the oracle and the store, and a script of operations,
    /// each on one of four evenly spaced queues or on any queue.
    fn script() -> impl Strategy<Value = (usize, Vec<(Op, usize)>)> {
        let op = (0usize..26, 0usize..64, 0u64..3).prop_map(|(k, pick, tag)| match k {
            0..=10 => Op::Push(tag),
            11..=16 => Op::Pop,
            17 => Op::Drain,
            18..=20 => Op::Nth(pick),
            _ => Op::Remove(pick, tag),
        });
        let target = (0usize..6, 0usize..4_096);
        (
            prop::sample::select(vec![1usize, 5, 4_096]),
            prop::collection::vec((op, target), 1..=160),
        )
            .prop_map(|(queues, steps)| {
                let steps = steps
                    .into_iter()
                    .map(|(op, (spot, any))| {
                        let q = if spot < 4 {
                            spot * (queues / 4).max(1) % queues
                        } else {
                            any % queues
                        };
                        (op, q)
                    })
                    .collect();
                (queues, steps)
            })
    }

    /// The store against one `VecDeque` per queue, comparing every
    /// queue's contents, every length and the total after every step,
    /// and the slab against the high-water mark of resident items.
    fn run_side_by_side(queues: usize, steps: Vec<(Op, usize)>) -> Result<(), TestCaseError> {
        let mut store: Voqs<u64> = Voqs::new(queues);
        let mut oracle: Vec<VecDeque<u64>> = vec![VecDeque::new(); queues];
        let (mut next, mut high_water) = (0u64, 0usize);
        for (op, q) in steps {
            let drawn = |pick: usize| pick % (oracle[q].len() + 1);
            match op {
                Op::Push(tag) => {
                    next += 1;
                    let item = next * 4 + tag;
                    oracle[q].push_back(item);
                    prop_assert_eq!(store.push(q, item), oracle[q].len());
                }
                Op::Nth(pick) => {
                    let k = drawn(pick);
                    prop_assert_eq!(store.nth(q, k), oracle[q].get(k), "item {}", k);
                }
                Op::Remove(pick, tag) => {
                    let k = drawn(pick);
                    let picked = |item: &u64| item % 4 == tag;
                    let first = oracle[q].iter().take(k).position(picked);
                    let expect = first
                        .and_then(|at| oracle[q].remove(at))
                        .map(|item| (item, oracle[q].iter().take(k - 1).any(picked)));
                    prop_assert_eq!(store.remove_first(q, k, picked), expect, "within {}", k);
                }
                Op::Pop => prop_assert_eq!(store.pop(q), oracle[q].pop_front()),
                Op::Drain => loop {
                    let popped = store.pop(q);
                    prop_assert_eq!(popped, oracle[q].pop_front());
                    if popped.is_none() {
                        break;
                    }
                },
            }
            let total: usize = oracle.iter().map(VecDeque::len).sum();
            high_water = high_water.max(total);
            prop_assert_eq!(store.total(), total);
            prop_assert_eq!(store.slab.len(), high_water, "a freed slot was not reused");
            for (k, expect) in oracle.iter().enumerate() {
                prop_assert_eq!(store.len(k), expect.len(), "queue {}", k);
                prop_assert_eq!(store.is_empty(k), expect.is_empty(), "queue {}", k);
                prop_assert_eq!(store.front(k), expect.front(), "queue {}", k);
                let walked = contents(&store, k);
                prop_assert!(
                    walked.iter().eq(expect),
                    "queue {}: {:?} vs {:?}",
                    k,
                    walked,
                    expect
                );
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn voqs_match_one_vecdeque_per_queue(case in script()) {
            run_side_by_side(case.0, case.1)?;
        }
    }

    #[test]
    fn an_emptied_queue_refills_behind_other_queues_reused_slots() {
        // Slots 0–2 go to queue 1, queue 0 gets slot 3; queue 1 drains,
        // and queue 0's refill after its own drain takes the freed slots
        // most recent first.
        let mut v: Voqs<u64> = Voqs::new(2);
        for item in [10, 11, 12] {
            v.push(1, item);
        }
        v.push(0, 20);
        while v.pop(1).is_some() {}
        assert_eq!(v.pop(0), Some(20));
        assert!(v.is_empty(0) && v.is_empty(1));
        assert_eq!((v.push(0, 30), v.push(0, 31)), (1, 2));
        assert_eq!(contents(&v, 0), [30, 31]);
        assert_eq!((v.front(0), v.len(0), v.total()), (Some(&30), 2, 2));
        assert_eq!(v.slab.len(), 4, "the refill reused freed slots");
    }
}
