//! Property-based tests of the emulated fiber-delay-line priority
//! queue: within its guaranteed size bound and with every line alive,
//! an [`FdlQueue`] driven through arbitrary arrival/serve scripts is
//! observation-equivalent to a reference bounded BTreeMap priority
//! queue whose arrivals become servable one slot after entry — same
//! admissions, same served keys in the same order, same refusals, no
//! underflow stalls, and an exactly conserved cell ledger.

use std::collections::BTreeMap;

use osmosis::fdl::{BufferLossReason, FdlLines, FdlQueue};
use proptest::prelude::*;

/// One slot of the driving script: up to three prioritized arrivals and
/// whether the consumer tries to serve this slot.
fn script_strategy() -> impl Strategy<Value = (usize, Vec<(Vec<u64>, bool)>)> {
    (
        2usize..=8,
        prop::collection::vec(
            (prop::collection::vec(0u64..4, 0..=3), any::<bool>()),
            4..=40,
        ),
    )
}

/// The reference model: a bounded BTreeMap keyed like the FDL queue,
/// with a one-slot insertion latency — arrivals sit in `pending` until
/// the slot ends, then become servable.
struct Reference {
    capacity: usize,
    servable: BTreeMap<(u64, u64), ()>,
    pending: BTreeMap<(u64, u64), ()>,
    next_seq: u64,
    refused: u64,
    served: u64,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Reference {
            capacity,
            servable: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_seq: 0,
            refused: 0,
            served: 0,
        }
    }

    /// Returns whether the arrival is admitted; the sequence counter
    /// advances either way, mirroring the FDL queue's arrival stamping.
    fn push(&mut self, priority: u64) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.servable.len() + self.pending.len() >= self.capacity {
            self.refused += 1;
            return false;
        }
        self.pending.insert((priority, seq), ());
        true
    }

    /// Serve the minimum servable key, if any. This slot's pending
    /// arrivals are invisible to service — the emulation's one-slot
    /// latency — even when one carries a smaller key.
    fn pop(&mut self) -> Option<(u64, u64)> {
        let best = *self.servable.keys().next()?;
        self.servable.remove(&best);
        self.served += 1;
        Some(best)
    }

    fn settle(&mut self) {
        self.servable.append(&mut self.pending);
    }

    fn len(&self) -> usize {
        self.servable.len() + self.pending.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full observable behaviour — admission verdicts, served keys,
    /// refusal typing, stall count, ledger — matches the reference
    /// model slot for slot.
    #[test]
    fn fdl_queue_matches_reference_priority_queue(case in script_strategy()) {
        let (n, script) = case;
        let lines = FdlLines::balanced(n);
        let capacity = lines.guaranteed_capacity();
        let mut q = FdlQueue::new(lines);
        let mut r = Reference::new(capacity);
        prop_assert_eq!(q.capacity(), capacity);

        for (slot, (arrivals, serve)) in script.iter().enumerate() {
            let slot = slot as u64;
            q.tick(slot);
            for &priority in arrivals {
                let got = q.push(priority, ());
                let want = r.push(priority);
                prop_assert_eq!(got, want, "slot {}: admission diverged", slot);
            }
            if *serve {
                let got = q.pop().map(|(k, ())| k);
                let want = r.pop();
                prop_assert_eq!(got, want, "slot {}: served key diverged", slot);
            }
            q.settle(slot);
            r.settle();
            prop_assert_eq!(q.len(), r.len(), "slot {}: occupancy diverged", slot);

            // Quiescent point: pushed == popped + dropped + resident.
            let (pushed, popped, dropped, resident) = q.ledger();
            prop_assert_eq!(pushed, popped + dropped + resident,
                "slot {}: ledger leaked", slot);
        }

        // With every line alive and admission bounded by the guaranteed
        // capacity, the emulation never drops at settle and never
        // stalls: every loss is an admission refusal, and the counts
        // match the reference exactly.
        let stats = q.stats();
        prop_assert_eq!(stats.underflow_stalls, 0, "clean run stalled");
        prop_assert_eq!(stats.dropped, r.refused, "drop count diverged");
        prop_assert_eq!(stats.popped, r.served, "serve count diverged");
        for loss in q.take_losses() {
            prop_assert_eq!(loss.reason, BufferLossReason::AdmissionFull,
                "clean run typed a non-admission loss");
        }
    }

    /// FIFO mode (all priorities zero) serves strictly in arrival
    /// order, with a one-slot latency floor between entry and service.
    #[test]
    fn fifo_mode_serves_in_arrival_order(case in script_strategy()) {
        let (n, script) = case;
        let mut q = FdlQueue::new(FdlLines::balanced(n));
        let mut next_expected = 0u64;
        let mut admitted_at: BTreeMap<u64, u64> = BTreeMap::new();
        for (slot, (arrivals, serve)) in script.iter().enumerate() {
            let slot = slot as u64;
            q.tick(slot);
            for _ in arrivals {
                let seq = q.ledger().0; // pushed so far == next seq
                if q.push(0, ()) {
                    admitted_at.insert(seq, slot);
                }
            }
            if *serve {
                if let Some(((priority, seq), ())) = q.pop() {
                    prop_assert_eq!(priority, 0u64);
                    // Arrival order: every admitted seq below this one
                    // must already have been served.
                    prop_assert!(seq >= next_expected,
                        "served seq {} after {}", seq, next_expected);
                    prop_assert!(admitted_at.range(next_expected..seq)
                        .next().is_none(),
                        "seq {} served before an earlier admitted cell", seq);
                    let entered = admitted_at[&seq];
                    prop_assert!(slot > entered,
                        "seq {} served in its arrival slot", seq);
                    next_expected = seq + 1;
                }
            }
            q.settle(slot);
        }
    }

    /// The emulation is a pure function of its script: two queues driven
    /// identically agree on every observation.
    #[test]
    fn fdl_queue_is_deterministic(case in script_strategy()) {
        let (n, script) = case;
        let mut a = FdlQueue::new(FdlLines::balanced(n));
        let mut b = FdlQueue::new(FdlLines::balanced(n));
        for (slot, (arrivals, serve)) in script.iter().enumerate() {
            let slot = slot as u64;
            a.tick(slot);
            b.tick(slot);
            for &priority in arrivals {
                prop_assert_eq!(a.push(priority, ()), b.push(priority, ()));
            }
            if *serve {
                prop_assert_eq!(a.pop().map(|(k, ())| k), b.pop().map(|(k, ())| k));
            }
            a.settle(slot);
            b.settle(slot);
        }
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.ledger(), b.ledger());
    }
}
