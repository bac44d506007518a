//! Round-robin arbiters (programmable priority encoders).
//!
//! The grant and accept stages of PIM/iSLIP/FLPPR are built from these.
//! The bitset implementation scales to the fabric-level port counts
//! (2048) without per-slot allocation.

use crate::matching::pick;

/// A fixed-size bitset over `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// All-zero set of `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Clear all bits.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The first set bit at or after `from`, wrapping around; `None` when
    /// empty: [`pick`] over this set's words (padding bits above `len`
    /// are never set).
    pub fn next_set_wrapping(&self, from: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        pick(self.words.len(), from % self.len, |w| self.words[w])
    }
}

/// A round-robin arbiter with a persistent pointer.
///
/// `arbitrate` grants the first requester at or after the pointer;
/// `advance_past` implements the iSLIP pointer-update rule (move to one
/// beyond the granted position).
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    pointer: usize,
    size: usize,
}

impl RoundRobinArbiter {
    /// Arbiter over `size` requesters, pointer at 0.
    pub fn new(size: usize) -> Self {
        Self::with_pointer(size, 0)
    }

    /// Arbiter with an explicit initial pointer — used to desynchronize
    /// the sub-port arbiters of a dual-receiver output from slot 0.
    pub fn with_pointer(size: usize, pointer: usize) -> Self {
        assert!(size > 0);
        RoundRobinArbiter {
            pointer: pointer % size,
            size,
        }
    }

    /// Current pointer position.
    pub fn pointer(&self) -> usize {
        self.pointer
    }

    /// Pick the first requester at or after the pointer (wrapping);
    /// does not move the pointer.
    pub fn arbitrate(&self, requests: &BitSet) -> Option<usize> {
        debug_assert_eq!(requests.len(), self.size);
        requests.next_set_wrapping(self.pointer)
    }

    /// iSLIP pointer update: one position beyond the granted requester.
    pub fn advance_past(&mut self, granted: usize) {
        debug_assert!(granted < self.size);
        self.pointer = (granted + 1) % self.size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basics() {
        let mut b = BitSet::new(130);
        assert!(b.is_empty());
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count(), 3);
        b.clear(64);
        assert!(!b.get(64));
        b.clear_all();
        assert!(b.is_empty());
    }

    #[test]
    fn next_set_wrapping_forward() {
        let mut b = BitSet::new(100);
        b.set(10);
        b.set(50);
        b.set(90);
        assert_eq!(b.next_set_wrapping(0), Some(10));
        assert_eq!(b.next_set_wrapping(10), Some(10));
        assert_eq!(b.next_set_wrapping(11), Some(50));
        assert_eq!(b.next_set_wrapping(51), Some(90));
    }

    #[test]
    fn next_set_wrapping_wraps() {
        let mut b = BitSet::new(100);
        b.set(5);
        assert_eq!(b.next_set_wrapping(50), Some(5));
        assert_eq!(b.next_set_wrapping(6), Some(5));
        assert_eq!(b.next_set_wrapping(5), Some(5));
    }

    #[test]
    fn next_set_wrapping_empty() {
        let b = BitSet::new(64);
        assert_eq!(b.next_set_wrapping(0), None);
    }

    #[test]
    fn next_set_exhaustive_small() {
        // Cross-check against a naive scan for every (pattern, from) on a
        // 2-word set.
        let n = 70;
        for pat in [0usize, 1, 3, 5, 13, 69, 68] {
            let mut b = BitSet::new(n);
            // A deterministic pseudo-pattern.
            for i in 0..n {
                if (i * 7 + pat) % 11 == 0 {
                    b.set(i);
                }
            }
            for from in 0..n {
                let naive = (0..n).map(|k| (from + k) % n).find(|&i| b.get(i));
                assert_eq!(b.next_set_wrapping(from), naive, "pat {pat} from {from}");
            }
        }
    }

    #[test]
    fn arbiter_round_robin_fairness() {
        // All requesting: repeated arbitrate+advance must cycle all ports.
        let mut arb = RoundRobinArbiter::new(8);
        let mut req = BitSet::new(8);
        for i in 0..8 {
            req.set(i);
        }
        let mut order = vec![];
        for _ in 0..8 {
            let g = arb.arbitrate(&req).unwrap();
            order.push(g);
            arb.advance_past(g);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn arbiter_skips_idle_requesters() {
        let mut arb = RoundRobinArbiter::new(8);
        let mut req = BitSet::new(8);
        req.set(3);
        req.set(6);
        assert_eq!(arb.arbitrate(&req), Some(3));
        arb.advance_past(3);
        assert_eq!(arb.arbitrate(&req), Some(6));
        arb.advance_past(6);
        assert_eq!(arb.arbitrate(&req), Some(3), "wraps");
    }

    #[test]
    fn arbiter_none_when_no_requests() {
        let arb = RoundRobinArbiter::new(4);
        let req = BitSet::new(4);
        assert_eq!(arb.arbitrate(&req), None);
    }
}
