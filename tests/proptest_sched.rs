//! Property-based tests of the scheduler crate: every scheduler respects
//! the crossbar constraints and conserves cells for arbitrary arrival
//! sequences; the arbiter primitives match naive references.

use osmosis::sched::arbiter::BitSet;
use osmosis::sched::matching::pick;
use osmosis::sched::{CellScheduler, Flppr, Islip, Pim, PipelinedArbiter, Requests};
use proptest::prelude::*;

/// An arbitrary arrival trace: per slot, a list of (input, output) pairs
/// with at most one arrival per input.
fn arrivals_strategy(n: usize, slots: usize) -> impl Strategy<Value = Vec<Vec<(usize, usize)>>> {
    prop::collection::vec(
        prop::collection::vec((0..n, 0..n), 0..=n).prop_map(move |mut v| {
            let mut seen = vec![false; n];
            v.retain(|&(i, _)| {
                if seen[i] {
                    false
                } else {
                    seen[i] = true;
                    true
                }
            });
            v
        }),
        slots,
    )
}

fn check_scheduler(
    mut sched: Box<dyn CellScheduler>,
    trace: &[Vec<(usize, usize)>],
) -> Result<(), TestCaseError> {
    let n = sched.inputs();
    let cap = sched.out_capacity();
    let mut shadow = Requests::square(n);
    let mut injected = 0u64;
    let mut granted = 0u64;
    for (slot, arrivals) in trace.iter().enumerate() {
        let m = sched.tick(slot as u64);
        m.validate(&shadow, cap)
            .map_err(|e| TestCaseError::fail(format!("slot {slot}: {e}")))?;
        for &(i, o) in m.pairs() {
            shadow.dec(i, o);
            granted += 1;
        }
        for &(i, o) in arrivals {
            sched.note_arrival(i, o);
            shadow.inc(i, o);
            injected += 1;
        }
    }
    // Drain: with no further arrivals, everything must be served.
    for slot in trace.len()..(trace.len() + 50 * n) {
        let m = sched.tick(slot as u64);
        m.validate(&shadow, cap)
            .map_err(|e| TestCaseError::fail(format!("drain {slot}: {e}")))?;
        for &(i, o) in m.pairs() {
            shadow.dec(i, o);
            granted += 1;
        }
        if shadow.is_empty() {
            break;
        }
    }
    prop_assert_eq!(granted, injected, "work conservation");
    prop_assert!(shadow.is_empty(), "all cells drained");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn islip_respects_constraints(trace in arrivals_strategy(8, 30)) {
        check_scheduler(Box::new(Islip::log2n(8, 1)), &trace)?;
    }

    #[test]
    fn islip_dual_receiver_respects_constraints(trace in arrivals_strategy(8, 30)) {
        check_scheduler(Box::new(Islip::log2n(8, 2)), &trace)?;
    }

    #[test]
    fn pim_respects_constraints(trace in arrivals_strategy(8, 30), seed in any::<u64>()) {
        check_scheduler(Box::new(Pim::new(8, 3, 1, seed)), &trace)?;
    }

    #[test]
    fn flppr_respects_constraints(trace in arrivals_strategy(8, 30)) {
        check_scheduler(Box::new(Flppr::osmosis(8, 1)), &trace)?;
    }

    #[test]
    fn flppr_dual_receiver_respects_constraints(trace in arrivals_strategy(8, 30)) {
        check_scheduler(Box::new(Flppr::osmosis(8, 2)), &trace)?;
    }

    #[test]
    fn pipelined_respects_constraints(trace in arrivals_strategy(8, 30)) {
        check_scheduler(Box::new(PipelinedArbiter::log2n(8, 1)), &trace)?;
    }
}

proptest! {
    /// The wrapping priority encoder agrees with a naive scan for
    /// arbitrary bit patterns and starting points.
    #[test]
    fn next_set_wrapping_matches_naive(
        bits in prop::collection::vec(any::<bool>(), 1..200),
        from in any::<usize>(),
    ) {
        let n = bits.len();
        let mut set = BitSet::new(n);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                set.set(i);
            }
        }
        let from = from % n;
        let naive = (0..n).map(|k| (from + k) % n).find(|&i| bits[i]);
        prop_assert_eq!(set.next_set_wrapping(from), naive);
    }

    /// The encoder itself, at every width it special-cases (one word, two
    /// words as a u128) and beyond (the word loop), from every pointer
    /// position: empty masks, a single bit, only the top bit of the last
    /// word, dense and sparse random bits, and bits only below a cut — so
    /// every pointer past the cut must wrap.
    #[test]
    fn pick_matches_naive_at_every_width(
        dense in prop::collection::vec(any::<u64>(), 5),
        thin in prop::collection::vec(any::<u64>(), 5),
        shape in 0usize..6,
        bit in 0usize..320,
    ) {
        for words in [1usize, 2, 3, 5] {
            let bits = 64 * words;
            let bit = bit % bits;
            let mask: Vec<u64> = (0..words)
                .map(|w| match shape {
                    0 => 0,
                    1 => u64::from(w == bit / 64) << (bit % 64),
                    2 => u64::from(w == words - 1) << 63,
                    3 => dense[w],
                    4 => dense[w] & thin[w],
                    _ if w < bit / 64 => dense[w],
                    _ if w == bit / 64 => dense[w] & !(!0 << (bit % 64)),
                    _ => 0,
                })
                .collect();
            let set = |i: usize| mask[i / 64] >> (i % 64) & 1 == 1;
            for from in 0..bits {
                let naive = (0..bits).map(|k| (from + k) % bits).find(|&i| set(i));
                prop_assert_eq!(
                    pick(words, from, |w| mask[w]),
                    naive,
                    "words {} from {} mask {:x?}", words, from, mask
                );
            }
        }
    }

    /// Set/clear/count behave like a Vec<bool>.
    #[test]
    fn bitset_matches_vec_bool(ops in prop::collection::vec((any::<bool>(), 0usize..150), 0..300)) {
        let n = 150;
        let mut set = BitSet::new(n);
        let mut reference = vec![false; n];
        for (on, idx) in ops {
            if on {
                set.set(idx);
                reference[idx] = true;
            } else {
                set.clear(idx);
                reference[idx] = false;
            }
        }
        for (i, &expect) in reference.iter().enumerate() {
            prop_assert_eq!(set.get(i), expect);
        }
        prop_assert_eq!(set.count(), reference.iter().filter(|&&b| b).count());
    }

    /// The max-size oracle never returns an invalid matching and is at
    /// least as large as any greedy matching.
    #[test]
    fn max_matching_validity(edges in prop::collection::vec((0usize..10, 0usize..10), 0..40)) {
        use osmosis::sched::max_matching;
        let mut occ = Requests::square(10);
        for &(i, o) in &edges {
            occ.inc(i, o);
        }
        let m = max_matching(&occ, 1);
        prop_assert!(m.validate(&occ, 1).is_ok());
        // Greedy lower bound.
        let mut in_used = [false; 10];
        let mut out_used = [false; 10];
        let mut greedy = 0;
        for (i, iu) in in_used.iter_mut().enumerate() {
            for (o, ou) in out_used.iter_mut().enumerate() {
                if !*iu && !*ou && occ.get(i, o) > 0 {
                    *iu = true;
                    *ou = true;
                    greedy += 1;
                    break;
                }
            }
        }
        prop_assert!(m.len() >= greedy, "{} < greedy {}", m.len(), greedy);
    }
}
