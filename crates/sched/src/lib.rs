//! # osmosis-sched
//!
//! Crossbar schedulers for the OSMOSIS reproduction: round-robin arbiters,
//! the classic iSLIP and PIM iterative matchers, the prior-art pipelined
//! arbiter, and FLPPR — the paper's novel Fast Low-latency Parallel
//! Pipelined aRbitration (ref. [22]) — plus a maximum-size-matching oracle
//! for ablations.
//!
//! All schedulers implement [`CellScheduler`] and can drive both the
//! single-stage switch and the multistage fabric simulations, with single
//! or dual receivers per output.
//!
//! The round-robin grant/accept round is written twice, on one priority
//! encoder ([`matching::pick`]): [`matching::Matcher`] matches borrowed
//! request masks within a slot at one grant per output (the fabric
//! simulators' per-switch schedulers, the CIOQ and burst switches), and
//! [`subsched::SubScheduler`] reads the requester mask of the counts
//! its owner lends it ([`Requests::requesters`], kept once beside the
//! counts) and holds sub-ports and a matching that accumulates across
//! slots (FLPPR, the pipelined arbiter and iSLIP, which differ only in
//! when rounds run and pointers move).
//!
//! The Fig. 6 contrast in four lines:
//!
//! ```
//! use osmosis_sched::{CellScheduler, Flppr, PipelinedArbiter};
//!
//! let mut flppr = Flppr::osmosis(64, 1);          // 6 parallel sub-schedulers
//! flppr.tick(0);
//! flppr.note_arrival(17, 42);                     // request in cycle 0
//! assert_eq!(flppr.tick(1).pairs(), &[(17, 42)]); // grant in cycle 1
//!
//! let mut prior = PipelinedArbiter::log2n(64, 1); // the prior art
//! prior.tick(0);
//! prior.note_arrival(17, 42);
//! let waited = (1..=10).find(|&t| !prior.tick(t).is_empty()).unwrap();
//! assert_eq!(waited, 6);                          // log2(64) cycles
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arbiter;
pub mod flppr;
pub mod islip;
pub mod matching;
pub mod maxmatch;
pub mod pim;
pub mod pipelined;
pub mod requests;
pub mod subsched;
pub mod traits;

pub use arbiter::{BitSet, RoundRobinArbiter};
pub use flppr::Flppr;
pub use islip::Islip;
pub use maxmatch::{max_matching, MaxSizeScheduler};
pub use pim::Pim;
pub use pipelined::PipelinedArbiter;
pub use requests::{Matching, Requests};
pub use traits::CellScheduler;

/// ⌈log₂ n⌉, at least 1: the iteration count ref. [17] calls for, and so
/// the depth of every log₂N scheduler here.
pub fn log2_ceil(n: usize) -> usize {
    (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::log2_ceil;

    #[test]
    fn log2_ceil_equals_the_float_form() {
        let float = |n: usize| (n.max(2) as f64).log2().ceil() as usize;
        for n in 0..=4_096 {
            assert_eq!(log2_ceil(n), float(n), "n {n}");
        }
        for k in 1..=40 {
            for n in [(1usize << k) - 1, 1 << k, (1 << k) + 1] {
                assert_eq!(log2_ceil(n), float(n), "n {n}");
            }
        }
    }
}
