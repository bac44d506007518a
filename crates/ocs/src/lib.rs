//! # osmosis-ocs
//!
//! The optical **circuit-switched** operating mode — the road the paper
//! did *not* take, built on the same physical layer it did. OSMOSIS
//! switches packets: a central electronic scheduler computes a fresh
//! crossbar matching every 51.2 ns cell cycle. The recurring
//! counter-proposal for optical HPC fabrics (rostam-style OCS planes,
//! PULSE/RotorNet nanosecond-epoch switching) is to hold *circuits* for
//! many cycles and amortize the optical guard time over an epoch instead
//! of paying scheduling latency per cell. This crate makes that mode a
//! first-class citizen of the workspace so the two can be compared
//! head-to-head on identical traffic, topologies and fault plans:
//!
//! * [`TmEstimator`] — integer-EWMA demand estimation from the engine's
//!   per-cell observation stream;
//! * [`bvn::decompose`] — solver-free Birkhoff–von Neumann decomposition
//!   of the estimate into weighted permutations;
//! * [`EpochConfig`] — epoch/frame cadence with guard-time accounting
//!   derived from the `osmosis-phy` power-penalty budget;
//! * [`OcsScheduler`] — the [`CircuitView`](osmosis_sim::CircuitView)
//!   implementation that plans a frame of permutations per TM roll and
//!   charges guard slots only on actual reconfigurations;
//! * [`OcsSwitch`] — the circuit-switched edge datapath (VOQ ingress,
//!   one cell per lit circuit per slot, deterministic collision
//!   resolution under stuck-circuit faults).
//!
//! The mode rides the engine's fourth observation plane: attaching a
//! scheduler costs nothing when absent, and an absent plan leaves every
//! packet-mode fingerprint bit-identical (pinned in
//! `tests/fingerprint_pins.rs`).

#![deny(missing_docs)]

pub mod bvn;
pub mod epoch;
pub mod sched;
pub mod switch;
pub mod tm;

pub use bvn::{BvnDecomposition, BvnTerm};
pub use epoch::{guard_slots_for, EpochConfig};
pub use sched::{EpochRecord, OcsScheduler};
pub use switch::OcsSwitch;
pub use tm::{TmEstimator, TmRecorder};

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;
    use osmosis_sim::engine::{Engine, EngineConfig};
    use osmosis_sim::{Extra, SeedSequence};
    use osmosis_switch::Driven;
    use osmosis_traffic::BernoulliUniform;

    #[test]
    fn a_circuit_run_produces_epoch_extras_and_logs_every_epoch() {
        let mut tr = BernoulliUniform::new(8, 0.4, &SeedSequence::new(2));
        let mut sched = OcsScheduler::new(EpochConfig::osmosis_default());
        let r = Engine::new(&EngineConfig::new(500, 5_000).with_seed(2))
            .circuits(Some(&mut sched))
            .run(&mut Driven::new(&mut OcsSwitch::new(8), &mut tr));
        let epochs = r.extra(Extra::OcsEpochs).unwrap_or(0.0);
        // 5500 slots / 64-slot epochs ⇒ 86 epochs.
        assert!(epochs > 80.0, "epochs {epochs}");
        assert!(r.extra(Extra::OcsReconfigurations).is_some());
        assert!(r.extra(Extra::OcsMeanUtilization).is_some());
        assert_eq!(sched.epoch_log().len() as f64, epochs);
    }
}
