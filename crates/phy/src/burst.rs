//! Burst-mode receiving (§IV.C) and hierarchical synchronization.
//!
//! With an optical switch, a deserializer no longer faces a single static
//! transmitter: every cell may come from a different serializer with its
//! own phase (and, without a shared reference, frequency). The receiver
//! must re-lock at every cell boundary — "burst mode receiving (not to be
//! confused with burst switching)". OSMOSIS distributes a central
//! reference clock so only *phase* must be reacquired; §VII sketches a
//! dual-time-constant CDR (fast lock over the first bits, slow tracking
//! afterwards) to shrink this further.

use osmosis_sim::TimeDelta;

/// Clock-and-data-recovery configuration of a burst-mode receiver.
#[derive(Debug, Clone, Copy)]
pub struct BurstReceiver {
    /// Line rate in Gb/s.
    pub bit_rate_gbps: f64,
    /// Residual frequency offset between transmitter and receiver, in ppm.
    /// ~0 with central reference distribution; ±100 ppm free-running.
    pub freq_offset_ppm: f64,
    /// Preamble bits the phase interpolator needs for a phase-only lock.
    pub phase_lock_bits: u32,
    /// Whether the §VII dual-time-constant loop is fitted (fast initial
    /// time constant halves the phase-lock preamble).
    pub dual_time_constant: bool,
}

impl BurstReceiver {
    /// Demonstrator receiver: 40 Gb/s, central reference clock (≈0 ppm),
    /// 152-bit phase lock preamble → 3.8 ns.
    pub fn osmosis_default() -> Self {
        BurstReceiver {
            bit_rate_gbps: 40.0,
            freq_offset_ppm: 0.0,
            phase_lock_bits: 152,
            dual_time_constant: false,
        }
    }

    /// §VII outlook: dual time constant, 80-bit effective preamble.
    pub fn fast_outlook() -> Self {
        BurstReceiver {
            bit_rate_gbps: 40.0,
            freq_offset_ppm: 0.0,
            phase_lock_bits: 80,
            dual_time_constant: true,
        }
    }

    /// Effective preamble length in bits, including the frequency-search
    /// penalty when no central reference is distributed: ≈ 25 extra bits
    /// per ppm of offset (a frequency acquisition loop needs orders of
    /// magnitude longer than a phase-only lock).
    pub fn effective_lock_bits(&self) -> f64 {
        let base = if self.dual_time_constant {
            self.phase_lock_bits as f64 / 2.0
        } else {
            self.phase_lock_bits as f64
        };
        base + 25.0 * self.freq_offset_ppm.abs()
    }

    /// Time to reacquire lock at a cell boundary.
    pub fn lock_time(&self) -> TimeDelta {
        TimeDelta::from_ns_f64(self.effective_lock_bits() / self.bit_rate_gbps)
    }
}

/// Arrival-jitter model (ref. \[20\]): cells from all 64 ingress adapters
/// must hit the crossbar aligned within the guard window. The jitter
/// budget is dominated by cable-length mismatch plus residual clock skew.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalJitter {
    /// Worst-case cable length mismatch between any two ingress runs (m).
    pub cable_mismatch_m: f64,
    /// Residual skew of the distributed reference clock.
    pub clock_skew: TimeDelta,
}

impl ArrivalJitter {
    /// Demonstrator: cables trimmed to ±0.1 m, 0.6 ns clock skew.
    pub fn osmosis_default() -> Self {
        ArrivalJitter {
            cable_mismatch_m: 0.2,
            clock_skew: TimeDelta::from_ps(600),
        }
    }

    /// Total alignment window the guard time must absorb: mismatch flight
    /// time (5 ns/m) plus clock skew.
    pub fn window(&self) -> TimeDelta {
        TimeDelta::fiber_flight(self.cable_mismatch_m) + self.clock_skew
    }

    /// Hierarchical synchronization (ref. \[20\]) compensates static cable
    /// mismatch by per-port launch-time offsets, leaving only the skew.
    pub fn with_launch_compensation(&self) -> TimeDelta {
        self.clock_skew
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    #[test]
    fn demonstrator_lock_time_is_3_8ns() {
        let rx = BurstReceiver::osmosis_default();
        assert_eq!(rx.lock_time(), TimeDelta::from_ps(3_800));
    }

    #[test]
    fn dual_time_constant_halves_preamble() {
        let rx = BurstReceiver::fast_outlook();
        assert_eq!(rx.effective_lock_bits(), 40.0);
        assert_eq!(rx.lock_time(), TimeDelta::from_ps(1_000));
    }

    #[test]
    fn central_reference_clock_is_essential() {
        // Free-running ±100 ppm: the frequency search costs microseconds'
        // worth of bits — hopeless inside a 51.2 ns cell.
        let mut rx = BurstReceiver::osmosis_default();
        rx.freq_offset_ppm = 100.0;
        assert!(
            rx.lock_time() > TimeDelta::from_ns(60),
            "{}",
            rx.lock_time()
        );
        rx.freq_offset_ppm = 0.0;
        assert!(rx.lock_time() < TimeDelta::from_ns(4));
    }

    #[test]
    fn lock_time_scales_with_rate() {
        let slow = BurstReceiver {
            bit_rate_gbps: 10.0,
            ..BurstReceiver::osmosis_default()
        };
        let fast = BurstReceiver::osmosis_default();
        assert_eq!(slow.lock_time().as_ps(), fast.lock_time().as_ps() * 4);
    }

    #[test]
    fn jitter_window_and_compensation() {
        let j = ArrivalJitter::osmosis_default();
        assert_eq!(j.window(), TimeDelta::from_ps(1_600));
        assert_eq!(j.with_launch_compensation(), TimeDelta::from_ps(600));
    }

    #[test]
    fn jitter_matches_default_guard_budget() {
        // The guard.rs default uses 1.6 ns of arrival jitter — exactly this
        // model's uncompensated window.
        use crate::guard::GuardBudget;
        let j = ArrivalJitter::osmosis_default();
        assert_eq!(GuardBudget::osmosis_default().arrival_jitter, j.window());
    }

    #[test]
    fn guard_budget_composition_is_consistent() {
        // soa + lock + jitter from the component models = the 10.4 ns
        // budget used for the 75% user-bandwidth figure.
        use crate::components::SoaGate;
        use crate::guard::GuardBudget;
        let total = SoaGate::osmosis_default().switching_time
            + BurstReceiver::osmosis_default().lock_time()
            + ArrivalJitter::osmosis_default().window();
        assert_eq!(total, GuardBudget::osmosis_default().total());
    }
}
