//! The epoch scheduler: a [`CircuitView`] implementation that plans
//! circuit configurations frame by frame from the estimated traffic
//! matrix.
//!
//! Per slot the engine advances the scheduler (`begin_slot`) *before*
//! the model's phases, so the circuit state a model queries through
//! `Observer::circuit_for` is already this slot's. On an epoch boundary
//! the scheduler:
//!
//! 1. if the frame queue is empty, rolls the TM estimator, decomposes
//!    the (diagonal-free) estimate with
//!    [`bvn::decompose`], and apportions the
//!    frame's epochs over the terms by largest-remainder — a term
//!    carrying half the demand holds its circuits for half the frame;
//! 2. pops the next epoch's permutation; if it differs from the one
//!    currently lit, the epoch opens with `guard_slots` dark slots
//!    (the reconfiguration tax) — an unchanged permutation pays nothing;
//! 3. appends an [`EpochRecord`] to the in-memory log
//!    ([`OcsScheduler::epoch_log`]).
//!
//! With an empty estimate (cold start, or genuinely idle traffic) the
//! frame falls back to a *rotor* schedule: round-robin permutations
//! `i → (i + offset) mod n`, offset cycling `1..n`, which never
//! schedules a self-loop and gives every pair periodic connectivity —
//! the demand-oblivious baseline of rotor/RotorNet-style fabrics.
//!
//! The scheduler holds no RNG: every decision is a pure function of the
//! arrival stream it was fed, so same seed ⇒ bit-identical schedule.

use crate::bvn;
use crate::epoch::EpochConfig;
use crate::tm::TmEstimator;
use osmosis_sim::engine::{EngineConfig, EngineReport};
use osmosis_sim::{CircuitView, Extra};
use std::collections::VecDeque;

/// An input whose circuit is dark (not connected this epoch).
const DARK: usize = usize::MAX;

/// One epoch as the scheduler saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Epoch ordinal within the run (0-based).
    pub epoch: u64,
    /// Slot at which the epoch opened.
    pub start_slot: u64,
    /// Whether the configuration changed at this boundary.
    pub reconfigured: bool,
    /// Inputs whose circuit changed (0 when not reconfigured).
    pub changed_circuits: u64,
    /// Guard slots charged at this boundary.
    pub guard_slots: u64,
    /// Cells transferred over the epoch's circuits.
    pub transfers: u64,
    /// `transfers / (n × payload slots)` — circuit utilization.
    pub utilization: f64,
}

/// The frame-planning circuit scheduler.
pub struct OcsScheduler {
    cfg: EpochConfig,
    n: usize,
    tm: TmEstimator,
    frame: VecDeque<Vec<usize>>,
    current: Vec<usize>,
    guard_left: u64,
    in_guard_now: bool,
    slot_in_epoch: u64,
    epoch_index: u64,
    rotor_offset: usize,
    log: Vec<EpochRecord>,
    epoch_transfers: u64,
    total_transfers: u64,
    reconfigurations: u64,
    changed_total: u64,
    guard_paid: u64,
    bvn_terms_total: u64,
    decompositions: u64,
    rotor_frames: u64,
}

impl OcsScheduler {
    /// A scheduler with the given cadence; port count is learned from
    /// the engine at `configure`.
    pub fn new(cfg: EpochConfig) -> Self {
        OcsScheduler {
            cfg,
            n: 0,
            tm: TmEstimator::new(0),
            frame: VecDeque::new(),
            current: Vec::new(),
            guard_left: 0,
            in_guard_now: false,
            slot_in_epoch: 0,
            epoch_index: 0,
            rotor_offset: 1,
            log: Vec::new(),
            epoch_transfers: 0,
            total_transfers: 0,
            reconfigurations: 0,
            changed_total: 0,
            guard_paid: 0,
            bvn_terms_total: 0,
            decompositions: 0,
            rotor_frames: 0,
        }
    }

    /// The cadence this scheduler runs.
    pub fn config(&self) -> &EpochConfig {
        &self.cfg
    }

    /// The per-epoch log (closed epochs have final transfer counts; the
    /// last entry is finalized by `finish`).
    pub fn epoch_log(&self) -> &[EpochRecord] {
        &self.log
    }

    /// Epochs opened so far.
    pub fn epochs(&self) -> u64 {
        self.epoch_index
    }

    /// Reconfigurations performed so far.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// The TM estimator state (for inspection/tests).
    pub fn estimator(&self) -> &TmEstimator {
        &self.tm
    }

    /// Close the open epoch record with its transfer count.
    fn close_epoch_record(&mut self) {
        let n = self.n;
        let epoch_slots = self.cfg.epoch_slots;
        if let Some(rec) = self.log.last_mut() {
            rec.transfers = self.epoch_transfers;
            let payload = epoch_slots.saturating_sub(rec.guard_slots);
            let capacity = (n as u64) * payload;
            rec.utilization = if capacity > 0 {
                rec.transfers as f64 / capacity as f64
            } else {
                0.0
            };
        }
        self.epoch_transfers = 0;
    }

    /// One rotor permutation `i → (i + offset) mod n`, then advance the
    /// offset through `1..n` (skipping 0: never a self-loop).
    fn rotor_perm(&mut self) -> Vec<usize> {
        let n = self.n;
        if n < 2 {
            return vec![DARK; n];
        }
        let off = self.rotor_offset;
        let perm = (0..n).map(|i| (i + off) % n).collect();
        self.rotor_offset = if off + 1 >= n { 1 } else { off + 1 };
        perm
    }

    /// Plan the next frame of epoch permutations from the demand
    /// estimate (rotor fallback when the estimate is empty).
    fn plan_frame(&mut self) {
        let n = self.n;
        self.tm.roll();
        // Self-traffic never crosses the fabric: zero the diagonal so
        // the decomposition spends no weight on it.
        let mut demand = self.tm.estimate().to_vec();
        for i in 0..n {
            demand[i * n + i] = 0;
        }
        let dec = bvn::decompose(n, &demand);
        self.decompositions += 1;
        self.bvn_terms_total += dec.terms.len() as u64;
        if dec.terms.is_empty() || dec.target == 0 {
            self.rotor_frames += 1;
            for _ in 0..self.cfg.frame_epochs {
                let p = self.rotor_perm();
                self.frame.push_back(p);
            }
            return;
        }
        // Largest-remainder apportionment of the frame's epochs over the
        // terms, proportional to weight. Floors first, then the leftover
        // epochs go to the largest remainders (ties to the lower index —
        // deterministic).
        let f = self.cfg.frame_epochs as u64;
        let total = dec.total_weight();
        let mut quota: Vec<u64> = dec.terms.iter().map(|t| f * t.weight / total).collect();
        let mut rem: Vec<(u64, usize)> = dec
            .terms
            .iter()
            .enumerate()
            .map(|(k, t)| ((f * t.weight) % total, k))
            .collect();
        let assigned: u64 = quota.iter().sum();
        let mut leftover = f.saturating_sub(assigned);
        rem.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, k) in rem.iter() {
            if leftover == 0 {
                break;
            }
            quota[k] += 1;
            leftover -= 1;
        }
        for (k, t) in dec.terms.iter().enumerate() {
            for _ in 0..quota[k] {
                self.frame.push_back(t.perm.clone());
            }
        }
        if self.frame.is_empty() {
            // Defensive: an empty apportionment degrades to rotor.
            let p = self.rotor_perm();
            self.frame.push_back(p);
        }
    }

    /// Open a new epoch at `slot`.
    fn start_epoch(&mut self, slot: u64) {
        if self.epoch_index > 0 {
            self.close_epoch_record();
        }
        if self.frame.is_empty() {
            self.plan_frame();
        }
        let next = match self.frame.pop_front() {
            Some(p) => p,
            None => vec![DARK; self.n],
        };
        let changed = next
            .iter()
            .zip(self.current.iter())
            .filter(|(a, b)| a != b)
            .count() as u64;
        let reconfigured = changed > 0;
        let guard = if reconfigured {
            self.cfg.guard_slots
        } else {
            0
        };
        if reconfigured {
            self.guard_left = guard;
            self.reconfigurations += 1;
            self.changed_total += changed;
        }
        self.current = next;
        self.log.push(EpochRecord {
            epoch: self.epoch_index,
            start_slot: slot,
            reconfigured,
            changed_circuits: changed,
            guard_slots: guard,
            transfers: 0,
            utilization: 0.0,
        });
        self.epoch_index += 1;
    }
}

impl CircuitView for OcsScheduler {
    fn configure(&mut self, _cfg: &EngineConfig, ports: usize) {
        self.n = ports;
        self.tm = TmEstimator::new(ports);
        self.frame.clear();
        self.current = vec![DARK; ports];
        self.guard_left = 0;
        self.in_guard_now = false;
        self.slot_in_epoch = 0;
        self.epoch_index = 0;
        self.rotor_offset = 1;
        self.log.clear();
        self.epoch_transfers = 0;
        self.total_transfers = 0;
        self.reconfigurations = 0;
        self.changed_total = 0;
        self.guard_paid = 0;
        self.bvn_terms_total = 0;
        self.decompositions = 0;
        self.rotor_frames = 0;
    }

    fn begin_slot(&mut self, slot: u64) {
        if self.n == 0 {
            return;
        }
        if self.slot_in_epoch == 0 {
            self.start_epoch(slot);
        }
        self.in_guard_now = self.guard_left > 0;
        if self.guard_left > 0 {
            self.guard_left -= 1;
            self.guard_paid += 1;
        }
        self.slot_in_epoch += 1;
        if self.slot_in_epoch == self.cfg.epoch_slots {
            self.slot_in_epoch = 0;
        }
    }

    fn is_vacuous(&self) -> bool {
        // A scheduler is always a real plan: it reconfigures circuits
        // from the very first epoch (rotor if nothing is known yet).
        false
    }

    fn note_arrival(&mut self, src: usize, dst: usize) {
        self.tm.note(src, dst);
    }

    fn note_transfer(&mut self, _input: usize, _output: usize) {
        self.epoch_transfers += 1;
        self.total_transfers += 1;
    }

    fn circuit(&self, input: usize) -> Option<usize> {
        match self.current.get(input) {
            Some(&j) if j != DARK && j < self.n => Some(j),
            _ => None,
        }
    }

    fn in_guard(&self) -> bool {
        self.in_guard_now
    }

    fn finish(&mut self, report: &mut EngineReport) {
        self.close_epoch_record();
        report.set_extra(Extra::OcsEpochs, self.epoch_index as f64);
        report.set_extra(Extra::OcsReconfigurations, self.reconfigurations as f64);
        report.set_extra(Extra::OcsChangedCircuits, self.changed_total as f64);
        report.set_extra(Extra::OcsGuardSlotsPaid, self.guard_paid as f64);
        report.set_extra(Extra::OcsBvnTerms, self.bvn_terms_total as f64);
        report.set_extra(Extra::OcsDecompositions, self.decompositions as f64);
        report.set_extra(Extra::OcsRotorFrames, self.rotor_frames as f64);
        report.set_extra(Extra::OcsTransfers, self.total_transfers as f64);
        let mean_util = if self.log.is_empty() {
            0.0
        } else {
            self.log.iter().map(|r| r.utilization).sum::<f64>() / self.log.len() as f64
        };
        report.set_extra(Extra::OcsMeanUtilization, mean_util);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configured(n: usize, cfg: EpochConfig) -> OcsScheduler {
        let mut s = OcsScheduler::new(cfg);
        s.configure(&EngineConfig::new(0, 0), n);
        s
    }

    #[test]
    fn cold_start_uses_rotor_without_self_loops() {
        let mut s = configured(4, EpochConfig::new(8, 1, 4));
        s.begin_slot(0);
        for i in 0..4 {
            let c = s.circuit(i);
            assert!(c.is_some());
            assert_ne!(c, Some(i), "self-loop scheduled at input {i}");
        }
        assert!(s.in_guard(), "first epoch pays the guard");
        s.begin_slot(1);
        assert!(!s.in_guard(), "one guard slot at osmosis cadence");
    }

    #[test]
    fn epoch_boundaries_follow_the_cadence() {
        let mut s = configured(4, EpochConfig::new(8, 1, 2));
        for slot in 0..33 {
            s.begin_slot(slot);
        }
        // Slots 0..33 with 8-slot epochs ⇒ boundaries at 0,8,16,24,32.
        assert_eq!(s.epochs(), 5);
    }

    #[test]
    fn demand_drives_the_schedule() {
        // Feed a pure permutation demand; after the first (rotor) frame
        // the schedule must lock onto it.
        let cfg = EpochConfig::new(4, 1, 2);
        let mut s = configured(4, cfg);
        let want = [1usize, 0, 3, 2]; // 0↔1, 2↔3
        let mut slot = 0u64;
        // Two frames of slots, feeding demand throughout.
        for _ in 0..(4 * 2 * 2) {
            s.begin_slot(slot);
            for (src, &dst) in want.iter().enumerate() {
                s.note_arrival(src, dst);
            }
            slot += 1;
        }
        // By now the frame was planned from a rolled estimate.
        s.begin_slot(slot);
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(s.circuit(i), Some(w), "input {i}");
        }
    }

    #[test]
    fn unchanged_permutation_pays_no_guard() {
        // Single dominant permutation ⇒ consecutive epochs identical ⇒
        // only the first reconfiguration in each streak charges guard.
        let cfg = EpochConfig::new(4, 2, 4);
        let mut s = configured(4, cfg);
        let want = [1usize, 0, 3, 2];
        for slot in 0..(4 * 4 * 3) {
            s.begin_slot(slot);
            for (src, &dst) in want.iter().enumerate() {
                s.note_arrival(src, dst);
            }
        }
        // Some epochs reconfigured (rotor warmup + lock-on), but far
        // fewer than the number of epochs: steady frames are guard-free.
        assert!(s.reconfigurations() < s.epochs());
        let mut r = EngineReport::default();
        s.finish(&mut r);
        assert_eq!(r.extra(Extra::OcsEpochs), Some(s.epochs() as f64));
        assert!(r.extra(Extra::OcsGuardSlotsPaid).is_some());
    }

    #[test]
    fn log_records_transfers_and_utilization() {
        let mut s = configured(2, EpochConfig::new(4, 0, 1));
        for slot in 0..8 {
            s.begin_slot(slot);
            s.note_transfer(0, 1);
            s.note_transfer(1, 0);
        }
        let mut r = EngineReport::default();
        s.finish(&mut r);
        let log = s.epoch_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].transfers, 8); // 2 transfers × 4 slots
        assert!((log[0].utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_input_stream_gives_identical_schedules() {
        let run = || {
            let mut s = configured(8, EpochConfig::new(8, 1, 4));
            let mut circuits = Vec::new();
            for slot in 0..200u64 {
                s.begin_slot(slot);
                s.note_arrival((slot % 8) as usize, ((slot + 3) % 8) as usize);
                circuits.push((0..8).map(|i| s.circuit(i)).collect::<Vec<_>>());
            }
            (circuits, s.epochs(), s.reconfigurations())
        };
        assert_eq!(run(), run());
    }
}
