//! The seeded fault injector: plays a [`FaultPlan`] against an engine run.

use osmosis_sim::{EngineConfig, EngineReport, Extra, FaultView, SeedSequence, SimRng};

use crate::plan::{FaultKind, FaultPlan, FaultSchedule, LINK_ANY};

/// One inject/heal transition in the deterministic fault trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTransition {
    /// Slot at which the transition took effect.
    pub slot: u64,
    /// Index of the plan entry that transitioned.
    pub entry: usize,
    /// `true` = fault injected, `false` = fault healed.
    pub active: bool,
}

/// Deterministic, seeded [`FaultView`] implementation.
///
/// The injector derives two independent RNG streams from the run's
/// `EngineConfig::seed`:
///
/// * `"fault-schedule"` drives MTBF/MTTR sampling for
///   [`FaultSchedule::Stochastic`] entries. It is consumed only inside
///   [`begin_slot`](FaultView::begin_slot), so the fault *timeline* is a
///   function of the seed alone — independent of how the model behaves.
/// * `"fault-events"` drives the per-grant / per-credit / per-cell
///   Bernoulli draws. Its consumption order follows the model's (itself
///   deterministic) query order.
///
/// Same seed + same plan ⇒ same transitions ([`events`](Self::events))
/// and same event draws, across every model.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    schedule_rng: SimRng,
    event_rng: SimRng,
    /// Per-entry live state.
    active: Vec<bool>,
    next_change: Vec<Option<u64>>,
    activated_at: Vec<u64>,
    /// Aggregated views over the currently active entries, recomputed on
    /// each transition so the hot-path queries stay O(1).
    blocked: Vec<bool>,
    recv_down: Vec<usize>,
    planes_down: Vec<bool>,
    circuits_stuck: Vec<bool>,
    dead_lines: Vec<bool>,
    /// Whether the latest `begin_slot` injected or healed anything.
    changed: bool,
    grant_loss_p: f64,
    credit_drop_p: f64,
    link_any_p: f64,
    link_p: Vec<f64>,
    /// Counters surfaced as report extras.
    injected: u64,
    healed: u64,
    repair_slots_total: u64,
    active_slots: u64,
    grants_lost: u64,
    credits_dropped: u64,
    cells_corrupted: u64,
    events: Vec<FaultTransition>,
}

impl FaultInjector {
    /// Build an injector for `plan`. It is inert until the engine (or a
    /// test) calls [`configure`](FaultView::configure).
    pub fn new(plan: FaultPlan) -> Self {
        let n = plan.len();
        FaultInjector {
            plan,
            schedule_rng: SimRng::seed_from_u64(0),
            event_rng: SimRng::seed_from_u64(0),
            active: vec![false; n],
            next_change: vec![None; n],
            activated_at: vec![0; n],
            blocked: Vec::new(),
            recv_down: Vec::new(),
            planes_down: Vec::new(),
            circuits_stuck: Vec::new(),
            dead_lines: Vec::new(),
            changed: false,
            grant_loss_p: 0.0,
            credit_drop_p: 0.0,
            link_any_p: 0.0,
            link_p: Vec::new(),
            injected: 0,
            healed: 0,
            repair_slots_total: 0,
            active_slots: 0,
            grants_lost: 0,
            credits_dropped: 0,
            cells_corrupted: 0,
            events: Vec::new(),
        }
    }

    /// The plan being played.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The inject/heal trace so far, in slot order. Deterministic in
    /// (plan, seed); determinism tests compare this across runs.
    pub fn events(&self) -> &[FaultTransition] {
        &self.events
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected
    }

    /// Faults healed so far.
    pub fn faults_healed(&self) -> u64 {
        self.healed
    }

    /// An exponential delay in whole slots, at least 1.
    fn exp_slots(rng: &mut SimRng, mean: f64) -> u64 {
        (rng.exponential(mean).round() as u64).max(1)
    }

    /// Recompute the aggregate fault state from the active entries.
    fn recompute(&mut self) {
        self.blocked.iter_mut().for_each(|b| *b = false);
        self.recv_down.iter_mut().for_each(|r| *r = 0);
        self.planes_down.iter_mut().for_each(|p| *p = false);
        self.circuits_stuck.iter_mut().for_each(|c| *c = false);
        self.dead_lines.iter_mut().for_each(|d| *d = false);
        self.link_p.iter_mut().for_each(|p| *p = 0.0);
        self.grant_loss_p = 0.0;
        self.credit_drop_p = 0.0;
        self.link_any_p = 0.0;
        for (i, entry) in self.plan.entries().iter().enumerate() {
            if !self.active[i] {
                continue;
            }
            match entry.kind {
                FaultKind::SoaStuckOff { output } => {
                    grow(&mut self.blocked, output, false);
                    self.blocked[output] = true;
                }
                FaultKind::ReceiverDeath { output } => {
                    grow(&mut self.recv_down, output, 0);
                    self.recv_down[output] += 1;
                }
                FaultKind::WavelengthLoss { plane } => {
                    grow(&mut self.planes_down, plane, false);
                    self.planes_down[plane] = true;
                }
                FaultKind::CircuitStuck { input } => {
                    grow(&mut self.circuits_stuck, input, false);
                    self.circuits_stuck[input] = true;
                }
                FaultKind::DelayLineDead { line } => {
                    grow(&mut self.dead_lines, line, false);
                    self.dead_lines[line] = true;
                }
                FaultKind::GrantLoss { prob } => {
                    self.grant_loss_p = combine(self.grant_loss_p, prob);
                }
                FaultKind::CreditDrop { prob } => {
                    self.credit_drop_p = combine(self.credit_drop_p, prob);
                }
                FaultKind::LinkBerBurst {
                    link,
                    cell_error_prob,
                } => {
                    if link == LINK_ANY {
                        self.link_any_p = combine(self.link_any_p, cell_error_prob);
                    } else {
                        grow(&mut self.link_p, link, 0.0);
                        self.link_p[link] = combine(self.link_p[link], cell_error_prob);
                    }
                }
            }
        }
    }
}

/// Combine independent loss probabilities: 1 − ∏(1 − pᵢ).
fn combine(a: f64, b: f64) -> f64 {
    1.0 - (1.0 - a) * (1.0 - b)
}

/// Grow `v` (filling with `fill`) so that index `i` is addressable.
fn grow<T: Clone>(v: &mut Vec<T>, i: usize, fill: T) {
    if v.len() <= i {
        v.resize(i + 1, fill);
    }
}

impl FaultView for FaultInjector {
    fn configure(&mut self, cfg: &EngineConfig) {
        let seq = SeedSequence::new(cfg.seed);
        self.schedule_rng = seq.stream("fault-schedule", 0);
        self.event_rng = seq.stream("fault-events", 0);
        let n = self.plan.len();
        self.active = vec![false; n];
        self.activated_at = vec![0; n];
        self.next_change = self
            .plan
            .entries()
            .iter()
            .map(|e| match e.schedule {
                FaultSchedule::OneShot { at, .. } => Some(at),
                FaultSchedule::Periodic { phase, .. } => Some(phase),
                FaultSchedule::Stochastic { mtbf, .. } => {
                    Some(Self::exp_slots(&mut self.schedule_rng, mtbf))
                }
            })
            .collect();
        self.injected = 0;
        self.healed = 0;
        self.repair_slots_total = 0;
        self.active_slots = 0;
        self.grants_lost = 0;
        self.credits_dropped = 0;
        self.cells_corrupted = 0;
        self.events.clear();
        self.recompute();
    }

    fn begin_slot(&mut self, slot: u64) {
        let mut changed = false;
        for i in 0..self.plan.len() {
            // Catch up on every transition due at or before `slot`; the
            // engine calls per slot, but sparse calls (tests, doctests)
            // replay the intervening schedule faithfully.
            while let Some(t) = self.next_change[i] {
                if t > slot {
                    break;
                }
                changed = true;
                let schedule = self.plan.entries()[i].schedule;
                if !self.active[i] {
                    self.active[i] = true;
                    self.activated_at[i] = t;
                    self.injected += 1;
                    self.events.push(FaultTransition {
                        slot: t,
                        entry: i,
                        active: true,
                    });
                    self.next_change[i] = match schedule {
                        FaultSchedule::OneShot { repair_after, .. } => repair_after.map(|d| t + d),
                        FaultSchedule::Periodic { duration, .. } => Some(t + duration),
                        FaultSchedule::Stochastic { mttr, .. } => {
                            Some(t + Self::exp_slots(&mut self.schedule_rng, mttr))
                        }
                    };
                } else {
                    self.active[i] = false;
                    self.healed += 1;
                    self.repair_slots_total += t - self.activated_at[i];
                    self.events.push(FaultTransition {
                        slot: t,
                        entry: i,
                        active: false,
                    });
                    self.next_change[i] = match schedule {
                        FaultSchedule::OneShot { .. } => None,
                        FaultSchedule::Periodic {
                            period, duration, ..
                        } => Some(t + period - duration),
                        FaultSchedule::Stochastic { mtbf, .. } => {
                            Some(t + Self::exp_slots(&mut self.schedule_rng, mtbf))
                        }
                    };
                }
            }
        }
        if changed {
            self.recompute();
        }
        self.changed = changed;
        if self.active.iter().any(|&a| a) {
            self.active_slots += 1;
        }
    }

    fn is_vacuous(&self) -> bool {
        self.plan.is_empty()
    }

    fn state_changed(&self) -> bool {
        self.changed
    }

    fn output_blocked(&self, output: usize) -> bool {
        self.blocked.get(output).copied().unwrap_or(false)
    }

    fn receivers_down(&self, output: usize) -> usize {
        self.recv_down.get(output).copied().unwrap_or(0)
    }

    fn plane_down(&self, plane: usize) -> bool {
        self.planes_down.get(plane).copied().unwrap_or(false)
    }

    fn circuit_stuck(&self, input: usize) -> bool {
        self.circuits_stuck.get(input).copied().unwrap_or(false)
    }

    fn delay_line_dead(&self, line: usize) -> bool {
        self.dead_lines.get(line).copied().unwrap_or(false)
    }

    fn grant_lost(&mut self, _input: usize, _output: usize) -> bool {
        if self.grant_loss_p <= 0.0 {
            return false;
        }
        let lost = self.event_rng.coin(self.grant_loss_p);
        if lost {
            self.grants_lost += 1;
        }
        lost
    }

    fn credit_dropped(&mut self, _node: usize, _port: usize) -> bool {
        if self.credit_drop_p <= 0.0 {
            return false;
        }
        let dropped = self.event_rng.coin(self.credit_drop_p);
        if dropped {
            self.credits_dropped += 1;
        }
        dropped
    }

    fn cell_corrupted(&mut self, link: usize) -> bool {
        let specific = self.link_p.get(link).copied().unwrap_or(0.0);
        let p = combine(self.link_any_p, specific);
        if p <= 0.0 {
            return false;
        }
        let corrupted = self.event_rng.coin(p);
        if corrupted {
            self.cells_corrupted += 1;
        }
        corrupted
    }

    fn finish(&mut self, report: &mut EngineReport) {
        report.set_extra(Extra::FaultsInjected, self.injected as f64);
        report.set_extra(Extra::FaultsHealed, self.healed as f64);
        report.set_extra(Extra::FaultActiveSlots, self.active_slots as f64);
        report.set_extra(Extra::FaultRepairSlotsTotal, self.repair_slots_total as f64);
        report.set_extra(Extra::FaultGrantsLost, self.grants_lost as f64);
        report.set_extra(Extra::FaultCreditsDropped, self.credits_dropped as f64);
        report.set_extra(Extra::FaultCellsCorrupted, self.cells_corrupted as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> EngineConfig {
        EngineConfig::new(0, 10_000).with_seed(seed)
    }

    #[test]
    fn empty_plan_is_vacuous() {
        let inj = FaultInjector::new(FaultPlan::new());
        assert!(inj.is_vacuous());
    }

    #[test]
    fn circuit_stuck_tracks_its_schedule() {
        let plan = FaultPlan::new().one_shot(FaultKind::CircuitStuck { input: 2 }, 50, Some(20));
        let mut inj = FaultInjector::new(plan);
        inj.configure(&cfg(1));
        assert!(!inj.is_vacuous());

        inj.begin_slot(49);
        assert!(!inj.circuit_stuck(2));
        inj.begin_slot(50);
        assert!(inj.circuit_stuck(2));
        assert!(!inj.circuit_stuck(1), "other inputs unaffected");
        assert!(!inj.output_blocked(2), "orthogonal to packet-mode faults");
        inj.begin_slot(70);
        assert!(!inj.circuit_stuck(2), "healed at at + repair_after");
    }

    #[test]
    fn delay_line_death_tracks_its_schedule() {
        let plan = FaultPlan::new().one_shot(FaultKind::DelayLineDead { line: 7 }, 30, Some(15));
        let mut inj = FaultInjector::new(plan);
        inj.configure(&cfg(1));
        inj.begin_slot(29);
        assert!(!inj.delay_line_dead(7));
        assert!(!inj.state_changed());
        inj.begin_slot(30);
        assert!(inj.delay_line_dead(7));
        assert!(inj.state_changed(), "the injection slot");
        inj.begin_slot(31);
        assert!(!inj.state_changed(), "steady while the fault holds");
        assert!(!inj.delay_line_dead(6), "other lines unaffected");
        assert!(!inj.circuit_stuck(7), "orthogonal to circuit faults");
        inj.begin_slot(45);
        assert!(!inj.delay_line_dead(7), "healed at at + repair_after");
        assert!(inj.state_changed(), "the repair slot");
    }

    #[test]
    fn one_shot_injects_and_heals_on_schedule() {
        let plan = FaultPlan::new().one_shot(FaultKind::SoaStuckOff { output: 4 }, 100, Some(40));
        let mut inj = FaultInjector::new(plan);
        inj.configure(&cfg(1));
        assert!(!inj.is_vacuous());

        inj.begin_slot(99);
        assert!(!inj.output_blocked(4));
        inj.begin_slot(100);
        assert!(inj.output_blocked(4));
        assert!(!inj.output_blocked(3), "other outputs unaffected");
        inj.begin_slot(139);
        assert!(inj.output_blocked(4));
        inj.begin_slot(140);
        assert!(!inj.output_blocked(4), "healed at at + repair_after");

        assert_eq!(inj.faults_injected(), 1);
        assert_eq!(inj.faults_healed(), 1);
        assert_eq!(
            inj.events(),
            &[
                FaultTransition {
                    slot: 100,
                    entry: 0,
                    active: true
                },
                FaultTransition {
                    slot: 140,
                    entry: 0,
                    active: false
                },
            ]
        );
    }

    #[test]
    fn permanent_fault_never_heals() {
        let plan = FaultPlan::new().permanent(FaultKind::WavelengthLoss { plane: 1 }, 10);
        let mut inj = FaultInjector::new(plan);
        inj.configure(&cfg(1));
        inj.begin_slot(1_000_000);
        assert!(inj.plane_down(1));
        assert_eq!(inj.faults_healed(), 0);
    }

    #[test]
    fn periodic_fault_repeats_each_period() {
        let plan = FaultPlan::new().periodic(FaultKind::ReceiverDeath { output: 0 }, 5, 100, 20);
        let mut inj = FaultInjector::new(plan);
        inj.configure(&cfg(1));
        let mut active_slots = Vec::new();
        for slot in 0..300 {
            inj.begin_slot(slot);
            if inj.receivers_down(0) > 0 {
                active_slots.push(slot);
            }
        }
        // Active during [5,25), [105,125), [205,225).
        assert_eq!(active_slots.len(), 60);
        assert!(active_slots.contains(&5) && active_slots.contains(&24));
        assert!(!active_slots.contains(&25) && active_slots.contains(&105));
        assert_eq!(inj.faults_injected(), 3);
        assert_eq!(inj.faults_healed(), 3);
    }

    #[test]
    fn stochastic_trace_is_seed_deterministic() {
        let plan =
            || FaultPlan::new().stochastic(FaultKind::SoaStuckOff { output: 2 }, 400.0, 100.0);
        let run = |seed: u64| {
            let mut inj = FaultInjector::new(plan());
            inj.configure(&cfg(seed));
            for slot in 0..20_000 {
                inj.begin_slot(slot);
            }
            inj.events().to_vec()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same fault trace");
        assert!(
            a.len() >= 4,
            "20k slots at MTBF 400 should cycle many times"
        );
        let c = run(8);
        assert_ne!(a, c, "different seed, different fault trace");
    }

    #[test]
    fn overlapping_probabilistic_faults_combine() {
        let plan = FaultPlan::new()
            .permanent(FaultKind::GrantLoss { prob: 1.0 }, 0)
            .permanent(FaultKind::CreditDrop { prob: 1.0 }, 0)
            .permanent(
                FaultKind::LinkBerBurst {
                    link: LINK_ANY,
                    cell_error_prob: 0.5,
                },
                0,
            )
            .permanent(
                FaultKind::LinkBerBurst {
                    link: 3,
                    cell_error_prob: 0.5,
                },
                0,
            );
        let mut inj = FaultInjector::new(plan);
        inj.configure(&cfg(3));
        inj.begin_slot(0);
        assert!(inj.grant_lost(0, 0), "p = 1 always loses");
        assert!(inj.credit_dropped(0, 0));
        // Link 3 sees 1 − (1 − 0.5)² = 0.75; other links see 0.5.
        let trials = 40_000;
        let hits3 = (0..trials).filter(|_| inj.cell_corrupted(3)).count();
        let hits9 = (0..trials).filter(|_| inj.cell_corrupted(9)).count();
        let f3 = hits3 as f64 / trials as f64;
        let f9 = hits9 as f64 / trials as f64;
        assert!((f3 - 0.75).abs() < 0.02, "combined link prob {f3}");
        assert!((f9 - 0.50).abs() < 0.02, "wildcard-only link prob {f9}");
    }

    #[test]
    fn inactive_faults_draw_nothing() {
        let plan = FaultPlan::new().one_shot(FaultKind::GrantLoss { prob: 1.0 }, 100, Some(10));
        let mut inj = FaultInjector::new(plan);
        inj.configure(&cfg(5));
        inj.begin_slot(50);
        assert!(!inj.grant_lost(0, 0), "not active yet");
        inj.begin_slot(100);
        assert!(inj.grant_lost(0, 0));
        inj.begin_slot(110);
        assert!(!inj.grant_lost(0, 0), "healed");
    }

    #[test]
    fn configure_fully_resets_for_reuse() {
        let plan = FaultPlan::new()
            .one_shot(FaultKind::SoaStuckOff { output: 0 }, 10, Some(5))
            .stochastic(FaultKind::CreditDrop { prob: 0.3 }, 200.0, 50.0);
        let mut inj = FaultInjector::new(plan);
        let run = |inj: &mut FaultInjector| {
            inj.configure(&cfg(11));
            for slot in 0..5_000 {
                inj.begin_slot(slot);
                let _ = inj.credit_dropped(0, 0);
            }
            (inj.events().to_vec(), inj.credits_dropped)
        };
        let first = run(&mut inj);
        let second = run(&mut inj);
        assert_eq!(first, second, "reconfigure replays the identical run");
    }

    #[test]
    fn finish_surfaces_counters_as_extras() {
        let plan = FaultPlan::new().one_shot(FaultKind::GrantLoss { prob: 1.0 }, 0, Some(10));
        let mut inj = FaultInjector::new(plan);
        inj.configure(&cfg(2));
        inj.begin_slot(0);
        assert!(inj.grant_lost(0, 1));
        inj.begin_slot(10);
        let mut report = EngineReport::default();
        inj.finish(&mut report);
        assert_eq!(report.extra(Extra::FaultsInjected), Some(1.0));
        assert_eq!(report.extra(Extra::FaultsHealed), Some(1.0));
        assert_eq!(report.extra(Extra::FaultGrantsLost), Some(1.0));
        assert_eq!(report.extra(Extra::FaultRepairSlotsTotal), Some(10.0));
        assert_eq!(report.extra(Extra::FaultActiveSlots), Some(1.0));
    }
}
