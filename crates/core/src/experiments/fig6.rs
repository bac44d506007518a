//! Fig. 6 — FLPPR request-to-grant latency vs. the prior pipelined art.
//!
//! The paper's timeline: a transmit request for packet k issued in packet
//! cycle i is granted by FLPPR in cycle i+1, while the previous state of
//! the art grants it only after log₂N cycles (i+6 for 64 ports).

use osmosis_sched::{log2_ceil, CellScheduler, Flppr, PipelinedArbiter};

/// The measured timeline.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Port count.
    pub ports: usize,
    /// Pipeline depth (log₂N).
    pub depth: usize,
    /// Cycles from request to grant, FLPPR, per pipeline phase at which
    /// the request arrives.
    pub flppr_latency_by_phase: Vec<u64>,
    /// Same for the prior-art pipelined arbiter.
    pub prior_art_latency_by_phase: Vec<u64>,
}

#[expect(
    clippy::panic,
    reason = "64 cycles bounds every FLPPR pipeline depth in the sweep; reaching the end means the scheduler livelocked"
)]
fn grant_latency(sched: &mut dyn CellScheduler, phase: u64) -> u64 {
    for t in 0..=phase {
        assert!(sched.tick(t).is_empty(), "idle switch must stay idle");
    }
    // The request is issued during cycle `phase`.
    sched.note_arrival(7 % sched.inputs(), 3 % sched.outputs());
    for t in (phase + 1)..(phase + 64) {
        if !sched.tick(t).is_empty() {
            return t - phase;
        }
    }
    panic!("grant never issued");
}

/// Run the Fig. 6 experiment for an N-port switch.
pub fn run(ports: usize) -> Fig6Result {
    let depth = log2_ceil(ports);
    let mut flppr = Vec::with_capacity(depth);
    let mut prior = Vec::with_capacity(depth);
    for phase in 0..depth as u64 {
        let mut f = Flppr::osmosis(ports, 1);
        flppr.push(grant_latency(&mut f, phase));
        let mut p = PipelinedArbiter::log2n(ports, 1);
        prior.push(grant_latency(&mut p, phase));
    }
    Fig6Result {
        ports,
        depth,
        flppr_latency_by_phase: flppr,
        prior_art_latency_by_phase: prior,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timeline_64_ports() {
        let r = run(64);
        assert_eq!(r.depth, 6);
        // FLPPR: a single packet cycle from request to grant, from every
        // pipeline phase.
        assert!(
            r.flppr_latency_by_phase.iter().all(|&l| l == 1),
            "{:?}",
            r.flppr_latency_by_phase
        );
        // Prior art: the full log₂N pipeline depth.
        assert!(
            r.prior_art_latency_by_phase.iter().all(|&l| l == 6),
            "{:?}",
            r.prior_art_latency_by_phase
        );
    }

    #[test]
    fn contrast_holds_at_other_radixes() {
        for ports in [16usize, 32, 128] {
            let r = run(ports);
            let depth = r.depth as u64;
            assert!(r.flppr_latency_by_phase.iter().all(|&l| l == 1));
            assert!(r.prior_art_latency_by_phase.iter().all(|&l| l == depth));
        }
    }
}
