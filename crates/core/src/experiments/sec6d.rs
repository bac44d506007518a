//! §VI.D — comparison with other switch architectures, as one table:
//! OSMOSIS (FLPPR, dual receiver) against every baseline the paper
//! names, on the axes Table 1 cares about: unloaded latency, saturated
//! throughput, ordering, and losslessness.

use super::Scale;
use osmosis_sched::Flppr;
use osmosis_sim::SeedSequence;
use osmosis_switch::{
    run_uniform, BurstSwitch, BvnSwitch, DeflectionSwitch, EngineConfig, EngineReport, FifoSwitch,
    OqSwitch,
};
use osmosis_traffic::BernoulliUniform;

/// One architecture's row.
#[derive(Debug, Clone)]
pub struct ArchRow {
    /// Architecture name as the paper refers to it.
    pub name: &'static str,
    /// Mean delay at 5% load (cell cycles).
    pub unloaded_delay: f64,
    /// Carried throughput at 98% offered load.
    pub saturated_throughput: f64,
    /// Reordered fraction at 70% load.
    pub reorder_fraction: f64,
    /// Whether the architecture refuses/loses traffic at high load
    /// (blocked injections or drops).
    pub blocks_or_drops: bool,
}

fn row(name: &'static str, mut run: impl FnMut(f64, u64) -> EngineReport, seed: u64) -> ArchRow {
    let unloaded = run(0.05, seed);
    let saturated = run(0.98, seed + 1);
    let mid = run(0.7, seed + 2);
    ArchRow {
        name,
        unloaded_delay: unloaded.mean_delay,
        saturated_throughput: saturated.throughput,
        reorder_fraction: mid.reordered as f64 / mid.delivered.max(1) as f64,
        blocks_or_drops: saturated.dropped > 0,
    }
}

/// Run the §VI.D comparison.
pub fn run(scale: Scale, seed: u64) -> Vec<ArchRow> {
    let n = scale.ports();
    let cfg = EngineConfig::new(scale.warmup(), scale.measure());
    let burst = 16u64;
    vec![
        row(
            "OSMOSIS (FLPPR, dual receiver)",
            |load, s| run_uniform(|| Box::new(Flppr::osmosis(n, 2)), load, &cfg.with_seed(s)),
            seed,
        ),
        row(
            "ideal output-queued (electronic, ref. [16])",
            |load, s| {
                let mut sw = OqSwitch::new(n);
                let mut tr = BernoulliUniform::new(n, load, &SeedSequence::new(s));
                sw.run(&mut tr, &cfg)
            },
            seed + 10,
        ),
        row(
            "burst/container switching (refs. [5][6])",
            |load, s| {
                let mut sw = BurstSwitch::new(n, burst, burst);
                let mut tr = BernoulliUniform::new(n, load, &SeedSequence::new(s));
                sw.run(&mut tr, &cfg)
            },
            seed + 20,
        ),
        row(
            "load-balanced Birkhoff-von Neumann (ref. [24])",
            |load, s| {
                let mut sw = BvnSwitch::new(n);
                let mut tr = BernoulliUniform::new(n, load, &SeedSequence::new(s));
                sw.run(&mut tr, &cfg)
            },
            seed + 30,
        ),
        row(
            "deflection routing / Data Vortex (ref. [10])",
            |load, s| {
                let mut sw = DeflectionSwitch::new(n, 4, s);
                let mut tr = BernoulliUniform::new(n, load, &SeedSequence::new(s));
                sw.run(&mut tr, &cfg)
            },
            seed + 40,
        ),
        row(
            "FIFO input queues (no VOQ)",
            |load, s| {
                let mut sw = FifoSwitch::new(n);
                let mut tr = BernoulliUniform::new(n, load, &SeedSequence::new(s));
                sw.run(&mut tr, &cfg)
            },
            seed + 50,
        ),
    ]
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    #[test]
    fn osmosis_dominates_on_every_table1_axis() {
        let rows = run(Scale::Quick, 0x6D);
        let osmosis = &rows[0];
        let burst = rows.iter().find(|r| r.name.contains("burst")).unwrap();
        let bvn = rows.iter().find(|r| r.name.contains("Birkhoff")).unwrap();
        let deflect = rows.iter().find(|r| r.name.contains("deflection")).unwrap();
        let fifo = rows.iter().find(|r| r.name.contains("FIFO")).unwrap();

        // Low latency: OSMOSIS ≈ 2 cycles; burst ≈ burst time; BvN ≈ N/2.
        assert!(osmosis.unloaded_delay < 3.0);
        assert!(burst.unloaded_delay > osmosis.unloaded_delay * 4.0);
        assert!(bvn.unloaded_delay > osmosis.unloaded_delay * 2.0);

        // Throughput: OSMOSIS > 95%; deflection and FIFO capped.
        assert!(osmosis.saturated_throughput > 0.95);
        assert!(deflect.saturated_throughput < 0.9);
        assert!(fifo.saturated_throughput < 0.75);

        // Ordering: OSMOSIS and burst keep order; BvN and deflection
        // do not.
        assert_eq!(osmosis.reorder_fraction, 0.0);
        assert_eq!(burst.reorder_fraction, 0.0);
        assert!(bvn.reorder_fraction > 0.0);
        assert!(deflect.reorder_fraction > 0.0);

        // Losslessness: only deflection blocks traffic.
        assert!(!osmosis.blocks_or_drops);
        assert!(deflect.blocks_or_drops);
    }
}
