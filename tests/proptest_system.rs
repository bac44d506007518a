//! Property-based tests at the system level: the switch and fabric
//! invariants (losslessness, ordering, throughput ≤ offered) hold for
//! arbitrary loads, seeds and topologies; the statistics kernels match
//! naive references.
#![expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]

use osmosis::fabric::{CompiledFabric, Placement, TopologySpec};
use osmosis::sched::Flppr;
use osmosis::sim::stats::{Histogram, Welford};
use osmosis::sim::SeedSequence;
use osmosis::switch::{run_uniform, EngineConfig};
use osmosis::traffic::{BernoulliUniform, Bursty, Hotspot, TrafficGen};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The OSMOSIS switch never drops, never reorders, and never carries
    /// more than offered — for arbitrary load and seed.
    #[test]
    fn switch_invariants(load in 0.01f64..0.97, seed in any::<u64>(), dual in any::<bool>()) {
        let r = run_uniform(
            || Box::new(Flppr::osmosis(8, if dual { 2 } else { 1 })),
            load,
            &EngineConfig::new(200, 2_000).with_seed(seed),
        );
        prop_assert_eq!(r.dropped, 0);
        prop_assert_eq!(r.reordered, 0);
        prop_assert!(r.throughput <= r.offered_load + 0.05);
        // Stable region: carried ≈ offered.
        if load < 0.9 {
            prop_assert!((r.throughput - r.offered_load).abs() < 0.05);
        }
    }

    /// Fabric invariants hold for arbitrary traffic shape and placement.
    #[test]
    fn fabric_invariants(
        load in 0.05f64..0.6,
        seed in any::<u64>(),
        placement_idx in 0usize..3,
        bursty in any::<bool>(),
    ) {
        let spec = TopologySpec::two_level(8)
            .with_buffer_cells(8)
            .with_iterations(2)
            .with_placement(Placement::ALL[placement_idx])
            .with_request_grant(1);
        let mut fab = CompiledFabric::new(spec);
        let hosts = spec.hosts() as usize;
        let seeds = SeedSequence::new(seed);
        let mut tr: Box<dyn TrafficGen> = if bursty {
            Box::new(Bursty::new(hosts, load, 8.0, &seeds))
        } else {
            Box::new(BernoulliUniform::new(hosts, load, &seeds))
        };
        // The sim panics internally on any buffer overflow (losslessness).
        let r = fab.run(tr.as_mut(), &EngineConfig::new(300, 2_500));
        prop_assert_eq!(r.reordered, 0);
        prop_assert!(r.max_queue_depth <= spec.buffer_cells());
        prop_assert!(r.throughput <= r.offered_load + 0.05);
    }

    /// Hotspot overload at arbitrary intensity never breaks losslessness
    /// or ordering anywhere in the fabric.
    #[test]
    fn fabric_hotspot_invariants(hot_frac in 0.1f64..0.9, seed in any::<u64>()) {
        let spec = TopologySpec::two_level(8).with_request_grant(1);
        let mut fab = CompiledFabric::new(spec);
        let hosts = spec.hosts() as usize;
        let mut tr = Hotspot::new(hosts, 0.5, 3, hot_frac, &SeedSequence::new(seed));
        let r = fab.run(&mut tr, &EngineConfig::new(300, 2_500));
        prop_assert_eq!(r.reordered, 0);
        prop_assert!(r.max_queue_depth <= spec.buffer_cells());
    }
}

proptest! {
    /// Welford matches the naive two-pass computation.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                / (xs.len() - 1) as f64;
            prop_assert!((w.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(w.min(), min);
        prop_assert_eq!(w.max(), max);
    }

    /// Welford merge is order-independent.
    #[test]
    fn welford_merge_associative(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        split in 0usize..100,
    ) {
        let split = split % xs.len();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.add(x);
        }
        for &x in &xs[split..] {
            b.add(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
    }

    /// Histogram quantiles bracket the true order statistics within one
    /// bucket width.
    #[test]
    fn histogram_quantile_bounds(
        xs in prop::collection::vec(0f64..100.0, 10..300),
        q in 0.01f64..0.99,
    ) {
        let mut h = Histogram::new(1.0, 200);
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
        let truth = sorted[idx];
        let est = h.quantile(q).unwrap();
        prop_assert!((est - truth).abs() <= 1.0 + 1e-9, "est {est} truth {truth}");
    }
}
