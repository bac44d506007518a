//! Criterion bench of the fabric simulators: simulated slots per second
//! for radix-8 and radix-16 two-level fat trees (multistage) and two
//! 16-host m-ary folded Clos shapes (compiled).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use osmosis_fabric::multistage::{FabricConfig, FatTreeFabric};
use osmosis_sim::{EngineConfig, SeedSequence};
use osmosis_traffic::BernoulliUniform;

fn bench_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric_sim");
    let slots = 1_000u64;
    g.throughput(Throughput::Elements(slots));
    for radix in [8usize, 16] {
        g.bench_with_input(BenchmarkId::new("fat_tree", radix), &radix, |b, &radix| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut fab = FatTreeFabric::new(FabricConfig::small(radix, 2));
                let hosts = fab.topology().hosts();
                let mut tr = BernoulliUniform::new(hosts, 0.6, &SeedSequence::new(seed));
                fab.run(&mut tr, &EngineConfig::new(0, slots))
            })
        });
    }
    g.finish();
}

fn bench_compiled_m_ary(c: &mut Criterion) {
    use osmosis_fabric::{CompiledFabric, TopologySpec};
    let mut g = c.benchmark_group("compiled_m_ary_sim");
    let slots = 1_000u64;
    g.throughput(Throughput::Elements(slots));
    for (radix, levels) in [(8usize, 2u32), (4, 4)] {
        g.bench_with_input(
            BenchmarkId::new("folded_clos", format!("r{radix}l{levels}")),
            &(radix, levels),
            |b, &(radix, levels)| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let spec = TopologySpec::m_ary_fat_tree(radix, levels);
                    let mut fab = CompiledFabric::new(spec);
                    let hosts = spec.hosts() as usize;
                    let mut tr = BernoulliUniform::new(hosts, 0.5, &SeedSequence::new(seed));
                    fab.run(&mut tr, &EngineConfig::new(0, slots))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_fabric, bench_compiled_m_ary);
criterion_main!(benches);
