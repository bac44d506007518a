//! The campaign experiment: the canonical scenario cross-product the
//! crash-safe sharded runner (`osmosis-campaign`) sweeps overnight —
//! offered load × burstiness × fault plan × topology × seed replica.
//!
//! This module only *declares* the campaign; execution lives in
//! `osmosis_campaign::run_campaign` (every shard in-process, in
//! parallel) and `osmosis_campaign::run_shard` (one shard). Keeping the
//! spec here, next to the other experiments, pins the axes the bench
//! binary and the tests agree on — the campaign key is a hash of this
//! spec, so any drift is loudly visible as a fingerprint change.

use super::Scale;
use osmosis_campaign::{BufferSpec, CampaignSpec, FaultSpec};
use osmosis_fabric::TopologySpec;

/// The default campaign at the chosen scale.
///
/// Quick: 2 loads × 2 burst levels × 2 fault plans × 2 topologies ×
/// 2 buffer technologies × 2 replicas = 64 points of a few thousand
/// slots each — seconds of work, sized for tests.
/// Full: 4 × 3 × 3 × 2 × 2 × 3 = 432 points at paper-scale windows.
pub fn default_spec(scale: Scale, seed: u64) -> CampaignSpec {
    match scale {
        Scale::Quick => CampaignSpec {
            seed,
            ports: 8,
            warmup: 200,
            measure: 1_500,
            loads: vec![0.3, 0.7],
            bursts: vec![1.0, 4.0],
            faults: vec![FaultSpec::None, FaultSpec::PlaneLoss { planes: 1 }],
            topologies: vec![None, Some(TopologySpec::two_level(8))],
            buffers: vec![BufferSpec::Electronic, BufferSpec::Fdl],
            replicas: 2,
            poison_shards: vec![],
        },
        Scale::Full => CampaignSpec {
            seed,
            ports: scale.ports(),
            warmup: scale.warmup(),
            measure: scale.measure() / 4,
            loads: vec![0.3, 0.5, 0.7, 0.9],
            bursts: vec![1.0, 4.0, 16.0],
            faults: vec![
                FaultSpec::None,
                FaultSpec::PlaneLoss { planes: 1 },
                FaultSpec::Stochastic {
                    mtbf: 5_000.0,
                    mttr: 600.0,
                },
            ],
            topologies: vec![None, Some(TopologySpec::two_level(scale.fabric_radix()))],
            buffers: vec![BufferSpec::Electronic, BufferSpec::Fdl],
            replicas: 3,
            poison_shards: vec![],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_campaign::run_shard;
    use osmosis_campaign::shard::paths;

    #[test]
    fn default_specs_validate_and_cover_the_advertised_points() {
        let quick = default_spec(Scale::Quick, 7);
        quick.validate().expect("quick spec");
        assert_eq!(quick.total_points(), 64);
        let full = default_spec(Scale::Full, 7);
        full.validate().expect("full spec");
        assert_eq!(full.total_points(), 432);
        // The key is a pure function of the spec: same seed same key,
        // different seed different key.
        assert_eq!(quick.key(), default_spec(Scale::Quick, 7).key());
        assert_ne!(quick.key(), default_spec(Scale::Quick, 8).key());
    }

    #[test]
    fn quick_campaign_shards_run_deterministically_in_process() {
        // One shard of the default quick campaign, run twice in fresh
        // directories: bit-identical summaries. The whole campaign's
        // resume story is tests/campaign_resume.rs.
        let spec = default_spec(Scale::Quick, 0xD1CE);
        let mk = |tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "osmosis-core-campaign-{}-{tag}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("create dir");
            std::fs::write(paths::spec(&dir), spec.to_json().encode() + "\n").expect("write spec");
            dir
        };
        let (a, b) = (mk("a"), mk("b"));
        let first = run_shard(&a, 3, 8).expect("shard run");
        let again = run_shard(&b, 3, 8).expect("shard rerun");
        assert_eq!(first.fingerprint, again.fingerprint);
        assert_eq!(first.points, spec.shard_indices(3, 8).len() as u64);
        assert_eq!(
            first.registry.to_json().encode(),
            again.registry.to_json().encode()
        );
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }
}
