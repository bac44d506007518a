//! The scenario space: campaign axes, O(1) point decode, and keys.
//!
//! A [`CampaignSpec`] is pure data. Its cross-product is never
//! materialized — [`CampaignSpec::point`] decodes any global index into
//! its axis coordinates in O(1) (mixed radix, replica fastest-varying),
//! and the per-point engine seed mixes the campaign seed with those
//! coordinates, so a point's result is independent of how the campaign
//! is sharded or scheduled. [`CampaignSpec::key`] hashes the exact JSON
//! serialization: two specs agree on the key iff they describe the same
//! campaign, which is what ties checkpoint logs, shard summaries, and
//! manifests to the campaign that produced them.

use crate::{fnv_bytes, fnv_words, CampaignError};
use osmosis_fabric::TopologySpec;
use osmosis_sim::json::Value;

/// One fault-plan variant of the campaign's fault axis.
///
/// Fault plans act on the fault-capable topology (the two-level fat
/// tree, whose spines are wavelength planes). Points that pair a
/// non-`None` fault with a topology that has no fault hooks run clean —
/// deterministically, and recorded as such — rather than failing the
/// shard.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// No faults: the nominal leg.
    None,
    /// Permanently kill the first `planes` wavelength planes at slot 0.
    PlaneLoss {
        /// How many planes to kill (clamped to leave one survivor).
        planes: usize,
    },
    /// One plane fails and heals under an MTBF/MTTR-sampled schedule.
    Stochastic {
        /// Mean slots between failures.
        mtbf: f64,
        /// Mean slots to repair.
        mttr: f64,
    },
}

impl FaultSpec {
    /// Serialize for `spec.json`.
    pub fn to_json(&self) -> Value {
        match self {
            FaultSpec::None => Value::Obj(vec![("kind".into(), Value::str("none"))]),
            FaultSpec::PlaneLoss { planes } => Value::Obj(vec![
                ("kind".into(), Value::str("plane_loss")),
                ("planes".into(), Value::u64(*planes as u64)),
            ]),
            FaultSpec::Stochastic { mtbf, mttr } => Value::Obj(vec![
                ("kind".into(), Value::str("stochastic")),
                ("mtbf".into(), Value::f64(*mtbf)),
                ("mttr".into(), Value::f64(*mttr)),
            ]),
        }
    }

    /// Deserialize; `None` on malformed input.
    pub fn from_json(v: &Value) -> Option<Self> {
        match v.get("kind")?.as_str()? {
            "none" => Some(FaultSpec::None),
            "plane_loss" => Some(FaultSpec::PlaneLoss {
                planes: v.get("planes")?.as_usize()?,
            }),
            "stochastic" => Some(FaultSpec::Stochastic {
                mtbf: v.get("mtbf")?.as_f64()?,
                mttr: v.get("mttr")?.as_f64()?,
            }),
            _ => None,
        }
    }

    /// A short label for manifests and progress lines.
    pub fn label(&self) -> String {
        match self {
            FaultSpec::None => "none".into(),
            FaultSpec::PlaneLoss { planes } => format!("plane_loss({planes})"),
            FaultSpec::Stochastic { mtbf, mttr } => format!("stochastic({mtbf}/{mttr})"),
        }
    }
}

/// One buffer-technology variant of the campaign's buffer axis.
///
/// The axis acts on the fault-capable multistage topology (the two-level
/// fat tree), whose input stages can be built either way. Points that
/// pair [`BufferSpec::Fdl`] with a topology that has no buffer-plane
/// seam (the single-stage switch, compiled expanded fabrics) run with
/// their native electronic buffers — deterministically, and recorded as
/// such — mirroring how vacuous fault plans are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferSpec {
    /// Electronic virtual-output-queue input buffers (the default).
    Electronic,
    /// Emulated fiber-delay-line priority queues at each input stage.
    Fdl,
}

impl BufferSpec {
    /// Serialize for `spec.json`.
    pub fn to_json(&self) -> Value {
        Value::str(self.label())
    }

    /// Deserialize; `None` on malformed input.
    pub fn from_json(v: &Value) -> Option<Self> {
        match v.as_str()? {
            "electronic" => Some(BufferSpec::Electronic),
            "fdl" => Some(BufferSpec::Fdl),
            _ => None,
        }
    }

    /// A short label for manifests and progress lines.
    pub fn label(&self) -> &'static str {
        match self {
            BufferSpec::Electronic => "electronic",
            BufferSpec::Fdl => "fdl",
        }
    }
}

/// The campaign: scenario axes plus the engine window they all run
/// under. The scenario count is the product of the six axis lengths.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign master seed; every point seed derives from it.
    pub seed: u64,
    /// Edge port count for single-stage (no-topology) points.
    pub ports: usize,
    /// Warm-up slots per point.
    pub warmup: u64,
    /// Measured slots per point.
    pub measure: u64,
    /// Offered-load axis, each in (0, 1].
    pub loads: Vec<f64>,
    /// Burstiness axis: mean burst length; `1.0` is Bernoulli arrivals,
    /// larger values run the bursty generator.
    pub bursts: Vec<f64>,
    /// Fault-plan axis.
    pub faults: Vec<FaultSpec>,
    /// Topology axis: `None` is the single-stage FLPPR switch, `Some`
    /// runs the spec through the fabric compiler (the two-level fat
    /// tree takes the fault-capable multistage path).
    pub topologies: Vec<Option<TopologySpec>>,
    /// Buffer-technology axis (electronic VOQs vs. FDL queues).
    pub buffers: Vec<BufferSpec>,
    /// Seed replicas per scenario cell (≥ 1).
    pub replicas: usize,
    /// Shards that must fail deliberately on every attempt — the
    /// quarantine path's end-to-end test hook. Empty in production.
    pub poison_shards: Vec<usize>,
}

/// One decoded scenario point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPoint {
    /// Global index in `0..spec.total_points()`.
    pub index: u64,
    /// Offered load.
    pub load: f64,
    /// Mean burst length (1.0 ⇒ Bernoulli).
    pub burst: f64,
    /// Fault plan variant.
    pub fault: FaultSpec,
    /// Topology (`None` ⇒ single-stage switch).
    pub topology: Option<TopologySpec>,
    /// Buffer technology for the point's input stages.
    pub buffer: BufferSpec,
    /// Replica number within the scenario cell.
    pub replica: usize,
    /// The engine seed — a pure function of the campaign seed and the
    /// axis coordinates, independent of sharding.
    pub seed: u64,
}

impl CampaignSpec {
    /// Total scenario points: the axis cross-product size.
    pub fn total_points(&self) -> u64 {
        (self.loads.len()
            * self.bursts.len()
            * self.faults.len()
            * self.topologies.len()
            * self.buffers.len()) as u64
            * self.replicas as u64
    }

    /// Decode global point `index` (mixed radix; the replica varies
    /// fastest, then buffer technology, topology, fault, burst, load).
    /// Returns `None` when the index is out of range.
    pub fn point(&self, index: u64) -> Option<ScenarioPoint> {
        if index >= self.total_points() {
            return None;
        }
        let mut rest = index;
        let r = (rest % self.replicas as u64) as usize;
        rest /= self.replicas as u64;
        let ui = (rest % self.buffers.len() as u64) as usize;
        rest /= self.buffers.len() as u64;
        let ti = (rest % self.topologies.len() as u64) as usize;
        rest /= self.topologies.len() as u64;
        let fi = (rest % self.faults.len() as u64) as usize;
        rest /= self.faults.len() as u64;
        let bi = (rest % self.bursts.len() as u64) as usize;
        rest /= self.bursts.len() as u64;
        let li = rest as usize;
        let seed = fnv_words([
            self.seed, li as u64, bi as u64, fi as u64, ti as u64, ui as u64, r as u64,
        ]);
        Some(ScenarioPoint {
            index,
            load: self.loads[li],
            burst: self.bursts[bi],
            fault: self.faults[fi].clone(),
            topology: self.topologies[ti],
            buffer: self.buffers[ui],
            replica: r,
            seed,
        })
    }

    /// Global indices owned by `shard` of `shards` (round-robin
    /// dealing), in increasing order.
    pub fn shard_indices(&self, shard: usize, shards: usize) -> Vec<u64> {
        (shard as u64..self.total_points())
            .step_by(shards.max(1))
            .collect()
    }

    /// Sanity-check the axes. Returns the spec itself for chaining.
    pub fn validate(&self) -> Result<(), CampaignError> {
        let fail = |message: String| Err(CampaignError::Spec { message });
        if self.loads.is_empty()
            || self.bursts.is_empty()
            || self.faults.is_empty()
            || self.topologies.is_empty()
            || self.buffers.is_empty()
        {
            return fail("every axis needs at least one entry".into());
        }
        if self.replicas == 0 {
            return fail("replicas must be ≥ 1".into());
        }
        if self.measure == 0 {
            return fail("measure window must be ≥ 1 slot".into());
        }
        if self.ports < 2 {
            return fail(format!("ports must be ≥ 2, got {}", self.ports));
        }
        for &l in &self.loads {
            if !(l > 0.0 && l <= 1.0) {
                return fail(format!("load {l} outside (0, 1]"));
            }
        }
        for &b in &self.bursts {
            if b.is_nan() || b < 1.0 {
                return fail(format!("mean burst {b} must be ≥ 1"));
            }
        }
        for t in self.topologies.iter().flatten() {
            if let Err(e) = t.validate() {
                return fail(format!("topology `{t}`: {e}"));
            }
        }
        Ok(())
    }

    /// Serialize for `spec.json`. Round-trips exactly through
    /// [`CampaignSpec::from_json`] — bit-for-bit on every float — so the
    /// key below identifies the campaign across processes.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("version".into(), Value::u64(2)),
            ("seed".into(), Value::u64(self.seed)),
            ("ports".into(), Value::u64(self.ports as u64)),
            ("warmup".into(), Value::u64(self.warmup)),
            ("measure".into(), Value::u64(self.measure)),
            (
                "loads".into(),
                Value::Arr(self.loads.iter().map(|&l| Value::f64(l)).collect()),
            ),
            (
                "bursts".into(),
                Value::Arr(self.bursts.iter().map(|&b| Value::f64(b)).collect()),
            ),
            (
                "faults".into(),
                Value::Arr(self.faults.iter().map(FaultSpec::to_json).collect()),
            ),
            (
                "topologies".into(),
                Value::Arr(
                    self.topologies
                        .iter()
                        .map(|t| match t {
                            None => Value::Null,
                            Some(spec) => Value::str(spec.to_string()),
                        })
                        .collect(),
                ),
            ),
            (
                "buffers".into(),
                Value::Arr(self.buffers.iter().map(BufferSpec::to_json).collect()),
            ),
            ("replicas".into(), Value::u64(self.replicas as u64)),
            (
                "poison_shards".into(),
                Value::Arr(
                    self.poison_shards
                        .iter()
                        .map(|&s| Value::u64(s as u64))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserialize a `spec.json` document; `None` on malformed input.
    /// Version-1 documents (pre-dating the buffer axis) decode with a
    /// single-entry electronic buffer axis, so old campaigns re-key but
    /// still load.
    pub fn from_json(v: &Value) -> Option<Self> {
        let version = v.get("version")?.as_u64()?;
        if version != 1 && version != 2 {
            return None;
        }
        let floats = |field: &str| -> Option<Vec<f64>> {
            v.get(field)?.items()?.iter().map(Value::as_f64).collect()
        };
        let faults = v
            .get("faults")?
            .items()?
            .iter()
            .map(FaultSpec::from_json)
            .collect::<Option<Vec<_>>>()?;
        let topologies = v
            .get("topologies")?
            .items()?
            .iter()
            .map(|t| match t {
                Value::Null => Some(None),
                other => other.as_str()?.parse::<TopologySpec>().ok().map(Some),
            })
            .collect::<Option<Vec<_>>>()?;
        let buffers = match v.get("buffers") {
            None if version == 1 => vec![BufferSpec::Electronic],
            None => return None,
            Some(arr) => arr
                .items()?
                .iter()
                .map(BufferSpec::from_json)
                .collect::<Option<Vec<_>>>()?,
        };
        let poison_shards = v
            .get("poison_shards")?
            .items()?
            .iter()
            .map(Value::as_usize)
            .collect::<Option<Vec<_>>>()?;
        Some(CampaignSpec {
            seed: v.get("seed")?.as_u64()?,
            ports: v.get("ports")?.as_usize()?,
            warmup: v.get("warmup")?.as_u64()?,
            measure: v.get("measure")?.as_u64()?,
            loads: floats("loads")?,
            bursts: floats("bursts")?,
            faults,
            topologies,
            buffers,
            replicas: v.get("replicas")?.as_usize()?,
            poison_shards,
        })
    }

    /// The campaign key: FNV-1a over the exact serialized spec. Shard
    /// checkpoints, summaries, and manifests all embed it; state from a
    /// different campaign is discarded, never resumed.
    pub fn key(&self) -> u64 {
        fnv_bytes(self.to_json().encode().as_bytes())
    }

    /// The key tying one shard's state files to (campaign, sharding):
    /// resuming with a different `--shards` silently starts those
    /// shards fresh instead of mixing incompatible partitions.
    pub fn shard_key(&self, shard: usize, shards: usize) -> u64 {
        fnv_words([self.key(), shards as u64, shard as u64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            seed: 0xABCD,
            ports: 8,
            warmup: 100,
            measure: 800,
            loads: vec![0.3, 0.7],
            bursts: vec![1.0, 4.0],
            faults: vec![FaultSpec::None, FaultSpec::PlaneLoss { planes: 1 }],
            topologies: vec![None, Some(TopologySpec::two_level(8))],
            buffers: vec![BufferSpec::Electronic, BufferSpec::Fdl],
            replicas: 3,
            poison_shards: vec![],
        }
    }

    #[test]
    fn json_round_trip_is_exact_and_keys_match() {
        let s = spec();
        let back = CampaignSpec::from_json(&s.to_json()).expect("round trip");
        assert_eq!(back, s);
        assert_eq!(back.key(), s.key());
        assert_eq!(
            back.to_json().encode(),
            s.to_json().encode(),
            "serialization must be byte-stable"
        );
    }

    #[test]
    fn a_topology_away_from_its_defaults_survives_spec_json_and_keys_apart() {
        // `spec.json` and the campaign key carry a topology as its spec
        // string: a key the string dropped would reach the workers at its
        // default, and campaigns differing only there would share
        // checkpoints.
        let over = |topology: TopologySpec| CampaignSpec {
            topologies: vec![Some(topology)],
            ..spec()
        };
        let plain = over(TopologySpec::two_level(8));
        let encoded = plain.to_json().encode();
        assert!(
            encoded.contains("\"fat-tree:radix=8,levels=2,planes=2\""),
            "a default topology is keyed as it always was: {encoded}"
        );
        let mut keys = vec![plain.key()];
        for varied in [
            TopologySpec::two_level(8).with_link_delay(5),
            TopologySpec::two_level(8).with_buffer_cells(3),
            TopologySpec::two_level(8).with_iterations(1),
            TopologySpec::two_level(8).with_request_grant(1),
        ] {
            let s = over(varied);
            let back = CampaignSpec::from_json(&s.to_json()).expect("round trip");
            assert_eq!(back.topologies, vec![Some(varied)], "{varied}");
            keys.push(s.key());
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 5, "five campaigns, five keys");
    }

    #[test]
    fn point_decode_covers_the_cross_product_uniquely() {
        let s = spec();
        assert_eq!(s.total_points(), 2 * 2 * 2 * 2 * 2 * 3);
        let mut seeds = std::collections::BTreeSet::new();
        for i in 0..s.total_points() {
            let p = s.point(i).expect("in range");
            assert_eq!(p.index, i);
            assert!(seeds.insert(p.seed), "seed collision at point {i}");
        }
        assert!(s.point(s.total_points()).is_none());
        // Adjacent indices differ in the fastest axis (replica).
        let a = s.point(0).unwrap();
        let b = s.point(1).unwrap();
        assert_eq!(a.load.to_bits(), b.load.to_bits());
        assert_ne!(a.replica, b.replica);
        // The buffer axis sits just above the replicas: stepping past
        // the replica block flips electronic → FDL, all else equal.
        let c = s.point(s.replicas as u64).unwrap();
        assert_eq!(a.buffer, BufferSpec::Electronic);
        assert_eq!(c.buffer, BufferSpec::Fdl);
        assert_eq!(a.topology, c.topology);
        assert_eq!(a.load.to_bits(), c.load.to_bits());
        assert_eq!(a.replica, c.replica);
        // Stepping one block further wraps the buffer coordinate and
        // advances the topology axis instead.
        let d = s.point((s.replicas * s.buffers.len()) as u64).unwrap();
        assert_eq!(d.buffer, BufferSpec::Electronic);
        assert_ne!(a.topology, d.topology);
    }

    #[test]
    fn version_one_documents_decode_with_electronic_buffers() {
        let mut json = spec().to_json();
        // Rewrite the document as a version-1 spec: no buffer axis.
        if let Value::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "buffers");
            for (k, v) in fields.iter_mut() {
                if k == "version" {
                    *v = Value::u64(1);
                }
            }
        }
        let back = CampaignSpec::from_json(&json).expect("legacy decode");
        assert_eq!(back.buffers, vec![BufferSpec::Electronic]);
        // A version-2 document without the axis is malformed.
        if let Value::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "version" {
                    *v = Value::u64(2);
                }
            }
        }
        assert!(CampaignSpec::from_json(&json).is_none());
    }

    #[test]
    fn point_seeds_are_shard_independent() {
        let s = spec();
        // The seed of a given index never depends on sharding: decode
        // through two different shardings and compare.
        let via_3: Vec<u64> = s
            .shard_indices(1, 3)
            .iter()
            .map(|&i| s.point(i).unwrap().seed)
            .collect();
        for (k, &i) in s.shard_indices(1, 3).iter().enumerate() {
            assert_eq!(s.point(i).unwrap().seed, via_3[k]);
        }
        // Shards partition the index space exactly.
        let mut all: Vec<u64> = (0..4).flat_map(|sh| s.shard_indices(sh, 4)).collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..s.total_points()).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let mut s = spec();
        s.loads = vec![1.5];
        assert!(matches!(s.validate(), Err(CampaignError::Spec { .. })));
        let mut s = spec();
        s.replicas = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.bursts = vec![0.5];
        assert!(s.validate().is_err());
        assert!(spec().validate().is_ok());
    }
}
