//! The metrics registry: named counters, gauges, and log₂-bucketed
//! histograms keyed by fabric component.
//!
//! The registry is a plain data structure — it knows nothing about the
//! engine. The [`TelemetrySink`](crate::TelemetrySink) populates it from
//! the `TraceEvent` stream; sweeps populate one registry per job and
//! [`merge`](MetricsRegistry::merge) them afterwards. `BTreeMap` keys
//! give deterministic iteration order everywhere, so exports are
//! byte-stable across reruns.

use osmosis_sim::json::Value;
use std::collections::BTreeMap;

/// The fabric component a metric is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// Ingress virtual output queues.
    Voq,
    /// The central scheduler / arbiter (request–grant stage).
    Scheduler,
    /// The bufferless crossbar (transfer stage).
    Crossbar,
    /// Egress queues and transmitters.
    Egress,
    /// Per-link credit flow control.
    LinkFc,
    /// Whole-engine aggregates that belong to no single stage.
    Engine,
    /// The optical circuit-switched plane (epoch scheduler, circuits).
    Ocs,
    /// The optical fiber-delay-line buffering plane.
    Fdl,
}

impl Component {
    /// Stable lowercase name used in exported records.
    pub fn name(self) -> &'static str {
        match self {
            Component::Voq => "voq",
            Component::Scheduler => "scheduler",
            Component::Crossbar => "crossbar",
            Component::Egress => "egress",
            Component::LinkFc => "link_fc",
            Component::Engine => "engine",
            Component::Ocs => "ocs",
            Component::Fdl => "fdl",
        }
    }

    /// Inverse of [`name`](Component::name).
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "voq" => Component::Voq,
            "scheduler" => Component::Scheduler,
            "crossbar" => Component::Crossbar,
            "egress" => Component::Egress,
            "link_fc" => Component::LinkFc,
            "engine" => Component::Engine,
            "ocs" => Component::Ocs,
            "fdl" => Component::Fdl,
            _ => return None,
        })
    }
}

/// Identity of one metric: component, metric name, and an optional
/// instance index (port, node, plane) for per-instance series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// The component the metric belongs to.
    pub component: Component,
    /// The metric name (snake_case).
    pub name: &'static str,
    /// Optional instance index for per-port/per-node series.
    pub instance: Option<u32>,
}

impl MetricId {
    /// An aggregate (instance-free) metric.
    pub const fn new(component: Component, name: &'static str) -> Self {
        MetricId {
            component,
            name,
            instance: None,
        }
    }

    /// A per-instance metric (e.g. per-node credit stalls).
    pub const fn at(component: Component, name: &'static str, instance: u32) -> Self {
        MetricId {
            component,
            name,
            instance: Some(instance),
        }
    }

    /// The export key: `component/name` or `component/name[instance]`.
    pub fn key(&self) -> String {
        match self.instance {
            Some(i) => format!("{}/{}[{i}]", self.component.name(), self.name),
            None => format!("{}/{}", self.component.name(), self.name),
        }
    }

    /// Parse an export key back into an id (inverse of
    /// [`key`](MetricId::key)). A name the sink never emits (one outside
    /// `KNOWN_NAMES`) is `None`, so reading a stream allocates nothing
    /// per distinct name.
    pub fn parse(key: &str) -> Option<Self> {
        let (comp, rest) = key.split_once('/')?;
        let component = Component::from_name(comp)?;
        let (name, instance) = match rest.split_once('[') {
            Some((name, idx)) => (name, Some(idx.strip_suffix(']')?.parse().ok()?)),
            None => (rest, None),
        };
        Some(MetricId {
            component,
            name: KNOWN_NAMES.iter().find(|k| **k == name)?,
            instance,
        })
    }
}

/// Metric names the sink emits: the only names [`MetricId::parse`]
/// accepts.
const KNOWN_NAMES: &[&str] = &[
    "cells_injected",
    "grants",
    "request_grant_wait",
    "cells_transferred",
    "cells_delivered",
    "delivery_delay",
    "cells_dropped",
    "credit_stalls",
    "receiver_conflicts",
    "conflict_contenders",
    "retransmits",
    "throughput",
    "offered_load",
    "mean_delay",
    "max_queue_depth",
    "max_egress_depth",
];

/// Buckets in a [`LogHistogram`]: one for zero plus one per power of
/// two, covering the full `u64` range.
pub const LOG_BUCKETS: usize = 65;

/// A log₂-bucketed histogram over `u64` observations.
///
/// Bucket 0 holds exact zeros; bucket *b* ≥ 1 holds values in
/// `[2^(b−1), 2^b − 1]`. 65 buckets cover all of `u64` with no overflow
/// bucket, the mean stays exact (u128 running sum), and quantiles are
/// linearly interpolated inside the containing bucket — coarse at the
/// tail, which is the accepted trade for fixed O(1) memory per metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; LOG_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; LOG_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value lands in.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive `[lo, hi]` value bounds of bucket `b`.
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        assert!(b < LOG_BUCKETS, "bucket out of range");
        if b == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (b - 1);
            let hi = if b == 64 { u64::MAX } else { (1u64 << b) - 1 };
            (lo, hi)
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation, `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The non-empty `(bucket_index, count)` pairs, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
    }

    /// q-quantile (0 ≤ q ≤ 1), interpolated within the containing
    /// bucket and clamped to the observed `[min, max]`. `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let (lo, hi) = Self::bucket_bounds(b);
                let within = (target - cum) as f64 / c as f64;
                let v = lo as f64 + within * (hi - lo) as f64;
                return Some(v.clamp(self.min as f64, self.max as f64));
            }
            cum += c;
        }
        unreachable!("cumulative counts must reach the total")
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Serialize for export (sparse bucket list; the u128 sum rides as a
    /// decimal token so the round trip is exact).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("count".into(), Value::u64(self.count)),
            ("sum".into(), Value::Num(self.sum.to_string())),
            ("min".into(), self.min().map_or(Value::Null, Value::u64)),
            ("max".into(), self.max().map_or(Value::Null, Value::u64)),
            (
                "buckets".into(),
                Value::Arr(
                    self.buckets()
                        .map(|(b, c)| Value::Arr(vec![Value::u64(b as u64), Value::u64(c)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserialize; `None` on a malformed document.
    pub fn from_json(v: &Value) -> Option<Self> {
        let mut h = LogHistogram::new();
        h.count = v.get("count")?.as_u64()?;
        h.sum = match v.get("sum")? {
            Value::Num(tok) => tok.parse().ok()?,
            _ => return None,
        };
        for entry in v.get("buckets")?.items()? {
            let pair = entry.items()?;
            let b = pair.first()?.as_usize()?;
            if b >= LOG_BUCKETS {
                return None;
            }
            h.counts[b] = pair.get(1)?.as_u64()?;
        }
        if h.count > 0 {
            h.min = v.get("min")?.as_u64()?;
            h.max = v.get("max")?.as_u64()?;
        }
        Some(h)
    }
}

/// Named counters, gauges, and log₂ histograms keyed by [`MetricId`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricId, u64>,
    gauges: BTreeMap<MetricId, f64>,
    histograms: BTreeMap<MetricId, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Add `by` to a counter (creating it at zero).
    #[inline]
    pub fn inc(&mut self, id: MetricId, by: u64) {
        *self.counters.entry(id).or_insert(0) += by;
    }

    /// Set a gauge (last write wins).
    #[inline]
    pub fn set_gauge(&mut self, id: MetricId, v: f64) {
        self.gauges.insert(id, v);
    }

    /// Raise a gauge to `v` if larger (high-water-mark semantics).
    #[inline]
    pub fn gauge_max(&mut self, id: MetricId, v: f64) {
        let g = self.gauges.entry(id).or_insert(f64::NEG_INFINITY);
        if v > *g {
            *g = v;
        }
    }

    /// Record one observation into a histogram (creating it empty).
    #[inline]
    pub fn observe(&mut self, id: MetricId, v: u64) {
        self.histograms.entry(id).or_default().record(v);
    }

    /// A counter's value (0 if never incremented).
    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters.get(&id).copied().unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, id: MetricId) -> Option<f64> {
        self.gauges.get(&id).copied()
    }

    /// A histogram, if any observation landed in it.
    pub fn histogram(&self, id: MetricId) -> Option<&LogHistogram> {
        self.histograms.get(&id)
    }

    /// All counters, in deterministic key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricId, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// All gauges, in deterministic key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricId, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histograms, in deterministic key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricId, &LogHistogram)> {
        self.histograms.iter()
    }

    /// Merge another registry: counters add, gauges keep the max (they
    /// are high-water marks or per-run aggregates, and "largest seen" is
    /// the only order-free combination), histograms merge bucketwise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (&id, &v) in &other.counters {
            self.inc(id, v);
        }
        for (&id, &v) in &other.gauges {
            self.gauge_max(id, v);
        }
        for (&id, h) in &other.histograms {
            self.histograms.entry(id).or_default().merge(h);
        }
    }

    /// Serialize the full registry for a summary record.
    pub fn to_json(&self) -> Value {
        let pairs = |it: Vec<(String, Value)>| {
            Value::Arr(
                it.into_iter()
                    .map(|(k, v)| Value::Arr(vec![Value::Str(k), v]))
                    .collect(),
            )
        };
        Value::Obj(vec![
            (
                "counters".into(),
                pairs(
                    self.counters()
                        .map(|(id, v)| (id.key(), Value::u64(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                pairs(
                    self.gauges()
                        .map(|(id, v)| (id.key(), Value::f64(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                pairs(
                    self.histograms()
                        .map(|(id, h)| (id.key(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Merge a serialized registry directly into this one — the
    /// bounded-memory fold the campaign runner uses: one shard summary
    /// is parsed, folded entry by entry, and dropped before the next is
    /// read, so a million-shard campaign never holds two deserialized
    /// registries at once. Equivalent to
    /// `self.merge(&MetricsRegistry::from_json(v)?)` (merging is
    /// commutative, so fold order does not matter); `None` on malformed
    /// input, in which case `self` may hold a partial merge.
    pub fn merge_json(&mut self, v: &Value) -> Option<()> {
        for entry in v.get("counters")?.items()? {
            let pair = entry.items()?;
            let id = MetricId::parse(pair.first()?.as_str()?)?;
            self.inc(id, pair.get(1)?.as_u64()?);
        }
        for entry in v.get("gauges")?.items()? {
            let pair = entry.items()?;
            let id = MetricId::parse(pair.first()?.as_str()?)?;
            self.gauge_max(id, pair.get(1)?.as_f64()?);
        }
        for entry in v.get("histograms")?.items()? {
            let pair = entry.items()?;
            let id = MetricId::parse(pair.first()?.as_str()?)?;
            self.histograms
                .entry(id)
                .or_default()
                .merge(&LogHistogram::from_json(pair.get(1)?)?);
        }
        Some(())
    }

    /// Deserialize a registry from a summary record; `None` on malformed
    /// input. Round-trips [`to_json`](MetricsRegistry::to_json) exactly.
    pub fn from_json(v: &Value) -> Option<Self> {
        let mut reg = MetricsRegistry::new();
        for entry in v.get("counters")?.items()? {
            let pair = entry.items()?;
            let id = MetricId::parse(pair.first()?.as_str()?)?;
            reg.counters.insert(id, pair.get(1)?.as_u64()?);
        }
        for entry in v.get("gauges")?.items()? {
            let pair = entry.items()?;
            let id = MetricId::parse(pair.first()?.as_str()?)?;
            reg.gauges.insert(id, pair.get(1)?.as_f64()?);
        }
        for entry in v.get("histograms")?.items()? {
            let pair = entry.items()?;
            let id = MetricId::parse(pair.first()?.as_str()?)?;
            reg.histograms
                .insert(id, LogHistogram::from_json(pair.get(1)?)?);
        }
        Some(reg)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    #[test]
    fn log_buckets_partition_u64() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        for b in 0..LOG_BUCKETS {
            let (lo, hi) = LogHistogram::bucket_bounds(b);
            assert!(lo <= hi);
            assert_eq!(LogHistogram::bucket_of(lo), b);
            assert_eq!(LogHistogram::bucket_of(hi), b);
        }
    }

    #[test]
    fn log_histogram_mean_is_exact_and_quantiles_bracket() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 1, 2, 3, 5, 8, 13, 21, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 1054);
        assert!((h.mean() - 105.4).abs() < 1e-12);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        // The median of ten observations sits in the {2,3} bucket.
        let p50 = h.quantile(0.5).unwrap();
        assert!((1.0..=3.0).contains(&p50), "p50 = {p50}");
        // The extreme quantiles clamp to the observed range.
        assert_eq!(h.quantile(0.0).unwrap(), 0.0);
        assert!(h.quantile(1.0).unwrap() <= 1000.0);
        assert!(h.quantile(0.99).unwrap() > 21.0);
        assert!(LogHistogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn log_histogram_merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in 0..100u64 {
            if v % 3 == 0 {
                a.record(v * v);
            } else {
                b.record(v * v);
            }
            both.record(v * v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn registry_merge_combines_all_three_kinds() {
        let id_c = MetricId::new(Component::Voq, "cells_injected");
        let id_g = MetricId::new(Component::Engine, "throughput");
        let id_h = MetricId::new(Component::Egress, "delivery_delay");
        let id_i = MetricId::at(Component::LinkFc, "credit_stalls", 3);

        let mut a = MetricsRegistry::new();
        a.inc(id_c, 10);
        a.set_gauge(id_g, 0.5);
        a.observe(id_h, 4);
        let mut b = MetricsRegistry::new();
        b.inc(id_c, 5);
        b.inc(id_i, 2);
        b.set_gauge(id_g, 0.9);
        b.observe(id_h, 8);

        a.merge(&b);
        assert_eq!(a.counter(id_c), 15);
        assert_eq!(a.counter(id_i), 2);
        assert_eq!(a.gauge(id_g), Some(0.9), "gauges merge by max");
        let h = a.histogram(id_h).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 12);
    }

    #[test]
    fn metric_keys_round_trip() {
        for id in [
            MetricId::new(Component::Scheduler, "grants"),
            MetricId::at(Component::LinkFc, "credit_stalls", 17),
            MetricId::new(Component::Engine, "max_queue_depth"),
        ] {
            let back = MetricId::parse(&id.key()).unwrap();
            assert_eq!(back.component, id.component);
            assert_eq!(back.name, id.name);
            assert_eq!(back.instance, id.instance);
        }
        assert!(MetricId::parse("nope").is_none());
        assert!(MetricId::parse("martian/grants").is_none());
        assert!(MetricId::parse("engine/some_custom_metric").is_none());
    }

    #[test]
    fn registry_json_round_trip_is_exact() {
        let mut reg = MetricsRegistry::new();
        reg.inc(MetricId::new(Component::Voq, "cells_injected"), 12345);
        reg.inc(MetricId::at(Component::LinkFc, "credit_stalls", 2), 7);
        reg.set_gauge(MetricId::new(Component::Engine, "throughput"), 0.7251);
        for v in [1u64, 2, 3, 1 << 40] {
            reg.observe(MetricId::new(Component::Scheduler, "request_grant_wait"), v);
        }
        let back = MetricsRegistry::from_json(&reg.to_json()).unwrap();
        assert_eq!(back.to_json().encode(), reg.to_json().encode());
        let h = back
            .histogram(MetricId::new(Component::Scheduler, "request_grant_wait"))
            .unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), Some(1 << 40));
    }

    #[test]
    fn merge_json_equals_deserialize_then_merge() {
        let mk = |seed: u64| {
            let mut reg = MetricsRegistry::new();
            reg.inc(MetricId::new(Component::Voq, "cells_injected"), 100 + seed);
            reg.gauge_max(
                MetricId::new(Component::Engine, "throughput"),
                0.5 + seed as f64 * 0.1,
            );
            for v in [seed + 1, seed * 3 + 2, 1 << 20] {
                reg.observe(MetricId::new(Component::Egress, "delivery_delay"), v);
            }
            reg
        };
        // Fold three shard registries two ways: deserialize-then-merge
        // vs the streaming merge_json. Byte-identical serializations.
        let mut by_merge = MetricsRegistry::new();
        let mut by_json = MetricsRegistry::new();
        for seed in [3u64, 7, 11] {
            let shard = mk(seed);
            by_merge.merge(&shard);
            by_json
                .merge_json(&shard.to_json())
                .expect("well-formed registry json");
        }
        assert_eq!(by_json.to_json().encode(), by_merge.to_json().encode());
        // Malformed input is rejected.
        assert!(MetricsRegistry::new().merge_json(&Value::Null).is_none());
    }
}
