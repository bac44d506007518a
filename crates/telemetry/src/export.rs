//! Streaming JSONL export: record builders and a schema validator.
//!
//! A telemetry export is a JSON-Lines stream with four record types,
//! discriminated by the `"type"` field:
//!
//! * `meta` — one per engine run: schema version, run index, label,
//!   seed, ports, warmup/measure windows, sampling cadences.
//! * `snapshot` — periodic time series: interval deltas of injected /
//!   delivered / dropped / grants / credit_stalls / retransmits /
//!   receiver_conflicts plus the instantaneous in-flight count.
//! * `span` — one sampled cell lifecycle with its four delay segments.
//! * `summary` — end of run: an engine-report digest, the cumulative
//!   registry (counters, gauges, histograms with tail quantiles), and
//!   the aggregate span decomposition.
//!
//! Circuit-switched (OCS) runs add two more record types between a
//! run's `meta` and `summary`:
//!
//! * `epoch` — one per scheduler epoch: start slot, guard slots
//!   charged, cells transferred, and circuit utilization.
//! * `reconfig` — one per actual reconfiguration: the epoch it opened,
//!   how many circuits changed, and the guard slots paid.
//!
//! Campaign streams (the sharded campaign runner of
//! `osmosis-campaign`) use a second scope with four record types of its
//! own, keyed by the campaign `key` instead of a `run` index:
//!
//! * `campaign` — opens the scope: schema version, campaign key, shard
//!   and scenario-point counts, label.
//! * `shard_point` — one completed scenario point: shard, global point
//!   index, report fingerprint and digest.
//! * `shard` — one shard's fate: completed / restored / quarantined,
//!   with its point count, attempts and fold fingerprint.
//! * `campaign_summary` — closes the scope: completed shards, the
//!   quarantine list, the campaign fingerprint and the merged registry.
//!
//! The stream always starts with a `meta` (or `campaign`) record, and
//! every scope that opens closes with its `summary`
//! (`campaign_summary`); the two scopes never nest.
//! [`validate_jsonl`] enforces that shape; CI runs it over the output
//! of `telemetry_study --smoke` and `campaign --smoke`.

use crate::registry::MetricsRegistry;
use crate::spans::{CellSpan, Decomposition};
use crate::{RunMeta, Snapshot};
use osmosis_sim::engine::EngineReport;
use osmosis_sim::json::Value;

/// Schema version stamped into every `meta` record.
pub const SCHEMA_VERSION: u64 = 1;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Build a `meta` record.
pub fn meta_record(run: u64, label: &str, meta: &RunMeta) -> Value {
    obj(vec![
        ("type", Value::Str("meta".into())),
        ("version", Value::u64(SCHEMA_VERSION)),
        ("run", Value::u64(run)),
        ("label", Value::Str(label.into())),
        ("seed", Value::u64(meta.seed)),
        ("ports", Value::u64(meta.ports as u64)),
        ("warmup_slots", Value::u64(meta.warmup_slots)),
        ("measure_slots", Value::u64(meta.measure_slots)),
        ("sample_every", Value::u64(meta.sample_every)),
        ("snapshot_every", Value::u64(meta.snapshot_every)),
    ])
}

/// Build a `snapshot` record.
pub fn snapshot_record(s: &Snapshot) -> Value {
    obj(vec![
        ("type", Value::Str("snapshot".into())),
        ("run", Value::u64(s.run)),
        ("slot", Value::u64(s.slot)),
        ("interval_slots", Value::u64(s.interval_slots)),
        ("injected", Value::u64(s.injected)),
        ("delivered", Value::u64(s.delivered)),
        ("dropped", Value::u64(s.dropped)),
        ("grants", Value::u64(s.grants)),
        ("credit_stalls", Value::u64(s.credit_stalls)),
        ("retransmits", Value::u64(s.retransmits)),
        ("receiver_conflicts", Value::u64(s.receiver_conflicts)),
        ("in_flight", Value::u64(s.in_flight)),
    ])
}

/// Build a `span` record.
pub fn span_record(run: u64, span: &CellSpan) -> Value {
    obj(vec![
        ("type", Value::Str("span".into())),
        ("run", Value::u64(run)),
        ("output", Value::u64(span.output as u64)),
        ("inject_slot", Value::u64(span.inject_slot)),
        ("deliver_slot", Value::u64(span.deliver_slot)),
        ("queueing", Value::u64(span.queueing)),
        ("request_grant", Value::u64(span.request_grant)),
        ("crossbar", Value::u64(span.crossbar)),
        ("egress", Value::u64(span.egress)),
        ("granted", Value::Bool(span.granted)),
    ])
}

/// Build a `summary` record. Registry and decomposition are cumulative
/// across every run the sink has observed; the report digest is for the
/// run just ended.
pub fn summary_record(
    run: u64,
    report: &EngineReport,
    registry: &MetricsRegistry,
    decomposition: &Decomposition,
) -> Value {
    let report_digest = obj(vec![
        ("throughput", Value::f64(report.throughput)),
        ("offered_load", Value::f64(report.offered_load)),
        ("mean_delay", Value::f64(report.mean_delay)),
        (
            "p99_delay",
            report.p99_delay.map_or(Value::Null, Value::f64),
        ),
        ("delivered", Value::u64(report.delivered)),
        ("dropped", Value::u64(report.dropped)),
    ]);
    let spans = obj(vec![
        ("completed", Value::u64(decomposition.completed)),
        ("sampled", Value::u64(decomposition.sampled)),
        ("matched", Value::u64(decomposition.matched)),
        ("reordered", Value::u64(decomposition.reordered)),
        ("ungranted", Value::u64(decomposition.ungranted)),
        ("mean_queueing", Value::f64(decomposition.mean_queueing)),
        (
            "mean_request_grant",
            Value::f64(decomposition.mean_request_grant),
        ),
        ("mean_crossbar", Value::f64(decomposition.mean_crossbar)),
        ("mean_egress", Value::f64(decomposition.mean_egress)),
        ("mean_total", Value::f64(decomposition.mean_total)),
    ]);
    obj(vec![
        ("type", Value::Str("summary".into())),
        ("run", Value::u64(run)),
        ("report", report_digest),
        ("registry", registry.to_json()),
        ("spans", spans),
    ])
}

/// Build an `epoch` record (circuit-switched runs): one scheduler epoch
/// with its guard charge, transfer count and utilization.
pub fn epoch_record(
    run: u64,
    epoch: u64,
    start_slot: u64,
    reconfigured: bool,
    guard_slots: u64,
    transfers: u64,
    utilization: f64,
) -> Value {
    obj(vec![
        ("type", Value::Str("epoch".into())),
        ("run", Value::u64(run)),
        ("epoch", Value::u64(epoch)),
        ("start_slot", Value::u64(start_slot)),
        ("reconfigured", Value::Bool(reconfigured)),
        ("guard_slots", Value::u64(guard_slots)),
        ("transfers", Value::u64(transfers)),
        ("utilization", Value::f64(utilization)),
    ])
}

/// Build a `reconfig` record (circuit-switched runs): one actual
/// circuit reconfiguration and its guard-time cost.
pub fn reconfig_record(
    run: u64,
    epoch: u64,
    slot: u64,
    changed_circuits: u64,
    guard_slots: u64,
) -> Value {
    obj(vec![
        ("type", Value::Str("reconfig".into())),
        ("run", Value::u64(run)),
        ("epoch", Value::u64(epoch)),
        ("slot", Value::u64(slot)),
        ("changed_circuits", Value::u64(changed_circuits)),
        ("guard_slots", Value::u64(guard_slots)),
    ])
}

/// Build an `fdl_occupancy` record (FDL-buffered runs): one sampled
/// delay-line queue occupancy snapshot against its guaranteed capacity.
pub fn fdl_occupancy_record(
    run: u64,
    slot: u64,
    queue: u64,
    occupancy: u64,
    capacity: u64,
) -> Value {
    obj(vec![
        ("type", Value::Str("fdl_occupancy".into())),
        ("run", Value::u64(run)),
        ("slot", Value::u64(slot)),
        ("queue", Value::u64(queue)),
        ("occupancy", Value::u64(occupancy)),
        ("capacity", Value::u64(capacity)),
    ])
}

/// Build an `fdl_drop` record (FDL-buffered runs): one typed delay-line
/// loss. `reason` is a [`BufferLossReason`] name: `admission_full`,
/// `no_feasible_line` or `dead_line`.
///
/// [`BufferLossReason`]: https://docs.rs/osmosis-sim
pub fn fdl_drop_record(run: u64, slot: u64, queue: u64, reason: &str) -> Value {
    obj(vec![
        ("type", Value::Str("fdl_drop".into())),
        ("run", Value::u64(run)),
        ("slot", Value::u64(slot)),
        ("queue", Value::u64(queue)),
        ("reason", Value::Str(reason.into())),
    ])
}

/// Build an `fdl_recirculation` record (FDL-buffered runs): emerged-but-
/// unserved cells re-entered into delay lines at `queue` this slot.
pub fn fdl_recirculation_record(run: u64, slot: u64, queue: u64, count: u64) -> Value {
    obj(vec![
        ("type", Value::Str("fdl_recirculation".into())),
        ("run", Value::u64(run)),
        ("slot", Value::u64(slot)),
        ("queue", Value::u64(queue)),
        ("count", Value::u64(count)),
    ])
}

/// Build a `campaign` record: opens a campaign scope.
pub fn campaign_record(key: u64, label: &str, shards: u64, points: u64) -> Value {
    obj(vec![
        ("type", Value::Str("campaign".into())),
        ("version", Value::u64(SCHEMA_VERSION)),
        ("key", Value::u64(key)),
        ("label", Value::Str(label.into())),
        ("shards", Value::u64(shards)),
        ("points", Value::u64(points)),
    ])
}

/// Build a `shard_point` record: one completed scenario point, carrying
/// the report digest the campaign summary is folded from. Digest fields
/// are passed explicitly so a worker can re-emit checkpointed points it
/// restored without re-simulating them.
pub fn shard_point_record(
    shard: u64,
    index: u64,
    fingerprint: u64,
    throughput: f64,
    mean_delay: f64,
    delivered: u64,
    dropped: u64,
) -> Value {
    obj(vec![
        ("type", Value::Str("shard_point".into())),
        ("shard", Value::u64(shard)),
        ("index", Value::u64(index)),
        ("fingerprint", Value::u64(fingerprint)),
        ("throughput", Value::f64(throughput)),
        ("mean_delay", Value::f64(mean_delay)),
        ("delivered", Value::u64(delivered)),
        ("dropped", Value::u64(dropped)),
    ])
}

/// Build a `shard` record: one shard's terminal state. `status` is
/// `"completed"`, `"restored"` or `"quarantined"`; quarantined shards
/// carry the failure `reason` and a zero fingerprint.
pub fn shard_record(
    shard: u64,
    status: &str,
    points: u64,
    attempts: u64,
    fingerprint: u64,
    reason: Option<&str>,
) -> Value {
    let mut fields = vec![
        ("type", Value::Str("shard".into())),
        ("shard", Value::u64(shard)),
        ("status", Value::Str(status.into())),
        ("points", Value::u64(points)),
        ("attempts", Value::u64(attempts)),
        ("fingerprint", Value::u64(fingerprint)),
    ];
    if let Some(reason) = reason {
        fields.push(("reason", Value::Str(reason.into())));
    }
    obj(fields)
}

/// Build a `campaign_summary` record: closes a campaign scope with the
/// merged registry and the order-determined campaign fingerprint.
pub fn campaign_summary_record(
    key: u64,
    completed: u64,
    quarantined: &[usize],
    points_done: u64,
    fingerprint: u64,
    registry: &MetricsRegistry,
) -> Value {
    obj(vec![
        ("type", Value::Str("campaign_summary".into())),
        ("key", Value::u64(key)),
        ("completed", Value::u64(completed)),
        (
            "quarantined",
            Value::Arr(quarantined.iter().map(|&s| Value::u64(s as u64)).collect()),
        ),
        ("points_done", Value::u64(points_done)),
        ("fingerprint", Value::u64(fingerprint)),
        ("registry", registry.to_json()),
    ])
}

/// Counts of each record type seen by [`validate_jsonl`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlStats {
    /// `meta` records (one per engine run).
    pub metas: u64,
    /// `snapshot` records.
    pub snapshots: u64,
    /// `span` records.
    pub spans: u64,
    /// `summary` records.
    pub summaries: u64,
    /// `epoch` records (circuit-switched runs).
    pub epochs: u64,
    /// `reconfig` records (circuit-switched runs).
    pub reconfigs: u64,
    /// `fdl_occupancy` records (FDL-buffered runs).
    pub fdl_occupancies: u64,
    /// `fdl_drop` records (FDL-buffered runs).
    pub fdl_drops: u64,
    /// `fdl_recirculation` records (FDL-buffered runs).
    pub fdl_recirculations: u64,
    /// `campaign` records (one per campaign scope).
    pub campaigns: u64,
    /// `shard_point` records.
    pub shard_points: u64,
    /// `shard` records.
    pub shards: u64,
    /// `campaign_summary` records.
    pub campaign_summaries: u64,
}

fn require_u64(v: &Value, line: usize, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("line {line}: missing or non-integer field `{field}`"))
}

fn require_f64(v: &Value, line: usize, field: &str) -> Result<f64, String> {
    v.get(field)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("line {line}: missing or non-numeric field `{field}`"))
}

/// Validate a telemetry JSONL document against the record schema.
///
/// Checks that every line parses, that `"type"` is a known record kind
/// with its required fields, that the stream starts with a `meta` (or
/// `campaign`) record, that span segments sum to the span delay, and
/// that every open scope closes with its `summary` /
/// `campaign_summary`. Returns the per-type record counts on success.
pub fn validate_jsonl(text: &str) -> Result<JsonlStats, String> {
    let mut stats = JsonlStats::default();
    let mut open_run: Option<u64> = None;
    let mut open_campaign: Option<u64> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = Value::parse(raw).map_err(|e| format!("line {line}: parse error: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {line}: missing `type` field"))?;
        // Run-scope records carry a `run` index; campaign-scope records
        // carry the campaign `key` instead. The scopes never nest.
        let run = match ty {
            "campaign" | "shard_point" | "shard" | "campaign_summary" => {
                if open_run.is_some() {
                    return Err(format!("line {line}: {ty} record inside an open run"));
                }
                0
            }
            _ => {
                if open_campaign.is_some() {
                    return Err(format!("line {line}: {ty} record inside an open campaign"));
                }
                require_u64(&v, line, "run")?
            }
        };
        match ty {
            "meta" => {
                if open_run.is_some() {
                    return Err(format!("line {line}: meta while run is still open"));
                }
                let version = require_u64(&v, line, "version")?;
                if version != SCHEMA_VERSION {
                    return Err(format!("line {line}: unsupported schema version {version}"));
                }
                v.get("label")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {line}: missing `label`"))?;
                for f in [
                    "seed",
                    "ports",
                    "warmup_slots",
                    "measure_slots",
                    "sample_every",
                    "snapshot_every",
                ] {
                    require_u64(&v, line, f)?;
                }
                open_run = Some(run);
                stats.metas += 1;
            }
            "snapshot" => {
                if open_run != Some(run) {
                    return Err(format!("line {line}: snapshot outside its run"));
                }
                for f in [
                    "slot",
                    "interval_slots",
                    "injected",
                    "delivered",
                    "dropped",
                    "grants",
                    "credit_stalls",
                    "retransmits",
                    "receiver_conflicts",
                    "in_flight",
                ] {
                    require_u64(&v, line, f)?;
                }
                stats.snapshots += 1;
            }
            "span" => {
                if open_run != Some(run) {
                    return Err(format!("line {line}: span outside its run"));
                }
                let segs: Vec<u64> = ["queueing", "request_grant", "crossbar", "egress"]
                    .iter()
                    .map(|f| require_u64(&v, line, f))
                    .collect::<Result<_, _>>()?;
                let inject = require_u64(&v, line, "inject_slot")?;
                let deliver = require_u64(&v, line, "deliver_slot")?;
                if inject + segs.iter().sum::<u64>() != deliver {
                    return Err(format!(
                        "line {line}: span segments do not sum to the delay"
                    ));
                }
                require_u64(&v, line, "output")?;
                stats.spans += 1;
            }
            "epoch" => {
                if open_run != Some(run) {
                    return Err(format!("line {line}: epoch outside its run"));
                }
                for f in ["epoch", "start_slot", "guard_slots", "transfers"] {
                    require_u64(&v, line, f)?;
                }
                require_f64(&v, line, "utilization")?;
                v.get("reconfigured")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| format!("line {line}: missing or non-bool `reconfigured`"))?;
                stats.epochs += 1;
            }
            "reconfig" => {
                if open_run != Some(run) {
                    return Err(format!("line {line}: reconfig outside its run"));
                }
                for f in ["epoch", "slot", "changed_circuits", "guard_slots"] {
                    require_u64(&v, line, f)?;
                }
                stats.reconfigs += 1;
            }
            "fdl_occupancy" => {
                if open_run != Some(run) {
                    return Err(format!("line {line}: fdl_occupancy outside its run"));
                }
                for f in ["slot", "queue", "occupancy", "capacity"] {
                    require_u64(&v, line, f)?;
                }
                stats.fdl_occupancies += 1;
            }
            "fdl_drop" => {
                if open_run != Some(run) {
                    return Err(format!("line {line}: fdl_drop outside its run"));
                }
                for f in ["slot", "queue"] {
                    require_u64(&v, line, f)?;
                }
                let reason = v
                    .get("reason")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {line}: missing `reason`"))?;
                if !matches!(reason, "admission_full" | "no_feasible_line" | "dead_line") {
                    return Err(format!("line {line}: unknown fdl_drop reason `{reason}`"));
                }
                stats.fdl_drops += 1;
            }
            "fdl_recirculation" => {
                if open_run != Some(run) {
                    return Err(format!("line {line}: fdl_recirculation outside its run"));
                }
                for f in ["slot", "queue", "count"] {
                    require_u64(&v, line, f)?;
                }
                stats.fdl_recirculations += 1;
            }
            "summary" => {
                if open_run != Some(run) {
                    return Err(format!("line {line}: summary outside its run"));
                }
                let report = v
                    .get("report")
                    .ok_or_else(|| format!("line {line}: missing `report`"))?;
                for f in ["throughput", "offered_load", "mean_delay"] {
                    require_f64(report, line, f)?;
                }
                let registry = v
                    .get("registry")
                    .ok_or_else(|| format!("line {line}: missing `registry`"))?;
                MetricsRegistry::from_json(registry)
                    .ok_or_else(|| format!("line {line}: malformed registry"))?;
                let spans = v
                    .get("spans")
                    .ok_or_else(|| format!("line {line}: missing `spans`"))?;
                for f in ["completed", "sampled", "matched", "reordered", "ungranted"] {
                    require_u64(spans, line, f)?;
                }
                for f in [
                    "mean_queueing",
                    "mean_request_grant",
                    "mean_crossbar",
                    "mean_egress",
                    "mean_total",
                ] {
                    require_f64(spans, line, f)?;
                }
                open_run = None;
                stats.summaries += 1;
            }
            "campaign" => {
                if open_campaign.is_some() {
                    return Err(format!(
                        "line {line}: campaign while a campaign is still open"
                    ));
                }
                let version = require_u64(&v, line, "version")?;
                if version != SCHEMA_VERSION {
                    return Err(format!("line {line}: unsupported schema version {version}"));
                }
                v.get("label")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {line}: missing `label`"))?;
                require_u64(&v, line, "shards")?;
                require_u64(&v, line, "points")?;
                open_campaign = Some(require_u64(&v, line, "key")?);
                stats.campaigns += 1;
            }
            "shard_point" => {
                if open_campaign.is_none() {
                    return Err(format!("line {line}: shard_point outside a campaign"));
                }
                for f in ["shard", "index", "fingerprint", "delivered", "dropped"] {
                    require_u64(&v, line, f)?;
                }
                for f in ["throughput", "mean_delay"] {
                    require_f64(&v, line, f)?;
                }
                stats.shard_points += 1;
            }
            "shard" => {
                if open_campaign.is_none() {
                    return Err(format!("line {line}: shard outside a campaign"));
                }
                for f in ["shard", "points", "attempts", "fingerprint"] {
                    require_u64(&v, line, f)?;
                }
                let status = v
                    .get("status")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {line}: missing `status`"))?;
                if !matches!(status, "completed" | "restored" | "quarantined") {
                    return Err(format!("line {line}: unknown shard status `{status}`"));
                }
                stats.shards += 1;
            }
            "campaign_summary" => {
                let key = require_u64(&v, line, "key")?;
                if open_campaign != Some(key) {
                    return Err(format!(
                        "line {line}: campaign_summary outside its campaign"
                    ));
                }
                for f in ["completed", "points_done", "fingerprint"] {
                    require_u64(&v, line, f)?;
                }
                let quarantined = v
                    .get("quarantined")
                    .and_then(Value::items)
                    .ok_or_else(|| format!("line {line}: missing `quarantined` list"))?;
                if quarantined.iter().any(|s| s.as_u64().is_none()) {
                    return Err(format!("line {line}: non-integer quarantined shard id"));
                }
                let registry = v
                    .get("registry")
                    .ok_or_else(|| format!("line {line}: missing `registry`"))?;
                MetricsRegistry::from_json(registry)
                    .ok_or_else(|| format!("line {line}: malformed registry"))?;
                open_campaign = None;
                stats.campaign_summaries += 1;
            }
            other => return Err(format!("line {line}: unknown record type `{other}`")),
        }
    }
    if stats.metas == 0 && stats.campaigns == 0 {
        return Err("no meta or campaign record found".into());
    }
    if open_run.is_some() {
        return Err("stream ended with an unclosed run (no summary)".into());
    }
    if open_campaign.is_some() {
        return Err("stream ended with an unclosed campaign (no campaign_summary)".into());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta {
            seed: 42,
            ports: 16,
            warmup_slots: 100,
            measure_slots: 1000,
            sample_every: 4,
            snapshot_every: 250,
        }
    }

    fn sample_stream() -> String {
        let snap = Snapshot {
            run: 0,
            slot: 250,
            interval_slots: 250,
            injected: 900,
            delivered: 880,
            dropped: 2,
            grants: 885,
            credit_stalls: 0,
            retransmits: 0,
            receiver_conflicts: 3,
            in_flight: 18,
        };
        let span = CellSpan {
            output: 3,
            inject_slot: 400,
            deliver_slot: 407,
            queueing: 4,
            request_grant: 1,
            crossbar: 1,
            egress: 1,
            granted: true,
        };
        let report = EngineReport::default();
        let reg = MetricsRegistry::new();
        let dec = Decomposition::default();
        [
            meta_record(0, "unit", &meta()).encode(),
            snapshot_record(&snap).encode(),
            span_record(0, &span).encode(),
            epoch_record(0, 0, 0, true, 1, 60, 0.94).encode(),
            reconfig_record(0, 0, 0, 16, 1).encode(),
            fdl_occupancy_record(0, 410, 5, 3, 8).encode(),
            fdl_drop_record(0, 411, 5, "dead_line").encode(),
            fdl_recirculation_record(0, 412, 5, 2).encode(),
            summary_record(0, &report, &reg, &dec).encode(),
        ]
        .join("\n")
    }

    #[test]
    fn well_formed_stream_validates_with_exact_counts() {
        let stats = validate_jsonl(&sample_stream()).expect("valid");
        assert_eq!(
            stats,
            JsonlStats {
                metas: 1,
                snapshots: 1,
                spans: 1,
                summaries: 1,
                epochs: 1,
                reconfigs: 1,
                fdl_occupancies: 1,
                fdl_drops: 1,
                fdl_recirculations: 1,
                ..JsonlStats::default()
            }
        );
    }

    fn campaign_stream() -> String {
        let report = EngineReport::default();
        let reg = MetricsRegistry::new();
        [
            campaign_record(0xCAFE, "unit-campaign", 4, 32).encode(),
            shard_point_record(1, 9, report.fingerprint(), 0.5, 3.0, 4000, 0).encode(),
            shard_record(1, "completed", 8, 1, 0xF00D, None).encode(),
            shard_record(
                3,
                "quarantined",
                0,
                3,
                0,
                Some("worker exited with status 3"),
            )
            .encode(),
            campaign_summary_record(0xCAFE, 3, &[3], 24, 0xBEEF, &reg).encode(),
        ]
        .join("\n")
    }

    #[test]
    fn campaign_stream_validates_with_exact_counts() {
        let stats = validate_jsonl(&campaign_stream()).expect("valid campaign stream");
        assert_eq!(
            stats,
            JsonlStats {
                campaigns: 1,
                shard_points: 1,
                shards: 2,
                campaign_summaries: 1,
                ..JsonlStats::default()
            }
        );
    }

    #[test]
    fn campaign_records_are_policed() {
        let open = campaign_record(1, "c", 2, 4).encode();
        let close = campaign_summary_record(1, 2, &[], 4, 0, &MetricsRegistry::new()).encode();
        // Scopes must not nest: a campaign inside an open run, and a
        // run-scope record inside an open campaign.
        let meta_line = meta_record(0, "unit", &meta()).encode();
        let err = validate_jsonl(&format!("{meta_line}\n{open}")).unwrap_err();
        assert!(err.contains("inside an open run"), "{err}");
        let err = validate_jsonl(&format!("{open}\n{meta_line}")).unwrap_err();
        assert!(err.contains("inside an open campaign"), "{err}");
        // A shard record needs a campaign scope.
        let loose = shard_record(0, "completed", 1, 1, 0, None).encode();
        let err = validate_jsonl(&loose).unwrap_err();
        assert!(err.contains("outside a campaign"), "{err}");
        // Unknown shard status.
        let bad = shard_record(0, "lost", 1, 1, 0, None).encode();
        let err = validate_jsonl(&format!("{open}\n{bad}\n{close}")).unwrap_err();
        assert!(err.contains("unknown shard status"), "{err}");
        // Summary key must match the opener.
        let wrong = campaign_summary_record(2, 2, &[], 4, 0, &MetricsRegistry::new()).encode();
        let err = validate_jsonl(&format!("{open}\n{wrong}")).unwrap_err();
        assert!(err.contains("outside its campaign"), "{err}");
        // Unclosed campaign.
        let err = validate_jsonl(&open).unwrap_err();
        assert!(err.contains("unclosed campaign"), "{err}");
    }

    #[test]
    fn epoch_records_are_policed() {
        let meta_line = meta_record(0, "unit", &meta()).encode();
        // Epoch outside a run.
        let loose = epoch_record(1, 0, 0, false, 0, 0, 0.0).encode();
        let err = validate_jsonl(&format!("{meta_line}\n{loose}")).unwrap_err();
        assert!(err.contains("outside its run"), "{err}");
        // Missing reconfigured flag.
        let bad = epoch_record(0, 0, 0, true, 1, 60, 0.5)
            .encode()
            .replace("\"reconfigured\":true,", "");
        let err = validate_jsonl(&format!("{meta_line}\n{bad}")).unwrap_err();
        assert!(err.contains("reconfigured"), "{err}");
        // Reconfig missing a required count.
        let bad = reconfig_record(0, 0, 0, 4, 1)
            .encode()
            .replace("\"changed_circuits\":4,", "");
        let err = validate_jsonl(&format!("{meta_line}\n{bad}")).unwrap_err();
        assert!(err.contains("changed_circuits"), "{err}");
    }

    #[test]
    fn fdl_records_are_policed() {
        let meta_line = meta_record(0, "unit", &meta()).encode();
        // Any FDL record outside a run is rejected.
        for loose in [
            fdl_occupancy_record(1, 0, 0, 0, 8).encode(),
            fdl_drop_record(1, 0, 0, "admission_full").encode(),
            fdl_recirculation_record(1, 0, 0, 1).encode(),
        ] {
            let err = validate_jsonl(&format!("{meta_line}\n{loose}")).unwrap_err();
            assert!(err.contains("outside its run"), "{err}");
        }
        // Occupancy missing its capacity field.
        let bad = fdl_occupancy_record(0, 0, 0, 2, 8)
            .encode()
            .replace("\"capacity\":8", "\"cap\":8");
        let err = validate_jsonl(&format!("{meta_line}\n{bad}")).unwrap_err();
        assert!(err.contains("capacity"), "{err}");
        // Drop reasons come from the typed loss enum only.
        let bad = fdl_drop_record(0, 0, 0, "cosmic_ray").encode();
        let err = validate_jsonl(&format!("{meta_line}\n{bad}")).unwrap_err();
        assert!(err.contains("unknown fdl_drop reason"), "{err}");
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        // Unknown type.
        let err = validate_jsonl("{\"type\":\"bogus\",\"run\":0}").unwrap_err();
        assert!(err.contains("unknown record type"), "{err}");
        // Span before any meta.
        let stream = sample_stream();
        let span_line = stream.lines().nth(2).unwrap();
        let err = validate_jsonl(span_line).unwrap_err();
        assert!(err.contains("outside its run"), "{err}");
        // Segments that do not sum to the delay.
        let bad = span_line.replace("\"queueing\":4", "\"queueing\":5");
        let with_meta = format!("{}\n{}", meta_record(0, "unit", &meta()).encode(), bad);
        let err = validate_jsonl(&with_meta).unwrap_err();
        assert!(err.contains("do not sum"), "{err}");
        // Unclosed run.
        let meta_only = meta_record(0, "unit", &meta()).encode();
        let err = validate_jsonl(&meta_only).unwrap_err();
        assert!(err.contains("unclosed run"), "{err}");
        // Garbage line.
        assert!(validate_jsonl("not json").is_err());
        // Empty document.
        assert!(validate_jsonl("").is_err());
    }
}
