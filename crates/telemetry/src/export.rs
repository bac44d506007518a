//! Streaming JSONL export: the [`Record`] schema and its validator.
//!
//! A telemetry or campaign export is a JSON-Lines stream of
//! [`Record`]s, one per line, discriminated by the `"type"` field; each
//! variant's doc names its type string and what it carries.
//! [`Record::encode`] writes a line and [`Record::decode`] reads it
//! back exactly.
//!
//! Records live in one of two scopes, which never nest. A run scope
//! opens with `meta`, carries its `run` index on every record, and
//! closes with `summary`. A campaign scope opens with `campaign`,
//! carries no run index, and closes with the `campaign_summary` of the
//! same `key`. [`validate_jsonl`] decodes every line and enforces that
//! shape; CI runs it over the output of `telemetry_study --smoke`, and
//! the campaign tests over every campaign stream.

use crate::registry::MetricsRegistry;
use crate::spans::{CellSpan, Decomposition};
use crate::{RunMeta, Snapshot};
use osmosis_sim::buffer::BufferLossReason;
use osmosis_sim::engine::EngineReport;
use osmosis_sim::json::Value;

/// Schema version stamped into every `meta` and `campaign` record.
pub const SCHEMA_VERSION: u64 = 1;

/// What became of one campaign shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Every point ran in this campaign pass.
    Completed,
    /// The shard's summary was restored from an earlier pass.
    Restored,
}

impl ShardStatus {
    /// The name a `shard` record carries.
    pub fn name(self) -> &'static str {
        match self {
            ShardStatus::Completed => "completed",
            ShardStatus::Restored => "restored",
        }
    }

    /// The status named `name`, if any.
    fn from_name(name: &str) -> Option<Self> {
        [Self::Completed, Self::Restored]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// The engine-report figures a `summary` record carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportDigest {
    /// Carried throughput.
    pub throughput: f64,
    /// Offered load.
    pub offered_load: f64,
    /// Mean cell delay in slots.
    pub mean_delay: f64,
    /// 99th-percentile delay, when resolvable.
    pub p99_delay: Option<f64>,
    /// Cells delivered.
    pub delivered: u64,
    /// Cells dropped.
    pub dropped: u64,
}

impl ReportDigest {
    /// The digest of `report`.
    pub fn of(report: &EngineReport) -> Self {
        ReportDigest {
            throughput: report.throughput,
            offered_load: report.offered_load,
            mean_delay: report.mean_delay,
            p99_delay: report.p99_delay,
            delivered: report.delivered,
            dropped: report.dropped,
        }
    }
}

/// How one record field is written to, and read from, a line's object.
trait Field: Sized {
    /// Append the field, named `key`, to the object's pairs.
    fn write(&self, key: &str, out: &mut Vec<(String, Value)>);
    /// Read the field named `key` from the object `v`.
    fn read(v: &Value, key: &str) -> Result<Self, String>;
}

/// A field held as one JSON value, written by `to` and read by `from`.
macro_rules! scalar {
    ($t:ty, $what:literal, $to:expr, $from:expr) => {
        impl Field for $t {
            fn write(&self, key: &str, out: &mut Vec<(String, Value)>) {
                let to: fn(&$t) -> Value = $to;
                out.push((key.into(), to(self)));
            }
            fn read(v: &Value, key: &str) -> Result<Self, String> {
                let from: fn(&Value) -> Option<$t> = $from;
                let v = v.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
                from(v).ok_or_else(|| format!("field `{key}` is not {}: {}", $what, v.encode()))
            }
        }
    };
}

scalar!(u64, "an integer", |x| Value::u64(*x), Value::as_u64);
scalar!(
    usize,
    "an integer",
    |x| Value::u64(*x as u64),
    Value::as_usize
);
scalar!(f64, "a number", |x| Value::f64(*x), Value::as_f64);
scalar!(bool, "a bool", |x| Value::Bool(*x), Value::as_bool);
scalar!(u32, "a u32", |x| Value::u64(u64::from(*x)), |v| v
    .as_u64()
    .and_then(|n| u32::try_from(n).ok()));
scalar!(String, "a string", |x| Value::str(x.as_str()), |v| {
    v.as_str().map(str::to_string)
});
scalar!(
    Option<f64>,
    "a number or null",
    |x| x.map_or(Value::Null, Value::f64),
    |v| {
        match v {
            Value::Null => Some(None),
            v => v.as_f64().map(Some),
        }
    }
);
scalar!(
    Vec<u64>,
    "a list of integers",
    |x| Value::Arr(x.iter().map(|&i| Value::u64(i)).collect()),
    |v| v.items()?.iter().map(Value::as_u64).collect()
);
scalar!(
    MetricsRegistry,
    "a registry",
    MetricsRegistry::to_json,
    MetricsRegistry::from_json
);
scalar!(
    BufferLossReason,
    "an fdl_drop reason",
    |x| Value::str(x.name()),
    |v| v.as_str().and_then(BufferLossReason::from_name)
);
scalar!(
    ShardStatus,
    "a shard status",
    |x| Value::str(x.name()),
    |v| v.as_str().and_then(ShardStatus::from_name)
);

/// A struct whose fields are written in the line's own object (`flat`),
/// or in an object of their own under the field's key (`nested`).
macro_rules! object {
    (flat $t:ident { $($f:ident),+ $(,)? }) => {
        impl Field for $t {
            fn write(&self, _: &str, out: &mut Vec<(String, Value)>) {
                $(self.$f.write(stringify!($f), out);)+
            }
            fn read(v: &Value, _: &str) -> Result<Self, String> {
                Ok($t { $($f: Field::read(v, stringify!($f))?,)+ })
            }
        }
    };
    (nested $t:ident { $($f:ident),+ $(,)? }) => {
        impl Field for $t {
            fn write(&self, key: &str, out: &mut Vec<(String, Value)>) {
                let mut inner = Vec::new();
                $(self.$f.write(stringify!($f), &mut inner);)+
                out.push((key.into(), Value::Obj(inner)));
            }
            fn read(v: &Value, key: &str) -> Result<Self, String> {
                let v = v.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
                Ok($t { $($f: Field::read(v, stringify!($f))?,)+ })
            }
        }
    };
}

object!(flat RunMeta { seed, ports, warmup_slots, measure_slots, sample_every, snapshot_every });
object!(flat Snapshot {
    run,
    slot,
    interval_slots,
    injected,
    delivered,
    dropped,
    grants,
    credit_stalls,
    retransmits,
    receiver_conflicts,
    in_flight,
});
object!(flat CellSpan {
    output,
    inject_slot,
    deliver_slot,
    queueing,
    request_grant,
    crossbar,
    egress,
    granted,
});
object!(nested ReportDigest { throughput, offered_load, mean_delay, p99_delay, delivered, dropped });
object!(nested Decomposition {
    completed,
    sampled,
    matched,
    reordered,
    ungranted,
    mean_queueing,
    mean_request_grant,
    mean_crossbar,
    mean_egress,
    mean_total,
});

/// The record enum, its type strings and its line codec, from one list:
/// a line holds `"type"` and then each field in declaration order.
macro_rules! records {
    ($($(#[doc = $doc:literal])+ $v:ident = $ty:literal { $($f:ident: $t:ty),+ $(,)? })+) => {
        /// One line of a telemetry or campaign stream.
        #[derive(Debug, Clone, PartialEq)]
        #[expect(missing_docs, reason = "each variant's doc describes its fields")]
        pub enum Record {
            $($(#[doc = $doc])+ $v { $($f: $t),+ },)+
        }

        impl Record {
            /// The record's `"type"` string.
            pub fn type_name(&self) -> &'static str {
                match self {
                    $(Record::$v { .. } => $ty,)+
                }
            }

            /// The record as one JSON line (no trailing newline).
            pub fn encode(&self) -> String {
                let mut out = vec![("type".to_string(), Value::str(self.type_name()))];
                match self {
                    $(Record::$v { $($f),+ } => { $($f.write(stringify!($f), &mut out);)+ })+
                }
                Value::Obj(out).encode()
            }

            /// Read one line back. Every malformed line is an `Err` naming
            /// what is wrong: unparsable JSON, an unknown `type`, or a
            /// missing or wrong-typed field, an unknown `fdl_drop` reason
            /// or `shard` status among them.
            pub fn decode(line: &str) -> Result<Record, String> {
                let v = Value::parse(line).map_err(|e| format!("parse error: {e}"))?;
                match String::read(&v, "type")?.as_str() {
                    $($ty => Ok(Record::$v { $($f: Field::read(&v, stringify!($f))?),+ }),)+
                    other => Err(format!("unknown record type `{other}`")),
                }
            }
        }
    };
}

records! {
    /// `meta`: opens run `run` with the schema version, the sink's label
    /// and the run's seed, ports, windows and sampling cadences.
    Meta = "meta" { version: u64, run: u64, label: String, meta: RunMeta }
    /// `snapshot`: one time-series sample of the run `snapshot.run`:
    /// interval deltas plus the in-flight count.
    Snapshot = "snapshot" { snapshot: Snapshot }
    /// `span`: one sampled cell lifecycle with its four delay segments.
    Span = "span" { run: u64, span: CellSpan }
    /// `summary`: closes run `run` with its report digest, and the
    /// registry and span decomposition accumulated over every run the
    /// sink observed.
    Summary = "summary" {
        run: u64,
        report: ReportDigest,
        registry: MetricsRegistry,
        spans: Decomposition,
    }
    /// `epoch` (circuit-switched runs): one scheduler epoch, whether it
    /// opened with a reconfiguration, the guard slots it charged, the
    /// cells it moved and its circuit utilization.
    Epoch = "epoch" {
        run: u64,
        epoch: u64,
        start_slot: u64,
        reconfigured: bool,
        guard_slots: u64,
        transfers: u64,
        utilization: f64,
    }
    /// `reconfig` (circuit-switched runs): one actual reconfiguration at
    /// `slot`, the circuits it changed and the guard slots it paid.
    Reconfig = "reconfig" {
        run: u64,
        epoch: u64,
        slot: u64,
        changed_circuits: u64,
        guard_slots: u64,
    }
    /// `fdl_occupancy` (FDL-buffered runs): one sampled delay-line queue
    /// occupancy against its guaranteed capacity.
    FdlOccupancy = "fdl_occupancy" {
        run: u64,
        slot: u64,
        queue: u64,
        occupancy: u64,
        capacity: u64,
    }
    /// `fdl_drop` (FDL-buffered runs): one delay-line loss and its reason.
    FdlDrop = "fdl_drop" { run: u64, slot: u64, queue: u64, reason: BufferLossReason }
    /// `fdl_recirculation` (FDL-buffered runs): `count` emerged but
    /// unserved cells re-entered into delay lines at `queue` this slot.
    FdlRecirculation = "fdl_recirculation" { run: u64, slot: u64, queue: u64, count: u64 }
    /// `campaign`: opens the campaign scope `key` with the schema
    /// version, a label, and the shard and scenario-point counts.
    Campaign = "campaign" { version: u64, key: u64, label: String, shards: u64, points: u64 }
    /// `shard_point`: one completed scenario point with the report
    /// figures the campaign summary is folded from.
    ShardPoint = "shard_point" {
        shard: u64,
        index: u64,
        fingerprint: u64,
        throughput: f64,
        mean_delay: f64,
        delivered: u64,
        dropped: u64,
    }
    /// `shard`: one shard's fate, its point count, its `attempts`
    /// (always 1) and its fold fingerprint.
    Shard = "shard" {
        shard: u64,
        status: ShardStatus,
        points: u64,
        attempts: u64,
        fingerprint: u64,
    }
    /// `campaign_summary`: closes the campaign scope `key` with the
    /// completed shard count, the `quarantined` shards (always empty),
    /// the points done, the campaign fingerprint and the merged
    /// registry.
    CampaignSummary = "campaign_summary" {
        key: u64,
        completed: u64,
        quarantined: Vec<u64>,
        points_done: u64,
        fingerprint: u64,
        registry: MetricsRegistry,
    }
}

impl Record {
    /// The run a run-scope record belongs to; `None` in the campaign
    /// scope.
    fn run(&self) -> Option<u64> {
        match self {
            Record::Meta { run, .. }
            | Record::Span { run, .. }
            | Record::Summary { run, .. }
            | Record::Epoch { run, .. }
            | Record::Reconfig { run, .. }
            | Record::FdlOccupancy { run, .. }
            | Record::FdlDrop { run, .. }
            | Record::FdlRecirculation { run, .. } => Some(*run),
            Record::Snapshot { snapshot } => Some(snapshot.run),
            Record::Campaign { .. }
            | Record::ShardPoint { .. }
            | Record::Shard { .. }
            | Record::CampaignSummary { .. } => None,
        }
    }
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

impl JsonlStats {
    fn count(&mut self, record: &Record) {
        *match record {
            Record::Meta { .. } => &mut self.metas,
            Record::Snapshot { .. } => &mut self.snapshots,
            Record::Span { .. } => &mut self.spans,
            Record::Summary { .. } => &mut self.summaries,
            Record::Epoch { .. } => &mut self.epochs,
            Record::Reconfig { .. } => &mut self.reconfigs,
            Record::FdlOccupancy { .. } => &mut self.fdl_occupancies,
            Record::FdlDrop { .. } => &mut self.fdl_drops,
            Record::FdlRecirculation { .. } => &mut self.fdl_recirculations,
            Record::Campaign { .. } => &mut self.campaigns,
            Record::ShardPoint { .. } => &mut self.shard_points,
            Record::Shard { .. } => &mut self.shards,
            Record::CampaignSummary { .. } => &mut self.campaign_summaries,
        } += 1;
    }
}

/// Validate a telemetry JSONL document against the record schema.
///
/// Every line must [`decode`](Record::decode) and carry the current
/// schema version. The stream must hold a `meta` or `campaign` record,
/// every record must sit inside its open scope, span segments must sum
/// to the span delay, and every scope that opens must close. Returns the
/// per-type record counts on success.
pub fn validate_jsonl(text: &str) -> Result<JsonlStats, String> {
    let mut stats = JsonlStats::default();
    let mut open_run: Option<u64> = None;
    let mut open_campaign: Option<u64> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let record = Record::decode(raw).map_err(|e| format!("line {line}: {e}"))?;
        let error = match (record.run(), &record) {
            (_, Record::Meta { version, .. } | Record::Campaign { version, .. })
                if *version != SCHEMA_VERSION =>
            {
                Some(format!("unsupported schema version {version}"))
            }
            (Some(_), _) if open_campaign.is_some() => {
                Some("record inside an open campaign".into())
            }
            (None, _) if open_run.is_some() => Some("record inside an open run".into()),
            (Some(_), Record::Meta { .. }) if open_run.is_some() => {
                Some("while run is still open".into())
            }
            (Some(run), Record::Meta { .. }) => {
                open_run = Some(run);
                None
            }
            (Some(run), _) if open_run != Some(run) => Some("outside its run".into()),
            (Some(_), Record::Summary { .. }) => {
                open_run = None;
                None
            }
            (Some(_), Record::Span { span, .. }) => {
                let segments = [
                    span.queueing,
                    span.request_grant,
                    span.crossbar,
                    span.egress,
                ];
                let end = segments
                    .iter()
                    .try_fold(span.inject_slot, |at, &s| at.checked_add(s));
                (end != Some(span.deliver_slot)).then(|| "segments do not sum to the delay".into())
            }
            (None, Record::Campaign { .. }) if open_campaign.is_some() => {
                Some("while a campaign is still open".into())
            }
            (None, Record::Campaign { key, .. }) => {
                open_campaign = Some(*key);
                None
            }
            (None, Record::CampaignSummary { key, .. }) if open_campaign != Some(*key) => {
                Some("outside its campaign".into())
            }
            (None, Record::CampaignSummary { .. }) => {
                open_campaign = None;
                None
            }
            (None, _) if open_campaign.is_none() => Some("outside a campaign".into()),
            _ => None,
        };
        if let Some(e) = error {
            return Err(format!("line {line}: {} {e}", record.type_name()));
        }
        stats.count(&record);
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

    /// One line of each run-scope record type, in stream order.
    const RUN: [&str; 9] = [
        r#"{"type":"meta","version":1,"run":0,"label":"unit","seed":42,"ports":16,"warmup_slots":100,"measure_slots":1000,"sample_every":4,"snapshot_every":250}"#,
        r#"{"type":"snapshot","run":0,"slot":250,"interval_slots":250,"injected":900,"delivered":880,"dropped":2,"grants":885,"credit_stalls":0,"retransmits":0,"receiver_conflicts":3,"in_flight":18}"#,
        r#"{"type":"span","run":0,"output":3,"inject_slot":400,"deliver_slot":407,"queueing":4,"request_grant":1,"crossbar":1,"egress":1,"granted":true}"#,
        r#"{"type":"epoch","run":0,"epoch":0,"start_slot":0,"reconfigured":true,"guard_slots":1,"transfers":60,"utilization":0.94}"#,
        r#"{"type":"reconfig","run":0,"epoch":0,"slot":0,"changed_circuits":16,"guard_slots":1}"#,
        r#"{"type":"fdl_occupancy","run":0,"slot":410,"queue":5,"occupancy":3,"capacity":8}"#,
        r#"{"type":"fdl_drop","run":0,"slot":411,"queue":5,"reason":"dead_line"}"#,
        r#"{"type":"fdl_recirculation","run":0,"slot":412,"queue":5,"count":2}"#,
        r#"{"type":"summary","run":0,"report":{"throughput":0.5,"offered_load":0.5,"mean_delay":3.0,"p99_delay":null,"delivered":4000,"dropped":0},"registry":{"counters":[["voq/cells_injected",9]],"gauges":[],"histograms":[]},"spans":{"completed":0,"sampled":0,"matched":0,"reordered":0,"ungranted":0,"mean_queueing":0.0,"mean_request_grant":0.0,"mean_crossbar":0.0,"mean_egress":0.0,"mean_total":0.0}}"#,
    ];

    /// One line of each campaign-scope record type, in stream order.
    const CAMPAIGN: [&str; 5] = [
        r#"{"type":"campaign","version":1,"key":51966,"label":"unit-campaign","shards":4,"points":32}"#,
        r#"{"type":"shard_point","shard":1,"index":9,"fingerprint":7,"throughput":0.5,"mean_delay":3.0,"delivered":4000,"dropped":0}"#,
        r#"{"type":"shard","shard":1,"status":"completed","points":8,"attempts":1,"fingerprint":61453}"#,
        r#"{"type":"shard","shard":3,"status":"restored","points":8,"attempts":1,"fingerprint":3054}"#,
        r#"{"type":"campaign_summary","key":51966,"completed":3,"quarantined":[3],"points_done":24,"fingerprint":48879,"registry":{"counters":[],"gauges":[],"histograms":[]}}"#,
    ];

    fn rejects(lines: &[&str], what: &str) {
        let err = validate_jsonl(&lines.join("\n")).unwrap_err();
        assert!(err.contains(what), "{err}");
    }

    #[test]
    fn every_record_type_re_encodes_byte_for_byte() {
        let lines = RUN.iter().chain(&CAMPAIGN);
        let names: Vec<_> = lines
            .map(|line| {
                let r = Record::decode(line).unwrap();
                assert_eq!(r.encode(), *line);
                r.type_name()
            })
            .collect();
        assert_eq!(names.len() - 1, 13, "all 13 types, `shard` twice");
    }

    #[test]
    fn well_formed_streams_validate_with_exact_counts() {
        let all = |n| JsonlStats {
            metas: n,
            snapshots: n,
            spans: n,
            summaries: n,
            epochs: n,
            reconfigs: n,
            fdl_occupancies: n,
            fdl_drops: n,
            fdl_recirculations: n,
            ..JsonlStats::default()
        };
        assert_eq!(validate_jsonl(&RUN.join("\n")), Ok(all(1)));
        let campaign = JsonlStats {
            campaigns: 1,
            shard_points: 1,
            shards: 2,
            campaign_summaries: 1,
            ..JsonlStats::default()
        };
        assert_eq!(validate_jsonl(&CAMPAIGN.join("\n")), Ok(campaign));
    }

    #[test]
    fn scopes_are_policed() {
        let [meta, .., summary] = RUN;
        let [campaign, .., campaign_summary] = CAMPAIGN;
        rejects(&[meta, campaign], "inside an open run");
        rejects(&[campaign, meta], "inside an open campaign");
        rejects(&[CAMPAIGN[2]], "outside a campaign");
        rejects(&[RUN[2]], "outside its run");
        for line in &RUN[1..] {
            rejects(
                &[meta, &line.replace("\"run\":0", "\"run\":1")],
                "outside its run",
            );
        }
        rejects(&[meta, meta], "while run is still open");
        rejects(&[campaign, campaign], "while a campaign is still open");
        let other = campaign_summary.replace("51966", "2");
        rejects(&[campaign, &other], "outside its campaign");
        rejects(&[meta], "unclosed run");
        rejects(&[campaign], "unclosed campaign");
        rejects(
            &[&meta.replace("\"version\":1", "\"version\":2")],
            "schema version 2",
        );
        rejects(&[""], "no meta or campaign record");
        let skew = RUN[2].replace("\"queueing\":4", "\"queueing\":5");
        rejects(&[meta, &skew, summary], "do not sum");
        let huge = RUN[2].replace("\"queueing\":4", &format!("\"queueing\":{}", u64::MAX));
        rejects(&[meta, &huge, summary], "do not sum");
    }

    #[test]
    fn hostile_lines_are_errors_not_panics() {
        let mut cases: Vec<(String, &str)> = Vec::new();
        for line in RUN.iter().chain(&CAMPAIGN) {
            for cut in 0..line.len() {
                cases.push((line[..cut].to_string(), ""));
            }
        }
        let edit = |line: &str, from: &str, to: &str| line.replacen(from, to, 1);
        cases.extend([
            (edit(RUN[0], "42", "\"42\""), "`seed` is not an integer"),
            (edit(RUN[0], "42", "-1"), "`seed` is not an integer"),
            (edit(RUN[0], "\"unit\"", "7"), "`label` is not a string"),
            (
                edit(RUN[2], "\"output\":3", "\"output\":4294967296"),
                "`output`",
            ),
            (edit(RUN[3], "true", "1"), "`reconfigured` is not a bool"),
            (
                edit(RUN[8], "\"delivered\":4000", "\"delivered\":0.5"),
                "`delivered`",
            ),
            (
                edit(RUN[8], ",\"p99_delay\":null", ""),
                "missing field `p99_delay`",
            ),
            (
                edit(RUN[8], "\"counters\":[", "\"counters\":[7,"),
                "`registry`",
            ),
            (
                edit(RUN[6], "dead_line", "cosmic_ray"),
                "not an fdl_drop reason",
            ),
            (edit(CAMPAIGN[2], "completed", "lost"), "not a shard status"),
            (
                edit(CAMPAIGN[3], "restored", "quarantined"),
                "not a shard status",
            ),
            (edit(CAMPAIGN[4], "[3]", "[\"3\"]"), "`quarantined`"),
            // Bucket counts short of `count`: this parsed, and the
            // histogram's `quantile` then reached `unreachable!`.
            (
                edit(
                    RUN[8],
                    "\"histograms\":[]",
                    r#""histograms":[["egress/delivery_delay",{"count":5,"sum":0,"min":0,"max":0,"buckets":[]}]]"#,
                ),
                "`registry`",
            ),
            (
                "{\"type\":\"bogus\",\"run\":0}".into(),
                "unknown record type `bogus`",
            ),
            ("{\"type\":7}".into(), "`type` is not a string"),
            ("[1,2]".into(), "missing field `type`"),
            ("not json".into(), "parse error"),
        ]);
        for (line, what) in cases {
            match Record::decode(&line) {
                Ok(r) => panic!("{line} decoded to {r:?}"),
                Err(e) => assert!(e.contains(what), "{line}: {e}"),
            }
        }
    }

    #[test]
    fn unknown_metric_names_are_errors_not_interned() {
        for k in 0..10_000 {
            let line = RUN[8].replace("voq/cells_injected", &format!("voq/metric_{k}"));
            let e = Record::decode(&line).expect_err("an unknown metric name decoded");
            assert!(e.contains("`registry`"), "{line}: {e}");
        }
        assert!(Record::decode(RUN[8]).is_ok());
    }
}
