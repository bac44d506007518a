//! The telemetry record codec is exact: every record of every one of the
//! eight types reads back from its line as the record that wrote it,
//! `Record::decode(&r.encode()) == Ok(r)`.

use osmosis::telemetry::{
    metrics, CellSpan, Decomposition, MetricsRegistry, Record, ReportDigest, RunMeta, ShardStatus,
    Snapshot, SCHEMA_VERSION,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Labels with every kind of character the writer escapes.
const TEXT: [&str; 6] = [
    "",
    "shard-3/8",
    "quote \" and back\\slash",
    "tab\tnew\nline\r",
    "control \u{1}\u{1f}",
    "ünïcödé ✓",
];

/// A registry with a counter, a gauge and a histogram.
fn registry(w: &[u64; 11], gauge: f64) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.inc(metrics::GRANTS, w[0]);
    reg.set_gauge(metrics::THROUGHPUT, gauge);
    reg.observe(metrics::DELIVERY_DELAY, w[1]);
    reg.observe(metrics::DELIVERY_DELAY, w[2]);
    reg
}

/// Record type `variant` (0..8), its fields drawn from `w`, `f`, `flag`
/// and `text`.
fn record(variant: usize, w: [u64; 11], f: [f64; 5], flag: bool, text: &str) -> Record {
    let [a, b, c, d, e, g, h, i, j, k, l] = w;
    match variant {
        0 => Record::Meta {
            version: SCHEMA_VERSION,
            run: a,
            label: text.into(),
            meta: RunMeta {
                seed: b,
                ports: c as usize,
                warmup_slots: d,
                measure_slots: e,
                sample_every: g,
                snapshot_every: h,
            },
        },
        1 => Record::Snapshot {
            snapshot: Snapshot {
                run: a,
                slot: b,
                interval_slots: c,
                injected: d,
                delivered: e,
                dropped: g,
                grants: h,
                credit_stalls: i,
                retransmits: j,
                receiver_conflicts: k,
                in_flight: l,
            },
        },
        2 => Record::Span {
            run: a,
            span: CellSpan {
                output: b as u32,
                inject_slot: c,
                deliver_slot: d,
                queueing: e,
                request_grant: g,
                crossbar: h,
                egress: i,
                granted: flag,
            },
        },
        3 => Record::Summary {
            run: a,
            report: ReportDigest {
                throughput: f[0],
                offered_load: f[1],
                mean_delay: f[2],
                p99_delay: flag.then_some(f[3]),
                delivered: b,
                dropped: c,
            },
            registry: registry(&w, f[4]),
            spans: Decomposition {
                completed: d,
                sampled: e,
                matched: g,
                reordered: h,
                ungranted: i,
                mean_queueing: f[4],
                mean_request_grant: f[3],
                mean_crossbar: f[2],
                mean_egress: f[1],
                mean_total: f[0],
            },
        },
        4 => Record::Campaign {
            version: SCHEMA_VERSION,
            key: a,
            label: text.into(),
            shards: b,
            points: c,
        },
        5 => Record::ShardPoint {
            shard: a,
            index: b,
            fingerprint: c,
            throughput: f[0],
            mean_delay: f[1],
            delivered: d,
            dropped: e,
        },
        6 => Record::Shard {
            shard: a,
            status: [ShardStatus::Completed, ShardStatus::Restored][(b % 2) as usize],
            points: c,
            attempts: d,
            fingerprint: e,
        },
        _ => Record::CampaignSummary {
            key: a,
            completed: b,
            quarantined: w[..(c % 5) as usize].to_vec(),
            points_done: d,
            fingerprint: e,
            registry: registry(&w, f[0]),
        },
    }
}

#[test]
fn the_generator_covers_all_eight_record_types() {
    let types: BTreeSet<&str> = (0..8)
        .map(|v| record(v, [0; 11], [0.0; 5], false, "").type_name())
        .collect();
    assert_eq!(types.len(), 8, "{types:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn every_record_decodes_to_itself(
        variant in 0usize..8,
        w in prop::array::uniform(any::<u64>()),
        f in prop::array::uniform(any::<f64>()),
        flag in any::<bool>(),
        text in prop::sample::select(TEXT.to_vec()),
    ) {
        let r = record(variant, w, f, flag, text);
        let line = r.encode();
        prop_assert_eq!(Record::decode(&line), Ok(r), "{}", line);
    }
}
