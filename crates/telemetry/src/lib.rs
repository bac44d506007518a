//! # osmosis-telemetry
//!
//! Zero-cost telemetry plane for the OSMOSIS simulators: a metrics
//! registry, cell-lifecycle spans, and streaming JSONL export — the
//! third engine hook alongside fault injection (`FaultView`) and the
//! invariant audit plane (`Auditor`).
//!
//! The plane attaches through the engine's existing [`TraceSink`]
//! seam: [`TelemetrySink`] implements `TraceSink` and derives every
//! metric from the `TraceEvent` stream plus the three lifecycle hooks
//! (`run_begin` / `begin_slot` / `run_end`). Because a trace sink can
//! observe but never steer a run, **any** simulation instrumented with
//! telemetry produces a report bit-identical to the uninstrumented
//! run — the determinism contract `tests/telemetry_determinism.rs`
//! enforces for all ten simulators.
//!
//! The disabled plane is the engine's own `NullTrace`: its
//! `ENABLED = false` constant folds every hook away at compile time, so
//! simulators pay nothing when unobserved.
//!
//! Three views of a run:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and log₂ histograms
//!   keyed by component (VOQ, scheduler, crossbar, egress, link FC).
//! * [`SpanPlane`] — per-cell delay decomposed into queueing /
//!   request→grant / crossbar / egress segments with deterministic
//!   1-in-K sampling; segment means reconcile exactly with the
//!   engine's mean delay at `sample_every = 1`.
//! * [`Snapshot`]s — periodic interval deltas forming a time series.
//!
//! All three stream through [`export`] as JSONL (`--telemetry
//! <path.jsonl>` on the bench bins), validated by
//! [`validate_jsonl`](export::validate_jsonl).

#![deny(missing_docs)]

pub mod export;
pub mod registry;
pub mod spans;

pub use export::{validate_jsonl, JsonlStats, Record, ReportDigest, ShardStatus, SCHEMA_VERSION};
pub use registry::{Component, LogHistogram, MetricId, MetricsRegistry, LOG_BUCKETS};
pub use spans::{CellSpan, Decomposition, SpanConfig, SpanPlane, SEGMENTS};

use osmosis_sim::engine::{CountingTrace, EngineConfig, EngineReport, TraceEvent, TraceSink};
use osmosis_sim::sweep::{ProgressOutcome, SweepProgress};
use std::io::Write;
use std::path::Path;

/// Cadences and floors for a [`TelemetrySink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record every K-th completed span (1 = exhaustive).
    pub sample_every: u64,
    /// Slots between time-series snapshots (0 disables snapshots).
    pub snapshot_every: u64,
    /// Slots charged to the request→grant control path per cell.
    pub grant_floor: u64,
    /// Slots charged to the crossbar transfer per cell.
    pub crossbar_floor: u64,
    /// Sampled spans retained in memory (streaming writes all of them).
    pub recent_spans: usize,
    /// Whether sampled spans are written to the stream as they occur.
    pub stream_spans: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: 16,
            snapshot_every: 1000,
            grant_floor: 1,
            crossbar_floor: 1,
            recent_spans: 256,
            stream_spans: true,
        }
    }
}

impl TelemetryConfig {
    /// Exhaustive span sampling, for reconciliation studies.
    pub fn exact() -> Self {
        TelemetryConfig {
            sample_every: 1,
            ..TelemetryConfig::default()
        }
    }

    /// Set the snapshot cadence in slots (0 disables).
    pub fn with_snapshot_every(mut self, slots: u64) -> Self {
        self.snapshot_every = slots;
        self
    }

    fn span_config(&self) -> SpanConfig {
        SpanConfig {
            sample_every: self.sample_every,
            grant_floor: self.grant_floor,
            crossbar_floor: self.crossbar_floor,
        }
    }
}

/// Per-run identity, stamped into each `meta` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMeta {
    /// Engine seed for the run.
    pub seed: u64,
    /// Port count the model reported.
    pub ports: usize,
    /// Warmup slots excluded from statistics.
    pub warmup_slots: u64,
    /// Configured measurement slots.
    pub measure_slots: u64,
    /// Span sampling period in effect.
    pub sample_every: u64,
    /// Snapshot cadence in effect.
    pub snapshot_every: u64,
}

/// One periodic time-series sample: interval deltas plus the
/// instantaneous in-flight cell count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Run index the snapshot belongs to.
    pub run: u64,
    /// Slot at which the snapshot was taken.
    pub slot: u64,
    /// Slots covered by this interval.
    pub interval_slots: u64,
    /// Cells injected during the interval.
    pub injected: u64,
    /// Cells delivered during the interval.
    pub delivered: u64,
    /// Cells dropped during the interval.
    pub dropped: u64,
    /// Grants issued during the interval.
    pub grants: u64,
    /// Credit stalls during the interval.
    pub credit_stalls: u64,
    /// Retransmissions during the interval.
    pub retransmits: u64,
    /// Receiver conflicts during the interval.
    pub receiver_conflicts: u64,
    /// Cells in flight at the snapshot instant (cumulative).
    pub in_flight: u64,
}

/// Well-known metric ids the sink emits.
pub mod metrics {
    use crate::registry::{Component, MetricId};

    /// Cells entering ingress VOQs.
    pub const CELLS_INJECTED: MetricId = MetricId::new(Component::Voq, "cells_injected");
    /// Grants issued by the arbiter.
    pub const GRANTS: MetricId = MetricId::new(Component::Scheduler, "grants");
    /// Histogram of request→grant waits.
    pub const REQUEST_GRANT_WAIT: MetricId =
        MetricId::new(Component::Scheduler, "request_grant_wait");
    /// Cells transferred across the crossbar.
    pub const CELLS_TRANSFERRED: MetricId = MetricId::new(Component::Crossbar, "cells_transferred");
    /// Cells leaving egress ports.
    pub const CELLS_DELIVERED: MetricId = MetricId::new(Component::Egress, "cells_delivered");
    /// Histogram of end-to-end delivery delays.
    pub const DELIVERY_DELAY: MetricId = MetricId::new(Component::Egress, "delivery_delay");
    /// Receiver conflicts at egress.
    pub const RECEIVER_CONFLICTS: MetricId = MetricId::new(Component::Egress, "receiver_conflicts");
    /// Histogram of contender counts per conflict.
    pub const CONFLICT_CONTENDERS: MetricId =
        MetricId::new(Component::Egress, "conflict_contenders");
    /// Cells dropped anywhere in the system.
    pub const CELLS_DROPPED: MetricId = MetricId::new(Component::Engine, "cells_dropped");
    /// Aggregate credit stalls.
    pub const CREDIT_STALLS: MetricId = MetricId::new(Component::LinkFc, "credit_stalls");
    /// Aggregate retransmissions.
    pub const RETRANSMITS: MetricId = MetricId::new(Component::LinkFc, "retransmits");
    /// Carried throughput gauge (per run, merged by max).
    pub const THROUGHPUT: MetricId = MetricId::new(Component::Engine, "throughput");
    /// Offered load gauge.
    pub const OFFERED_LOAD: MetricId = MetricId::new(Component::Engine, "offered_load");
    /// Mean delay gauge.
    pub const MEAN_DELAY: MetricId = MetricId::new(Component::Engine, "mean_delay");
    /// Deepest ingress queue gauge.
    pub const MAX_QUEUE_DEPTH: MetricId = MetricId::new(Component::Voq, "max_queue_depth");
    /// Deepest egress queue gauge.
    pub const MAX_EGRESS_DEPTH: MetricId = MetricId::new(Component::Egress, "max_egress_depth");
}

/// The telemetry sink: a [`TraceSink`] that populates the registry,
/// span plane, and snapshot series, optionally streaming JSONL as the
/// run progresses.
///
/// One sink may observe several consecutive runs (a sweep leg, the
/// availability study's nominal+stochastic pair): counters, histograms,
/// and span aggregates accumulate across runs, snapshots and spans are
/// tagged with a run index, and each run appends its own `meta` /
/// `summary` record pair to the stream.
///
/// Per event the sink touches plain fields only: the seven counts, three
/// histograms and the per-node credit stalls below. `run_end` folds them
/// into the registry once per run.
pub struct TelemetrySink {
    cfg: TelemetryConfig,
    label: String,
    registry: MetricsRegistry,
    spans: SpanPlane,
    snapshots: Vec<Snapshot>,
    /// Event counts, cumulative across runs.
    counts: CountingTrace,
    /// `counts` at `run_begin`: `run_end` folds the difference.
    run_base: CountingTrace,
    interval_base: CountingTrace,
    /// This run's histograms, folded and emptied at `run_end`.
    request_grant_wait: LogHistogram,
    delivery_delay: LogHistogram,
    conflict_contenders: LogHistogram,
    /// This run's credit stalls by node, grown on first touch and zeroed
    /// at `run_end`.
    node_credit_stalls: Vec<u64>,
    interval_base_slot: u64,
    slot: u64,
    run: u64,
    started: bool,
    metas: Vec<RunMeta>,
    stream: Option<Box<dyn Write + Send>>,
    stream_error: Option<String>,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("label", &self.label)
            .field("run", &self.run)
            .field("slot", &self.slot)
            .field("streaming", &self.stream.is_some())
            .finish()
    }
}

impl Default for TelemetrySink {
    fn default() -> Self {
        TelemetrySink::new()
    }
}

impl TelemetrySink {
    /// A sink with the default configuration.
    pub fn new() -> Self {
        TelemetrySink::with_config(TelemetryConfig::default())
    }

    /// A sink with an explicit configuration.
    pub fn with_config(cfg: TelemetryConfig) -> Self {
        TelemetrySink {
            cfg,
            label: String::from("run"),
            registry: MetricsRegistry::new(),
            spans: SpanPlane::new(cfg.span_config(), cfg.recent_spans),
            snapshots: Vec::new(),
            counts: CountingTrace::default(),
            run_base: CountingTrace::default(),
            interval_base: CountingTrace::default(),
            request_grant_wait: LogHistogram::new(),
            delivery_delay: LogHistogram::new(),
            conflict_contenders: LogHistogram::new(),
            node_credit_stalls: Vec::new(),
            interval_base_slot: 0,
            slot: 0,
            run: 0,
            started: false,
            metas: Vec::new(),
            stream: None,
            stream_error: None,
        }
    }

    /// Set the label stamped into `meta` records.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Attach a live JSONL stream (any writer).
    pub fn with_stream(mut self, w: Box<dyn Write + Send>) -> Self {
        self.stream = Some(w);
        self
    }

    /// Attach a live JSONL stream writing to `path` (buffered).
    pub fn stream_to_path(self, path: &Path) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(self.with_stream(Box::new(std::io::BufWriter::new(f))))
    }

    /// The metrics registry accumulated so far. It is complete after
    /// every `run_end`: events fold into it once per run, so during a run
    /// it holds only the runs already ended.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The span plane.
    pub fn spans(&self) -> &SpanPlane {
        &self.spans
    }

    /// The snapshot time series.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The aggregate span decomposition.
    pub fn decomposition(&self) -> Decomposition {
        self.spans.decomposition()
    }

    /// Runs observed so far.
    pub fn runs(&self) -> u64 {
        if self.started {
            self.run + 1
        } else {
            0
        }
    }

    /// The first streaming error, if any occurred (writes are
    /// best-effort during the run; check this before trusting a file).
    pub fn stream_error(&self) -> Option<&str> {
        self.stream_error.as_deref()
    }

    /// Flush the stream and surface any deferred write error.
    pub fn finish_stream(&mut self) -> Result<(), String> {
        if let Some(w) = self.stream.as_mut() {
            if let Err(e) = w.flush() {
                self.note_stream_error(&e);
            }
        }
        match self.stream_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Re-export the accumulated state as a complete JSONL document
    /// (for sinks that did not stream live). Emits each run's `meta`,
    /// then all snapshots, the retained sampled spans, and one
    /// cumulative `summary` per the streaming schema.
    pub fn export_jsonl(
        &self,
        out: &mut dyn Write,
        final_report: &EngineReport,
    ) -> std::io::Result<()> {
        let last_run = self.run;
        for (i, m) in self.metas.iter().enumerate() {
            writeln!(out, "{}", self.meta(i as u64, m).encode())?;
        }
        for s in &self.snapshots {
            writeln!(out, "{}", Record::Snapshot { snapshot: *s }.encode())?;
        }
        for sp in self.spans.recent() {
            let span = Record::Span {
                run: last_run,
                span: *sp,
            };
            writeln!(out, "{}", span.encode())?;
        }
        writeln!(out, "{}", self.summary(last_run, final_report).encode())?;
        Ok(())
    }

    fn meta(&self, run: u64, meta: &RunMeta) -> Record {
        Record::Meta {
            version: SCHEMA_VERSION,
            run,
            label: self.label.clone(),
            meta: *meta,
        }
    }

    fn summary(&self, run: u64, report: &EngineReport) -> Record {
        Record::Summary {
            run,
            report: ReportDigest::of(report),
            registry: self.registry.clone(),
            spans: self.decomposition(),
        }
    }

    fn note_stream_error(&mut self, e: &std::io::Error) {
        if self.stream_error.is_none() {
            self.stream_error = Some(format!("telemetry stream write failed: {e}"));
        }
    }

    fn stream_record(&mut self, record: &Record) {
        if let Some(w) = self.stream.as_mut() {
            if let Err(e) = writeln!(w, "{}", record.encode()) {
                let err = e;
                self.note_stream_error(&err);
            }
        }
    }

    fn take_snapshot(&mut self, slot: u64) {
        let t = self.counts;
        let b = self.interval_base;
        let snap = Snapshot {
            run: self.run,
            slot,
            interval_slots: slot - self.interval_base_slot,
            injected: t.injects - b.injects,
            delivered: t.delivers - b.delivers,
            dropped: t.drops - b.drops,
            grants: t.grants - b.grants,
            credit_stalls: t.credit_stalls - b.credit_stalls,
            retransmits: t.retransmits - b.retransmits,
            receiver_conflicts: t.receiver_conflicts - b.receiver_conflicts,
            in_flight: t.injects.saturating_sub(t.delivers).saturating_sub(t.drops),
        };
        self.interval_base = t;
        self.interval_base_slot = slot;
        self.snapshots.push(snap);
        if self.stream.is_some() {
            self.stream_record(&Record::Snapshot { snapshot: snap });
        }
    }

    /// Fold this run's counts, histograms and per-node stalls into the
    /// registry and reset them. Only non-zero counts and non-empty
    /// histograms are folded, so the registry gains exactly the keys the
    /// run's events name.
    fn fold_run(&mut self) {
        let (c, b) = (self.counts, self.run_base);
        for (id, n) in [
            (metrics::CELLS_INJECTED, c.injects - b.injects),
            (metrics::GRANTS, c.grants - b.grants),
            (metrics::CELLS_TRANSFERRED, c.grants - b.grants),
            (metrics::CELLS_DELIVERED, c.delivers - b.delivers),
            (metrics::CELLS_DROPPED, c.drops - b.drops),
            (metrics::CREDIT_STALLS, c.credit_stalls - b.credit_stalls),
            (
                metrics::RECEIVER_CONFLICTS,
                c.receiver_conflicts - b.receiver_conflicts,
            ),
            (metrics::RETRANSMITS, c.retransmits - b.retransmits),
        ] {
            if n > 0 {
                self.registry.inc(id, n);
            }
        }
        self.run_base = c;
        for (node, n) in self.node_credit_stalls.iter_mut().enumerate() {
            if *n > 0 {
                let id = MetricId::at(Component::LinkFc, "credit_stalls", node as u32);
                self.registry.inc(id, *n);
                *n = 0;
            }
        }
        for (id, h) in [
            (metrics::REQUEST_GRANT_WAIT, &mut self.request_grant_wait),
            (metrics::DELIVERY_DELAY, &mut self.delivery_delay),
            (metrics::CONFLICT_CONTENDERS, &mut self.conflict_contenders),
        ] {
            if h.count() > 0 {
                self.registry.merge_histogram(id, h);
                *h = LogHistogram::new();
            }
        }
    }
}

impl TraceSink for TelemetrySink {
    fn run_begin(&mut self, cfg: &EngineConfig, ports: usize) {
        if self.started {
            self.run += 1;
        } else {
            self.started = true;
        }
        self.slot = 0;
        self.run_base = self.counts;
        self.interval_base = self.counts;
        self.interval_base_slot = 0;
        self.spans.run_begin(cfg.warmup_slots, ports);
        let meta = RunMeta {
            seed: cfg.seed,
            ports,
            warmup_slots: cfg.warmup_slots,
            measure_slots: cfg.measure_slots,
            sample_every: self.cfg.sample_every,
            snapshot_every: self.cfg.snapshot_every,
        };
        self.metas.push(meta);
        if self.stream.is_some() {
            self.stream_record(&self.meta(self.run, &meta));
        }
    }

    fn begin_slot(&mut self, slot: u64) {
        self.slot = slot;
        let every = self.cfg.snapshot_every;
        if every > 0 && slot > 0 && slot.is_multiple_of(every) && slot != self.interval_base_slot {
            self.take_snapshot(slot);
        }
    }

    fn event(&mut self, slot: u64, event: TraceEvent) {
        self.counts.event(slot, event);
        match event {
            TraceEvent::Grant {
                output, wait_slots, ..
            } => {
                self.request_grant_wait.record(wait_slots);
                self.spans.on_grant(slot, output, wait_slots);
            }
            TraceEvent::Deliver {
                output,
                delay_slots,
            } => {
                self.delivery_delay.record(delay_slots);
                if let Some(span) = self.spans.on_deliver(slot, output, delay_slots) {
                    if self.cfg.stream_spans && self.stream.is_some() {
                        let run = self.run;
                        self.stream_record(&Record::Span { run, span });
                    }
                }
            }
            TraceEvent::CreditStall { node, .. } => {
                let node = node as usize;
                if node >= self.node_credit_stalls.len() {
                    self.node_credit_stalls.resize(node + 1, 0);
                }
                self.node_credit_stalls[node] += 1;
            }
            TraceEvent::ReceiverConflict { contenders, .. } => {
                self.conflict_contenders.record(contenders as u64);
            }
            TraceEvent::Inject { .. } | TraceEvent::Drop { .. } | TraceEvent::Retransmit { .. } => {
            }
        }
    }

    fn run_end(&mut self, report: &EngineReport) {
        // Close the time series with a final partial interval.
        if self.cfg.snapshot_every > 0
            && (self.counts != self.interval_base || self.slot + 1 > self.interval_base_slot)
        {
            self.take_snapshot(self.slot + 1);
        }
        self.fold_run();
        self.registry
            .set_gauge(metrics::THROUGHPUT, report.throughput);
        self.registry
            .set_gauge(metrics::OFFERED_LOAD, report.offered_load);
        self.registry
            .set_gauge(metrics::MEAN_DELAY, report.mean_delay);
        self.registry
            .gauge_max(metrics::MAX_QUEUE_DEPTH, report.max_queue_depth as f64);
        self.registry
            .gauge_max(metrics::MAX_EGRESS_DEPTH, report.max_egress_depth as f64);
        if self.stream.is_some() {
            self.stream_record(&self.summary(self.run, report));
            if let Some(w) = self.stream.as_mut() {
                if let Err(e) = w.flush() {
                    let err = e;
                    self.note_stream_error(&err);
                }
            }
        }
    }
}

/// A live progress reporter for checkpointed sweeps: prints one stderr
/// line per finished or restored job. Pass a reference to it as
/// `checkpointed_sweep`'s progress observer.
pub fn stderr_progress(label: &str) -> impl Fn(SweepProgress) + Send + Sync {
    let label = label.to_string();
    move |p| {
        let what = match p.outcome {
            ProgressOutcome::Completed => "done",
            ProgressOutcome::Restored => "restored from checkpoint",
        };
        eprintln!(
            "[{label}] job {}/{} {what} ({} finished)",
            p.job + 1,
            p.total,
            p.finished
        );
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;
    use osmosis_sim::engine::EngineConfig;

    fn feed_run(sink: &mut TelemetrySink, cells: u64) {
        let cfg = EngineConfig::new(0, 100).with_seed(7);
        sink.run_begin(&cfg, 4);
        for i in 0..cells {
            let slot = i + 1;
            sink.begin_slot(slot);
            sink.event(
                slot,
                TraceEvent::Inject {
                    src: (i % 4) as u32,
                    dst: ((i + 1) % 4) as u32,
                },
            );
            sink.event(
                slot,
                TraceEvent::Grant {
                    input: (i % 4) as u32,
                    output: ((i + 1) % 4) as u32,
                    wait_slots: 1,
                },
            );
            sink.event(
                slot + 2,
                TraceEvent::Deliver {
                    output: ((i + 1) % 4) as u32,
                    delay_slots: 3,
                },
            );
        }
        let report = EngineReport {
            throughput: 0.5,
            mean_delay: 3.0,
            ..EngineReport::default()
        };
        sink.run_end(&report);
    }

    #[test]
    fn sink_accumulates_registry_spans_and_snapshots() {
        let mut sink = TelemetrySink::with_config(TelemetryConfig::exact().with_snapshot_every(10));
        feed_run(&mut sink, 25);
        assert_eq!(sink.registry().counter(metrics::CELLS_INJECTED), 25);
        assert_eq!(sink.registry().counter(metrics::GRANTS), 25);
        assert_eq!(sink.registry().counter(metrics::CELLS_DELIVERED), 25);
        let d = sink.decomposition();
        assert_eq!(d.completed, 25);
        assert_eq!(d.mean_total, 3.0);
        assert_eq!(d.segment_sum(), d.mean_total);
        // Snapshots at slots 10, 20, and the closing partial interval.
        assert!(sink.snapshots().len() >= 3);
        let sum: u64 = sink.snapshots().iter().map(|s| s.injected).sum();
        assert_eq!(sum, 25, "interval deltas partition the totals");
        assert_eq!(sink.runs(), 1);
    }

    #[test]
    fn multi_run_sinks_tag_runs_and_keep_accumulating() {
        let mut sink = TelemetrySink::with_config(TelemetryConfig::exact().with_snapshot_every(50));
        feed_run(&mut sink, 10);
        feed_run(&mut sink, 10);
        assert_eq!(sink.runs(), 2);
        assert_eq!(sink.registry().counter(metrics::CELLS_INJECTED), 20);
        assert!(sink.snapshots().iter().any(|s| s.run == 1));
        // Every interval delta is still non-negative and partitions.
        let sum: u64 = sink.snapshots().iter().map(|s| s.injected).sum();
        assert_eq!(sum, 20);
    }

    #[test]
    fn streamed_jsonl_passes_the_validator() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut sink = TelemetrySink::with_config(TelemetryConfig::exact().with_snapshot_every(10))
            .with_label("unit")
            .with_stream(Box::new(buf.clone()));
        feed_run(&mut sink, 25);
        feed_run(&mut sink, 5);
        sink.finish_stream().expect("no stream errors");
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let stats = validate_jsonl(&text).expect("schema-valid stream");
        assert_eq!(stats.metas, 2);
        assert_eq!(stats.summaries, 2);
        assert_eq!(stats.spans, 30, "exact sampling streams every span");
        assert!(stats.snapshots >= 3);
    }

    #[test]
    fn export_jsonl_round_trips_the_registry() {
        let mut sink = TelemetrySink::with_config(TelemetryConfig::exact());
        feed_run(&mut sink, 8);
        let mut out = Vec::new();
        let report = EngineReport {
            mean_delay: 3.0,
            ..EngineReport::default()
        };
        sink.export_jsonl(&mut out, &report).unwrap();
        let text = String::from_utf8(out).unwrap();
        validate_jsonl(&text).expect("export validates");
        // Parse the summary back and compare the registry exactly.
        let summary = text
            .lines()
            .find(|l| l.contains("\"type\":\"summary\""))
            .expect("summary line");
        let v = osmosis_sim::json::Value::parse(summary).unwrap();
        let reg = MetricsRegistry::from_json(v.get("registry").unwrap()).unwrap();
        assert_eq!(
            reg.to_json().encode(),
            sink.registry().to_json().encode(),
            "registry survives the JSONL round trip bit-exactly"
        );
    }

    #[test]
    fn stream_errors_are_stashed_not_panicked() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = TelemetrySink::new().with_stream(Box::new(Failing));
        feed_run(&mut sink, 3);
        assert!(sink.stream_error().is_some());
        assert!(sink.finish_stream().is_err());
        assert!(sink.finish_stream().is_ok(), "error is taken once");
    }
}
