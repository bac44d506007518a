//! Cell-lifecycle spans: per-cell delay decomposed into pipeline
//! segments.
//!
//! The engine reports a single injection→delivery latency per cell. The
//! span plane splits that scalar into four additive segments by pairing
//! the `Grant` and `Deliver` events for the same cell:
//!
//! * **queueing** — slots spent in the ingress VOQ before the arbiter
//!   considered the cell (wait minus the request→grant floor),
//! * **request_grant** — the control-path round trip itself (bounded by
//!   [`GRANT_FLOOR`], one slot in the demonstrator),
//! * **crossbar** — the bufferless transfer ([`CROSSBAR_FLOOR`] slots),
//! * **egress** — residence in the egress queue until transmission.
//!
//! The four segments always sum exactly to the engine's delay for that
//! cell, so mean segment sums reconcile with `EngineReport::mean_delay`
//! when sampling is exhaustive (`sample_every == 1`).
//!
//! Pairing uses a per-output FIFO of outstanding grants: egress queues
//! drain in arrival order, so the front grant for an output is the next
//! cell delivered there. Both events independently encode the cell's
//! injection slot (`grant_slot − wait` and `deliver_slot − delay`),
//! which the plane uses to confirm the pairing and to recover from
//! reordering (a scan) in models that deliberately re-sequence cells.
//! Models with no grant stage at all (output-queued, Birkhoff–von
//! Neumann, deflection) produce *ungranted* spans whose whole delay is
//! attributed to queueing.

use crate::registry::LogHistogram;
use std::collections::VecDeque;

/// Names of the four delay segments, in decomposition order.
pub const SEGMENTS: [&str; 4] = ["queueing", "request_grant", "crossbar", "egress"];

/// How far a mismatch scan looks down a pending-grant queue before
/// declaring the delivery ungranted.
const SCAN_LIMIT: usize = 128;

/// Pending grants retained per output before the oldest is presumed
/// dead (its cell dropped after grant) and evicted.
const PENDING_CAP: usize = 65_536;

/// Slots charged to the request→grant control path per granted cell
/// (the rest of the pre-grant wait is queueing). One slot in the
/// demonstrator.
pub const GRANT_FLOOR: u64 = 1;

/// Slots charged to the crossbar transfer per granted cell (the rest of
/// the post-grant delay is egress residence).
pub const CROSSBAR_FLOOR: u64 = 1;

/// Sampled spans a plane keeps in its [`recent`](SpanPlane::recent)
/// window.
const RECENT_SPANS: usize = 256;

/// One sampled cell lifecycle, fully decomposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpan {
    /// Egress port the cell left through.
    pub output: u32,
    /// Slot the cell was injected.
    pub inject_slot: u64,
    /// Slot the cell was delivered.
    pub deliver_slot: u64,
    /// Slots queued in the VOQ before the grant path engaged.
    pub queueing: u64,
    /// Slots in the request→grant control round trip.
    pub request_grant: u64,
    /// Slots crossing the crossbar.
    pub crossbar: u64,
    /// Slots resident in the egress queue.
    pub egress: u64,
    /// Whether a matching grant was found (false for grant-free models).
    pub granted: bool,
}

impl CellSpan {
    /// Total delay; always `deliver_slot − inject_slot` and always the
    /// exact sum of the four segments.
    pub fn delay(&self) -> u64 {
        self.queueing + self.request_grant + self.crossbar + self.egress
    }
}

/// Aggregate decomposition over every span the plane accounted
/// (sampled or not).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Decomposition {
    /// Spans accounted in the segment sums (matched + ungranted).
    pub completed: u64,
    /// Spans individually recorded per `sample_every`.
    pub sampled: u64,
    /// Deliveries paired with a grant at the queue front.
    pub matched: u64,
    /// Deliveries paired with a grant found by scan (reordered models).
    pub reordered: u64,
    /// Deliveries with no grant information (grant-free models, or a
    /// scan miss); their whole delay counts as queueing.
    pub ungranted: u64,
    /// Mean slots per cell in each segment.
    pub mean_queueing: f64,
    /// Mean request→grant slots per cell.
    pub mean_request_grant: f64,
    /// Mean crossbar slots per cell.
    pub mean_crossbar: f64,
    /// Mean egress-residence slots per cell.
    pub mean_egress: f64,
    /// Mean end-to-end delay over the accounted spans.
    pub mean_total: f64,
}

impl Decomposition {
    /// Sum of the four segment means; equals `mean_total` exactly
    /// (integer sums below 2⁵³ are exact in f64).
    pub fn segment_sum(&self) -> f64 {
        self.mean_queueing + self.mean_request_grant + self.mean_crossbar + self.mean_egress
    }
}

/// The span plane: pairs grants with deliveries, decomposes delays, and
/// keeps per-segment histograms plus a bounded window of sampled spans.
#[derive(Debug)]
pub struct SpanPlane {
    /// Record every K-th completed span (1 = exhaustive). Matching and
    /// segment accounting always run; sampling only gates which
    /// individual [`CellSpan`] records are kept/streamed.
    sample_every: u64,
    measure_from: u64,
    /// Per-output FIFO of outstanding grants as `(inject_slot, wait)`.
    pending: Vec<VecDeque<(u64, u64)>>,
    completed: u64,
    sampled: u64,
    matched: u64,
    reordered: u64,
    ungranted: u64,
    seg_sums: [u64; 4],
    delay_sum: u64,
    seg_hists: [LogHistogram; 4],
    recent: VecDeque<CellSpan>,
}

impl SpanPlane {
    /// A fresh plane recording every `sample_every`-th completed span
    /// (1 = exhaustive, which reconciliation studies need: segment means
    /// then equal the engine's mean delay exactly); call
    /// [`run_begin`](SpanPlane::run_begin) before feeding events.
    pub fn new(sample_every: u64) -> Self {
        assert!(sample_every >= 1, "sample_every must be at least 1");
        SpanPlane {
            sample_every,
            measure_from: 0,
            pending: Vec::new(),
            completed: 0,
            sampled: 0,
            matched: 0,
            reordered: 0,
            ungranted: 0,
            seg_sums: [0; 4],
            delay_sum: 0,
            seg_hists: [
                LogHistogram::new(),
                LogHistogram::new(),
                LogHistogram::new(),
                LogHistogram::new(),
            ],
            recent: VecDeque::new(),
        }
    }

    /// Reset per-run pairing state (aggregates accumulate across runs).
    /// Spans are gated exactly like the engine's delay statistics: only
    /// cells injected at or after `measure_from` are accounted.
    pub fn run_begin(&mut self, measure_from: u64, ports: usize) {
        self.measure_from = measure_from;
        self.pending.clear();
        self.pending.resize(ports, VecDeque::new());
    }

    /// Feed a `Grant` event.
    pub fn on_grant(&mut self, grant_slot: u64, output: u32, wait_slots: u64) {
        let Some(q) = self.pending.get_mut(output as usize) else {
            return;
        };
        if q.len() >= PENDING_CAP {
            q.pop_front();
        }
        // Both the grant and the eventual delivery can reconstruct the
        // cell's injection slot; that is the pairing key.
        q.push_back((grant_slot - wait_slots, wait_slots));
    }

    /// Feed a `Deliver` event. Returns the decomposed span if this cell
    /// was selected by 1-in-K sampling.
    pub fn on_deliver(
        &mut self,
        deliver_slot: u64,
        output: u32,
        delay_slots: u64,
    ) -> Option<CellSpan> {
        let inject = deliver_slot - delay_slots;
        let (wait, granted) = self.take_grant(output, inject);
        if inject < self.measure_from {
            return None; // warmup cell: pairing consumed, stats skipped
        }

        let delay = delay_slots;
        let (queueing, request_grant, crossbar, egress) = if granted {
            let wait = wait.min(delay);
            let rg = wait.min(GRANT_FLOOR);
            let post = delay - wait;
            let xbar = post.min(CROSSBAR_FLOOR);
            (wait - rg, rg, xbar, post - xbar)
        } else {
            (delay, 0, 0, 0)
        };

        self.completed += 1;
        self.delay_sum += delay;
        for (sum, seg) in self
            .seg_sums
            .iter_mut()
            .zip([queueing, request_grant, crossbar, egress])
        {
            *sum += seg;
        }
        for (hist, seg) in
            self.seg_hists
                .iter_mut()
                .zip([queueing, request_grant, crossbar, egress])
        {
            hist.record(seg);
        }

        if !(self.completed - 1).is_multiple_of(self.sample_every) {
            return None;
        }
        self.sampled += 1;
        let span = CellSpan {
            output,
            inject_slot: inject,
            deliver_slot,
            queueing,
            request_grant,
            crossbar,
            egress,
            granted,
        };
        if self.recent.len() >= RECENT_SPANS {
            self.recent.pop_front();
        }
        self.recent.push_back(span);
        Some(span)
    }

    /// Pop the grant pairing with `inject` for `output`: front of the
    /// FIFO in the common case, bounded scan when the model reorders.
    fn take_grant(&mut self, output: u32, inject: u64) -> (u64, bool) {
        let Some(q) = self.pending.get_mut(output as usize) else {
            return (0, false);
        };
        match q.front() {
            Some(&(exp_inject, wait)) if exp_inject == inject => {
                q.pop_front();
                self.matched += 1;
                (wait, true)
            }
            Some(_) => {
                if let Some(pos) = q
                    .iter()
                    .take(SCAN_LIMIT)
                    .position(|&(exp, _)| exp == inject)
                {
                    #[expect(
                        clippy::expect_used,
                        reason = "`pos` comes from `position` over this same queue a line above"
                    )]
                    let (_, wait) = q
                        .remove(pos)
                        .expect("position() returned an out-of-range index");
                    self.reordered += 1;
                    (wait, true)
                } else {
                    self.ungranted += 1;
                    (0, false)
                }
            }
            None => {
                self.ungranted += 1;
                (0, false)
            }
        }
    }

    /// The aggregate decomposition so far.
    pub fn decomposition(&self) -> Decomposition {
        let n = self.completed;
        let mean = |s: u64| if n == 0 { 0.0 } else { s as f64 / n as f64 };
        Decomposition {
            completed: n,
            sampled: self.sampled,
            matched: self.matched,
            reordered: self.reordered,
            ungranted: self.ungranted,
            mean_queueing: mean(self.seg_sums[0]),
            mean_request_grant: mean(self.seg_sums[1]),
            mean_crossbar: mean(self.seg_sums[2]),
            mean_egress: mean(self.seg_sums[3]),
            mean_total: mean(self.delay_sum),
        }
    }

    /// Per-segment delay histograms, in [`SEGMENTS`] order.
    pub fn segment_histograms(&self) -> &[LogHistogram; 4] {
        &self.seg_hists
    }

    /// The most recent sampled spans (bounded window).
    pub fn recent(&self) -> impl Iterator<Item = &CellSpan> {
        self.recent.iter()
    }

    /// Exact sum of all accounted delays (for reconciliation checks).
    pub fn delay_sum(&self) -> u64 {
        self.delay_sum
    }

    /// Spans accounted so far (matched + ungranted, post-warmup).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Exact per-segment slot sums in [`SEGMENTS`] order. Together with
    /// [`completed`](SpanPlane::completed) these let a caller that
    /// reuses one sink across runs compute exact per-run deltas.
    pub fn seg_sums(&self) -> [u64; 4] {
        self.seg_sums
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    fn plane(sample_every: u64) -> SpanPlane {
        let mut p = SpanPlane::new(sample_every);
        p.run_begin(0, 4);
        p
    }

    #[test]
    fn granted_span_decomposes_and_sums_to_delay() {
        let mut p = plane(1);
        // Injected at slot 10, granted at 17 (wait 7), delivered at 22
        // (delay 12): queueing 6, request_grant 1, crossbar 1, egress 4.
        p.on_grant(17, 2, 7);
        let span = p.on_deliver(22, 2, 12).expect("sampled");
        assert!(span.granted);
        assert_eq!(span.inject_slot, 10);
        assert_eq!(
            (
                span.queueing,
                span.request_grant,
                span.crossbar,
                span.egress
            ),
            (6, 1, 1, 4)
        );
        assert_eq!(span.delay(), 12);
        let d = p.decomposition();
        assert_eq!(d.matched, 1);
        assert_eq!(d.segment_sum(), d.mean_total);
        assert_eq!(d.mean_total, 12.0);
    }

    #[test]
    fn zero_wait_and_immediate_delivery_stay_nonnegative() {
        let mut p = plane(1);
        // Granted the same slot it was injected, delivered next slot:
        // delay 1 = crossbar only (post-grant floor first).
        p.on_grant(5, 0, 0);
        let s = p.on_deliver(6, 0, 1).unwrap();
        assert_eq!(
            (s.queueing, s.request_grant, s.crossbar, s.egress),
            (0, 0, 1, 0)
        );
        // Granted and delivered in the same slot (delay == wait == 2):
        // no post-grant residue, so rg 1, queueing 1, nothing else.
        p.on_grant(9, 1, 2);
        let s = p.on_deliver(9, 1, 2).unwrap();
        assert_eq!(s.delay(), 2);
        assert_eq!(
            (s.queueing, s.request_grant, s.crossbar, s.egress),
            (1, 1, 0, 0)
        );
    }

    #[test]
    fn grant_free_models_attribute_delay_to_queueing() {
        let mut p = plane(1);
        let s = p.on_deliver(30, 3, 9).unwrap();
        assert!(!s.granted);
        assert_eq!(
            (s.queueing, s.request_grant, s.crossbar, s.egress),
            (9, 0, 0, 0)
        );
        assert_eq!(p.decomposition().ungranted, 1);
    }

    #[test]
    fn fifo_matching_survives_reordering_via_scan() {
        let mut p = plane(1);
        // Two cells granted for output 0 in order A (inject 1), B
        // (inject 2); a deflecting model delivers B first.
        p.on_grant(4, 0, 3); // A
        p.on_grant(4, 0, 2); // B
        let b = p.on_deliver(6, 0, 4).unwrap(); // inject 2
        let a = p.on_deliver(7, 0, 6).unwrap(); // inject 1
        assert!(b.granted && a.granted);
        let d = p.decomposition();
        assert_eq!((d.matched, d.reordered), (1, 1));
        // B matched by scan kept its own wait (2), A then sat at front.
        assert_eq!(b.queueing + b.request_grant, 2);
        assert_eq!(a.queueing + a.request_grant, 3);
    }

    #[test]
    fn warmup_cells_consume_pairings_but_not_stats() {
        let mut p = SpanPlane::new(1);
        p.run_begin(100, 2);
        p.on_grant(50, 0, 10); // warmup cell (inject 40)
        assert!(p.on_deliver(55, 0, 15).is_none());
        let d = p.decomposition();
        assert_eq!(d.completed, 0);
        // The pairing queue is empty again: a measured cell matches its
        // own grant, not the stale warmup one.
        p.on_grant(120, 0, 5);
        let s = p.on_deliver(125, 0, 10).unwrap();
        assert!(s.granted);
        assert_eq!(p.decomposition().matched, 2); // warmup match counted
    }

    #[test]
    fn sampling_keeps_every_kth_span_deterministically() {
        let mut p = plane(4);
        let mut kept = 0;
        for i in 0..40u64 {
            p.on_grant(i + 2, 0, 1);
            if p.on_deliver(i + 4, 0, 3).is_some() {
                kept += 1;
            }
        }
        let d = p.decomposition();
        assert_eq!(d.completed, 40, "accounting is exhaustive");
        assert_eq!(d.sampled, 10, "1-in-4 sampling");
        assert_eq!(kept, 10);
        // Segment means still reconcile exactly.
        assert_eq!(d.segment_sum(), d.mean_total);
        assert_eq!(d.mean_total, 3.0);
    }

    #[test]
    fn segment_histograms_track_the_sums() {
        let mut p = plane(1);
        for i in 0..10u64 {
            p.on_grant(10 + i, 1, 4);
            p.on_deliver(13 + i, 1, 7);
        }
        let hists = p.segment_histograms();
        for (h, name) in hists.iter().zip(SEGMENTS) {
            assert_eq!(h.count(), 10, "{name}");
        }
        // queueing 3, rg 1, crossbar 1, egress 2 per cell.
        assert_eq!(hists[0].sum(), 30);
        assert_eq!(hists[1].sum(), 10);
        assert_eq!(hists[2].sum(), 10);
        assert_eq!(hists[3].sum(), 20);
        assert_eq!(p.delay_sum(), 70);
    }
}
