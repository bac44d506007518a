//! VOQ occupancy bookkeeping shared by all schedulers.

/// Per-(input, output) cell counts — the scheduler's view of the Virtual
/// Output Queues at the ingress adapters — and the request mask a grant
/// pass reads, kept once next to the counts it is a function of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requests {
    n_in: usize,
    n_out: usize,
    counts: Vec<u32>,
    /// Words per requester row: `n_in.div_ceil(64)`.
    words: usize,
    /// Row o, `words` words: bit i set ⇔ count(i,o) > 0.
    requesters: Vec<u64>,
    /// Bit o set ⇔ row o of `requesters` is not all zero.
    requested: Vec<u64>,
}

impl Requests {
    /// Empty occupancy for an `n_in` × `n_out` switch.
    pub fn new(n_in: usize, n_out: usize) -> Self {
        assert!(n_in > 0 && n_out > 0);
        let words = n_in.div_ceil(64);
        Requests {
            n_in,
            n_out,
            counts: vec![0; n_in * n_out],
            words,
            requesters: vec![0; n_out * words],
            requested: vec![0; n_out.div_ceil(64)],
        }
    }

    /// Square N×N occupancy.
    pub fn square(n: usize) -> Self {
        Self::new(n, n)
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.n_in
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.n_out
    }

    #[inline]
    fn idx(&self, i: usize, o: usize) -> usize {
        debug_assert!(i < self.n_in && o < self.n_out);
        i * self.n_out + o
    }

    /// Cells queued from input `i` to output `o`.
    #[inline]
    pub fn get(&self, i: usize, o: usize) -> u32 {
        self.counts[self.idx(i, o)]
    }

    /// The inputs with a cell queued for output `o`: `words` words, bit i
    /// set ⇔ `get(i, o) > 0`.
    #[inline]
    pub fn requesters(&self, o: usize) -> &[u64] {
        &self.requesters[o * self.words..(o + 1) * self.words]
    }

    /// The outputs with any cell queued: bit o set ⇔ `requesters(o)` is
    /// not all zero.
    #[inline]
    pub fn requested(&self) -> &[u64] {
        &self.requested
    }

    /// Record one arrival.
    #[inline]
    pub fn inc(&mut self, i: usize, o: usize) {
        let idx = self.idx(i, o);
        self.counts[idx] += 1;
        self.requesters[o * self.words + i / 64] |= 1 << (i % 64);
        self.requested[o / 64] |= 1 << (o % 64);
    }

    /// Record one departure. Panics if the queue is empty (a grant for a
    /// non-existent cell indicates a scheduler bug).
    #[inline]
    pub fn dec(&mut self, i: usize, o: usize) {
        assert!(self.try_dec(i, o), "VOQ({i},{o}) underflow");
    }

    /// Decrement if non-empty; returns whether a cell was present. The
    /// mask is kept by arithmetic, not set-or-clear: whether this cell
    /// was the VOQ's last is data the branch predictor cannot learn.
    #[inline]
    pub fn try_dec(&mut self, i: usize, o: usize) -> bool {
        let idx = self.idx(i, o);
        if self.counts[idx] == 0 {
            return false;
        }
        self.counts[idx] -= 1;
        let on = (self.counts[idx] > 0) as u64;
        let row = &mut self.requesters[o * self.words..(o + 1) * self.words];
        row[i / 64] = row[i / 64] & !(1 << (i % 64)) | on << (i % 64);
        let any = (row.iter().fold(0, |all, &w| all | w) != 0) as u64;
        let summary = &mut self.requested[o / 64];
        *summary = *summary & !(1 << (o % 64)) | any << (o % 64);
        true
    }

    /// Reset all counts to zero.
    pub fn clear_all(&mut self) {
        self.counts.fill(0);
        self.requesters.fill(0);
        self.requested.fill(0);
    }

    /// Total queued cells.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// True when no cell is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.requested.iter().all(|&w| w == 0)
    }

    /// Cells queued at input `i` across all outputs.
    pub fn input_total(&self, i: usize) -> u64 {
        self.counts[i * self.n_out..(i + 1) * self.n_out]
            .iter()
            .map(|&c| c as u64)
            .sum()
    }

    /// Cells queued for output `o` across all inputs.
    pub fn output_total(&self, o: usize) -> u64 {
        (0..self.n_in).map(|i| self.get(i, o) as u64).sum()
    }
}

/// A crossbar configuration for one cell slot: a set of (input, output)
/// grants. An input appears at most once; an output appears at most
/// `out_capacity` times (twice with the dual-receiver datapath).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matching {
    pairs: Vec<(usize, usize)>,
}

impl Matching {
    /// Empty matching.
    pub fn new() -> Self {
        Matching { pairs: Vec::new() }
    }

    /// With pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Matching {
            pairs: Vec::with_capacity(cap),
        }
    }

    /// Add a grant.
    pub fn push(&mut self, input: usize, output: usize) {
        self.pairs.push((input, output));
    }

    /// Granted pairs.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Number of grants.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// No grants at all.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Clear for reuse.
    pub fn clear(&mut self) {
        self.pairs.clear();
    }

    /// Validate the crossbar constraints against an occupancy snapshot:
    /// each input ≤ 1 grant, each output ≤ `out_capacity` grants, and
    /// every granted pair must have a queued cell.
    pub fn validate(&self, occ: &Requests, out_capacity: usize) -> Result<(), String> {
        let mut in_used = vec![false; occ.inputs()];
        let mut out_used = vec![0usize; occ.outputs()];
        let mut granted = std::collections::BTreeMap::new();
        for &(i, o) in &self.pairs {
            if i >= occ.inputs() || o >= occ.outputs() {
                return Err(format!("grant ({i},{o}) out of range"));
            }
            if in_used[i] {
                return Err(format!("input {i} granted twice"));
            }
            in_used[i] = true;
            out_used[o] += 1;
            if out_used[o] > out_capacity {
                return Err(format!("output {o} over capacity {out_capacity}"));
            }
            let g = granted.entry((i, o)).or_insert(0u32);
            *g += 1;
            if *g > occ.get(i, o) {
                return Err(format!("grant ({i},{o}) without a queued cell"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc_dec_roundtrip() {
        let mut r = Requests::square(4);
        r.inc(1, 2);
        r.inc(1, 2);
        assert_eq!(r.get(1, 2), 2);
        r.dec(1, 2);
        assert_eq!(r.get(1, 2), 1);
        assert_eq!(r.total(), 1);
        assert!(!r.is_empty());
        assert!(r.try_dec(1, 2));
        assert!(!r.try_dec(1, 2));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn dec_empty_panics() {
        let mut r = Requests::square(2);
        r.dec(0, 0);
    }

    #[test]
    fn row_and_column_totals() {
        let mut r = Requests::new(3, 4);
        r.inc(0, 1);
        r.inc(0, 3);
        r.inc(2, 1);
        assert_eq!(r.input_total(0), 2);
        assert_eq!(r.input_total(1), 0);
        assert_eq!(r.output_total(1), 2);
        assert_eq!(r.output_total(0), 0);
    }

    /// The mask and its summary, rebuilt from `get` alone.
    fn assert_mask_consistent(r: &Requests, at: &str) {
        let mut requested = vec![0u64; r.outputs().div_ceil(64)];
        for o in 0..r.outputs() {
            let mut row = vec![0u64; r.inputs().div_ceil(64)];
            for i in 0..r.inputs() {
                row[i / 64] |= ((r.get(i, o) > 0) as u64) << (i % 64);
            }
            assert_eq!(r.requesters(o), row, "{at}: row {o}");
            requested[o / 64] |= (row.iter().any(|&w| w != 0) as u64) << (o % 64);
        }
        assert_eq!(r.requested(), requested, "{at}");
    }

    #[test]
    fn requester_mask_tracks_counts_through_random_runs() {
        use osmosis_sim::SimRng;
        for (n_in, n_out) in [(5, 5), (64, 64), (70, 70), (130, 130), (3, 4)] {
            let mut rng = SimRng::seed_from_u64((n_in * 1_000 + n_out) as u64);
            let mut r = Requests::new(n_in, n_out);
            // Three outputs take every cell, the last in a partial summary
            // word, so rows fill across words and empty again often.
            let hot = [0, n_out / 2, n_out - 1];
            // One entry per queued cell.
            let mut queued: Vec<(usize, usize)> = Vec::new();
            for step in 0..4_000 {
                let (i, o) = (rng.index(n_in), hot[rng.index(3)]);
                match rng.index(12) {
                    0..=4 => {
                        r.inc(i, o);
                        queued.push((i, o));
                    }
                    5..=9 if !queued.is_empty() => {
                        let (i, o) = queued.swap_remove(rng.index(queued.len()));
                        r.dec(i, o);
                    }
                    10 => {
                        let present = queued.iter().position(|&c| c == (i, o));
                        assert_eq!(r.try_dec(i, o), present.is_some(), "step {step}");
                        present.map(|k| queued.swap_remove(k));
                    }
                    11 if rng.index(40) == 0 => {
                        r.clear_all();
                        queued.clear();
                    }
                    _ => {}
                }
                let at = format!("{n_in}x{n_out} step {step}");
                assert_mask_consistent(&r, &at);
                assert_eq!(r.total(), queued.len() as u64, "{at}");
            }
        }
    }

    #[test]
    fn matching_validation_accepts_legal() {
        let mut occ = Requests::square(4);
        occ.inc(0, 1);
        occ.inc(2, 1);
        occ.inc(3, 0);
        let mut m = Matching::new();
        m.push(0, 1);
        m.push(2, 1);
        m.push(3, 0);
        assert!(
            m.validate(&occ, 2).is_ok(),
            "dual receiver allows 2 per output"
        );
        assert!(m.validate(&occ, 1).is_err(), "single receiver rejects it");
    }

    #[test]
    fn matching_validation_rejects_double_input() {
        let mut occ = Requests::square(4);
        occ.inc(0, 1);
        occ.inc(0, 2);
        let mut m = Matching::new();
        m.push(0, 1);
        m.push(0, 2);
        assert!(m.validate(&occ, 2).is_err());
    }

    #[test]
    fn matching_validation_rejects_phantom_cells() {
        let occ = Requests::square(4);
        let mut m = Matching::new();
        m.push(0, 1);
        assert!(m.validate(&occ, 1).is_err());
    }

    #[test]
    fn matching_validation_counts_multiplicity() {
        // Two grants for the same (i,o) need two queued cells — and also
        // violate the one-grant-per-input rule, so check via different
        // inputs first.
        let mut occ = Requests::square(4);
        occ.inc(1, 3);
        let mut m = Matching::new();
        m.push(1, 3);
        assert!(m.validate(&occ, 2).is_ok());
    }
}
