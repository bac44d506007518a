//! The single-receiver scheduler of both fabric simulators and of the
//! CIOQ and burst switches: iterative round-robin grant/accept over
//! request bit-vectors, the hardware's programmable priority encoders
//! ([`pick`]) made word-parallel over `radix.div_ceil(64)` words.
//!
//! A caller owns what persists — its request masks and its grant and
//! accept pointers, one per port — and lends them to [`Matcher`] for one
//! switch and one slot, together with the one thing the simulators
//! disagree on: which outputs may grant at all.

/// The first set bit at or after `from`, wrapping, of the `words`-word
/// mask whose word `w` is `word(w)`: the programmable priority encoder
/// behind every grant and accept arbiter. `from < 64 * words`.
///
/// Whether a requester sits at or after the pointer is a coin toss the
/// branch predictor loses, and a scheduler tick asks it about a thousand
/// times (one `Flppr::osmosis(64, 2)` tick at load 0.95: 318 engine
/// visits to an output with an unmatched requester, each picking for
/// both sub-ports, 181 accepts, ≈ 288 departure fan-outs for 61 issued
/// grants) — the tick is misprediction-bound, not instruction-bound. So
/// a mask of one or two words (every grant row up to 64 ports, every
/// accept row of the 64-port dual-receiver demonstrator) is encoded
/// without a data-dependent branch: "the bits at or after `from`, else
/// all bits" is a conditional move, and one `trailing_zeros` finishes
/// it.
#[inline]
pub fn pick(words: usize, from: usize, word: impl Fn(usize) -> u64) -> Option<usize> {
    match words {
        1 => {
            let all = word(0);
            let ahead = all & (!0 << from);
            let bits = if ahead != 0 { ahead } else { all };
            (bits != 0).then(|| bits.trailing_zeros() as usize)
        }
        2 => {
            let all = u128::from(word(0)) | u128::from(word(1)) << 64;
            let ahead = all & (!0 << from);
            let bits = if ahead != 0 { ahead } else { all };
            (bits != 0).then(|| bits.trailing_zeros() as usize)
        }
        _ => {
            let (w0, below) = (from / 64, !(!0u64 << (from % 64)));
            let found = |w: usize, m: u64| Some(w * 64 + m.trailing_zeros() as usize);
            // Word `w0` is read twice: first its bits from `from` up,
            // last the bits below.
            let first = word(w0) & !below;
            if first != 0 {
                return found(w0, first);
            }
            for w in (w0 + 1..words).chain(0..w0) {
                let m = word(w);
                if m != 0 {
                    return found(w, m);
                }
            }
            let last = word(w0) & below;
            if last != 0 {
                found(w0, last)
            } else {
                None
            }
        }
    }
}

/// Matching scratch for switches of one radix, `words` words each unless
/// noted; clean between switches except `matched`.
pub struct Matcher {
    radix: usize,
    words: usize,
    in_matched: Vec<u64>,
    out_matched: Vec<u64>,
    /// Inputs granted in the current iteration.
    granted: Vec<u64>,
    /// Per local input, `words` words: the outputs that granted it.
    grants: Vec<u64>,
    /// The last matching: (input, output) pairs in accept order.
    pub matched: Vec<(u32, u32)>,
}

impl Matcher {
    /// Scratch for switches of `radix` ports. The pointers are 16-bit,
    /// so `radix` is at most 2¹⁶ − 1.
    pub fn new(radix: usize) -> Self {
        assert!(
            radix <= u16::MAX as usize,
            "a {radix}-port switch: matching pointers are 16-bit"
        );
        let words = radix.div_ceil(64);
        Matcher {
            radix,
            words,
            in_matched: vec![0; words],
            out_matched: vec![0; words],
            granted: vec![0; words],
            grants: vec![0; radix * words],
            matched: Vec::with_capacity(radix),
        }
    }

    /// Match one switch for one slot into `self.matched`: outputs
    /// ascending in the grant pass, inputs ascending in the accept pass,
    /// pointers moving only on accept.
    ///
    /// `requests` holds `words` words per local output, the inputs with
    /// a cell for it; `requested` is its summary, the outputs with any
    /// request. `grant_ptr`/`accept_ptr` are the switch's `radix`
    /// pointers. An output takes part only while `eligible(output)`.
    pub fn match_switch(
        &mut self,
        iterations: usize,
        requests: &[u64],
        requested: &[u64],
        grant_ptr: &mut [u16],
        accept_ptr: &mut [u16],
        eligible: impl Fn(usize) -> bool,
    ) {
        let (radix, words) = (self.radix, self.words);
        self.matched.clear();
        self.in_matched.fill(0);
        self.out_matched.fill(0);
        for _ in 0..iterations {
            // Grant: every unmatched, eligible output picks one of its
            // unmatched requesters.
            for (w, &asked) in requested.iter().enumerate() {
                let mut outs = asked & !self.out_matched[w];
                while outs != 0 {
                    let o = w * 64 + outs.trailing_zeros() as usize;
                    outs &= outs - 1;
                    if !eligible(o) {
                        continue;
                    }
                    let (col, taken) = (o * words, &self.in_matched);
                    let from = grant_ptr[o] as usize;
                    if let Some(i) = pick(words, from, |k| requests[col + k] & !taken[k]) {
                        self.grants[i * words + o / 64] |= 1 << (o % 64);
                        self.granted[i / 64] |= 1 << (i % 64);
                    }
                }
            }
            // Accept: every granted input picks one of its granters.
            let mut any = false;
            for w in 0..words {
                let mut ins = std::mem::take(&mut self.granted[w]);
                any |= ins != 0;
                while ins != 0 {
                    let i = w * 64 + ins.trailing_zeros() as usize;
                    ins &= ins - 1;
                    let row = i * words;
                    let (grants, from) = (&self.grants, accept_ptr[i] as usize);
                    let Some(o) = pick(words, from, |k| grants[row + k]) else {
                        continue;
                    };
                    self.grants[row..row + words].fill(0);
                    self.in_matched[i / 64] |= 1 << (i % 64);
                    self.out_matched[o / 64] |= 1 << (o % 64);
                    grant_ptr[o] = if i + 1 == radix { 0 } else { i as u16 + 1 };
                    accept_ptr[i] = if o + 1 == radix { 0 } else { o as u16 + 1 };
                    self.matched.push((i as u32, o as u32));
                }
            }
            if !any {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SimRng;

    /// The matching `match_switch` must produce, as a dense port-by-port
    /// scan: `occupancy[i][o]` cells queued, `gp`/`ap` the grant and
    /// accept pointers (advanced in place).
    fn scalar_match(
        iterations: usize,
        occupancy: &[Vec<u32>],
        eligible: &[bool],
        gp: &mut [usize],
        ap: &mut [usize],
    ) -> Vec<(u32, u32)> {
        let n = occupancy.len();
        let (mut in_matched, mut out_matched) = (vec![false; n], vec![false; n]);
        let mut matched = Vec::new();
        for _ in 0..iterations {
            let mut grants = vec![vec![false; n]; n];
            for o in (0..n).filter(|&o| !out_matched[o] && eligible[o]) {
                let mut from_pointer = (0..n).map(|k| (gp[o] + k) % n);
                if let Some(i) = from_pointer.find(|&i| !in_matched[i] && occupancy[i][o] > 0) {
                    grants[i][o] = true;
                }
            }
            let before = matched.len();
            for i in 0..n {
                if let Some(o) = (0..n).map(|k| (ap[i] + k) % n).find(|&o| grants[i][o]) {
                    (in_matched[i], out_matched[o]) = (true, true);
                    (gp[o], ap[i]) = ((i + 1) % n, (o + 1) % n);
                    matched.push((i as u32, o as u32));
                }
            }
            if matched.len() == before {
                break;
            }
        }
        matched
    }

    #[test]
    fn word_parallel_matcher_equals_the_scalar_scan() {
        const BUFFER: u32 = 4;
        const ITERATIONS: usize = 3;
        for radix in [5usize, 8, 64, 65, 130] {
            let mut rng = SimRng::seed_from_u64(radix as u64);
            let mut rnd = |n| rng.index(n);
            let words = radix.div_ceil(64);
            let mut matcher = Matcher::new(radix);
            let mut gp: Vec<usize> = (0..radix).map(|_| rnd(radix)).collect();
            let mut ap: Vec<usize> = (0..radix).map(|_| rnd(radix)).collect();
            let mut grant_ptr: Vec<u16> = gp.iter().map(|&p| p as u16).collect();
            let mut accept_ptr: Vec<u16> = ap.iter().map(|&p| p as u16).collect();
            let mut occupancy = vec![vec![0u32; radix]; radix];
            let mut matches = 0;
            for slot in 0..40 {
                // Arrivals: dense in early slots, a trickle later, so
                // both crowded and nearly empty masks are matched.
                let eagerness = if slot < 20 { 4 } else { 40 };
                for queued in occupancy.iter_mut() {
                    while queued.iter().sum::<u32>() < BUFFER && rnd(eagerness) < 3 {
                        queued[rnd(radix)] += 1;
                    }
                }
                let mut requests = vec![0u64; radix * words];
                let mut requested = vec![0u64; words];
                for (i, queued) in occupancy.iter().enumerate() {
                    for (o, _) in queued.iter().enumerate().filter(|(_, &n)| n > 0) {
                        requests[o * words + i / 64] |= 1 << (i % 64);
                        requested[o / 64] |= 1 << (o % 64);
                    }
                }
                // Eligibility: a third of the outputs sit the slot out
                // (uncredited, or fault-masked).
                let eligible: Vec<bool> = (0..radix).map(|_| rnd(3) > 0).collect();
                let want = scalar_match(ITERATIONS, &occupancy, &eligible, &mut gp, &mut ap);
                matcher.match_switch(
                    ITERATIONS,
                    &requests,
                    &requested,
                    &mut grant_ptr,
                    &mut accept_ptr,
                    |o| eligible[o],
                );
                assert_eq!(matcher.matched, want, "radix {radix} slot {slot}");
                for p in 0..radix {
                    assert_eq!(grant_ptr[p] as usize, gp[p], "radix {radix} slot {slot}");
                    assert_eq!(accept_ptr[p] as usize, ap[p], "radix {radix} slot {slot}");
                }
                assert!(matcher
                    .granted
                    .iter()
                    .chain(&matcher.grants)
                    .all(|&w| w == 0));
                for (i, o) in want {
                    occupancy[i as usize][o as usize] -= 1;
                    matches += 1;
                }
            }
            assert!(
                matches > 10 * radix,
                "radix {radix}: only {matches} matches"
            );
        }
    }
}
