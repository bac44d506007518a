//! Analytic BER-tier models (§IV.C).
//!
//! The paper's two-tier reliability argument: optical links have a raw BER
//! of 10⁻¹⁰…10⁻¹², too poor for fabrics with thousands of links. The
//! (272,256,3) FEC brings the *user* BER below 10⁻¹⁷; a hop-by-hop
//! hardware retransmission mechanism on top brings it below 10⁻²¹.
//!
//! The event rates at the paper's operating points (block error
//! probabilities of 10⁻¹⁶ and below) are far beyond Monte-Carlo reach, so
//! the model here is analytic; the Monte-Carlo channel in
//! [`crate::channel`] validates the same formulas at elevated error rates
//! where simulation is feasible (see the test suite).

use crate::code::{BLOCK_SYMBOLS, DATA_SYMBOLS};

/// Number of coded bits per FEC block.
pub const BLOCK_BITS: u32 = (BLOCK_SYMBOLS * 8) as u32;
/// Number of data bits per FEC block.
pub const DATA_BITS: u32 = (DATA_SYMBOLS * 8) as u32;

/// ln C(n, k) via lgamma-free summation (exact enough for n ≤ a few
/// thousand).
fn ln_choose(n: u32, k: u32) -> f64 {
    debug_assert!(k <= n);
    let k = k.min(n - k);
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

/// Probability of exactly `k` bit errors in one coded block at raw BER `p`.
pub fn prob_k_bit_errors(p: f64, k: u32) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    // Exact zero short-circuit keeps 0^0 out of
    // the powf below; any nonzero p takes the general path.
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    let n = BLOCK_BITS;
    // ln(1-p) via ln_1p(-p) keeps precision at the paper's tiny BERs.
    (ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p()).exp()
}

/// Breakdown of block decode outcomes at a given raw BER.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockOutcomes {
    /// No bit errors at all.
    pub clean: f64,
    /// Corrected by the FEC (single-bit errors; the dominant term).
    pub corrected: f64,
    /// Detected-uncorrectable (double-bit errors and most multi-bit).
    pub detected: f64,
    /// Undetected or miscorrected (aliasing multi-bit patterns) —
    /// upper bound.
    pub undetected: f64,
}

/// Fraction of ≥3-bit error patterns that alias onto a correctable
/// syndrome and get miscorrected. Conservative upper bound: the decoder
/// accepts 34 locators × the 247 magnitudes that are not weight-2 and not
/// zero, out of 2¹⁶−1 nonzero syndromes.
pub const ALIAS_FRACTION: f64 = (34.0 * 247.0) / 65535.0;

/// Analytic decode-outcome probabilities for one block at raw BER `p`.
///
/// Exact for the 0-, 1- and 2-bit terms (the code corrects *all* single-bit
/// and detects *all* double-bit errors — verified exhaustively in the test
/// suite); ≥3-bit mass is split between detected and undetected using the
/// conservative [`ALIAS_FRACTION`].
pub fn block_outcomes(p: f64) -> BlockOutcomes {
    let p0 = prob_k_bit_errors(p, 0);
    let p1 = prob_k_bit_errors(p, 1);
    let p2 = prob_k_bit_errors(p, 2);
    // P(≥3 errors) by direct summation: computing it as 1−p0−p1−p2 loses
    // everything to cancellation at the paper's 1e-10…1e-12 raw BERs
    // (the true mass is ~1e-27 while the rounding noise of 1−p0 is
    // ~1e-16). Terms decay geometrically, so the sum converges fast.
    let mut rest = 0.0f64;
    for k in 3..=BLOCK_BITS {
        let term = prob_k_bit_errors(p, k);
        rest += term;
        if term < rest * 1e-18 {
            break;
        }
    }
    BlockOutcomes {
        clean: p0,
        corrected: p1,
        detected: p2 + rest * (1.0 - ALIAS_FRACTION),
        undetected: rest * ALIAS_FRACTION,
    }
}

/// User BER with FEC alone (tier 1).
///
/// Without retransmission, every non-correctable block (detected or not)
/// is delivered with roughly two residual wrong bits out of 256 data bits.
pub fn user_ber_fec_only(p: f64) -> f64 {
    let o = block_outcomes(p);
    (o.detected + o.undetected) * 2.0 / DATA_BITS as f64
}

/// User BER with FEC plus hop-by-hop retransmission (tier 2).
///
/// Detected blocks are retransmitted and eventually delivered clean; only
/// undetected/miscorrected patterns survive, again ≈2 wrong bits each.
pub fn user_ber_with_retransmission(p: f64) -> f64 {
    let o = block_outcomes(p);
    o.undetected * 2.0 / DATA_BITS as f64
}

/// Expected number of transmissions per block when detected blocks are
/// retransmitted (geometric in the detected probability).
pub fn expected_transmissions(p: f64) -> f64 {
    let o = block_outcomes(p);
    1.0 / (1.0 - o.detected)
}

/// The paper's copper-link engineering reference: raw BER better than
/// 10⁻¹⁷ without FEC.
pub const COPPER_RAW_BER: f64 = 1e-17;
/// Best-case raw optical BER from §IV.C.
pub const OPTICAL_RAW_BER_BEST: f64 = 1e-12;
/// Worst-case raw optical BER from §IV.C.
pub const OPTICAL_RAW_BER_WORST: f64 = 1e-10;

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        for p in [1e-3, 1e-6, 1e-10] {
            let o = block_outcomes(p);
            let sum = o.clean + o.corrected + o.detected + o.undetected;
            assert!((sum - 1.0).abs() < 1e-12, "p={p}: sum={sum}");
        }
    }

    #[test]
    fn zero_ber_is_all_clean() {
        let o = block_outcomes(0.0);
        assert_eq!(o.clean, 1.0);
        assert_eq!(o.corrected, 0.0);
        assert_eq!(o.detected, 0.0);
        assert_eq!(o.undetected, 0.0);
    }

    #[test]
    fn binomial_terms_match_direct_computation() {
        // k=1 at small p: n·p·(1-p)^(n-1)
        let p = 1e-6;
        let direct = 272.0 * p * (1.0f64 - p).powi(271);
        let model = prob_k_bit_errors(p, 1);
        assert!((model / direct - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ln_choose_small_values() {
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_choose(272, 2) - (272.0f64 * 271.0 / 2.0).ln()).abs() < 1e-9);
        assert_eq!(ln_choose(10, 0), 0.0);
    }

    #[test]
    fn paper_tier1_claim_fec_beats_1e17() {
        // "a forward error-correcting code that results in better than
        // 10^-17 user BER" — at both ends of the raw optical BER range.
        for raw in [OPTICAL_RAW_BER_WORST, OPTICAL_RAW_BER_BEST] {
            let ber = user_ber_fec_only(raw);
            assert!(ber < 1e-17, "raw {raw:e} → user {ber:e}");
        }
    }

    #[test]
    fn paper_tier2_claim_retx_beats_1e21() {
        // "a hop-by-hop hardware retransmission mechanism improves this
        // BER to better than 10^-21".
        for raw in [OPTICAL_RAW_BER_WORST, OPTICAL_RAW_BER_BEST] {
            let ber = user_ber_with_retransmission(raw);
            assert!(ber < 1e-21, "raw {raw:e} → user {ber:e}");
        }
    }

    #[test]
    fn tiers_are_ordered() {
        for p in [1e-4, 1e-7, 1e-10] {
            assert!(user_ber_with_retransmission(p) < user_ber_fec_only(p));
            assert!(user_ber_fec_only(p) < p * 300.0); // sane scale
        }
    }

    #[test]
    fn expected_transmissions_near_one_at_low_ber() {
        let t = expected_transmissions(1e-10);
        assert!((t - 1.0).abs() < 1e-12);
        // At a catastrophic BER the count grows.
        assert!(expected_transmissions(5e-3) > 1.2);
    }

    #[test]
    fn monte_carlo_validates_analytics_at_elevated_ber() {
        // At p = 2e-4 the block outcome rates are measurable; compare the
        // analytic model with error injection through the real decoder.
        use crate::code::OsmosisCode;
        use osmosis_sim::SimRng;

        let p = 2e-4;
        let code = OsmosisCode::new();
        let clean = code.encode(&[0x5Au8; DATA_SYMBOLS]);
        let mut rng = SimRng::seed_from_u64(0xBE12);
        let trials = 200_000u64;
        let (mut n_clean, mut n_corr, mut n_det, mut n_bad) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..trials {
            let mut block = clean;
            let mut flipped = false;
            for sym in block.iter_mut() {
                for bit in 0..8 {
                    if rng.coin(p) {
                        *sym ^= 1 << bit;
                        flipped = true;
                    }
                }
            }
            match code.decode(&mut block) {
                crate::code::Decode::Clean => {
                    if flipped {
                        n_bad += 1; // undetected error pattern
                    } else {
                        n_clean += 1;
                    }
                }
                crate::code::Decode::Corrected { .. } => {
                    if block == clean {
                        n_corr += 1;
                    } else {
                        n_bad += 1; // miscorrection
                    }
                }
                crate::code::Decode::Detected => n_det += 1,
            }
        }
        let o = block_outcomes(p);
        let f_clean = n_clean as f64 / trials as f64;
        let f_corr = n_corr as f64 / trials as f64;
        let f_det = n_det as f64 / trials as f64;
        let f_bad = n_bad as f64 / trials as f64;
        assert!(
            (f_clean - o.clean).abs() < 0.005,
            "clean {f_clean} vs {}",
            o.clean
        );
        assert!(
            (f_corr - o.corrected).abs() < 0.005,
            "corr {f_corr} vs {}",
            o.corrected
        );
        assert!(
            (f_det - o.detected).abs() < 0.005,
            "det {f_det} vs {}",
            o.detected
        );
        // Undetected events are rare (≈ alias_frac × P(≥3 errors) ≈ 1e-7);
        // with 2·10⁵ trials we expect ~0 — the analytic value bounds it.
        assert!(f_bad <= o.undetected * 50.0 + 5.0 / trials as f64);
    }
}
