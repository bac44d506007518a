//! The OSMOSIS (272, 256, 3) forward error-correcting code.
//!
//! §IV.C of the paper: *"No standard FEC code meets our requirements and we
//! have selected a code in the class of generalized non-binary cyclic
//! Hamming codes (272, 256, 3) with Galois field size 2⁸ [...] This code has
//! a block length of 256 bits, and a coding overhead of 6.25%. It corrects
//! all single bit errors and detects all double bit and most multi-bit
//! errors."*
//!
//! We realize a code with exactly these parameters and claims: n = 34
//! GF(2⁸) symbols (272 bits), k = 32 data symbols (256 bits), minimum
//! symbol distance 3, GF(2⁸) arithmetic with the paper's generator
//! polynomial p(x) = x⁸+x⁴+x³+x²+1. The parity-check matrix has columns
//! (1, tᵢ) for 34 distinct locators tᵢ:
//!
//! ```text
//! s₁ = Σᵢ cᵢ          (plain XOR of all symbols)
//! s₂ = Σᵢ cᵢ · tᵢ     (locator-weighted sum)
//! ```
//!
//! Any two columns are linearly independent, giving symbol distance 3.
//! A single-symbol error of magnitude e at position i yields the syndrome
//! (e, e·tᵢ): the locator is s₂/s₁ and the magnitude is s₁ itself.
//!
//! **Why all double-bit errors are detected.** The decoder corrects only
//! when the implied magnitude s₁ does *not* have Hamming weight 2. A
//! double-bit error across two symbols has s₁ = 2^a ⊕ 2^b — weight 2 when
//! the bit lanes differ, weight 0 when they coincide (then s₂ ≠ 0 and no
//! single-symbol error can have s₁ = 0). A double-bit error inside one
//! symbol is a single-symbol error of weight-2 magnitude, which the decoder
//! deliberately flags instead of correcting. Hence *every* double-bit
//! pattern is detected and *none* is miscorrected — verified exhaustively
//! over all C(272,2) patterns in the test suite. Single-bit errors have
//! weight-1 magnitude and are always corrected. Magnitudes of weight ≥ 3
//! (multi-bit bursts confined to one byte) are safe to correct because they
//! cannot collide with a double-bit syndrome; the decoder corrects them
//! opportunistically, and random multi-bit errors spanning symbols are
//! detected with high probability ("most multi-bit errors").

use crate::gf256 as gf;

/// Number of data symbols (bytes) per block: 256 bits.
pub const DATA_SYMBOLS: usize = 32;
/// Number of coded symbols (bytes) per block: 272 bits.
pub const BLOCK_SYMBOLS: usize = 34;
/// Number of check symbols.
pub const CHECK_SYMBOLS: usize = BLOCK_SYMBOLS - DATA_SYMBOLS;
/// Coding overhead = 16/256 = 6.25%, as stated in the paper.
pub const OVERHEAD: f64 = CHECK_SYMBOLS as f64 / DATA_SYMBOLS as f64;

/// Outcome of decoding one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// Zero syndrome: the block is a codeword (no error, or an undetectable
    /// error pattern that is itself a codeword).
    Clean,
    /// A single-symbol error was corrected at the given symbol position.
    Corrected {
        /// Symbol index within the block (0..34).
        position: usize,
        /// The error value that was XOR-ed out.
        magnitude: u8,
    },
    /// A non-zero syndrome that the decoder refuses to correct: the block
    /// is flagged bad and must be retransmitted.
    Detected,
}

/// The (272, 256, 3) code with a fixed locator set.
#[derive(Debug, Clone)]
pub struct OsmosisCode {
    /// Locator tᵢ of each of the 34 symbol positions.
    locators: [u8; BLOCK_SYMBOLS],
    /// Inverse mapping locator → position (+1; 0 = unused).
    locator_pos: [u8; 256],
    /// 1 / (t₃₂ ⊕ t₃₃) for the systematic encoder.
    det_inv: u8,
}

impl Default for OsmosisCode {
    fn default() -> Self {
        Self::new()
    }
}

impl OsmosisCode {
    /// Construct the code with the default locator set tᵢ = α^i
    /// (consecutive powers of the primitive element — the assignment a
    /// shortened cyclic mother code induces).
    pub fn new() -> Self {
        let mut locators = [0u8; BLOCK_SYMBOLS];
        for (i, l) in locators.iter_mut().enumerate() {
            *l = gf::alpha_pow(i as u32);
        }
        Self::with_locators(locators)
    }

    /// Construct with an explicit locator set. Panics unless all locators
    /// are distinct (zero is permitted: the syndrome (e, 0) uniquely
    /// identifies it).
    pub fn with_locators(locators: [u8; BLOCK_SYMBOLS]) -> Self {
        let mut locator_pos = [0u8; 256];
        let mut zero_seen = false;
        for (i, &x) in locators.iter().enumerate() {
            if x == 0 {
                assert!(!zero_seen, "duplicate locator 0x0");
                zero_seen = true;
            } else {
                assert!(locator_pos[x as usize] == 0, "duplicate locator {x:#x}");
            }
            locator_pos[x as usize] = (i + 1) as u8;
        }
        // Zero must not shadow "unused" in the table: positions with
        // locator 0 are resolved through an explicit scan in decode.
        let u = locators[DATA_SYMBOLS];
        let v = locators[DATA_SYMBOLS + 1];
        let det = gf::add(u, v);
        assert!(det != 0, "check locators equal");
        OsmosisCode {
            locators,
            locator_pos,
            det_inv: gf::inv(det),
        }
    }

    /// The locator of symbol position `i`.
    pub fn locator(&self, i: usize) -> u8 {
        self.locators[i]
    }

    /// Systematically encode 32 data bytes into a 34-byte block.
    pub fn encode(&self, data: &[u8; DATA_SYMBOLS]) -> [u8; BLOCK_SYMBOLS] {
        let mut block = [0u8; BLOCK_SYMBOLS];
        block[..DATA_SYMBOLS].copy_from_slice(data);
        // Partial syndromes of the data part.
        let mut a = 0u8; // Σ dⱼ
        let mut b = 0u8; // Σ dⱼ·tⱼ
        for (j, &d) in data.iter().enumerate() {
            a ^= d;
            b ^= gf::mul(d, self.locators[j]);
        }
        // Solve p₀ ⊕ p₁ = a and p₀·u ⊕ p₁·v = b:
        //   p₀ = (b ⊕ a·v) / (u ⊕ v),  p₁ = a ⊕ p₀.
        let v = self.locators[DATA_SYMBOLS + 1];
        let p0 = gf::mul(gf::add(b, gf::mul(a, v)), self.det_inv);
        let p1 = a ^ p0;
        block[DATA_SYMBOLS] = p0;
        block[DATA_SYMBOLS + 1] = p1;
        block
    }

    /// Compute the two syndrome components of a received block.
    pub fn syndrome(&self, block: &[u8; BLOCK_SYMBOLS]) -> (u8, u8) {
        let mut s1 = 0u8;
        let mut s2 = 0u8;
        for (i, &c) in block.iter().enumerate() {
            s1 ^= c;
            if c != 0 {
                s2 ^= gf::mul(c, self.locators[i]);
            }
        }
        (s1, s2)
    }

    /// Decode in place: corrects a single-symbol error whose magnitude is
    /// not of Hamming weight 2 (see the module documentation for why that
    /// restriction guarantees detection of all double-bit errors), flags
    /// anything else.
    pub fn decode(&self, block: &mut [u8; BLOCK_SYMBOLS]) -> Decode {
        let (s1, s2) = self.syndrome(block);
        if s1 == 0 && s2 == 0 {
            return Decode::Clean;
        }
        if s1 == 0 {
            // A single-symbol error has s₁ = e ≠ 0; s₁ = 0 with s₂ ≠ 0 is
            // an equal-magnitude multi-symbol pattern — always detected.
            return Decode::Detected;
        }
        if s1.count_ones() == 2 {
            // Weight-2 magnitude: could be a cross-symbol double-bit error
            // aliasing onto a valid locator. Refuse correction so that the
            // paper's "detects all double bit errors" holds.
            return Decode::Detected;
        }
        // Locator of the hypothetical single error: t = s₂/s₁.
        let t = gf::div(s2, s1);
        let pos_plus1 = self.locator_pos[t as usize];
        let position = if t == 0 {
            // Locator zero is valid only if some position uses it.
            match self.locators.iter().position(|&l| l == 0) {
                Some(p) => p,
                None => return Decode::Detected,
            }
        } else if pos_plus1 == 0 {
            return Decode::Detected;
        } else {
            (pos_plus1 - 1) as usize
        };
        block[position] ^= s1;
        Decode::Corrected {
            position,
            magnitude: s1,
        }
    }

    /// True if the block is a codeword.
    pub fn is_codeword(&self, block: &[u8; BLOCK_SYMBOLS]) -> bool {
        self.syndrome(block) == (0, 0)
    }
}

/// Encode an arbitrary payload as a sequence of FEC blocks (zero-padded to
/// a multiple of 32 bytes). Returns the coded byte stream.
pub fn encode_payload(code: &OsmosisCode, payload: &[u8]) -> Vec<u8> {
    let blocks = payload.len().div_ceil(DATA_SYMBOLS).max(1);
    let mut out = Vec::with_capacity(blocks * BLOCK_SYMBOLS);
    for b in 0..blocks {
        let mut data = [0u8; DATA_SYMBOLS];
        let lo = b * DATA_SYMBOLS;
        let hi = ((b + 1) * DATA_SYMBOLS).min(payload.len());
        if lo < payload.len() {
            data[..hi - lo].copy_from_slice(&payload[lo..hi]);
        }
        out.extend_from_slice(&code.encode(&data));
    }
    out
}

/// Result of decoding a multi-block payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadDecode {
    /// Recovered data bytes (including any zero padding).
    pub data: Vec<u8>,
    /// Number of blocks in which a symbol was corrected.
    pub corrected_blocks: usize,
    /// Number of blocks flagged uncorrectable.
    pub detected_blocks: usize,
}

/// Decode a coded stream produced by [`encode_payload`].
/// Panics if the stream length is not a multiple of the block size.
pub fn decode_payload(code: &OsmosisCode, coded: &[u8]) -> PayloadDecode {
    assert!(
        coded.len().is_multiple_of(BLOCK_SYMBOLS),
        "coded length {} not a multiple of {}",
        coded.len(),
        BLOCK_SYMBOLS
    );
    let mut data = Vec::with_capacity(coded.len() / BLOCK_SYMBOLS * DATA_SYMBOLS);
    let mut corrected_blocks = 0;
    let mut detected_blocks = 0;
    for chunk in coded.chunks_exact(BLOCK_SYMBOLS) {
        let mut block = [0u8; BLOCK_SYMBOLS];
        block.copy_from_slice(chunk);
        match code.decode(&mut block) {
            Decode::Clean => {}
            Decode::Corrected { .. } => corrected_blocks += 1,
            Decode::Detected => detected_blocks += 1,
        }
        data.extend_from_slice(&block[..DATA_SYMBOLS]);
    }
    PayloadDecode {
        data,
        corrected_blocks,
        detected_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(seed: u8) -> [u8; DATA_SYMBOLS] {
        let mut d = [0u8; DATA_SYMBOLS];
        for (i, b) in d.iter_mut().enumerate() {
            *b = seed.wrapping_mul(31).wrapping_add(i as u8 * 7);
        }
        d
    }

    #[test]
    fn parameters_match_paper() {
        assert_eq!(DATA_SYMBOLS * 8, 256, "256-bit data block");
        assert_eq!(BLOCK_SYMBOLS * 8, 272, "272-bit coded block");
        assert!((OVERHEAD - 0.0625).abs() < 1e-12, "6.25% overhead");
    }

    #[test]
    fn encode_is_systematic_and_valid() {
        let code = OsmosisCode::new();
        let data = sample_data(3);
        let block = code.encode(&data);
        assert_eq!(&block[..DATA_SYMBOLS], &data);
        assert!(code.is_codeword(&block));
    }

    #[test]
    fn all_zero_is_a_codeword() {
        let code = OsmosisCode::new();
        let block = code.encode(&[0u8; DATA_SYMBOLS]);
        assert_eq!(block, [0u8; BLOCK_SYMBOLS]);
    }

    #[test]
    fn clean_decode_leaves_block_untouched() {
        let code = OsmosisCode::new();
        let mut block = code.encode(&sample_data(9));
        let orig = block;
        assert_eq!(code.decode(&mut block), Decode::Clean);
        assert_eq!(block, orig);
    }

    #[test]
    fn corrects_every_single_bit_error() {
        // The paper's headline claim: all single-bit errors corrected.
        let code = OsmosisCode::new();
        let clean = code.encode(&sample_data(5));
        for sym in 0..BLOCK_SYMBOLS {
            for bit in 0..8 {
                let mut block = clean;
                block[sym] ^= 1 << bit;
                match code.decode(&mut block) {
                    Decode::Corrected {
                        position,
                        magnitude,
                    } => {
                        assert_eq!(position, sym);
                        assert_eq!(magnitude, 1 << bit);
                        assert_eq!(block, clean);
                    }
                    other => panic!("sym {sym} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn corrects_heavy_bursts_within_a_symbol() {
        // Magnitudes of weight ≥ 3 are corrected opportunistically.
        let code = OsmosisCode::new();
        let clean = code.encode(&sample_data(1));
        for sym in [0usize, 15, 31, 32, 33] {
            for e in 1..=255u8 {
                if e.count_ones() == 2 {
                    continue; // deliberately detected, not corrected
                }
                let mut block = clean;
                block[sym] ^= e;
                assert_eq!(
                    code.decode(&mut block),
                    Decode::Corrected {
                        position: sym,
                        magnitude: e
                    },
                    "sym {sym} e {e:#x}"
                );
                assert_eq!(block, clean);
            }
        }
    }

    #[test]
    fn detects_every_double_bit_error() {
        // Exhaustive over all C(272,2) two-bit patterns (within one symbol
        // and across symbols). Verifies the paper's "detects all double bit
        // errors" with zero miscorrections.
        let code = OsmosisCode::new();
        let clean = code.encode(&[0u8; DATA_SYMBOLS]);
        for s1 in 0..BLOCK_SYMBOLS {
            for b1 in 0..8 {
                // within the same symbol
                for b2 in (b1 + 1)..8 {
                    let mut block = clean;
                    block[s1] ^= (1 << b1) | (1 << b2);
                    assert_eq!(
                        code.decode(&mut block),
                        Decode::Detected,
                        "same-symbol ({s1},{b1},{b2})"
                    );
                }
                // across symbols
                for s2 in (s1 + 1)..BLOCK_SYMBOLS {
                    for b2 in 0..8 {
                        let mut block = clean;
                        block[s1] ^= 1 << b1;
                        block[s2] ^= 1 << b2;
                        assert_eq!(
                            code.decode(&mut block),
                            Decode::Detected,
                            "cross-symbol ({s1},{b1}) ({s2},{b2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detection_claim_holds_for_any_codeword() {
        // Linearity sanity: the double-bit property is codeword-independent.
        let code = OsmosisCode::new();
        let clean = code.encode(&sample_data(77));
        let mut block = clean;
        block[3] ^= 1 << 2;
        block[20] ^= 1 << 6;
        assert_eq!(code.decode(&mut block), Decode::Detected);
    }

    #[test]
    fn most_multibit_errors_detected() {
        // Random 3-symbol error patterns: the paper claims "most multi-bit
        // errors" are detected. Theoretical aliasing odds are ≈ 34·(#non-
        // weight-2 values)/255² ≈ 12%; require > 80% detected.
        use osmosis_sim::SimRng;
        let code = OsmosisCode::new();
        let clean = code.encode(&sample_data(23));
        let mut rng = SimRng::seed_from_u64(0xFEC);
        let trials = 20_000;
        let mut detected = 0;
        for _ in 0..trials {
            let mut block = clean;
            let mut syms = [0usize; 3];
            loop {
                for s in &mut syms {
                    *s = rng.index(BLOCK_SYMBOLS);
                }
                if syms[0] != syms[1] && syms[1] != syms[2] && syms[0] != syms[2] {
                    break;
                }
            }
            for &s in &syms {
                block[s] ^= (rng.below(255) + 1) as u8;
            }
            if matches!(code.decode(&mut block), Decode::Detected) {
                detected += 1;
            }
        }
        let frac = detected as f64 / trials as f64;
        assert!(frac > 0.80, "only {frac:.3} of 3-symbol errors detected");
    }

    #[test]
    #[should_panic(expected = "duplicate locator")]
    fn duplicate_locators_rejected() {
        let mut loc = [0u8; BLOCK_SYMBOLS];
        for (i, l) in loc.iter_mut().enumerate() {
            *l = 0x80 + i as u8;
        }
        loc[1] = loc[0];
        OsmosisCode::with_locators(loc);
    }

    #[test]
    fn zero_locator_is_usable() {
        let mut loc = [0u8; BLOCK_SYMBOLS];
        for (i, l) in loc.iter_mut().enumerate() {
            *l = i as u8; // includes 0 at position 0
        }
        let code = OsmosisCode::with_locators(loc);
        let clean = code.encode(&sample_data(4));
        let mut block = clean;
        block[0] ^= 0x10;
        assert_eq!(
            code.decode(&mut block),
            Decode::Corrected {
                position: 0,
                magnitude: 0x10
            }
        );
        assert_eq!(block, clean);
    }

    #[test]
    fn payload_roundtrip() {
        let code = OsmosisCode::new();
        let payload: Vec<u8> = (0..256u32).map(|i| (i * 37 % 251) as u8).collect();
        let coded = encode_payload(&code, &payload);
        // 256-byte cell → 8 blocks → 272 coded bytes: 6.25% overhead.
        assert_eq!(coded.len(), 272);
        let out = decode_payload(&code, &coded);
        assert_eq!(&out.data[..payload.len()], &payload[..]);
        assert_eq!(out.corrected_blocks, 0);
        assert_eq!(out.detected_blocks, 0);
    }

    #[test]
    fn payload_with_scattered_single_errors_recovers() {
        let code = OsmosisCode::new();
        let payload: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let mut coded = encode_payload(&code, &payload);
        // One bit error in each of the 8 blocks.
        for b in 0..8 {
            coded[b * BLOCK_SYMBOLS + (b * 3) % BLOCK_SYMBOLS] ^= 1 << (b % 8);
        }
        let out = decode_payload(&code, &coded);
        assert_eq!(&out.data[..256], &payload[..]);
        assert_eq!(out.corrected_blocks, 8);
        assert_eq!(out.detected_blocks, 0);
    }

    #[test]
    fn payload_padding() {
        let code = OsmosisCode::new();
        let payload = [7u8; 10];
        let coded = encode_payload(&code, &payload);
        assert_eq!(coded.len(), BLOCK_SYMBOLS);
        let out = decode_payload(&code, &coded);
        assert_eq!(&out.data[..10], &payload);
        assert!(out.data[10..].iter().all(|&b| b == 0));
    }

    #[test]
    fn empty_payload_encodes_one_block() {
        let code = OsmosisCode::new();
        let coded = encode_payload(&code, &[]);
        assert_eq!(coded.len(), BLOCK_SYMBOLS);
    }
}
