//! Arithmetic in GF(2⁸) with the OSMOSIS generator polynomial.
//!
//! The paper (§IV.C) specifies the Galois field GF(2⁸) with
//!
//! ```text
//! p(x) = x⁸ + x⁴ + x³ + x² + 1
//! ```
//!
//! i.e. reduction polynomial `0x11D`, for its (272, 256, 3) generalized
//! non-binary cyclic Hamming FEC. `0x11D` is primitive, so α = x (= 2)
//! generates the multiplicative group; exp/log tables are built at compile
//! time via `const fn`.

/// The reduction polynomial p(x) = x⁸+x⁴+x³+x²+1, as its bit pattern
/// including the x⁸ term.
pub const POLY: u16 = 0x11D;

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8; // duplicated so mul can skip a mod 255
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // exp[510], exp[511] are never indexed (log sums are < 510) but keep
    // them consistent.
    exp[510] = exp[0];
    exp[511] = exp[1];
    exp
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// α^i for i in 0..510 (doubled table).
pub static EXP: [u8; 512] = build_exp();
/// log_α of each nonzero element (log\[0\] is unused and set to 0).
pub static LOG: [u8; 256] = build_log();

/// Addition in GF(2⁸) (= XOR).
#[inline]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication in GF(2⁸).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse. Panics on zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "inverse of zero in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Division a / b. Panics when b = 0.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        0
    } else {
        EXP[(LOG[a as usize] as usize + 255 - LOG[b as usize] as usize) % 255]
    }
}

/// a raised to the integer power `e`.
pub fn pow(a: u8, e: u32) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = (LOG[a as usize] as u64 * e as u64) % 255;
    EXP[l as usize]
}

/// α^i (the i-th power of the primitive element).
#[inline]
pub fn alpha_pow(i: u32) -> u8 {
    EXP[(i % 255) as usize]
}

/// Squaring, x ↦ x² (the Frobenius map; linear over GF(2)).
#[inline]
pub fn square(a: u8) -> u8 {
    mul(a, a)
}

/// Schoolbook multiply without tables — used to cross-check the tables.
pub fn mul_slow(a: u8, b: u8) -> u8 {
    let mut acc: u16 = 0;
    let mut a16 = a as u16;
    let mut b16 = b as u16;
    while b16 != 0 {
        if b16 & 1 != 0 {
            acc ^= a16;
        }
        b16 >>= 1;
        a16 <<= 1;
        if a16 & 0x100 != 0 {
            a16 ^= POLY;
        }
    }
    acc as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_matches_paper() {
        // x^8 + x^4 + x^3 + x^2 + 1 = 1_0001_1101b
        assert_eq!(POLY, 0b1_0001_1101);
    }

    #[test]
    fn alpha_is_primitive() {
        // Powers α^0..α^254 must be distinct (0x11D is primitive).
        let mut seen = [false; 256];
        for (i, &e) in EXP.iter().enumerate().take(255) {
            let v = e as usize;
            assert!(v != 0);
            assert!(!seen[v], "repeat at exponent {i}");
            seen[v] = true;
        }
    }

    #[test]
    fn exp_log_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
    }

    #[test]
    fn table_mul_matches_schoolbook() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_slow(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn inverse_law() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn inv_zero_panics() {
        inv(0);
    }

    #[test]
    fn division_law() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(mul(div(a, b), b), a, "{a} / {b}");
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [0u8, 1, 2, 3, 29, 255] {
            let mut acc = 1u8;
            for e in 0..20u32 {
                assert_eq!(pow(a, e), acc, "a={a} e={e}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1); // convention 0^0 = 1
    }

    #[test]
    fn frobenius_is_additive() {
        // (a+b)² = a² + b² in characteristic 2.
        for a in 0..=255u8 {
            for b in [0u8, 1, 7, 100, 255] {
                assert_eq!(square(add(a, b)), add(square(a), square(b)));
            }
        }
    }

    #[test]
    fn alpha_pow_wraps() {
        assert_eq!(alpha_pow(0), 1);
        assert_eq!(alpha_pow(255), 1);
        assert_eq!(alpha_pow(256), alpha_pow(1));
        assert_eq!(alpha_pow(1), 2); // α = x = 2
    }

    #[test]
    fn distributivity_sampled() {
        for a in [3u8, 97, 200] {
            for b in 0..=255u8 {
                for c in [0u8, 1, 5, 131] {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }
}
