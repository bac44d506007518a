//! Deterministic random number generation.
//!
//! Every stochastic component of the simulator draws from its own
//! [`SimRng`] stream, derived from a single experiment seed through
//! [`SeedSequence`]. This keeps runs bit-reproducible regardless of
//! component construction order or thread scheduling, and independent of
//! any external crate's generator choices across versions.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded through
//! SplitMix64 as its authors recommend. Both are implemented here so the
//! streams are stable forever.

/// SplitMix64: a tiny, well-distributed 64-bit generator used only to expand
/// seeds for xoshiro state and to derive child seeds.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a SplitMix64 stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\*: the simulator's workhorse generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed via SplitMix64 expansion, as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for v in &mut s {
            *v = sm.next_u64();
        }
        // All-zero state is a fixed point; SplitMix64 cannot produce four
        // consecutive zeros in practice, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in [0, 1) with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to [0,1]).
    #[inline]
    pub fn coin(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in `[0, n)` via Lemire's rejection method.
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Lemire's nearly-divisionless bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Exponentially distributed value with the given mean.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Use 1 - u to avoid ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Geometrically distributed trial count (number of failures before the
    /// first success) for success probability `p` in (0, 1].
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        debug_assert!(p > 0.0 && p <= 1.0);
        if p >= 1.0 {
            return 0;
        }
        let u = 1.0 - self.next_f64();
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^k` for k in 0..=8, wrapping.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a over a stream name's bytes: the first half of a child seed's
/// hash, which [`SeedSequence::instance_seed`] continues over the
/// instance number's eight little-endian bytes.
fn label_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Derives independent child seeds from one experiment seed.
///
/// Components ask for named streams; the name is hashed (FNV-1a) together
/// with the parent seed so that adding a new component never perturbs the
/// streams of existing ones.
#[derive(Debug, Clone)]
pub struct SeedSequence {
    seed: u64,
}

impl SeedSequence {
    /// Root sequence for an experiment.
    pub fn new(seed: u64) -> Self {
        SeedSequence { seed }
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A child seed for the stream named `name` with instance number `idx`.
    pub fn child_seed(&self, name: &str, idx: u64) -> u64 {
        self.instance_seed(label_hash(name), idx)
    }

    /// The child seed of instance `idx` under a label already hashed by
    /// [`label_hash`]: the FNV-1a hash continues over `idx`'s bytes.
    fn instance_seed(&self, label: u64, idx: u64) -> u64 {
        // A zero byte's xor leaves the hash as it is, so the run of zero
        // high bytes is one multiply by a power of the prime.
        let bytes = 8 - idx.leading_zeros() as usize / 8;
        let mut h = label;
        for &b in &idx.to_le_bytes()[..bytes] {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h = h.wrapping_mul(FNV_PRIME_POW[8 - bytes]);
        // Mix with the parent seed through one SplitMix64 step.
        SplitMix64::new(self.seed ^ h).next_u64()
    }

    /// A generator for the stream named `name`, instance `idx`.
    pub fn stream(&self, name: &str, idx: u64) -> SimRng {
        SimRng::seed_from_u64(self.child_seed(name, idx))
    }

    /// The generators of instances `0..count` of the stream named
    /// `name`, in order: instance i is exactly `stream(name, i)`, but the
    /// name is hashed once, not once per instance.
    pub fn streams(&self, name: &str, count: usize) -> impl ExactSizeIterator<Item = SimRng> + '_ {
        let label = label_hash(name);
        (0..count).map(move |idx| SimRng::seed_from_u64(self.instance_seed(label, idx as u64)))
    }

    /// A derived sequence for a named subsystem.
    pub fn subsequence(&self, name: &str, idx: u64) -> SeedSequence {
        SeedSequence {
            seed: self.child_seed(name, idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference output of SplitMix64 for seed 1234567, from the
        // published reference implementation.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        assert_eq!(first, 6457827717110365317);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_over_small_range() {
        let mut r = SimRng::seed_from_u64(3);
        let mut counts = [0u64; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 7.0;
            assert!(
                (c as f64 - expected).abs() < expected * 0.05,
                "count {c} vs {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::seed_from_u64(0).below(0);
    }

    #[test]
    fn coin_respects_probability() {
        let mut r = SimRng::seed_from_u64(5);
        let n = 100_000;
        let heads = (0..n).filter(|_| r.coin(0.3)).count();
        let frac = heads as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn exponential_has_requested_mean() {
        let mut r = SimRng::seed_from_u64(13);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn geometric_mean_matches() {
        // Mean failures before success = (1-p)/p.
        let mut r = SimRng::seed_from_u64(17);
        let p = 0.25;
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| r.geometric(p)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        // p = 1 always succeeds immediately.
        assert_eq!(r.geometric(1.0), 0);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(23);
        for n in [1usize, 2, 5, 64] {
            let p = r.permutation(n);
            let mut seen = vec![false; n];
            for &x in &p {
                assert!(!seen[x]);
                seen[x] = true;
            }
        }
    }

    #[test]
    fn seed_sequence_streams_are_stable_and_independent() {
        let seq = SeedSequence::new(99);
        assert_eq!(seq.child_seed("voq", 0), seq.child_seed("voq", 0));
        assert_ne!(seq.child_seed("voq", 0), seq.child_seed("voq", 1));
        assert_ne!(seq.child_seed("voq", 0), seq.child_seed("egress", 0));
        let sub = seq.subsequence("switch", 3);
        assert_ne!(sub.child_seed("voq", 0), seq.child_seed("voq", 0));
    }

    #[test]
    fn child_seeds_are_fnv_1a_over_name_and_index() {
        // The byte-by-byte hash the collapsed zero bytes must reproduce.
        let reference = |seed: u64, name: &str, idx: u64| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in name.as_bytes().iter().chain(&idx.to_le_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            SplitMix64::new(seed ^ h).next_u64()
        };
        let mut idxs: Vec<u64> = (0..600).collect();
        for k in 1..64 {
            idxs.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        idxs.extend([u64::MAX, 0x0100_0000_0000_00ff, 0x00ff_0000_0000_0100]);
        for seed in [0, 7, u64::MAX] {
            let seq = SeedSequence::new(seed);
            for name in ["", "bernoulli", "λ"] {
                for &idx in &idxs {
                    let want = reference(seed, name, idx);
                    assert_eq!(seq.child_seed(name, idx), want, "{seed} {name:?} {idx:#x}");
                }
            }
        }
    }

    #[test]
    fn streams_are_the_streams_one_by_one() {
        for seed in [0, 1, 20_051_112, u64::MAX] {
            let seq = SeedSequence::new(seed);
            for name in ["", "bernoulli", "mc", "allreduce-ring", "λ"] {
                for n in [0, 1, 8_192] {
                    let batch = seq.streams(name, n);
                    assert_eq!(batch.len(), n);
                    let states: Vec<[u64; 4]> = batch.map(|r| r.s).collect();
                    let one_by_one: Vec<[u64; 4]> =
                        (0..n).map(|i| seq.stream(name, i as u64).s).collect();
                    assert_eq!(states, one_by_one, "seed {seed} {name:?} n {n}");
                }
            }
        }
    }
}
