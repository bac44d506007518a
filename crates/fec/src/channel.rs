//! Bit-error injection channels.
//!
//! The paper's optical links run at a raw BER of 10⁻¹⁰…10⁻¹². This module
//! models the binary symmetric channel those numbers describe. For
//! efficiency at low error rates the channel draws geometric gaps between
//! error bits instead of testing every bit.

use osmosis_sim::SimRng;

/// A binary symmetric channel with independent bit flips at rate `ber`.
#[derive(Debug, Clone)]
pub struct BitErrorChannel {
    ber: f64,
    rng: SimRng,
    /// Bits until the next error (counts down across calls).
    next_gap: u64,
    /// Total bits pushed through the channel.
    pub bits_transmitted: u64,
    /// Total bits flipped.
    pub bits_flipped: u64,
}

impl BitErrorChannel {
    /// Channel with the given raw bit-error rate (0 disables errors).
    pub fn new(ber: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&ber), "BER must be in [0,1)");
        let mut rng = SimRng::seed_from_u64(seed);
        let next_gap = if ber > 0.0 {
            rng.geometric(ber)
        } else {
            u64::MAX
        };
        BitErrorChannel {
            ber,
            rng,
            next_gap,
            bits_transmitted: 0,
            bits_flipped: 0,
        }
    }

    /// The configured raw BER.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// Transmit a buffer through the channel, flipping bits in place.
    /// Returns the number of bits flipped in this buffer.
    pub fn transmit(&mut self, data: &mut [u8]) -> u32 {
        let nbits = data.len() as u64 * 8;
        self.bits_transmitted += nbits;
        // Exact zero sentinel — a noiseless channel
        // must corrupt nothing, with no RNG draws consumed
        if self.ber == 0.0 {
            return 0;
        }
        let mut flipped = 0u32;
        let mut pos = 0u64;
        loop {
            let remaining = nbits - pos;
            if self.next_gap >= remaining {
                self.next_gap -= remaining;
                break;
            }
            pos += self.next_gap;
            let byte = (pos / 8) as usize;
            let bit = (pos % 8) as u8;
            data[byte] ^= 1 << bit;
            flipped += 1;
            self.bits_flipped += 1;
            pos += 1;
            self.next_gap = self.rng.geometric(self.ber);
        }
        flipped
    }

    /// Measured BER so far.
    pub fn measured_ber(&self) -> f64 {
        if self.bits_transmitted == 0 {
            0.0
        } else {
            self.bits_flipped as f64 / self.bits_transmitted as f64
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    #[test]
    fn zero_ber_never_flips() {
        let mut ch = BitErrorChannel::new(0.0, 1);
        let mut buf = [0xAAu8; 1024];
        assert_eq!(ch.transmit(&mut buf), 0);
        assert!(buf.iter().all(|&b| b == 0xAA));
        assert_eq!(ch.measured_ber(), 0.0);
    }

    #[test]
    fn flip_rate_matches_configured_ber() {
        let ber = 1e-3;
        let mut ch = BitErrorChannel::new(ber, 42);
        let mut buf = vec![0u8; 4096];
        for _ in 0..1000 {
            ch.transmit(&mut buf);
        }
        let measured = ch.measured_ber();
        assert!(
            (measured / ber - 1.0).abs() < 0.05,
            "measured {measured:e} vs {ber:e}"
        );
    }

    #[test]
    fn flips_are_reproducible() {
        let mut a = BitErrorChannel::new(1e-2, 7);
        let mut b = BitErrorChannel::new(1e-2, 7);
        let mut x = vec![0u8; 512];
        let mut y = vec![0u8; 512];
        a.transmit(&mut x);
        b.transmit(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn different_seeds_flip_differently() {
        let mut a = BitErrorChannel::new(1e-2, 7);
        let mut b = BitErrorChannel::new(1e-2, 8);
        let mut x = vec![0u8; 4096];
        let mut y = vec![0u8; 4096];
        a.transmit(&mut x);
        b.transmit(&mut y);
        assert_ne!(x, y);
    }

    #[test]
    fn gap_state_spans_buffers() {
        // Transmitting 2×N bytes in one call or two must flip the same bits.
        let mut one = BitErrorChannel::new(5e-3, 99);
        let mut two = BitErrorChannel::new(5e-3, 99);
        let mut buf_one = vec![0u8; 2048];
        one.transmit(&mut buf_one);
        let mut buf_a = vec![0u8; 1024];
        let mut buf_b = vec![0u8; 1024];
        two.transmit(&mut buf_a);
        two.transmit(&mut buf_b);
        assert_eq!(&buf_one[..1024], &buf_a[..]);
        assert_eq!(&buf_one[1024..], &buf_b[..]);
    }

    #[test]
    fn parity_of_flips_matches_xor_weight() {
        let mut ch = BitErrorChannel::new(2e-2, 5);
        let mut buf = vec![0u8; 256];
        let flips = ch.transmit(&mut buf);
        let weight: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flips, weight);
    }
}
