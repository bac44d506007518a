//! Hop-by-hop link-level retransmission (§IV.C, tier 2).
//!
//! On top of the FEC, OSMOSIS runs a hardware go-back-N retransmission
//! protocol per hop. Detected-uncorrectable cells are NACK-ed and resent;
//! because the protocol is per-link (not end-to-end), the retransmission
//! buffer is sized by a single deterministic link RTT, mirroring the
//! paper's flow-control argument (§IV.B: "the FC loop has a deterministic
//! RTT, which allows straightforward buffer sizing" — the same channel
//! "is also suitable for relaying ACKs for link-level-reliable delivery").
//!
//! The model is slot-stepped: one cell per slot per direction, a fixed
//! one-way delay of `delay_slots`, cumulative ACKs and go-back-N NACKs on
//! the reverse channel. Cell payloads pass through the real
//! (272,256,3) encoder, a [`BitErrorChannel`], and the real decoder.

use crate::channel::BitErrorChannel;
use crate::code::{self, OsmosisCode};
use osmosis_sim::engine::EngineReport;
use osmosis_sim::Extra;
use std::collections::VecDeque;

/// Configuration of a reliable link simulation.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Cell payload size in bytes (256 in the demonstrator).
    pub cell_bytes: usize,
    /// One-way propagation delay in cell slots.
    pub delay_slots: u64,
    /// Go-back-N window in cells. Must cover the link RTT plus the ACK
    /// turnaround to keep the pipe full: `2·delay_slots + 1`.
    pub window: u64,
    /// Raw bit-error rate of the link.
    pub raw_ber: f64,
    /// RNG seed for the error channel.
    pub seed: u64,
}

impl LinkConfig {
    /// The OSMOSIS demonstrator link: 256-byte cells; delay and BER chosen
    /// per experiment.
    pub fn osmosis(delay_slots: u64, raw_ber: f64, seed: u64) -> Self {
        LinkConfig {
            cell_bytes: 256,
            delay_slots,
            window: 2 * delay_slots + 1,
            raw_ber,
            seed,
        }
    }
}

/// Result of a reliable-link run.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Cells handed to the sender.
    pub offered: u64,
    /// Cells delivered (in order, verified content).
    pub delivered: u64,
    /// Cells that arrived with a detected-uncorrectable FEC block.
    pub corrupted_arrivals: u64,
    /// Cells retransmitted by go-back-N.
    pub retransmissions: u64,
    /// Cells on which the FEC corrected at least one block.
    pub fec_corrected_cells: u64,
    /// Cells delivered whose payload did not match what was sent
    /// (undetected errors slipping through both tiers). Must be ~0.
    pub undetected_corruptions: u64,
    /// Slots simulated.
    pub slots: u64,
    /// Delivered cells per slot (goodput; 1.0 = full rate).
    pub goodput: f64,
}

impl LinkReport {
    /// Bridge this link study into the unified [`EngineReport`] shape, so
    /// link-level reliability results fingerprint and compare like every
    /// other simulator's output. A reliable link is a one-port system:
    /// `offered_load` is offered cells per slot, `throughput` is the
    /// goodput, and the protocol counters land in `extra` where the
    /// engine's fingerprint covers them bit-exactly.
    pub fn to_engine_report(&self) -> EngineReport {
        let mut r = EngineReport {
            offered_load: if self.slots == 0 {
                0.0
            } else {
                self.offered as f64 / self.slots as f64
            },
            throughput: self.goodput,
            injected: self.offered,
            delivered: self.delivered,
            measured_slots: self.slots,
            ..EngineReport::default()
        };
        r.set_extra(Extra::LinkOffered, self.offered as f64);
        r.set_extra(Extra::LinkCorruptedArrivals, self.corrupted_arrivals as f64);
        r.set_extra(Extra::LinkRetransmissions, self.retransmissions as f64);
        r.set_extra(
            Extra::LinkFecCorrectedCells,
            self.fec_corrected_cells as f64,
        );
        r.set_extra(
            Extra::LinkUndetectedCorruptions,
            self.undetected_corruptions as f64,
        );
        r
    }
}

/// Deterministic payload for cell `seq` (so the receiver can verify
/// delivery without storing the sent data).
fn payload_for(seq: u64, bytes: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(bytes);
    let mut x = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..bytes {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x as u8);
    }
    v
}

enum Fwd {
    Cell { seq: u64, coded: Vec<u8> },
}

enum Rev {
    /// Cumulative ACK: all cells below `next` received.
    Ack { next: u64 },
    /// NACK: resend from `next` (go-back-N).
    Nack { next: u64 },
}

/// Run the reliable-link simulation for `total_cells` cells and return the
/// report. The simulation continues past the offered load until every cell
/// is delivered (losslessness) or a safety horizon is hit.
pub fn run_reliable_link(cfg: &LinkConfig, total_cells: u64) -> LinkReport {
    let code = OsmosisCode::new();
    let mut channel = BitErrorChannel::new(cfg.raw_ber, cfg.seed);

    // In-flight messages: (arrival_slot, msg), FIFO per direction because
    // the delay is constant.
    let mut fwd: VecDeque<(u64, Fwd)> = VecDeque::new();
    let mut rev: VecDeque<(u64, Rev)> = VecDeque::new();

    let mut base = 0u64; // oldest unacknowledged
    let mut next_seq = 0u64; // next new cell to send
    let mut expected = 0u64; // receiver's next in-order seq

    let mut report = LinkReport {
        offered: total_cells,
        delivered: 0,
        corrupted_arrivals: 0,
        retransmissions: 0,
        fec_corrected_cells: 0,
        undetected_corruptions: 0,
        slots: 0,
        goodput: 0.0,
    };
    let mut sent_once = vec![false; total_cells as usize];
    // Outstanding NACK suppression: only one NACK per gap event.
    let mut nack_outstanding = false;

    let horizon = total_cells * 20 + 100 * (cfg.delay_slots + 1);
    let mut t = 0u64;
    while expected < total_cells && t < horizon {
        // Receiver side: process arrivals scheduled for this slot.
        while fwd.front().is_some_and(|(at, _)| *at == t) {
            let Some((_, Fwd::Cell { seq, mut coded })) = fwd.pop_front() else {
                break;
            };
            // Decode all blocks of the cell.
            let out = code::decode_payload(&code, &coded);
            if out.corrected_blocks > 0 {
                report.fec_corrected_cells += 1;
            }
            if out.detected_blocks > 0 {
                report.corrupted_arrivals += 1;
                if !nack_outstanding {
                    rev.push_back((t + cfg.delay_slots, Rev::Nack { next: expected }));
                    nack_outstanding = true;
                }
                continue;
            }
            if seq == expected {
                // Verify content end-to-end.
                let want = payload_for(seq, cfg.cell_bytes);
                if out.data[..cfg.cell_bytes] != want[..] {
                    report.undetected_corruptions += 1;
                }
                expected += 1;
                report.delivered += 1;
                nack_outstanding = false;
                rev.push_back((t + cfg.delay_slots, Rev::Ack { next: expected }));
            } else if seq > expected && !nack_outstanding {
                // A good cell out of sequence (a predecessor was NACK-ed
                // and dropped): request the resend point again.
                rev.push_back((t + cfg.delay_slots, Rev::Nack { next: expected }));
                nack_outstanding = true;
            }
            // Cells below `expected` are duplicates from go-back-N; ignore.
            let _ = coded.drain(..);
        }

        // Sender side: process control arrivals.
        while rev.front().is_some_and(|(at, _)| *at == t) {
            let Some((_, ctl)) = rev.pop_front() else {
                break;
            };
            match ctl {
                Rev::Ack { next } => {
                    if next > base {
                        base = next;
                    }
                }
                Rev::Nack { next } => {
                    if next >= base && next < next_seq {
                        // Go back: resend everything from `next`.
                        next_seq = next;
                        base = base.min(next);
                    }
                }
            }
        }

        // Sender side: emit one cell per slot if the window allows.
        if next_seq < total_cells && next_seq < base + cfg.window {
            let payload = payload_for(next_seq, cfg.cell_bytes);
            let mut coded = code::encode_payload(&code, &payload);
            channel.transmit(&mut coded);
            if sent_once[next_seq as usize] {
                report.retransmissions += 1;
            }
            sent_once[next_seq as usize] = true;
            fwd.push_back((
                t + cfg.delay_slots,
                Fwd::Cell {
                    seq: next_seq,
                    coded,
                },
            ));
            next_seq += 1;
        }

        t += 1;
    }
    report.slots = t;
    report.goodput = if t == 0 {
        0.0
    } else {
        report.delivered as f64 / t as f64
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_delivers_at_full_rate() {
        let cfg = LinkConfig::osmosis(5, 0.0, 1);
        let n = 500;
        let r = run_reliable_link(&cfg, n);
        assert_eq!(r.delivered, n);
        assert_eq!(r.retransmissions, 0);
        assert_eq!(r.undetected_corruptions, 0);
        // Pipe fill costs one RTT; goodput approaches 1.
        assert!(r.goodput > 0.95, "goodput {}", r.goodput);
    }

    #[test]
    fn window_below_rtt_throttles_goodput() {
        let mut cfg = LinkConfig::osmosis(10, 0.0, 1);
        cfg.window = 7; // < 2·10+1
        let r = run_reliable_link(&cfg, 300);
        assert_eq!(r.delivered, 300);
        // Go-back-N with window W over RTT 2D+1 slots: goodput ≈ W/(2D+1).
        let expected = 7.0 / 21.0;
        assert!(
            (r.goodput - expected).abs() < 0.05,
            "goodput {} vs {expected}",
            r.goodput
        );
    }

    #[test]
    fn noisy_link_is_lossless_and_in_order() {
        // A brutal raw BER of 1e-5: cells are 2176 coded bits, so ≈ 2% of
        // cells carry an error; singles are corrected, the rest NACK-ed.
        let cfg = LinkConfig::osmosis(4, 1e-5, 77);
        let n = 2_000;
        let r = run_reliable_link(&cfg, n);
        assert_eq!(r.delivered, n, "lossless delivery");
        assert_eq!(r.undetected_corruptions, 0, "both tiers held");
        assert!(r.fec_corrected_cells > 0, "FEC exercised");
    }

    #[test]
    fn very_noisy_link_retransmits_but_still_delivers() {
        let cfg = LinkConfig::osmosis(3, 3e-4, 5);
        let n = 800;
        let r = run_reliable_link(&cfg, n);
        assert_eq!(r.delivered, n);
        assert!(r.retransmissions > 0, "retransmissions expected");
        assert_eq!(r.undetected_corruptions, 0);
        assert!(r.goodput < 1.0);
    }

    #[test]
    fn goodput_degrades_gracefully_with_ber() {
        let mut last = 1.1;
        for ber in [0.0, 1e-5, 1e-4, 5e-4] {
            let cfg = LinkConfig::osmosis(4, ber, 11);
            let r = run_reliable_link(&cfg, 600);
            assert_eq!(r.delivered, 600);
            assert!(
                r.goodput <= last + 0.02,
                "goodput should not rise with BER: {} after {last} at {ber:e}",
                r.goodput
            );
            last = r.goodput;
        }
    }

    #[test]
    fn engine_report_bridge_is_fingerprintable_and_ber_sensitive() {
        let run = |ber: f64| run_reliable_link(&LinkConfig::osmosis(4, ber, 42), 600);

        let clean = run(0.0).to_engine_report();
        assert_eq!(clean.injected, 600);
        assert_eq!(clean.delivered, 600);
        assert_eq!(clean.extra(Extra::LinkRetransmissions), Some(0.0));
        assert_eq!(clean.extra(Extra::LinkUndetectedCorruptions), Some(0.0));
        assert!(
            (clean.throughput - clean.delivered as f64 / clean.measured_slots as f64).abs() < 1e-12
        );

        // Same config twice → bit-identical fingerprint.
        assert_eq!(
            clean.fingerprint(),
            run(0.0).to_engine_report().fingerprint()
        );

        // A noisy link changes the protocol counters, hence the digest.
        let noisy = run(3e-4).to_engine_report();
        assert!(noisy.extra(Extra::LinkRetransmissions).unwrap() > 0.0);
        assert!(noisy.throughput < clean.throughput);
        assert_ne!(clean.fingerprint(), noisy.fingerprint());
    }

    #[test]
    fn payloads_are_distinct_per_seq() {
        let a = payload_for(1, 64);
        let b = payload_for(2, 64);
        assert_ne!(a, b);
        assert_eq!(a, payload_for(1, 64));
    }
}
