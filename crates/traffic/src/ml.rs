//! ML-training traffic patterns.
//!
//! The workloads that motivate circuit-switched interconnect proposals
//! are collective-dominated: data-parallel training spends most of its
//! network time in allreduce (ring or tree), parameter servers create
//! incast, expert/shard skew concentrates demand on a few destinations,
//! and cluster-level load swings slowly between busy and quiet phases.
//! These generators reproduce those shapes at cell granularity so the
//! OCS-vs-packet comparison runs on the traffic that actually decides
//! between the two modes:
//!
//! * [`AllreduceRing`] — neighbor-only permutation traffic whose
//!   direction flips each phase (reduce-scatter, then allgather);
//! * [`AllreduceTree`] — binary-tree reduce/broadcast phases with
//!   parent- and child-directed flows;
//! * [`Incast`] — periodic fan-in bursts onto a rotating target
//!   (parameter-server aggregation);
//! * [`HotspotSkew`] — Zipf-distributed destination popularity
//!   (expert/shard imbalance);
//! * [`Diurnal`] — slowly varying offered load on a triangle wave
//!   (no trigonometry, so the modulation is bit-exact on every
//!   platform).
//!
//! All generators derive per-port RNG streams from the experiment seed
//! exactly like the classic patterns in [`crate::generators`], so every
//! run is deterministic.

use crate::generators::{Arrival, Class, TrafficGen};
use osmosis_sim::{SeedSequence, SimRng};

/// Ring allreduce: in even phases rank `i` sends to `(i + 1) mod n`, in
/// odd phases to `(i + n − 1) mod n` — the two directions of a
/// bidirectional ring pipeline. Within a phase the pattern is a fixed
/// permutation (contention-free), but the *circuit set* changes every
/// `phase_slots`, which is precisely what stresses an epoch scheduler.
#[derive(Debug, Clone)]
pub struct AllreduceRing {
    n: usize,
    load: f64,
    phase_slots: u64,
    rngs: Vec<SimRng>,
}

impl AllreduceRing {
    /// `n`-port ring at `load`, flipping direction every `phase_slots`.
    pub fn new(n: usize, load: f64, phase_slots: u64, seeds: &SeedSequence) -> Self {
        assert!(n > 1, "a ring needs at least two ranks");
        assert!((0.0..=1.0).contains(&load), "load {load}");
        assert!(phase_slots > 0);
        AllreduceRing {
            n,
            load,
            phase_slots,
            rngs: seeds.streams("allreduce-ring", n).collect(),
        }
    }
}

impl TrafficGen for AllreduceRing {
    fn ports(&self) -> usize {
        self.n
    }

    fn offered_load(&self) -> f64 {
        self.load
    }

    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        let forward = (slot / self.phase_slots).is_multiple_of(2);
        for src in 0..self.n {
            if self.rngs[src].coin(self.load) {
                let dst = if forward {
                    (src + 1) % self.n
                } else {
                    (src + self.n - 1) % self.n
                };
                out.push(Arrival {
                    src,
                    dst,
                    class: Class::Data,
                });
            }
        }
    }
}

/// Tree allreduce on the implicit binary tree rooted at rank 0
/// (children of `i` are `2i + 1` and `2i + 2`): even phases *reduce*
/// (every non-root sends to its parent — fan-in that doubles per
/// level), odd phases *broadcast* (each parent sends to its children,
/// alternating between the two by slot parity so ports stay within one
/// cell per slot).
#[derive(Debug, Clone)]
pub struct AllreduceTree {
    n: usize,
    load: f64,
    phase_slots: u64,
    rngs: Vec<SimRng>,
}

impl AllreduceTree {
    /// `n`-rank tree at `load`, switching reduce/broadcast every
    /// `phase_slots`.
    pub fn new(n: usize, load: f64, phase_slots: u64, seeds: &SeedSequence) -> Self {
        assert!(n > 1, "a tree needs at least two ranks");
        assert!((0.0..=1.0).contains(&load), "load {load}");
        assert!(phase_slots > 0);
        AllreduceTree {
            n,
            load,
            phase_slots,
            rngs: seeds.streams("allreduce-tree", n).collect(),
        }
    }
}

impl TrafficGen for AllreduceTree {
    fn ports(&self) -> usize {
        self.n
    }

    fn offered_load(&self) -> f64 {
        self.load
    }

    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        let reducing = (slot / self.phase_slots).is_multiple_of(2);
        for src in 0..self.n {
            if !self.rngs[src].coin(self.load) {
                continue;
            }
            let dst = if reducing {
                if src == 0 {
                    continue; // the root only receives during reduce
                }
                (src - 1) / 2
            } else {
                // Broadcast: alternate between the two children so each
                // port still offers at most one cell per slot.
                let first = 2 * src + 1;
                let second = 2 * src + 2;
                let pick_second = slot % 2 == 1 && second < self.n;
                let child = if pick_second { second } else { first };
                if child >= self.n {
                    continue; // leaves only receive during broadcast
                }
                child
            };
            out.push(Arrival {
                src,
                dst,
                class: Class::Data,
            });
        }
    }
}

/// Parameter-server incast: every `period` slots a new aggregation
/// round starts — for its first `burst_slots` slots, `fanin` workers
/// (the ports cyclically following the target) all send to the round's
/// server, which rotates across ports round-robin. Fully deterministic:
/// no RNG, so the overload pattern is identical on every run and every
/// platform.
#[derive(Debug, Clone)]
pub struct Incast {
    n: usize,
    fanin: usize,
    period: u64,
    burst_slots: u64,
}

impl Incast {
    /// `fanin` sources converge on a rotating target for the first
    /// `burst_slots` of every `period`-slot round.
    pub fn new(n: usize, fanin: usize, period: u64, burst_slots: u64) -> Self {
        assert!(n > 1);
        assert!(fanin >= 1 && fanin < n, "fanin {fanin} of {n}");
        assert!(period > 0 && burst_slots <= period);
        Incast {
            n,
            fanin,
            period,
            burst_slots,
        }
    }
}

impl TrafficGen for Incast {
    fn ports(&self) -> usize {
        self.n
    }

    fn offered_load(&self) -> f64 {
        // fanin cells per burst slot, burst_slots of period, over n ports.
        (self.fanin as u64 * self.burst_slots) as f64 / (self.n as u64 * self.period) as f64
    }

    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        if slot % self.period >= self.burst_slots {
            return;
        }
        let round = slot / self.period;
        let target = (round % self.n as u64) as usize;
        for k in 1..=self.fanin {
            let src = (target + k) % self.n;
            out.push(Arrival {
                src,
                dst: target,
                class: Class::Data,
            });
        }
    }
}

/// Zipf-skewed destination popularity: output ranked `k` (0-based) is
/// chosen with probability proportional to `1 / (k + 1)^alpha`. With
/// `alpha = 0` this degenerates to uniform; `alpha ≈ 1` concentrates
/// roughly half the demand on the few hottest outputs — the
/// expert-imbalance regime where demand-aware circuits beat oblivious
/// rotors.
#[derive(Debug, Clone)]
pub struct HotspotSkew {
    n: usize,
    load: f64,
    /// CDF over ranked outputs; `cdf[k]` = P(rank ≤ k).
    cdf: Vec<f64>,
    rngs: Vec<SimRng>,
}

impl HotspotSkew {
    /// `n`-port generator at `load` with Zipf exponent `alpha ≥ 0`.
    pub fn new(n: usize, load: f64, alpha: f64, seeds: &SeedSequence) -> Self {
        assert!(n > 0);
        assert!((0.0..=1.0).contains(&load), "load {load}");
        assert!(alpha >= 0.0, "alpha {alpha}");
        let weights: Vec<f64> = (0..n).map(|k| (k as f64 + 1.0).powf(-alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        HotspotSkew {
            n,
            load,
            cdf,
            rngs: seeds.streams("hotspot-skew", n).collect(),
        }
    }

    fn draw_dst(cdf: &[f64], rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        // Binary search the CDF: first rank whose cumulative mass
        // covers u.
        let mut lo = 0usize;
        let mut hi = cdf.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cdf[mid] < u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl TrafficGen for HotspotSkew {
    fn ports(&self) -> usize {
        self.n
    }

    fn offered_load(&self) -> f64 {
        self.load
    }

    fn arrivals(&mut self, _slot: u64, out: &mut Vec<Arrival>) {
        for src in 0..self.n {
            let rng = &mut self.rngs[src];
            if rng.coin(self.load) {
                let dst = Self::draw_dst(&self.cdf, rng);
                out.push(Arrival {
                    src,
                    dst,
                    class: Class::Data,
                });
            }
        }
    }
}

/// Diurnal load: uniform destinations with the offered load swept along
/// a triangle wave between `low` and `high` over `period` slots. The
/// modulation is piecewise-linear integer arithmetic (no `sin`), so the
/// load profile — and therefore every arrival — is bit-exact across
/// platforms and optimization levels.
#[derive(Debug, Clone)]
pub struct Diurnal {
    n: usize,
    low: f64,
    high: f64,
    period: u64,
    rngs: Vec<SimRng>,
}

impl Diurnal {
    /// Load climbs `low → high` over the first half of `period`, then
    /// falls back.
    pub fn new(n: usize, low: f64, high: f64, period: u64, seeds: &SeedSequence) -> Self {
        assert!(n > 0);
        assert!((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high));
        assert!(low <= high, "low {low} > high {high}");
        assert!(period >= 2);
        Diurnal {
            n,
            low,
            high,
            period,
            rngs: seeds.streams("diurnal", n).collect(),
        }
    }

    /// The instantaneous load at `slot` (exposed for tests and plots).
    pub fn load_at(&self, slot: u64) -> f64 {
        let phase = slot % self.period;
        let half = self.period / 2;
        // Triangle: 0 → half climbs, half → period falls.
        let pos = if phase < half {
            phase as f64 / half as f64
        } else {
            (self.period - phase) as f64 / (self.period - half) as f64
        };
        self.low + (self.high - self.low) * pos
    }
}

impl TrafficGen for Diurnal {
    fn ports(&self) -> usize {
        self.n
    }

    fn offered_load(&self) -> f64 {
        // Time-average of the triangle wave.
        (self.low + self.high) / 2.0
    }

    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        let load = self.load_at(slot);
        for src in 0..self.n {
            let rng = &mut self.rngs[src];
            if rng.coin(load) {
                let dst = rng.index(self.n);
                out.push(Arrival {
                    src,
                    dst,
                    class: Class::Data,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured_load(gen: &mut dyn TrafficGen, slots: u64) -> f64 {
        let mut out = Vec::new();
        let mut total = 0usize;
        for slot in 0..slots {
            out.clear();
            gen.arrivals(slot, &mut out);
            assert!(
                out.len() <= gen.ports(),
                "more than one arrival per port in slot {slot}"
            );
            let mut seen = vec![false; gen.ports()];
            for a in &out {
                assert!(a.src < gen.ports() && a.dst < gen.ports());
                assert!(!seen[a.src], "port {} sent twice in slot {slot}", a.src);
                seen[a.src] = true;
            }
            total += out.len();
        }
        total as f64 / (slots * gen.ports() as u64) as f64
    }

    #[test]
    fn ring_matches_offered_load_and_stays_on_neighbors() {
        let mut g = AllreduceRing::new(8, 0.6, 50, &SeedSequence::new(1));
        let measured = measured_load(&mut g, 20_000);
        assert!((measured - 0.6).abs() < 0.02, "measured {measured}");
        let mut out = Vec::new();
        g.arrivals(0, &mut out); // forward phase
        for a in &out {
            assert_eq!(a.dst, (a.src + 1) % 8);
        }
        out.clear();
        g.arrivals(50, &mut out); // reversed phase
        for a in &out {
            assert_eq!(a.dst, (a.src + 7) % 8);
        }
    }

    #[test]
    fn tree_reduce_targets_parents_and_broadcast_targets_children() {
        let mut g = AllreduceTree::new(8, 1.0, 10, &SeedSequence::new(2));
        let mut out = Vec::new();
        g.arrivals(0, &mut out); // reduce phase
        for a in &out {
            assert_ne!(a.src, 0, "root sends nothing during reduce");
            assert_eq!(a.dst, (a.src - 1) / 2);
        }
        out.clear();
        g.arrivals(10, &mut out); // broadcast phase
        for a in &out {
            assert!(a.dst == 2 * a.src + 1 || a.dst == 2 * a.src + 2);
        }
    }

    #[test]
    fn incast_is_deterministic_fan_in_on_a_rotating_target() {
        let mut g = Incast::new(8, 4, 100, 20);
        let mut out = Vec::new();
        g.arrivals(0, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|a| a.dst == 0));
        out.clear();
        g.arrivals(20, &mut out); // past the burst window
        assert!(out.is_empty());
        out.clear();
        g.arrivals(100, &mut out); // next round: target rotated
        assert!(out.iter().all(|a| a.dst == 1));
        // Offered load bookkeeping: 4 × 20 cells / (8 × 100) slots.
        assert!((g.offered_load() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn skew_concentrates_demand_on_low_ranks() {
        let mut g = HotspotSkew::new(16, 0.8, 1.2, &SeedSequence::new(3));
        let mut counts = [0u64; 16];
        let mut out = Vec::new();
        for slot in 0..20_000 {
            out.clear();
            g.arrivals(slot, &mut out);
            for a in &out {
                counts[a.dst] += 1;
            }
        }
        assert!(
            counts[0] > 4 * counts[15],
            "rank 0 {} vs rank 15 {}",
            counts[0],
            counts[15]
        );
        // alpha = 0 degenerates to uniform.
        let mut u = HotspotSkew::new(16, 0.8, 0.0, &SeedSequence::new(3));
        let measured = measured_load(&mut u, 10_000);
        assert!((measured - 0.8).abs() < 0.02);
    }

    #[test]
    fn diurnal_load_follows_the_triangle_wave() {
        let g = Diurnal::new(8, 0.2, 0.8, 1_000, &SeedSequence::new(4));
        assert!((g.load_at(0) - 0.2).abs() < 1e-12);
        assert!((g.load_at(500) - 0.8).abs() < 1e-12);
        assert!((g.load_at(250) - 0.5).abs() < 1e-12);
        let mut g = g;
        let measured = measured_load(&mut g, 40_000);
        assert!((measured - 0.5).abs() < 0.02, "measured {measured}");
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        let collect = |seed: u64| {
            let mut g = AllreduceRing::new(8, 0.5, 20, &SeedSequence::new(seed));
            let mut all = Vec::new();
            let mut out = Vec::new();
            for slot in 0..500 {
                out.clear();
                g.arrivals(slot, &mut out);
                all.extend(out.iter().map(|a| (a.src, a.dst)));
            }
            all
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }
}
