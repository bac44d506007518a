//! Slotted traffic generators.
//!
//! Each generator is called once per cell slot and emits the arrivals for
//! every ingress port of an N-port switch. All generators are seeded and
//! deterministic; per-port streams are derived so results do not depend on
//! port iteration order.

use osmosis_sim::{SeedSequence, SimRng};

/// Packet class for the paper's bimodal traffic assumption (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Short, latency-critical control packet.
    Control,
    /// Long, throughput-critical data packet (one cell of a larger
    /// message).
    Data,
}

/// One cell arrival at an ingress port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Ingress port.
    pub src: usize,
    /// Destination egress port.
    pub dst: usize,
    /// Packet class.
    pub class: Class,
}

/// A slotted traffic source for an N-port switch.
pub trait TrafficGen {
    /// Number of ports this generator feeds.
    fn ports(&self) -> usize;

    /// Nominal offered load per input (fraction of line rate).
    fn offered_load(&self) -> f64;

    /// Append this slot's arrivals to `out` (at most one per ingress —
    /// ports are slotted at line rate).
    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>);
}

/// Independent Bernoulli arrivals with uniformly random destinations —
/// the classic benchmark load (used for Figs. 6–7 style curves).
#[derive(Debug, Clone)]
pub struct BernoulliUniform {
    n: usize,
    load: f64,
    rngs: Vec<SimRng>,
}

impl BernoulliUniform {
    /// `n`-port generator at `load` ∈ \[0,1\].
    pub fn new(n: usize, load: f64, seeds: &SeedSequence) -> Self {
        assert!(n > 0);
        assert!((0.0..=1.0).contains(&load), "load {load}");
        BernoulliUniform {
            n,
            load,
            rngs: seeds.streams("bernoulli", n).collect(),
        }
    }
}

impl TrafficGen for BernoulliUniform {
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

/// A fixed permutation pattern: input i always sends to π(i). Contention-
/// free, so it isolates scheduler overhead from contention effects.
#[derive(Debug, Clone)]
pub struct Permutation {
    perm: Vec<usize>,
    load: f64,
    rngs: Vec<SimRng>,
}

impl Permutation {
    /// Generator with an explicit permutation.
    pub fn new(perm: Vec<usize>, load: f64, seeds: &SeedSequence) -> Self {
        let n = perm.len();
        assert!(n > 0);
        let mut seen = vec![false; n];
        for &d in &perm {
            assert!(d < n && !seen[d], "not a permutation");
            seen[d] = true;
        }
        assert!((0.0..=1.0).contains(&load));
        Permutation {
            perm,
            load,
            rngs: seeds.streams("perm", n).collect(),
        }
    }

    /// A uniformly random permutation.
    pub fn random(n: usize, load: f64, seeds: &SeedSequence) -> Self {
        let mut rng = seeds.stream("perm-choice", 0);
        Permutation::new(rng.permutation(n), load, seeds)
    }
}

impl TrafficGen for Permutation {
    fn ports(&self) -> usize {
        self.perm.len()
    }

    fn offered_load(&self) -> f64 {
        self.load
    }

    fn arrivals(&mut self, _slot: u64, out: &mut Vec<Arrival>) {
        for src in 0..self.perm.len() {
            if self.rngs[src].coin(self.load) {
                out.push(Arrival {
                    src,
                    dst: self.perm[src],
                    class: Class::Data,
                });
            }
        }
    }
}

/// Hotspot traffic: a fraction of every input's packets converge on one
/// egress, the rest is uniform. The adversarial pattern for flow-control
/// and losslessness experiments (Fig. 3–4).
#[derive(Debug, Clone)]
pub struct Hotspot {
    n: usize,
    load: f64,
    hotspot: usize,
    hot_fraction: f64,
    rngs: Vec<SimRng>,
}

impl Hotspot {
    /// `hot_fraction` of arrivals target `hotspot`; the rest are uniform.
    pub fn new(
        n: usize,
        load: f64,
        hotspot: usize,
        hot_fraction: f64,
        seeds: &SeedSequence,
    ) -> Self {
        assert!(hotspot < n);
        assert!((0.0..=1.0).contains(&hot_fraction));
        assert!((0.0..=1.0).contains(&load));
        Hotspot {
            n,
            load,
            hotspot,
            hot_fraction,
            rngs: seeds.streams("hotspot", n).collect(),
        }
    }
}

impl TrafficGen for Hotspot {
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
                let dst = if rng.coin(self.hot_fraction) {
                    self.hotspot
                } else {
                    rng.index(self.n)
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

/// Bursty on/off traffic: each input alternates geometric ON bursts (all
/// cells to one destination) and OFF gaps, tuned to the requested load.
/// Models long messages segmented into cells.
#[derive(Debug, Clone)]
pub struct Bursty {
    n: usize,
    load: f64,
    mean_burst: f64,
    state: Vec<BurstState>,
    rngs: Vec<SimRng>,
}

#[derive(Debug, Clone, Copy)]
enum BurstState {
    Off {
        /// Remaining off slots.
        remaining: u64,
    },
    On {
        /// Remaining cells in the burst.
        remaining: u64,
        /// Destination of the whole burst.
        dst: usize,
    },
}

impl Bursty {
    /// `mean_burst` cells per burst; OFF gaps sized so the long-run load
    /// is `load`.
    pub fn new(n: usize, load: f64, mean_burst: f64, seeds: &SeedSequence) -> Self {
        assert!(n > 0);
        assert!(mean_burst >= 1.0);
        assert!(load > 0.0 && load <= 1.0);
        Bursty {
            n,
            load,
            mean_burst,
            state: vec![BurstState::Off { remaining: 0 }; n],
            rngs: seeds.streams("bursty", n).collect(),
        }
    }

    fn mean_off(&self) -> f64 {
        // load = on / (on + off)  →  off = on·(1−ρ)/ρ.
        self.mean_burst * (1.0 - self.load) / self.load
    }

    fn draw_on(mean_burst: f64, rng: &mut SimRng) -> u64 {
        1 + rng.geometric(1.0 / mean_burst)
    }

    fn draw_off(mean_off: f64, rng: &mut SimRng) -> u64 {
        if mean_off <= 0.0 {
            0
        } else {
            rng.geometric(1.0 / (mean_off + 1.0))
        }
    }
}

impl TrafficGen for Bursty {
    fn ports(&self) -> usize {
        self.n
    }

    fn offered_load(&self) -> f64 {
        self.load
    }

    fn arrivals(&mut self, _slot: u64, out: &mut Vec<Arrival>) {
        let n = self.n;
        let mean_burst = self.mean_burst;
        let mean_off = self.mean_off();
        for src in 0..n {
            let rng = &mut self.rngs[src];
            let (dst_emit, new_state) = match self.state[src] {
                BurstState::Off { remaining } if remaining > 0 => (
                    None,
                    BurstState::Off {
                        remaining: remaining - 1,
                    },
                ),
                BurstState::Off { .. } => {
                    // Start a new burst this slot.
                    let dst = rng.index(n);
                    let len = Self::draw_on(mean_burst, rng);
                    (
                        Some(dst),
                        if len > 1 {
                            BurstState::On {
                                remaining: len - 1,
                                dst,
                            }
                        } else {
                            BurstState::Off {
                                remaining: Self::draw_off(mean_off, rng),
                            }
                        },
                    )
                }
                BurstState::On { remaining, dst } => (
                    Some(dst),
                    if remaining > 1 {
                        BurstState::On {
                            remaining: remaining - 1,
                            dst,
                        }
                    } else {
                        BurstState::Off {
                            remaining: Self::draw_off(mean_off, rng),
                        }
                    },
                ),
            };
            self.state[src] = new_state;
            if let Some(dst) = dst_emit {
                out.push(Arrival {
                    src,
                    dst,
                    class: Class::Data,
                });
            }
        }
    }
}

/// The paper's bimodal assumption: a stream of long data messages (bursty,
/// class [`Class::Data`]) interleaved with sporadic short control packets
/// (class [`Class::Control`]) that demand low latency.
#[derive(Debug, Clone)]
pub struct Bimodal {
    data: Bursty,
    control_load: f64,
    rngs: Vec<SimRng>,
}

impl Bimodal {
    /// Data traffic at `data_load` in bursts of `mean_burst`, plus
    /// independent control packets at `control_load` (uniform dsts).
    /// A control packet preempts the data arrival in the same slot.
    pub fn new(
        n: usize,
        data_load: f64,
        mean_burst: f64,
        control_load: f64,
        seeds: &SeedSequence,
    ) -> Self {
        assert!(control_load + data_load <= 1.0, "overcommitted port");
        Bimodal {
            data: Bursty::new(n, data_load, mean_burst, seeds),
            control_load,
            rngs: seeds.streams("bimodal-ctl", n).collect(),
        }
    }
}

impl TrafficGen for Bimodal {
    fn ports(&self) -> usize {
        self.data.ports()
    }

    fn offered_load(&self) -> f64 {
        self.data.offered_load() + self.control_load
    }

    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        let start = out.len();
        self.data.arrivals(slot, out);
        // Control packets: independent Bernoulli per port; they replace a
        // data cell if one arrived in the same slot (the port can inject
        // only one cell per slot).
        for src in 0..self.data.ports() {
            let rng = &mut self.rngs[src];
            if rng.coin(self.control_load) {
                let dst = rng.index(self.data.ports());
                if let Some(a) = out[start..].iter_mut().find(|a| a.src == src) {
                    a.dst = dst;
                    a.class = Class::Control;
                } else {
                    out.push(Arrival {
                        src,
                        dst,
                        class: Class::Control,
                    });
                }
            }
        }
    }
}

/// Replays a precomputed send schedule: each source holds a FIFO of
/// destinations and injects at most one cell per slot. Used for
/// collective-communication workloads (all-to-all phases, checkpoint
/// schedules) where the send order is the experiment.
#[derive(Debug, Clone)]
pub struct Replay {
    sends: Vec<std::collections::VecDeque<usize>>,
}

impl Replay {
    /// Build from per-source destination queues. All destinations must
    /// be valid port indices.
    pub fn new(sends: Vec<std::collections::VecDeque<usize>>) -> Self {
        let n = sends.len();
        assert!(n > 0);
        for q in &sends {
            for &d in q {
                assert!(d < n, "destination {d} out of range {n}");
            }
        }
        Replay { sends }
    }

    /// Total cells still scheduled.
    pub fn remaining(&self) -> u64 {
        self.sends.iter().map(|q| q.len() as u64).sum()
    }

    /// True when every queue has drained.
    pub fn is_done(&self) -> bool {
        self.sends.iter().all(|q| q.is_empty())
    }
}

impl TrafficGen for Replay {
    fn ports(&self) -> usize {
        self.sends.len()
    }

    fn offered_load(&self) -> f64 {
        1.0
    }

    fn arrivals(&mut self, _slot: u64, out: &mut Vec<Arrival>) {
        for (src, q) in self.sends.iter_mut().enumerate() {
            if let Some(dst) = q.pop_front() {
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

    fn seeds() -> SeedSequence {
        SeedSequence::new(0xF00D)
    }

    fn measure_load(g: &mut dyn TrafficGen, slots: u64) -> f64 {
        let mut out = Vec::new();
        let mut total = 0u64;
        for t in 0..slots {
            out.clear();
            g.arrivals(t, &mut out);
            total += out.len() as u64;
        }
        total as f64 / (slots as f64 * g.ports() as f64)
    }

    #[test]
    fn bernoulli_hits_target_load() {
        for load in [0.1, 0.5, 0.9] {
            let mut g = BernoulliUniform::new(16, load, &seeds());
            let m = measure_load(&mut g, 20_000);
            assert!((m - load).abs() < 0.01, "load {load}: measured {m}");
        }
    }

    #[test]
    fn bernoulli_destinations_are_uniform() {
        let mut g = BernoulliUniform::new(8, 1.0, &seeds());
        let mut counts = vec![0u64; 8];
        let mut out = Vec::new();
        for t in 0..10_000 {
            out.clear();
            g.arrivals(t, &mut out);
            for a in &out {
                counts[a.dst] += 1;
            }
        }
        let expected = 10_000.0;
        for &c in &counts {
            assert!((c as f64 - expected).abs() < expected * 0.06, "{counts:?}");
        }
    }

    #[test]
    fn at_most_one_arrival_per_port_per_slot() {
        let mut g = BernoulliUniform::new(8, 1.0, &seeds());
        let mut out = Vec::new();
        for t in 0..100 {
            out.clear();
            g.arrivals(t, &mut out);
            let mut seen = [false; 8];
            for a in &out {
                assert!(!seen[a.src]);
                seen[a.src] = true;
            }
        }
    }

    #[test]
    fn permutation_is_contention_free() {
        let perm = vec![3, 2, 1, 0];
        let mut g = Permutation::new(perm.clone(), 1.0, &seeds());
        let mut out = Vec::new();
        g.arrivals(0, &mut out);
        for a in &out {
            assert_eq!(a.dst, perm[a.src]);
        }
        assert_eq!(out.len(), 4);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_permutation_rejected() {
        Permutation::new(vec![0, 0, 1], 1.0, &seeds());
    }

    #[test]
    fn random_permutation_is_valid_and_seed_stable() {
        let a = Permutation::random(64, 1.0, &seeds());
        let b = Permutation::random(64, 1.0, &seeds());
        assert_eq!(a.perm, b.perm);
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mut g = Hotspot::new(16, 0.5, 7, 0.5, &seeds());
        let mut out = Vec::new();
        let mut hot = 0u64;
        let mut total = 0u64;
        for t in 0..20_000 {
            out.clear();
            g.arrivals(t, &mut out);
            for a in &out {
                total += 1;
                if a.dst == 7 {
                    hot += 1;
                }
            }
        }
        // 50% directed + 1/16 of the uniform half ≈ 0.531.
        let frac = hot as f64 / total as f64;
        assert!((frac - 0.531).abs() < 0.02, "hot frac {frac}");
    }

    #[test]
    fn bursty_hits_target_load() {
        for load in [0.3, 0.7] {
            let mut g = Bursty::new(8, load, 10.0, &seeds());
            let m = measure_load(&mut g, 100_000);
            assert!((m - load).abs() < 0.03, "load {load}: measured {m}");
        }
    }

    #[test]
    fn bursty_full_load_never_idles() {
        let mut g = Bursty::new(4, 1.0, 16.0, &seeds());
        let mut out = Vec::new();
        for t in 0..1000 {
            out.clear();
            g.arrivals(t, &mut out);
            assert_eq!(out.len(), 4, "every port busy at load 1.0");
        }
    }

    #[test]
    fn bursts_stick_to_one_destination() {
        let mut g = Bursty::new(8, 0.9, 50.0, &seeds());
        let mut out = Vec::new();
        // Track destination runs per source; long bursts must repeat dst.
        let mut last: Vec<Option<usize>> = vec![None; 8];
        let mut repeats = 0u64;
        let mut switches = 0u64;
        for t in 0..5_000 {
            out.clear();
            g.arrivals(t, &mut out);
            for a in &out {
                match last[a.src] {
                    Some(d) if d == a.dst => repeats += 1,
                    Some(_) => switches += 1,
                    None => {}
                }
                last[a.src] = Some(a.dst);
            }
        }
        assert!(
            repeats > switches * 10,
            "bursty traffic must mostly repeat destinations: {repeats} vs {switches}"
        );
    }

    #[test]
    fn bimodal_mixes_classes() {
        let mut g = Bimodal::new(8, 0.6, 20.0, 0.1, &seeds());
        let mut out = Vec::new();
        let (mut ctl, mut data) = (0u64, 0u64);
        for t in 0..20_000 {
            out.clear();
            g.arrivals(t, &mut out);
            let mut seen = [false; 8];
            for a in &out {
                assert!(!seen[a.src], "one cell per port per slot");
                seen[a.src] = true;
                match a.class {
                    Class::Control => ctl += 1,
                    Class::Data => data += 1,
                }
            }
        }
        let ctl_rate = ctl as f64 / (20_000.0 * 8.0);
        assert!((ctl_rate - 0.1).abs() < 0.01, "control rate {ctl_rate}");
        assert!(data > ctl * 3, "data dominates");
    }

    #[test]
    fn replay_follows_the_schedule_exactly() {
        use std::collections::VecDeque;
        let mut g = Replay::new(vec![
            VecDeque::from(vec![1, 2]),
            VecDeque::from(vec![0]),
            VecDeque::new(),
        ]);
        assert_eq!(g.remaining(), 3);
        let mut out = Vec::new();
        g.arrivals(0, &mut out);
        assert_eq!(
            out,
            vec![
                Arrival {
                    src: 0,
                    dst: 1,
                    class: Class::Data
                },
                Arrival {
                    src: 1,
                    dst: 0,
                    class: Class::Data
                },
            ]
        );
        out.clear();
        g.arrivals(1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, 2);
        assert!(g.is_done());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replay_validates_destinations() {
        use std::collections::VecDeque;
        Replay::new(vec![VecDeque::from(vec![5])]);
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = BernoulliUniform::new(8, 0.5, &seeds());
        let mut b = BernoulliUniform::new(8, 0.5, &seeds());
        let mut oa = Vec::new();
        let mut ob = Vec::new();
        for t in 0..100 {
            oa.clear();
            ob.clear();
            a.arrivals(t, &mut oa);
            b.arrivals(t, &mut ob);
            assert_eq!(oa, ob);
        }
    }
}
