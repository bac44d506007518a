//! `repro` — the harness's one door. `repro list` prints the registry;
//! `repro <experiment> [flags]` parses the flags the experiment's row
//! accepts (names of rows of `osmosis_bench::FLAGS`) and runs it. An
//! unknown experiment or a rejected flag exits 2 with the accepted set
//! on stderr before anything runs; an experiment's own exit codes (0
//! ok, 1 a failed bar) pass through.
#![expect(
    clippy::print_stdout,
    reason = "every experiment prints its table or figure to stdout"
)]
#![expect(
    clippy::disallowed_methods,
    reason = "the harness reads its command line and times its own runs; no simulated result depends on either"
)]
#![expect(
    clippy::expect_used,
    reason = "an experiment aborts on a broken invariant of its own sweep"
)]
#![expect(
    clippy::unwrap_used,
    reason = "an experiment aborts on a broken invariant of its own sweep"
)]

use osmosis_bench::{usage, Args};

mod availability_study;
mod bench_topology;
mod bvn_baseline;
mod campaign;
mod control_protocol_study;
mod cost_parity;
mod fdl_study;
mod fig10_dpsk_nrz;
mod fig1_single_stage_latency;
mod fig2_buffer_placement;
mod fig4_flow_control;
mod fig5_power_budget;
mod fig6_request_grant;
mod fig7_delay_throughput;
mod fig9_scheduler_budget;
mod flppr_depth_ablation;
mod guardtime_ablation;
mod hol_blocking;
mod link_load_analysis;
mod matching_quality;
mod multicast_study;
mod ocs_study;
mod power_crossover;
mod sec4c_ber_tiers;
mod sec6c_simulated;
mod sec6c_stage_comparison;
mod sec6d_architecture_comparison;
mod sec7_scaling;
mod table1_requirements;
mod telemetry_study;
mod topology_budget;
mod work_conservation;

struct Experiment {
    name: &'static str,
    about: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args),
}

/// The registry: one row per experiment — the module that implements
/// it (whose name is the experiment's), what it prints, and the rows of
/// the flag table it accepts.
macro_rules! registry {
    ($($module:ident: $about:literal, $flags:expr;)*) => {
        const REGISTRY: &[Experiment] = &[$(Experiment {
            name: stringify!($module),
            about: $about,
            flags: $flags,
            run: $module::run,
        }),*];
    };
}

const QUICK: &[&str] = &["--quick"];

registry! {
    table1_requirements: "Table 1: fabric requirements vs. measured", QUICK;
    fig1_single_stage_latency: "Fig. 1: single-stage latency vs. room diameter", QUICK;
    fig2_buffer_placement: "Fig. 2: buffer placement options", &["--quick", "--topology"];
    fig4_flow_control: "Figs. 3-4: scheduler-relayed flow control", QUICK;
    fig5_power_budget: "Fig. 5: broadcast-and-select power budget", QUICK;
    fig6_request_grant: "Fig. 6: FLPPR request-to-grant latency", QUICK;
    fig7_delay_throughput: "Fig. 7: delay vs. throughput, 1 and 2 receivers",
        &["--quick", "--telemetry"];
    fig9_scheduler_budget: "Fig. 9: demonstrator latency budget", QUICK;
    fig10_dpsk_nrz: "Fig. 10: OSNR penalty, DPSK vs. NRZ", QUICK;
    sec4c_ber_tiers: "SIV.C: BER tiers through FEC and retransmission", QUICK;
    sec6c_stage_comparison: "SVI.C: 3 vs. 5 vs. 9 stages at 2048 ports", QUICK;
    sec6c_simulated: "SVI.C simulated: stage count vs. latency", QUICK;
    sec6d_architecture_comparison: "SVI.D: OSMOSIS vs. other architectures", QUICK;
    sec7_scaling: "SVII: single-stage scaling outlook", QUICK;
    power_crossover: "SI: CMOS vs. SOA power over data rate", QUICK;
    cost_parity: "SVII: cost per bandwidth and parity integration", QUICK;
    flppr_depth_ablation: "A1: FLPPR pipeline depth", QUICK;
    guardtime_ablation: "A2: user bandwidth vs. guard time", QUICK;
    hol_blocking: "A3: FIFO head-of-line blocking vs. VOQ", &["--quick", "--telemetry"];
    bvn_baseline: "A4: Birkhoff-von Neumann baseline", QUICK;
    matching_quality: "A5: matching quality vs. max-size oracle", QUICK;
    control_protocol_study: "ref. [19]: reliable control channels", QUICK;
    multicast_study: "multicast on broadcast-and-select", QUICK;
    work_conservation: "ref. [11]: CIOQ work conservation vs. speed-up", QUICK;
    link_load_analysis: "analytic link-load ceilings of folded Clos", QUICK;
    topology_budget: "Fig. 1 rerun at 8K/32K ports on declared topologies",
        &["--quick", "--topology"];
    availability_study: "fault plane: degraded throughput and recovery",
        &["--quick", "--smoke", "--audit", "--checkpoint", "--telemetry", "--progress",
          "--topology"];
    telemetry_study: "Fig. 7 delay split into per-component segments",
        &["--quick", "--smoke", "--telemetry"];
    bench_topology: "topology compiler speed at 2K/8K/32K ports (writes a snapshot)",
        &["--smoke"];
    ocs_study: "OCS vs. FLPPR on ML workloads (writes a snapshot)",
        &["--quick", "--smoke", "--audit", "--topology"];
    fdl_study: "Fig. 2 with an FDL buffer option (writes a snapshot)",
        &["--quick", "--smoke", "--audit", "--topology"];
    campaign: "sharded crash-safe campaign runner (writes a snapshot)",
        &["--quick", "--topology", "--dir", "--shards", "--resume"];
}

fn list() {
    for e in REGISTRY {
        println!("{:<30} {}\n    {}", e.name, e.about, usage(e.flags));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match argv.split_first() {
        Some((name, [])) if name == "list" => return list(),
        Some((name, rest)) => (name, rest),
        None => {
            eprintln!("usage: repro list | repro <experiment> [flags]");
            std::process::exit(2);
        }
    };
    let Some(experiment) = REGISTRY.iter().find(|e| e.name == name) else {
        let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        eprintln!(
            "repro: unknown experiment `{name}`; experiments: {}",
            names.join(" ")
        );
        std::process::exit(2);
    };
    match Args::parse(experiment.flags, rest) {
        Ok(args) => (experiment.run)(&args),
        Err(e) => {
            let accepted = usage(experiment.flags);
            eprintln!("repro {name}: {e}; accepted flags: {accepted}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_bench::FLAGS;

    #[test]
    fn every_declared_flag_is_a_row_of_the_table() {
        for e in REGISTRY {
            for flag in e.flags {
                assert!(
                    FLAGS.iter().any(|(name, _)| name == flag),
                    "{} declares {flag}, which the flag table lacks",
                    e.name
                );
            }
        }
    }
}
