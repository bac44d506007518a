//! `perf` — the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   the driver's form
//! perf run W [--seed N] [--seconds S]                  = --trace 0
//! perf layers W [--seed N]                             = --trace 1
//! perf all SET [--seed N] [--seconds S]                every workload, saved to SET
//! perf agree SET-A SET-B                               compare two saved sets
//! perf pins [--write]                                  check or regenerate pins.json
//! ```

mod agree;
mod decl;
mod host;
mod layers;
mod pins;
mod run;
mod stats;
mod workloads;
mod wrappers;

use decl::Decl;
use osmosis_sim::json::Value;
use std::path::Path;
use workloads::{SimStats, Workload, DEFAULT_SEED, WORKLOADS};

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    write: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        write: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value(a)?),
            "--seed" => {
                let v = value(a)?;
                args.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value(a)?;
                let s: f64 = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {v}: must be a non-negative number"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--write" => args.write = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if args.command.is_none() => args.command = Some(a.clone()),
            _ => args.positional.push(a.clone()),
        }
    }
    Ok(args)
}

fn workload_named(name: Option<&String>) -> Result<&'static Workload, String> {
    let names = || {
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let name = name.ok_or_else(|| format!("name a workload: {}", names()))?;
    workloads::find(name).ok_or_else(|| format!("unknown workload {name}; have {}", names()))
}

/// Print a run's two lines — the detailed record, then the line the
/// driver reads — once the metric set is known to be the declared one.
fn emit(
    declared: &[decl::MetricDecl],
    detail: Value,
    attempted: u64,
    failed: u64,
    metrics: &[run::Metric],
) -> Result<bool, String> {
    Decl::check_names(declared, metrics)?;
    println!("{}", detail.encode());
    println!("{}", run::contract_line(attempted, failed, metrics));
    Ok(true)
}

fn cmd_run(args: &Args, w: &'static Workload) -> Result<bool, String> {
    let decl = Decl::load()?;
    let host = host::descriptor();
    let pin = pins::lookup(w.name, args.seed)?;
    let seconds = args.seconds.unwrap_or(decl.run_seconds);
    let outcome = run::run_workload(w, args.seed, seconds, pin.as_ref())?;
    let metrics = run::end_to_end(&outcome);
    let detail = run::detail(&outcome, &metrics, &decl, host);
    emit(
        &decl.end_to_end,
        detail,
        outcome.attempted,
        outcome.failed,
        &metrics,
    )
}

fn cmd_layers(args: &Args, w: &'static Workload) -> Result<bool, String> {
    let decl = Decl::load()?;
    let o = layers::run_layers(w, args.seed)?;
    emit(&decl.per_layer, o.detail, o.attempted, o.failed, &o.metrics)
}

/// Run every workload, each in a process of its own so `peak_rss_mb`
/// stays per workload, and save the detailed records as a set.
fn cmd_all(args: &Args) -> Result<bool, String> {
    let set = args
        .positional
        .first()
        .ok_or("perf all <set-file>: name the file to save the set to")?;
    let exe = std::env::current_exe().map_err(|e| format!("locate perf: {e}"))?;
    let mut records = String::new();
    for w in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", w.name, "--seed", &args.seed.to_string()]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        let out = cmd.output().map_err(|e| format!("run {}: {e}", w.name))?;
        if !out.status.success() {
            return Err(format!(
                "perf run {} failed: {}",
                w.name,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let detail = stdout
            .lines()
            .find(|l| l.starts_with("{\"workload\""))
            .ok_or_else(|| format!("perf run {} printed no record", w.name))?;
        eprintln!("perf all: {} done", w.name);
        records.push_str(detail);
        records.push('\n');
    }
    std::fs::write(set, records).map_err(|e| format!("write {set}: {e}"))?;
    println!("saved {set}");
    Ok(true)
}

fn cmd_agree(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("perf agree <set-a> <set-b>".into());
    };
    let decl = Decl::load()?;
    let (rows, breached) = agree::compare(
        &decl,
        &agree::load_set(Path::new(a))?,
        &agree::load_set(Path::new(b))?,
    );
    for row in rows {
        println!("{row}");
    }
    Ok(!breached)
}

/// Take the default-seed statistics of every workload; `--write` saves
/// them as the pins, otherwise they are checked against the saved ones.
fn cmd_pins(args: &Args) -> Result<bool, String> {
    let mut taken: Vec<(&str, SimStats)> = Vec::new();
    for w in &WORKLOADS {
        taken.push((w.name, run::one_rep(w, DEFAULT_SEED, None)?.sim));
    }
    if args.write {
        let path = decl::bench_dir().join("pins.json");
        std::fs::write(&path, pins::encode(&taken))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        return Ok(true);
    }
    let mut same = true;
    for (name, stats) in &taken {
        let pinned = pins::lookup(name, DEFAULT_SEED)?;
        let ok = pinned.as_ref() == Some(stats);
        println!("{name}: {}", if ok { "matches its pin" } else { "DIFFERS" });
        if !ok {
            println!("  now    {stats:?}\n  pinned {pinned:?}");
        }
        same &= ok;
    }
    Ok(same)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let positional = || workload_named(args.positional.first());
    match args.command.as_deref() {
        None => {
            let w = workload_named(args.workload.as_ref())?;
            if args.trace {
                cmd_layers(args, w)
            } else {
                cmd_run(args, w)
            }
        }
        Some("run") => cmd_run(args, positional()?),
        Some("layers") => cmd_layers(args, positional()?),
        Some("all") => cmd_all(args),
        Some("agree") => cmd_agree(args),
        Some("pins") => cmd_pins(args),
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| dispatch(&args));
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Kind, Probes};

    static TINY: Workload = Workload {
        name: "tiny",
        kind: Kind::Switch {
            ports: 16,
            load: 0.5,
        },
        probes: Probes::None,
        warmup: 50,
        measure: 500,
    };

    #[test]
    fn printed_names_equal_declared_names() {
        let decl = Decl::load().expect("BENCHMARK.json loads");
        let outcome = run::run_workload(&TINY, 3, 0.0, None).expect("tiny run");
        let metrics = run::end_to_end(&outcome);
        Decl::check_names(&decl.end_to_end, &metrics).expect("end-to-end names and units");
        let catalogue: Vec<run::Metric> = layers::catalogue()
            .into_iter()
            .map(|(name, unit)| run::Metric::exact(name, unit, 0.0))
            .collect();
        Decl::check_names(&decl.per_layer, &catalogue).expect("per-layer names and units");
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(decl.workloads, names);
        assert!(decl.end_to_end.iter().all(|m| m.bound.is_some()));
        assert_eq!(decl.run_seconds.fract(), 0.0);
    }

    #[test]
    fn a_corrupted_pin_fails_every_repetition() {
        let clean = run::run_workload(&TINY, 3, 0.0, None).expect("tiny run");
        assert_eq!(clean.failed, 0, "{:?}", clean.failures);
        let mut pin = clean.priming.sim;
        let pinned = run::run_workload(&TINY, 3, 0.0, Some(&pin)).expect("tiny run");
        assert_eq!(pinned.failed, 0, "{:?}", pinned.failures);
        pin.fingerprint ^= 1;
        let corrupted = run::run_workload(&TINY, 3, 0.0, Some(&pin)).expect("tiny run");
        assert_eq!(corrupted.failed, corrupted.attempted);
        assert!(corrupted.failed as f64 / corrupted.attempted as f64 > 0.0);
    }

    #[test]
    fn the_driver_form_and_the_named_forms_parse_alike() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload x --seed 9 --seconds 2 --trace 1")).expect("parses");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("x"), 9, Some(2.0), true)
        );
        let b = parse_args(&argv("run x --seed 9")).expect("parses");
        assert_eq!(
            (b.command.as_deref(), b.positional.len(), b.seed),
            (Some("run"), 1, 9)
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
