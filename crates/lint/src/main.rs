//! CLI for `osmosis-lint`.
//!
//! ```text
//! cargo run -p osmosis-lint                   # human diagnostics, exit 1 on findings
//! cargo run -p osmosis-lint -- --format=json  # machine-readable, same exit contract
//! cargo run -p osmosis-lint -- --deep         # + contract-graph rules (cross-artifact)
//! cargo run -p osmosis-lint -- --deep --graph graph.json   # dump the contract graph
//! cargo run -p osmosis-lint -- --bench        # time the deep pass, write BENCH_lint.json
//! cargo run -p osmosis-lint -- --list-rules   # rule table
//! cargo run -p osmosis-lint -- --root ../..   # lint another checkout
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or IO error.
#![expect(clippy::print_stdout, reason = "the linter reports on stdout")]
#![expect(
    clippy::disallowed_methods,
    reason = "the linter reads its command line and times its own pass for --bench"
)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut format_json = false;
    let mut list_rules = false;
    let mut quiet = false;
    let mut deep = false;
    let mut bench = false;
    let mut graph_path: Option<PathBuf> = None;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format=json" | "--json" => format_json = true,
            "--format=human" => format_json = false,
            "--list-rules" => list_rules = true,
            "--quiet" | "-q" => quiet = true,
            "--deep" => deep = true,
            "--bench" => {
                bench = true;
                deep = true;
            }
            "--graph" => match args.next() {
                Some(p) => {
                    graph_path = Some(PathBuf::from(p));
                    deep = true;
                }
                None => {
                    eprintln!("osmosis-lint: --graph needs an output path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("osmosis-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "osmosis-lint — static analysis for the OSMOSIS workspace\n\n\
                     USAGE: osmosis-lint [--format=json|human] [--root PATH] [--deep]\n\
                            [--graph PATH] [--bench] [--list-rules] [-q]\n\n\
                     Enforces the zero-cost-plane and typed-ids contracts; rustc and clippy\n\
                     carry the rest (the root Cargo.toml's [workspace.lints]).\n\
                     --deep adds the contract-graph rules (bench gates, MODEL_CRATES and\n\
                     lint-table sync, hot-loop allocation); --graph writes the\n\
                     cross-artifact graph as JSON;\n\
                     --bench times the deep pass and writes BENCH_lint.json.\n\
                     Exit codes: 0 clean, 1 findings, 2 usage or IO error."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("osmosis-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for r in osmosis_lint::rules::RULES {
            let scope = if r.deep { "deep" } else { "" };
            println!(
                "{:<20} {:<8} {:<5} {}",
                r.id,
                r.severity.label(),
                scope,
                r.summary
            );
        }
        return ExitCode::SUCCESS;
    }

    let started = std::time::Instant::now();
    let (report, graph) = if deep {
        match osmosis_lint::analyze_workspace_deep(&root) {
            Ok((r, g)) => (r, Some(g)),
            Err(e) => {
                eprintln!("osmosis-lint: cannot scan {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        match osmosis_lint::analyze_workspace(&root) {
            Ok(r) => (r, None),
            Err(e) => {
                eprintln!("osmosis-lint: cannot scan {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    };
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    if let (Some(path), Some(graph)) = (&graph_path, &graph) {
        if let Err(e) = std::fs::write(path, graph.render_json()) {
            eprintln!("osmosis-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if bench {
        if let Some(graph) = &graph {
            let json = format!(
                "{{\"bench\":\"lint-deep\",\"elapsed_ms\":{:.3},\"files_scanned\":{},\
                 \"rules\":{},\"findings\":{},\"bench_bins\":{},\"hot_fns\":{}}}\n",
                elapsed_ms,
                report.files_scanned,
                osmosis_lint::rules::RULES.len(),
                report.diagnostics.len(),
                graph.bench_bins.len(),
                graph.hot_fns.len(),
            );
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lint.json");
            match std::fs::write(path, json) {
                Ok(()) => eprintln!("osmosis-lint: wrote {path}"),
                Err(e) => {
                    eprintln!("osmosis-lint: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if format_json {
        print!("{}", report.render_json());
    } else if !quiet || !report.is_clean() {
        print!("{}", report.render_human());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
