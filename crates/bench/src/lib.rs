//! # osmosis-bench
//!
//! The harness that regenerates every table and figure of the paper (see
//! `DESIGN.md` §4 for the experiment index). It builds one binary,
//! `repro`: each module under `src/bin/repro/` prints one table, figure
//! or study, `main.rs` there holds the registry that names them, and
//! [`flags`] is the one table of command-line flags they draw on.
//!
//! ```text
//! cargo run --release -p osmosis-bench -- list
//! cargo run --release -p osmosis-bench -- fig7_delay_throughput --quick
//! ```
//!
//! An unknown experiment or a flag the experiment does not accept
//! exits 2 before anything runs. This library is what the experiments
//! share: the flag table, the table printer, and the telemetry-stream
//! and snapshot-file plumbing.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod flags;

pub use flags::{usage, Args, FLAGS};

use osmosis_telemetry::{JsonlStats, TelemetrySink};
use std::path::Path;

/// Print a fixed-width table: a header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Unwrap `result`, or print `what: error` on stderr and exit `code`.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, code: i32, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(code)
    })
}

/// Open a labelled telemetry sink streaming to `path`; exits 1 when
/// the file cannot be created.
pub fn open_stream(label: &str, path: &Path) -> TelemetrySink {
    let sink = TelemetrySink::new().with_label(label).stream_to_path(path);
    let what = format!("cannot open telemetry stream {}", path.display());
    or_exit(sink, 1, &what)
}

/// Flush `sink`'s stream; exits 1 on any write error it recorded.
pub fn close_stream(sink: &mut TelemetrySink) {
    or_exit(sink.finish_stream(), 1, "telemetry stream");
}

/// Read the finished stream at `path` back, validate it against the
/// JSONL schema and print the one-line summary; exits 1 when the file
/// is unreadable or invalid.
pub fn report_stream(path: &Path) -> JsonlStats {
    let what = format!("cannot read back telemetry file {}", path.display());
    let text = or_exit(std::fs::read_to_string(path), 1, &what);
    let stats = osmosis_telemetry::validate_jsonl(&text);
    let stats = or_exit(stats, 1, "telemetry file failed schema validation");
    println!(
        "\ntelemetry: {} -> {} runs, {} snapshots, {} spans (schema valid)",
        path.display(),
        stats.metas,
        stats.snapshots,
        stats.spans
    );
    stats
}

/// Rewrite the committed snapshot `file` (a `BENCH_*.json` name) at the
/// repo root with `json`; exits 1 when it cannot be written.
pub fn write_snapshot(file: &str, json: String) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    or_exit(
        std::fs::write(&path, json + "\n"),
        1,
        &format!("cannot write {path}"),
    );
    println!("\nwrote {path}");
}
