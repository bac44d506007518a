//! Drives the `repro` binary the way a user does. Every figure
//! experiment (one without a `--smoke` mode that writes no snapshot)
//! must print, at `--quick`, exactly the bytes committed under
//! `tests/golden/`; and an invocation the flag table rejects must exit 2
//! before anything runs.
//!
//! The golden files were captured from the 26 stand-alone binaries that
//! `repro` replaced. Regenerate one only in a commit whose message says
//! which model change moved which table.
#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(argv: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(argv)
        .output()
        .expect("spawn repro")
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// `(name and description line, flags line)` of every row `repro list`
/// prints.
fn registry() -> Vec<(String, String)> {
    let out = repro(&["list"]);
    assert!(out.status.success(), "repro list failed");
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    let rows: Vec<&str> = text.lines().take_while(|l| !l.is_empty()).collect();
    rows.chunks(2)
        .map(|pair| (pair[0].to_string(), pair[1].trim().to_string()))
        .collect()
}

#[test]
fn every_figure_prints_its_golden_table() {
    let figures: Vec<String> = registry()
        .into_iter()
        .filter(|(row, flags)| !flags.contains("--smoke") && !row.contains("(writes a snapshot)"))
        .map(|(row, _)| row.split_whitespace().next().expect("name").to_string())
        .collect();
    assert!(!figures.is_empty(), "repro list named no figure experiment");
    for name in &figures {
        let path = golden_dir().join(format!("{name}.quick.txt"));
        let golden = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{name} has no golden file {}: {e}", path.display()));
        let out = repro(&[name, "--quick"]);
        assert_eq!(out.status.code(), Some(0), "{name} --quick failed");
        assert!(
            out.stdout == golden,
            "{name} --quick drifted from {}:\n{}",
            path.display(),
            String::from_utf8_lossy(&out.stdout)
        );
    }
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir") {
        let file = entry.expect("dir entry").file_name();
        let file = file.to_string_lossy();
        let name = file.strip_suffix(".quick.txt").expect("golden file name");
        assert!(
            figures.iter().any(|f| f == name),
            "golden file {file} has no figure experiment in the registry"
        );
    }
}

#[test]
fn rejected_invocations_exit_2_before_anything_runs() {
    let fdl_snapshot = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fdl.json");
    let before = std::fs::read(&fdl_snapshot).expect("committed BENCH_fdl.json");
    // (argv, what stderr must say: the defect, then the accepted set)
    let cases: [(&[&str], &str); 12] = [
        (
            &["fig6_request_grant", "--quik"],
            "`--quik`; accepted flags: --quick",
        ),
        (
            &["fig6_request_grant", "--telemetry", "x.jsonl"],
            "accepted flags: --quick",
        ),
        (&["fig6_request_grant", "stray"], "unknown flag `stray`"),
        (
            &["fig7_delay_throughput", "--telemetry"],
            "--quick --telemetry <path.jsonl>",
        ),
        (
            &["fig7_delay_throughput", "--telemetry", "--quick"],
            "--telemetry needs a value",
        ),
        (
            &["topology_budget", "--topology", "nonsense"],
            "--quick --topology <spec>",
        ),
        (&["fdl_study", "--smoek"], "accepted flags: --quick --smoke"),
        (
            &["campaign", "--shards", "many"],
            "bad --shards many: not a number",
        ),
        (
            &["campaign", "--workers", "2"],
            "`--workers`; accepted flags: --quick --topology <spec> --dir <dir> --shards <n> --resume",
        ),
        (
            &["campaign", "--dir", "a", "--dir", "b"],
            "given more than once",
        ),
        (&["campaign", "--resume"], "--resume needs --dir"),
        (&["no_such_experiment"], "experiments: table1_requirements"),
    ];
    for (argv, accepted) in cases {
        let out = repro(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} printed to stdout");
        assert!(stderr.contains(accepted), "{argv:?}: {stderr}");
    }
    assert!(
        !Path::new("x.jsonl").exists(),
        "a rejected run wrote x.jsonl"
    );
    let after = std::fs::read(&fdl_snapshot).expect("committed BENCH_fdl.json");
    assert!(
        before == after,
        "a rejected fdl_study run rewrote its snapshot"
    );
}
