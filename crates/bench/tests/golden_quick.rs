//! Drives the `repro` binary the way a user does. Every experiment that
//! writes no snapshot must print, at `--quick`, exactly the bytes
//! committed under `tests/golden/`; an invocation the flag table
//! rejects must exit 2 before anything runs; and the flags that leave
//! state behind must work end to end: a `--checkpoint` directory that a
//! second run restores from, and a `--telemetry` stream that validates.
//! Each study checks its own acceptance bars on every run, so a run that
//! breaks one exits non-zero here.
//!
//! The golden files were captured from the 26 stand-alone binaries that
//! `repro` replaced, and the availability and telemetry studies' from
//! the `repro` that first printed them the same on every run.
//! Regenerate one only in a commit whose message says which model
//! change moved which table.
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

/// The name and description line of every row `repro list` prints
/// (each is followed by its flags line).
fn registry() -> Vec<String> {
    let out = repro(&["list"]);
    assert!(out.status.success(), "repro list failed");
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    text.lines().step_by(2).map(String::from).collect()
}

#[test]
fn every_figure_prints_its_golden_table() {
    let figures: Vec<String> = registry()
        .into_iter()
        .filter(|row| !row.contains("(writes a snapshot)"))
        .map(|row| row.split_whitespace().next().expect("name").to_string())
        .collect();
    assert!(!figures.is_empty(), "repro list named no figure experiment");
    // Most experiments run on one thread: two workers, each taking every
    // other figure, keep both cores busy. A drifted figure panics its
    // worker, and the scope re-raises the panic.
    std::thread::scope(|scope| {
        for first in 0..2 {
            let figures = &figures;
            scope.spawn(move || {
                for name in figures.iter().skip(first).step_by(2) {
                    let path = golden_dir().join(format!("{name}.quick.txt"));
                    let golden = std::fs::read(&path).unwrap_or_else(|e| {
                        panic!("{name} has no golden file {}: {e}", path.display())
                    });
                    let out = repro(&[name, "--quick"]);
                    assert_eq!(out.status.code(), Some(0), "{name} --quick failed");
                    assert!(
                        out.stdout == golden,
                        "{name} --quick drifted from {}:\n{}",
                        path.display(),
                        String::from_utf8_lossy(&out.stdout)
                    );
                }
            });
        }
    });
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
        (
            &["fdl_study", "--smoke"],
            "`--smoke`; accepted flags: --quick --audit --topology <spec>",
        ),
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

/// A path under the temp dir no other test process uses.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("osmosis-cli-{}-{tag}", std::process::id()))
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

#[test]
fn a_second_checkpointed_availability_run_restores_every_job_and_runs_none() {
    let dir = scratch("ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let argv = [
        "availability_study",
        "--quick",
        "--audit",
        "--checkpoint",
        dir_arg,
        "--progress",
    ];
    let first = repro(&argv);
    let second = repro(&argv);
    std::fs::remove_dir_all(&dir).expect("the study made its checkpoint dir");
    for run in [&first, &second] {
        assert_eq!(run.status.code(), Some(0), "{}", text(&run.stderr));
    }
    assert!(
        text(&first.stderr).contains(" done "),
        "the first run ran no job"
    );
    let progress = text(&second.stderr);
    let restored = progress
        .lines()
        .filter(|l| l.contains("restored from checkpoint"))
        .count();
    assert_eq!(restored, 5, "3 plane and 2 MTTR points:\n{progress}");
    assert!(
        !progress.lines().any(|l| l.contains(" done ")),
        "the resumed run re-ran a checkpointed job:\n{progress}"
    );
    assert!(
        first.stdout == second.stdout,
        "the resumed study printed other tables"
    );
}

#[test]
fn the_telemetry_study_keeps_a_stream_that_validates() {
    let path = scratch("telemetry.jsonl");
    let path_arg = path.to_str().expect("utf-8 temp path");
    let run = repro(&["telemetry_study", "--quick", "--telemetry", path_arg]);
    let stream = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(run.status.code(), Some(0), "{}", text(&run.stderr));
    let stats = osmosis_telemetry::validate_jsonl(&stream.expect("the kept stream"));
    let stats = stats.expect("a schema-valid stream");
    assert!(stats.metas > 0 && stats.spans > 0, "{stats:?}");
    assert_eq!(stats.metas, stats.summaries, "{stats:?}");
}
