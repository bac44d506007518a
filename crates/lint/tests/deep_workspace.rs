//! Meta-tests: the deep analyzer run against this repository itself.
//!
//! Two families:
//!  * invariants — the live contract graph is non-vacuous (the rules are
//!    actually connected to real faults/records/bins, not matching
//!    nothing) and the tree is currently clean;
//!  * flips — each headline drift the deep rules exist to catch is
//!    introduced in-memory (never on disk) and must turn the report
//!    non-clean, i.e. flip the CLI to a non-zero exit.

use std::path::Path;

use osmosis_lint::artifacts::Artifacts;
use osmosis_lint::context::{walk_workspace, SourceFile};
use osmosis_lint::{analyze_files_deep, analyze_workspace_deep};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Workspace sources with `edit` applied to the file at `path`.
fn edited_workspace(path: &str, edit: impl Fn(&str) -> String) -> Vec<SourceFile> {
    let mut touched = false;
    let files = walk_workspace(repo_root())
        .expect("walk workspace")
        .into_iter()
        .map(|(p, text)| {
            if p == path {
                touched = true;
                let new = edit(&text);
                assert_ne!(new, text, "edit to {path} was a no-op");
                SourceFile::new(&p, &new)
            } else {
                SourceFile::new(&p, &text)
            }
        })
        .collect();
    assert!(touched, "{path} not found in workspace walk");
    files
}

fn rule_count(report: &osmosis_lint::diag::LintReport, rule: &str) -> usize {
    report.diagnostics.iter().filter(|d| d.rule == rule).count()
}

// --- invariants ----------------------------------------------------------

#[test]
fn live_workspace_is_deep_clean() {
    let (report, _) = analyze_workspace_deep(repo_root()).expect("deep run");
    assert!(
        report.is_clean(),
        "workspace must pass its own deep lint:\n{:#?}",
        report.diagnostics
    );
}

#[test]
fn live_fault_contract_is_not_vacuous() {
    let (_, graph) = analyze_workspace_deep(repo_root()).expect("deep run");
    assert!(
        graph.fault_kinds.len() >= 8,
        "fault plan should model >=8 kinds, saw {}",
        graph.fault_kinds.len()
    );
    for k in &graph.fault_kinds {
        assert!(
            !k.covered_by.is_empty(),
            "fault kind {} has no exercising test",
            k.name
        );
    }
}

#[test]
fn live_record_and_extras_contracts_are_not_vacuous() {
    let (_, graph) = analyze_workspace_deep(repo_root()).expect("deep run");
    assert!(
        graph.record_types.len() >= 10,
        "telemetry should round-trip >=10 record types, saw {}",
        graph.record_types.len()
    );
    for r in &graph.record_types {
        assert!(r.emitted && r.validated, "record {} is one-sided", r.name);
    }
    assert!(!graph.extras.is_empty());
    for e in &graph.extras {
        assert!(e.asserted, "extras key {} never asserted by a test", e.key);
    }
}

#[test]
fn live_bench_gate_contract_is_not_vacuous() {
    let (_, graph) = analyze_workspace_deep(repo_root()).expect("deep run");
    assert!(
        graph.bench_bins.len() >= 7,
        "expected >=7 bench/study bins, saw {}",
        graph.bench_bins.len()
    );
    let wired = graph
        .bench_bins
        .iter()
        .filter(|b| b.smoke && b.ci_wired)
        .count();
    assert!(
        wired >= 6,
        "expected >=6 smoke-gated bins wired into ci, saw {wired}"
    );
    assert!(!graph.bench_jsons.is_empty());
    for b in &graph.bench_jsons {
        assert!(b.referenced, "baseline {} is a stale artifact", b.name);
    }
}

#[test]
fn live_hot_paths_are_allocation_free() {
    let (_, graph) = analyze_workspace_deep(repo_root()).expect("deep run");
    assert!(
        graph.hot_fns.len() >= 10,
        "expected >=10 audited hot fns, saw {}",
        graph.hot_fns.len()
    );
    for h in &graph.hot_fns {
        assert_eq!(
            h.allocations, 0,
            "{}:{} `{}` allocates per slot",
            h.file, h.line, h.name
        );
    }
}

// --- flips ---------------------------------------------------------------

#[test]
fn deleting_a_validate_arm_flips_the_exit() {
    let files = edited_workspace("crates/telemetry/src/export.rs", |text| {
        // Retire the "meta" arm of validate_jsonl: the record is still
        // emitted, so the emit<->validate contract is now one-sided.
        text.replace("\"meta\" => {", "\"meta_gone\" => {")
    });
    let arts = Artifacts::load(repo_root());
    let (report, _) = analyze_files_deep(files, &arts);
    assert!(!report.is_clean(), "validate drift must exit non-zero");
    assert!(
        rule_count(&report, "jsonl-schema-sync") >= 1,
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn unwiring_a_smoke_gate_flips_the_exit() {
    let files: Vec<SourceFile> = walk_workspace(repo_root())
        .expect("walk workspace")
        .into_iter()
        .map(|(p, text)| SourceFile::new(&p, &text))
        .collect();
    let mut arts = Artifacts::load(repo_root());
    let ci = arts.ci_yml.as_ref().expect("ci.yml present");
    let line = ci
        .lines()
        .find(|l| l.contains("-- ocs_study") && l.contains("--smoke"))
        .expect("ocs_study smoke step wired in ci.yml")
        .to_string();
    arts.ci_yml = Some(ci.replace(&line, &line.replace(" --smoke", "")));
    let (report, _) = analyze_files_deep(files, &arts);
    assert!(!report.is_clean(), "unwired smoke gate must exit non-zero");
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "bench-gate")
        .collect();
    assert!(
        hits.iter().any(|d| d.message.contains("ocs_study")),
        "{hits:#?}"
    );
}

#[test]
fn allocating_in_the_slot_loop_flips_the_exit() {
    let files = edited_workspace("crates/switch/src/cioq.rs", |text| {
        let anchor = "self.pending.copy_from_slice(&self.requested);";
        assert!(text.contains(anchor), "cioq slot-start anchor moved");
        text.replace(
            anchor,
            "self.pending.copy_from_slice(&self.requested);\n        let _diag = format!(\"phase\");",
        )
    });
    let arts = Artifacts::load(repo_root());
    let (report, _) = analyze_files_deep(files, &arts);
    assert!(!report.is_clean(), "hot-loop allocation must exit non-zero");
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "hot-loop-alloc")
        .collect();
    assert!(
        hits.iter()
            .any(|d| d.file == "crates/switch/src/cioq.rs" && d.message.contains("`format!`")),
        "{hits:#?}"
    );
}
