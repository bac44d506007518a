//! The six contract-graph rules tested against their fixture corpus:
//! each rule gets a known-broken mini-workspace that must fire and a
//! known-clean twin that must not, assembled from
//! `crates/lint/fixtures/<rule>/` under synthetic workspace paths (the
//! walker skips `fixtures/` dirs — they are bad on purpose). Artifacts
//! (Cargo.toml, ci.yml, DESIGN.md, baseline names) are supplied inline
//! per workspace, exactly as `Artifacts::load` would produce them.

use osmosis_lint::analyze_files_deep;
use osmosis_lint::artifacts::Artifacts;
use osmosis_lint::context::SourceFile;
use osmosis_lint::contracts::ContractGraph;
use osmosis_lint::diag::LintReport;
use osmosis_lint::rules::MODEL_CRATES;

fn fixture(rule: &str, name: &str) -> String {
    let path = format!("{}/fixtures/{rule}/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("missing fixture {path}: {e}"),
    }
}

fn deep(files: Vec<(&str, String)>, arts: &Artifacts) -> (LintReport, ContractGraph) {
    let files: Vec<SourceFile> = files
        .into_iter()
        .map(|(p, s)| SourceFile::new(p, &s))
        .collect();
    analyze_files_deep(files, arts)
}

fn count(report: &LintReport, rule: &str) -> usize {
    report.diagnostics.iter().filter(|d| d.rule == rule).count()
}

// --- fault-coverage ------------------------------------------------------

#[test]
fn fault_coverage_fires_on_the_untested_variant() {
    let plan = fixture("fault-coverage", "plan.rs");
    let (bad, graph) = deep(
        vec![
            ("crates/faults/src/plan.rs", plan.clone()),
            ("tests/replay.rs", fixture("fault-coverage", "bad.rs")),
        ],
        &Artifacts::default(),
    );
    assert_eq!(count(&bad, "fault-coverage"), 1, "{:#?}", bad.diagnostics);
    let d = bad
        .diagnostics
        .iter()
        .find(|d| d.rule == "fault-coverage")
        .unwrap();
    assert!(d.message.contains("ReceiverDeath"), "{}", d.message);
    assert_eq!(d.file, "crates/faults/src/plan.rs");
    assert!(
        d.snippet.contains("ReceiverDeath"),
        "anchored at the variant"
    );
    assert_eq!(graph.fault_kinds.len(), 3);

    let (good, graph) = deep(
        vec![
            ("crates/faults/src/plan.rs", plan),
            ("tests/replay.rs", fixture("fault-coverage", "good.rs")),
        ],
        &Artifacts::default(),
    );
    assert_eq!(count(&good, "fault-coverage"), 0, "{:#?}", good.diagnostics);
    assert!(graph.fault_kinds.iter().all(|k| !k.covered_by.is_empty()));
}

// --- jsonl-schema-sync ---------------------------------------------------

#[test]
fn jsonl_sync_fires_in_both_directions() {
    let (bad, graph) = deep(
        vec![(
            "crates/telemetry/src/export.rs",
            fixture("jsonl-schema-sync", "bad.rs"),
        )],
        &Artifacts::default(),
    );
    assert_eq!(
        count(&bad, "jsonl-schema-sync"),
        2,
        "{:#?}",
        bad.diagnostics
    );
    let msgs: Vec<&str> = bad
        .diagnostics
        .iter()
        .filter(|d| d.rule == "jsonl-schema-sync")
        .map(|d| d.message.as_str())
        .collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("\"cell\"") && m.contains("no arm")),
        "emitted-but-unvalidated direction: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("\"ghost\"") && m.contains("no exporter")),
        "validated-but-unemitted direction: {msgs:?}"
    );
    assert_eq!(graph.record_types.len(), 3);

    let (good, graph) = deep(
        vec![(
            "crates/telemetry/src/export.rs",
            fixture("jsonl-schema-sync", "good.rs"),
        )],
        &Artifacts::default(),
    );
    assert_eq!(
        count(&good, "jsonl-schema-sync"),
        0,
        "{:#?}",
        good.diagnostics
    );
    assert!(graph.record_types.iter().all(|r| r.emitted && r.validated));
}

// --- extras-registry -----------------------------------------------------

#[test]
fn extras_registry_fires_on_collision_and_orphan() {
    let def = (
        "crates/sim/src/engine.rs",
        fixture("extras-registry", "def.rs"),
    );
    let test = ("tests/extras.rs", fixture("extras-registry", "test.rs"));
    let (bad, graph) = deep(
        vec![
            def.clone(),
            (
                "crates/switch/src/xbar.rs",
                fixture("extras-registry", "bad.rs"),
            ),
            test.clone(),
        ],
        &Artifacts::default(),
    );
    assert_eq!(count(&bad, "extras-registry"), 2, "{:#?}", bad.diagnostics);
    let msgs: Vec<&str> = bad
        .diagnostics
        .iter()
        .filter(|d| d.rule == "extras-registry")
        .map(|d| d.message.as_str())
        .collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("\"shared_key\"") && m.contains("also set")),
        "cross-crate collision: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("\"orphan_key\"") && m.contains("never asserted")),
        "unasserted key: {msgs:?}"
    );
    // Nodes exist for set keys only; the assert-only "switch_key" is not one.
    assert_eq!(graph.extras.len(), 3);

    let (good, graph) = deep(
        vec![
            def,
            (
                "crates/switch/src/xbar.rs",
                fixture("extras-registry", "good.rs"),
            ),
            test,
        ],
        &Artifacts::default(),
    );
    assert_eq!(
        count(&good, "extras-registry"),
        0,
        "{:#?}",
        good.diagnostics
    );
    assert!(graph.extras.iter().all(|e| e.asserted));
}

// --- bench-gate ----------------------------------------------------------

#[test]
fn bench_gate_fires_on_unwired_ghost_and_stale() {
    let bad_arts = Artifacts {
        ci_yml: Some(
            "      - name: smoke\n        run: cargo run -p osmosis-bench -- ghost_study --smoke\n"
                .into(),
        ),
        bench_jsons: vec!["BENCH_stale.json".into()],
        ..Artifacts::default()
    };
    let (bad, graph) = deep(
        vec![(
            "crates/bench/src/bin/repro/lat_study.rs",
            fixture("bench-gate", "bad.rs"),
        )],
        &bad_arts,
    );
    assert_eq!(count(&bad, "bench-gate"), 3, "{:#?}", bad.diagnostics);
    let by_file: Vec<(&str, &str)> = bad
        .diagnostics
        .iter()
        .filter(|d| d.rule == "bench-gate")
        .map(|d| (d.file.as_str(), d.message.as_str()))
        .collect();
    assert!(
        by_file
            .iter()
            .any(|(f, m)| *f == "crates/bench/src/bin/repro/lat_study.rs"
                && m.contains("never runs it")),
        "{by_file:?}"
    );
    assert!(
        by_file
            .iter()
            .any(|(f, m)| *f == ".github/workflows/ci.yml" && m.contains("ghost_study")),
        "{by_file:?}"
    );
    assert!(
        by_file
            .iter()
            .any(|(f, m)| *f == "BENCH_stale.json" && m.contains("stale artifact")),
        "{by_file:?}"
    );
    assert_eq!(graph.bench_bins.len(), 1);
    assert!(graph.bench_bins[0].smoke && !graph.bench_bins[0].ci_wired);

    let good_arts = Artifacts {
        ci_yml: Some(
            "      - name: smoke\n        run: cargo run -p osmosis-bench -- lat_study --smoke\n"
                .into(),
        ),
        bench_jsons: vec!["BENCH_lat.json".into()],
        ..Artifacts::default()
    };
    let (good, graph) = deep(
        vec![(
            "crates/bench/src/bin/repro/lat_study.rs",
            fixture("bench-gate", "good.rs"),
        )],
        &good_arts,
    );
    assert_eq!(count(&good, "bench-gate"), 0, "{:#?}", good.diagnostics);
    assert!(graph.bench_bins[0].ci_wired);
    assert!(graph.bench_jsons[0].referenced);
}

// --- model-crate-sync ----------------------------------------------------

/// Stub lib files for every `MODEL_CRATES` entry except `except`.
fn model_stubs(except: Option<&str>) -> Vec<(String, String)> {
    let stub = fixture("model-crate-sync", "stub.rs");
    MODEL_CRATES
        .iter()
        .filter(|m| Some(**m) != except)
        .map(|m| (format!("crates/{m}/src/lib.rs"), stub.clone()))
        .collect()
}

/// A DESIGN.md inventory mentioning `osmosis-<c>` for the given crates.
fn design_md(crates: &[&str]) -> String {
    let mut s = String::from("## Crate inventory\n");
    for c in crates {
        s.push_str(&format!("- `osmosis-{c}`\n"));
    }
    s
}

#[test]
fn model_crate_sync_fires_on_all_three_drifts() {
    let cargo = "[workspace]\nmembers = [\"crates/*\"]\n".to_string();
    // Bad workspace: `fdl` is listed in MODEL_CRATES but absent from the
    // tree, `phy` implements SlottedModel without being listed, and the
    // DESIGN.md inventory omits `phy`.
    let listed: Vec<&str> = MODEL_CRATES
        .iter()
        .copied()
        .filter(|m| *m != "fdl")
        .collect();
    let bad_design = design_md(&listed);
    let mut all: Vec<&str> = MODEL_CRATES.to_vec();
    all.push("phy");
    let good_design = design_md(&all);

    let mut files: Vec<(String, String)> = model_stubs(Some("fdl"));
    files.push((
        "crates/phy/src/model.rs".into(),
        fixture("model-crate-sync", "bad.rs"),
    ));
    let arts = Artifacts {
        cargo_toml: Some(cargo.clone()),
        design_md: Some(bad_design),
        ..Artifacts::default()
    };
    let files_ref: Vec<(&str, String)> =
        files.iter().map(|(p, s)| (p.as_str(), s.clone())).collect();
    let (bad, graph) = deep(files_ref, &arts);
    assert_eq!(count(&bad, "model-crate-sync"), 3, "{:#?}", bad.diagnostics);
    let by_file: Vec<(&str, &str)> = bad
        .diagnostics
        .iter()
        .filter(|d| d.rule == "model-crate-sync")
        .map(|d| (d.file.as_str(), d.message.as_str()))
        .collect();
    assert!(
        by_file
            .iter()
            .any(|(f, m)| *f == "Cargo.toml" && m.contains("`fdl`")),
        "{by_file:?}"
    );
    assert!(
        by_file
            .iter()
            .any(|(f, m)| *f == "crates/phy/src/model.rs" && m.contains("SlottedModel")),
        "{by_file:?}"
    );
    assert!(
        by_file
            .iter()
            .any(|(f, m)| *f == "DESIGN.md" && m.contains("osmosis-phy")),
        "{by_file:?}"
    );
    assert!(graph.workspace_crates.contains(&"phy".to_string()));

    // Good workspace: every model crate present, phy is inert, the
    // inventory is complete.
    let mut files: Vec<(String, String)> = model_stubs(None);
    files.push((
        "crates/phy/src/model.rs".into(),
        fixture("model-crate-sync", "good.rs"),
    ));
    let arts = Artifacts {
        cargo_toml: Some(cargo),
        design_md: Some(good_design),
        ..Artifacts::default()
    };
    let files_ref: Vec<(&str, String)> =
        files.iter().map(|(p, s)| (p.as_str(), s.clone())).collect();
    let (good, _) = deep(files_ref, &arts);
    assert_eq!(
        count(&good, "model-crate-sync"),
        0,
        "{:#?}",
        good.diagnostics
    );
}

// --- hot-loop-alloc ------------------------------------------------------

#[test]
fn hot_loop_alloc_fires_on_each_allocation_shape() {
    let (bad, graph) = deep(
        vec![(
            "crates/switch/src/xbar.rs",
            fixture("hot-loop-alloc", "bad.rs"),
        )],
        &Artifacts::default(),
    );
    assert_eq!(count(&bad, "hot-loop-alloc"), 4, "{:#?}", bad.diagnostics);
    let msgs: Vec<&str> = bad
        .diagnostics
        .iter()
        .filter(|d| d.rule == "hot-loop-alloc")
        .map(|d| d.message.as_str())
        .collect();
    for shape in ["`vec!`", "`.collect()`", "`Box::new`", "`format!`"] {
        assert!(
            msgs.iter().any(|m| m.contains(shape)),
            "missing {shape}: {msgs:?}"
        );
    }
    assert_eq!(graph.hot_fns.len(), 2, "arbitrate and tick both audited");
    assert_eq!(
        graph.hot_fns.iter().map(|h| h.allocations).sum::<usize>(),
        4
    );

    let (good, graph) = deep(
        vec![(
            "crates/switch/src/xbar.rs",
            fixture("hot-loop-alloc", "good.rs"),
        )],
        &Artifacts::default(),
    );
    assert_eq!(count(&good, "hot-loop-alloc"), 0, "{:#?}", good.diagnostics);
    assert!(graph.hot_fns.iter().all(|h| h.allocations == 0));
}

#[test]
fn hot_loop_alloc_audits_listed_helpers_of_a_phase_hook() {
    // `arbitrate` is clean in both fixtures; only auditing the helper
    // by name tells them apart.
    let (bad, graph) = deep(
        vec![(
            "crates/fabric/src/mesh.rs",
            fixture("hot-loop-alloc", "helper_bad.rs"),
        )],
        &Artifacts::default(),
    );
    assert_eq!(count(&bad, "hot-loop-alloc"), 6, "{:#?}", bad.diagnostics);
    let allocations = |graph: &ContractGraph, name: &str| {
        let audited = graph.hot_fns.iter().find(|h| h.name == name);
        audited.map(|h| h.allocations)
    };
    // `arbitrate` and `tick` are clean; every other finding names a
    // helper or the host edge.
    assert_eq!(allocations(&graph, "arbitrate"), Some(0));
    assert_eq!(allocations(&graph, "tick"), Some(0));
    for (helper, expected) in [
        ("match_switch", 2),
        ("iterate", 1),
        ("take", 1),
        ("deliver", 1),
        ("route", 1),
    ] {
        assert_eq!(allocations(&graph, helper), Some(expected), "{helper}");
        let named = format!("`fn {helper}`");
        let hits = bad
            .diagnostics
            .iter()
            .filter(|d| d.message.contains(&named));
        assert_eq!(hits.count(), expected, "{helper}");
    }

    let (good, graph) = deep(
        vec![(
            "crates/fabric/src/mesh.rs",
            fixture("hot-loop-alloc", "helper_good.rs"),
        )],
        &Artifacts::default(),
    );
    assert_eq!(count(&good, "hot-loop-alloc"), 0, "{:#?}", good.diagnostics);
    for helper in ["match_switch", "iterate", "take", "deliver", "route"] {
        assert_eq!(allocations(&graph, helper), Some(0), "{helper}");
    }
}

#[test]
fn hot_loop_alloc_audits_the_flow_table_probes_not_the_cold_grow() {
    // Both fixtures double the table inside `#[cold] fn grow`, which
    // allocates and is no finding: the rule follows names, not calls.
    let allocations = |graph: &ContractGraph, name: &str| {
        let audited = graph.hot_fns.iter().find(|h| h.name == name);
        audited.map(|h| h.allocations)
    };
    let (bad, graph) = deep(
        vec![(
            "crates/traffic/src/order.rs",
            fixture("hot-loop-alloc", "flow_bad.rs"),
        )],
        &Artifacts::default(),
    );
    assert_eq!(count(&bad, "hot-loop-alloc"), 2, "{:#?}", bad.diagnostics);
    assert_eq!(allocations(&graph, "stamp"), Some(1));
    assert_eq!(allocations(&graph, "record"), Some(1));
    assert_eq!(allocations(&graph, "grow"), None);

    let (good, graph) = deep(
        vec![(
            "crates/traffic/src/order.rs",
            fixture("hot-loop-alloc", "flow_good.rs"),
        )],
        &Artifacts::default(),
    );
    assert_eq!(count(&good, "hot-loop-alloc"), 0, "{:#?}", good.diagnostics);
    assert_eq!(allocations(&graph, "stamp"), Some(0));
    assert_eq!(allocations(&graph, "record"), Some(0));
    assert_eq!(allocations(&graph, "grow"), None);
}

#[test]
fn deep_findings_honor_file_suppressions() {
    // A `lint:allow(hot-loop-alloc)` above an allocation suppresses that
    // one finding through the merged deep pipeline; the rest still fire.
    let src = fixture("hot-loop-alloc", "bad.rs").replace(
        "        let mut matched = vec![false; self.n];",
        "        // lint:allow(hot-loop-alloc): fixture exercises deep suppression\n        \
         let mut matched = vec![false; self.n];",
    );
    let (report, _) = deep(
        vec![("crates/switch/src/xbar.rs", src)],
        &Artifacts::default(),
    );
    assert_eq!(
        count(&report, "hot-loop-alloc"),
        3,
        "{:#?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "hot-loop-alloc");
}
