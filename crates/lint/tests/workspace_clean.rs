//! Meta-test: `osmosis-lint` runs clean on the live workspace. This is
//! the same token-level pass CI runs as a hard gate — if this test
//! fails, the zero-cost-plane or typed-ids contract was broken.

use std::path::Path;

#[test]
fn live_workspace_has_zero_diagnostics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = match osmosis_lint::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => panic!("cannot scan workspace: {e}"),
    };
    assert!(
        report.files_scanned > 100,
        "walker found only {} files — wrong root?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace must lint clean; findings:\n{}",
        report.render_human()
    );
}

#[test]
fn json_output_is_stable_across_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let a = osmosis_lint::analyze_workspace(&root).map(|r| r.render_json());
    let b = osmosis_lint::analyze_workspace(&root).map(|r| r.render_json());
    match (a, b) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "lint output must be deterministic"),
        (a, b) => panic!("scan failed: {a:?} {b:?}"),
    }
}
