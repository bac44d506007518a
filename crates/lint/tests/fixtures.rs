//! The token-level rules tested against their fixture corpus: for each
//! rule, one known-bad file that must fire and one known-clean file that
//! must not. The fixtures live in `crates/lint/fixtures/` (skipped by the
//! workspace walker — they are bad on purpose) and are analyzed under
//! synthetic workspace paths so each rule's crate/file scoping applies
//! exactly as it would live.
#![expect(clippy::panic, reason = "a test helper fails its test by panicking")]

use osmosis_lint::analyze_one;
use osmosis_lint::diag::LintReport;

fn fixture(rule: &str, name: &str) -> String {
    let path = format!("{}/fixtures/{rule}/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("missing fixture {path}: {e}"),
    }
}

fn count(report: &LintReport, rule: &str) -> usize {
    report.diagnostics.iter().filter(|d| d.rule == rule).count()
}

/// Each rule's (bad, good) pair analyzed under one synthetic path:
/// (rule, path, expected bad-findings of that rule).
const SINGLE_FILE_RULES: &[(&str, &str, usize)] = &[
    // Vec::new, push, format!.
    ("zero-cost-plane", "crates/sim/src/fixture.rs", 3),
    // spine, port, switch params.
    ("typed-ids", "crates/fabric/src/fixture.rs", 3),
];

#[test]
fn every_single_file_rule_fires_on_bad_and_stays_quiet_on_good() {
    for &(rule, path, expected) in SINGLE_FILE_RULES {
        let bad = analyze_one(path, &fixture(rule, "bad.rs"));
        assert_eq!(
            count(&bad, rule),
            expected,
            "{rule}: bad fixture must fire {expected}× — got {:#?}",
            bad.diagnostics
        );
        let good = analyze_one(path, &fixture(rule, "good.rs"));
        assert_eq!(
            count(&good, rule),
            0,
            "{rule}: good fixture must be clean — got {:#?}",
            good.diagnostics
        );
    }
}

#[test]
fn diagnostics_carry_position_and_snippet() {
    let bad = analyze_one(
        "crates/fabric/src/fixture.rs",
        &fixture("typed-ids", "bad.rs"),
    );
    let d = &bad.diagnostics[0];
    assert_eq!(d.file, "crates/fabric/src/fixture.rs");
    assert_eq!((d.line, d.col), (3, 16));
    assert!(
        d.snippet.contains("spine: usize"),
        "snippet shows the offending line: {:?}",
        d.snippet
    );
}

#[test]
fn bad_fixtures_do_not_leak_into_other_rules() {
    // Each bad fixture is crafted to violate its own rule; any finding it
    // raises must belong to that rule.
    for &(rule, path, _) in SINGLE_FILE_RULES {
        let bad = analyze_one(path, &fixture(rule, "bad.rs"));
        for d in &bad.diagnostics {
            assert_eq!(
                d.rule, rule,
                "{rule}/bad.rs unexpectedly also fires {}: {}",
                d.rule, d.message
            );
        }
    }
}

#[test]
fn null_circuits_impl_is_held_to_the_zero_cost_bar() {
    // NullCircuits joined NULL_PLANE_TYPES with the OCS plane: an
    // allocating hook in its impl must fire, a no-op impl must not.
    let bad = "impl CircuitView for NullCircuits {\n\
               \tfn begin_slot(&mut self, _slot: u64) {\n\
               \t\tlet _scratch: Vec<u64> = Vec::new();\n\
               \t}\n\
               }\n";
    let r = analyze_one("crates/sim/src/circuit.rs", bad);
    assert_eq!(count(&r, "zero-cost-plane"), 1, "{:#?}", r.diagnostics);
    let good = "impl CircuitView for NullCircuits {\n\
                \tfn begin_slot(&mut self, _slot: u64) {}\n\
                }\n";
    let r = analyze_one("crates/sim/src/circuit.rs", good);
    assert_eq!(count(&r, "zero-cost-plane"), 0, "{:#?}", r.diagnostics);
}
