#![deny(missing_docs)]
//! `osmosis-lint`: an in-repo static analyzer for the workspace contracts
//! that rustc and clippy cannot state.
//!
//! The reproduction rests on bit-exact replay of every simulator and on
//! observation planes that are provably free when disabled. The
//! compiler-checkable half of that (no hash-order iteration, no wall
//! clock, no panics in library code, no unsafe) is the root
//! `Cargo.toml`'s `[workspace.lints]` table, and the types and tests
//! carry the report extras, the JSONL record schema and fault coverage.
//! This crate checks the rest:
//! two token-level rules (the disabled planes do not allocate, fabric
//! APIs take typed ids) and three contract-graph rules across code, tests,
//! ci.yml, the manifests and DESIGN.md. It is a dependency-free analyzer
//! (hand-rolled lexer — the build is offline, so no `syn`) with
//! `file:line:col` diagnostics in human and JSON form, and it has no
//! suppression syntax: a finding is fixed, not silenced.
//!
//! See [`rules::RULES`] for the rule set and DESIGN.md "Static
//! invariants" for each rule's rationale.

pub mod artifacts;
pub mod context;
pub mod contracts;
pub mod diag;
pub mod itemtree;
pub mod lexer;
pub mod rules;

use artifacts::Artifacts;
use context::SourceFile;
use contracts::ContractGraph;
use diag::LintReport;
use std::path::Path;

/// Analyze every tracked `.rs` file under `root` (a workspace checkout)
/// and return the report. IO failures surface as `Err`; lint findings
/// are data, not errors.
pub fn analyze_workspace(root: &Path) -> std::io::Result<LintReport> {
    Ok(analyze_files(load_workspace(root)?))
}

/// Deep analysis of a checkout: the token-level pass plus the contract
/// graph built from the code and the non-code artifacts under `root`.
pub fn analyze_workspace_deep(root: &Path) -> std::io::Result<(LintReport, ContractGraph)> {
    let arts = Artifacts::load(root);
    Ok(analyze_files_deep(load_workspace(root)?, &arts))
}

fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let raw = context::walk_workspace(root)?;
    Ok(raw
        .iter()
        .map(|(rel, text)| SourceFile::new(rel, text))
        .collect())
}

/// Analyze an in-memory set of files — the workspace pass and the
/// fixture tests share this path.
pub fn analyze_files(files: Vec<SourceFile>) -> LintReport {
    analyze(files, None).0
}

/// Deep analysis of an in-memory workspace: token-level findings,
/// contract findings, and the graph.
pub fn analyze_files_deep(files: Vec<SourceFile>, arts: &Artifacts) -> (LintReport, ContractGraph) {
    let (report, graph) = analyze(files, Some(arts));
    (report, graph.unwrap_or_default())
}

fn analyze(
    files: Vec<SourceFile>,
    deep: Option<&Artifacts>,
) -> (LintReport, Option<ContractGraph>) {
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for f in &files {
        report.diagnostics.append(&mut rules::check_file(f));
    }
    let graph = deep.map(|arts| {
        let (mut findings, graph) = contracts::check_workspace(&files, arts);
        report.diagnostics.append(&mut findings);
        graph
    });
    // Deterministic output order: path, then position, then rule.
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    (report, graph)
}

/// Analyze a single (path, source) pair — convenience for fixture tests.
pub fn analyze_one(rel_path: &str, text: &str) -> LintReport {
    analyze_files(vec![SourceFile::new(rel_path, text)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_is_clean() {
        let r = analyze_one("crates/sim/src/x.rs", "pub fn f(x: u8) -> u8 { x + 1 }\n");
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn output_order_is_deterministic() {
        let src = "pub fn f(port: usize, link: usize) -> usize { port + link }\n";
        let a = analyze_one("crates/fabric/src/x.rs", src);
        let b = analyze_one("crates/fabric/src/x.rs", src);
        assert_eq!(a.render_json(), b.render_json());
        assert_eq!(a.diagnostics.len(), 2);
    }
}
