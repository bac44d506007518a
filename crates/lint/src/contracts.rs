//! Layer 2 of the analyzer: the workspace contract graph.
//!
//! The repo's validity rests on contracts no compiler checks — every
//! `FaultKind` replays under test, every telemetry record type
//! round-trips through `validate_jsonl`, every `--smoke` harness
//! experiment is a CI gate, the hand-kept `MODEL_CRATES` list matches the workspace, and
//! the per-slot hot path stays allocation-free ahead of ROADMAP item 1's
//! bit-parallel rewrite. This module builds an explicit graph of those
//! cross-artifact edges (code ↔ tests ↔ ci.yml ↔ Cargo.toml ↔ DESIGN.md
//! ↔ `BENCH_*.json`) and reports every broken edge as an ordinary
//! diagnostic, so drift gates CI exactly like a token-level finding.
//!
//! Every check that reads a non-code artifact is gated on that artifact
//! being present (see [`crate::artifacts`]), which keeps single-rule
//! fixture workspaces from tripping the other five rules.

use crate::artifacts::Artifacts;
use crate::context::{FileKind, SourceFile};
use crate::diag::{json_str, Diagnostic, Severity};
use crate::itemtree::{match_arm_strings, ItemKind, ItemTree};
use crate::lexer::{Tok, TokKind};
use crate::rules::MODEL_CRATES;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Traits whose implementors feed engine fingerprints; a crate
/// implementing one of these must be listed in [`MODEL_CRATES`] so the
/// determinism rules cover it.
pub const MODEL_TRAITS: &[&str] = &["SlottedModel", "CellScheduler", "CellSwitch", "BufferPlane"];

/// Per-slot functions that must stay allocation-free (the precondition
/// for the bitset hot-path rewrite): the phase hooks (`arbitrate`,
/// `tick`, and every model's `deliver`), and the helpers a phase hook
/// hands its per-switch, per-cell work to — the fabric's per-hop
/// `route`, the shared matching kernel (`match_switch`), the
/// sub-scheduler round
/// every pipelined `tick` delegates to (`iterate`, `take`) and its
/// per-cell bookkeeping (`note_arrival`, `note_departure`, the `unmatch`
/// a departure falls into, and `try_dec`, where the occupancy keeps its
/// requester mask), the fabric's buffer, link and credit moves
/// (`enqueue`, `request`, `ripen`, `dequeue`, `land`, `send`,
/// `return_credit`) and
/// its two fault-path lookups (`in_dead_plane`, `surviving_plane`), the
/// buffer planes' per-slot protocol past `tick` (`push`,
/// `fill_requests`, `pop`, `settle`, and `set_line_dead`, which a fault
/// transition fans out to every line), the flow table's two per-cell
/// probes (`stamp`, `record` — and with the second name the histograms'
/// `record`), and
/// the per-audited-slot ledger snapshot. The rule is
/// name-scoped, so a helper is audited only once it is listed here, and
/// a name no model-crate fn answers to is reported as stale.
pub const HOT_FN_NAMES: &[&str] = &[
    "arbitrate",
    "tick",
    "deliver",
    "route",
    "match_switch",
    "iterate",
    "take",
    "note_arrival",
    "note_departure",
    "unmatch",
    "try_dec",
    "enqueue",
    "request",
    "ripen",
    "dequeue",
    "land",
    "send",
    "return_credit",
    "in_dead_plane",
    "surviving_plane",
    "report_ledgers",
    "push",
    "fill_requests",
    "pop",
    "settle",
    "set_line_dead",
    "stamp",
    "record",
];

/// The file [`HOT_FN_NAMES`] is declared in, workspace-relative.
const HOT_FN_NAMES_HOME: &str = "crates/lint/src/contracts.rs";

/// One `FaultKind` variant and the test files that exercise it.
#[derive(Debug)]
pub struct FaultNode {
    /// Variant name.
    pub name: String,
    /// Declaration line in the faults crate.
    pub line: u32,
    /// Test files referencing the variant, sorted.
    pub covered_by: Vec<String>,
}

/// One telemetry record type and which side of the schema knows it.
#[derive(Debug)]
pub struct RecordNode {
    /// Record `"type"` string.
    pub name: String,
    /// Some emitter writes it.
    pub emitted: bool,
    /// `validate_jsonl` has an arm for it.
    pub validated: bool,
}

/// One engine report-extras key.
#[derive(Debug)]
pub struct ExtraNode {
    /// The key string.
    pub key: String,
    /// Crates that set it, sorted.
    pub crates: Vec<String>,
    /// Some test file mentions the key string.
    pub asserted: bool,
}

/// One experiment of the harness's `repro` binary.
#[derive(Debug)]
pub struct BenchBinNode {
    /// Experiment name (module file stem under `src/bin/repro/`).
    pub name: String,
    /// The experiment reads `args.smoke`.
    pub smoke: bool,
    /// ci.yml runs it with `--smoke`.
    pub ci_wired: bool,
}

/// One committed `BENCH_*.json` baseline.
#[derive(Debug)]
pub struct BenchJsonNode {
    /// File name at the workspace root.
    pub name: String,
    /// Some bench bin's source references the file name.
    pub referenced: bool,
}

/// One per-slot hot function the allocation rule audited.
#[derive(Debug)]
pub struct HotFnNode {
    /// File the fn lives in.
    pub file: String,
    /// Function name (`arbitrate` or `tick`).
    pub name: String,
    /// Declaration line.
    pub line: u32,
    /// Allocation sites found in its body.
    pub allocations: usize,
}

/// The cross-artifact contract graph one deep run builds. Dumped as
/// JSON by `--graph`; the meta-tests assert it is non-vacuous.
#[derive(Debug, Default)]
pub struct ContractGraph {
    /// `FaultKind` variants with their test coverage.
    pub fault_kinds: Vec<FaultNode>,
    /// Telemetry record types, emit side vs validate side.
    pub record_types: Vec<RecordNode>,
    /// Report-extras keys with setters and assertion status.
    pub extras: Vec<ExtraNode>,
    /// Bench binaries with their smoke/CI wiring.
    pub bench_bins: Vec<BenchBinNode>,
    /// Committed bench baselines with their referencing bins.
    pub bench_jsons: Vec<BenchJsonNode>,
    /// Crate names observed under `crates/`.
    pub workspace_crates: Vec<String>,
    /// Hot per-slot fns audited by `hot-loop-alloc`.
    pub hot_fns: Vec<HotFnNode>,
}

impl ContractGraph {
    /// Hand-rolled JSON rendering (the workspace is offline, no serde).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"fault_kinds\": [");
        for (i, n) in self.fault_kinds.iter().enumerate() {
            let covered: Vec<String> = n.covered_by.iter().map(|f| json_str(f)).collect();
            let _ = write!(
                out,
                "{}\n    {{\"name\": {}, \"line\": {}, \"covered_by\": [{}]}}",
                comma(i),
                json_str(&n.name),
                n.line,
                covered.join(", ")
            );
        }
        out.push_str("\n  ],\n  \"record_types\": [");
        for (i, n) in self.record_types.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": {}, \"emitted\": {}, \"validated\": {}}}",
                comma(i),
                json_str(&n.name),
                n.emitted,
                n.validated
            );
        }
        out.push_str("\n  ],\n  \"extras\": [");
        for (i, n) in self.extras.iter().enumerate() {
            let crates: Vec<String> = n.crates.iter().map(|c| json_str(c)).collect();
            let _ = write!(
                out,
                "{}\n    {{\"key\": {}, \"crates\": [{}], \"asserted\": {}}}",
                comma(i),
                json_str(&n.key),
                crates.join(", "),
                n.asserted
            );
        }
        out.push_str("\n  ],\n  \"bench_bins\": [");
        for (i, n) in self.bench_bins.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": {}, \"smoke\": {}, \"ci_wired\": {}}}",
                comma(i),
                json_str(&n.name),
                n.smoke,
                n.ci_wired
            );
        }
        out.push_str("\n  ],\n  \"bench_jsons\": [");
        for (i, n) in self.bench_jsons.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": {}, \"referenced\": {}}}",
                comma(i),
                json_str(&n.name),
                n.referenced
            );
        }
        out.push_str("\n  ],\n  \"workspace_crates\": [");
        for (i, c) in self.workspace_crates.iter().enumerate() {
            let _ = write!(out, "{}{}", if i > 0 { ", " } else { "" }, json_str(c));
        }
        out.push_str("],\n  \"hot_fns\": [");
        for (i, n) in self.hot_fns.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"file\": {}, \"fn\": {}, \"line\": {}, \"allocations\": {}}}",
                comma(i),
                json_str(&n.file),
                json_str(&n.name),
                n.line,
                n.allocations
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn comma(i: usize) -> &'static str {
    if i > 0 {
        ","
    } else {
        ""
    }
}

/// Run the six contract rules over the workspace and return their
/// findings plus the graph they were computed from. Findings may be
/// anchored to non-`.rs` artifacts (`Cargo.toml`, ci.yml, a
/// `BENCH_*.json` name) — those carry an empty snippet.
pub fn check_workspace(files: &[SourceFile], arts: &Artifacts) -> (Vec<Diagnostic>, ContractGraph) {
    let mut out = Vec::new();
    let mut graph = ContractGraph::default();
    let trees: Vec<Option<ItemTree>> = files
        .iter()
        .map(|f| {
            (f.kind == FileKind::Lib && f.crate_name != "osmosis" || f.kind == FileKind::Bin)
                .then(|| ItemTree::parse(f.tokens()))
        })
        .collect();
    rule_fault_coverage(files, &trees, &mut out, &mut graph);
    rule_jsonl_schema_sync(files, &trees, &mut out, &mut graph);
    rule_extras_registry(files, &mut out, &mut graph);
    rule_bench_gate(files, arts, &mut out, &mut graph);
    rule_model_crate_sync(files, &trees, arts, &mut out, &mut graph);
    rule_hot_loop_alloc(files, &trees, &mut out, &mut graph);
    (out, graph)
}

fn mk(file: &SourceFile, rule: &'static str, line: u32, col: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        file: file.rel_path.clone(),
        line,
        col,
        message,
        snippet: file.snippet(line).to_string(),
    }
}

fn mk_artifact(
    path: &str,
    rule: &'static str,
    line: u32,
    message: String,
    snippet: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        file: path.to_string(),
        line,
        col: 1,
        message,
        snippet,
    }
}

/// Rule `fault-coverage`: every variant of the faults crate's
/// `FaultKind` enum must be referenced by at least one test file —
/// an uninjected fault kind has an unproven replay contract.
fn rule_fault_coverage(
    files: &[SourceFile],
    trees: &[Option<ItemTree>],
    out: &mut Vec<Diagnostic>,
    graph: &mut ContractGraph,
) {
    for (f, tree) in files.iter().zip(trees) {
        if f.crate_name != "faults" || f.kind != FileKind::Lib {
            continue;
        }
        let Some(tree) = tree else { continue };
        for e in tree.enums() {
            if e.name != "FaultKind" {
                continue;
            }
            for v in &e.variants {
                let covered_by: Vec<String> = files
                    .iter()
                    .filter(|t| t.kind == FileKind::Test)
                    .filter(|t| {
                        t.tokens()
                            .iter()
                            .any(|tok| tok.kind == TokKind::Ident && tok.text == v.name)
                    })
                    .map(|t| t.rel_path.clone())
                    .collect();
                if covered_by.is_empty() {
                    out.push(mk(
                        f,
                        "fault-coverage",
                        v.line,
                        1,
                        format!(
                            "`FaultKind::{}` is never referenced by any test — its \
                             injection/replay contract is unproven; add it to a \
                             determinism or pin test",
                            v.name
                        ),
                    ));
                }
                graph.fault_kinds.push(FaultNode {
                    name: v.name.clone(),
                    line: v.line,
                    covered_by,
                });
            }
        }
    }
}

/// Rule `jsonl-schema-sync`: the telemetry crate's emit side (every
/// `("type", "X")` record field written outside tests) and validate side
/// (the string arms of the `match`es inside `fn validate_jsonl`) must
/// name the same set of record types.
fn rule_jsonl_schema_sync(
    files: &[SourceFile],
    trees: &[Option<ItemTree>],
    out: &mut Vec<Diagnostic>,
    graph: &mut ContractGraph,
) {
    // name → first emit site (file index, line).
    let mut emitted: BTreeMap<String, (usize, u32)> = BTreeMap::new();
    // name → first validate arm (file index, line).
    let mut validated: BTreeMap<String, (usize, u32)> = BTreeMap::new();
    for (fi, (f, tree)) in files.iter().zip(trees).enumerate() {
        if f.crate_name != "telemetry" || f.kind != FileKind::Lib {
            continue;
        }
        let toks = f.tokens();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Str || f.in_test_code(t.line) {
                continue;
            }
            if t.str_content().as_deref() != Some("type")
                || i == 0
                || toks[i - 1].text != "("
                || toks.get(i + 1).map(|n| n.text.as_str()) != Some(",")
            {
                continue;
            }
            // The record-type literal follows within a few tokens
            // (`("type", Value::Str("meta".into()))`).
            if let Some(name_tok) = toks[i + 2..toks.len().min(i + 10)]
                .iter()
                .find(|n| n.kind == TokKind::Str)
            {
                if let Some(name) = name_tok.str_content() {
                    emitted.entry(name).or_insert((fi, name_tok.line));
                }
            }
        }
        let Some(tree) = tree else { continue };
        for fr in tree.fns() {
            if fr.item.name != "validate_jsonl" || f.in_test_code(fr.item.line) {
                continue;
            }
            let Some((lo, hi)) = fr.item.body else {
                continue;
            };
            // Scrutinee names of every `match IDENT {` in the body.
            let mut scrutinees = BTreeSet::new();
            for w in toks[lo..=hi].windows(3) {
                if w[0].text == "match" && w[1].kind == TokKind::Ident && w[2].text == "{" {
                    scrutinees.insert(w[1].text.clone());
                }
            }
            for s in scrutinees {
                for (name, line) in match_arm_strings(toks, lo, hi + 1, &s) {
                    validated.entry(name).or_insert((fi, line));
                }
            }
        }
    }
    for (name, &(fi, line)) in &emitted {
        if !validated.contains_key(name) {
            out.push(mk(
                &files[fi],
                "jsonl-schema-sync",
                line,
                1,
                format!(
                    "record type \"{name}\" is emitted but `validate_jsonl` has no \
                     arm for it — exported JSONL would fail its own validator"
                ),
            ));
        }
    }
    for (name, &(fi, line)) in &validated {
        if !emitted.contains_key(name) {
            out.push(mk(
                &files[fi],
                "jsonl-schema-sync",
                line,
                1,
                format!(
                    "`validate_jsonl` accepts record type \"{name}\" that no \
                     exporter emits — dead schema arm, delete it or wire the emitter"
                ),
            ));
        }
    }
    let all: BTreeSet<&String> = emitted.keys().chain(validated.keys()).collect();
    for name in all {
        graph.record_types.push(RecordNode {
            name: name.clone(),
            emitted: emitted.contains_key(name),
            validated: validated.contains_key(name),
        });
    }
}

/// Rule `extras-registry`: `set_extra("key", …)` keys are the engine's
/// ad-hoc metric namespace. Each key must be set by only one crate
/// (cross-crate collisions silently shadow) and asserted by some test
/// (an unasserted metric can silently go wrong — the PR-2 audit lesson).
fn rule_extras_registry(
    files: &[SourceFile],
    out: &mut Vec<Diagnostic>,
    graph: &mut ContractGraph,
) {
    // key → sites (file index, line), in scan order (files are sorted).
    let mut sites: BTreeMap<String, Vec<(usize, u32)>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        if f.kind != FileKind::Lib {
            continue;
        }
        let toks = f.tokens();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || t.text != "set_extra" || f.in_test_code(t.line) {
                continue;
            }
            if toks.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
                continue;
            }
            let Some(key_tok) = toks.get(i + 2).filter(|n| n.kind == TokKind::Str) else {
                continue;
            };
            if let Some(key) = key_tok.str_content() {
                sites.entry(key).or_default().push((fi, key_tok.line));
            }
        }
    }
    let asserted = |key: &str| {
        files.iter().any(|t| {
            t.kind == FileKind::Test
                && t.tokens().iter().any(|tok| {
                    tok.kind == TokKind::Str && tok.str_content().as_deref() == Some(key)
                })
        })
    };
    for (key, sites) in &sites {
        let (fi0, line0) = sites[0];
        let canonical = &files[fi0].crate_name;
        let mut foreign: BTreeSet<&str> = BTreeSet::new();
        for &(fi, line) in &sites[1..] {
            let f = &files[fi];
            if f.crate_name != *canonical && foreign.insert(&f.crate_name) {
                out.push(mk(
                    f,
                    "extras-registry",
                    line,
                    1,
                    format!(
                        "extras key \"{key}\" is also set by crate `{}` (first set in \
                         {}:{}) — report-extras keys must be workspace-unique",
                        f.crate_name, files[fi0].rel_path, line0
                    ),
                ));
            }
        }
        let is_asserted = asserted(key);
        if !is_asserted {
            out.push(mk(
                &files[fi0],
                "extras-registry",
                line0,
                1,
                format!(
                    "extras key \"{key}\" is never asserted by any test — the metric \
                     can silently go wrong; assert it in an integration test"
                ),
            ));
        }
        let mut crates: Vec<String> = sites
            .iter()
            .map(|&(fi, _)| files[fi].crate_name.clone())
            .collect();
        crates.sort();
        crates.dedup();
        graph.extras.push(ExtraNode {
            key: key.clone(),
            crates,
            asserted: is_asserted,
        });
    }
}

/// Rule `bench-gate`: every harness experiment (a module of the `repro`
/// binary) that reads `args.smoke` must be wired into ci.yml's smoke
/// gates; every experiment ci.yml names must exist; every committed
/// `BENCH_*.json` must be written by some live bin or read by a ci.yml
/// step (the benchmark ledger, which `perf all` writes).
fn rule_bench_gate(
    files: &[SourceFile],
    arts: &Artifacts,
    out: &mut Vec<Diagnostic>,
    graph: &mut ContractGraph,
) {
    // Experiment name → (file index, line of its `.smoke` read if any).
    let mut bins: BTreeMap<String, (usize, Option<u32>)> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        let Some((_, file)) = f.rel_path.rsplit_once("/src/bin/repro/") else {
            continue;
        };
        let Some(name) = file.strip_suffix(".rs").filter(|n| *n != "main") else {
            continue;
        };
        let smoke_line = f
            .tokens()
            .windows(2)
            .find(|w| w[0].text == "." && w[1].text == "smoke")
            .map(|w| w[1].line);
        bins.insert(name.to_string(), (fi, smoke_line));
    }
    let ci_wired = arts.ci_smoke_bins();
    let wired_names: BTreeSet<&str> = ci_wired.iter().map(|(n, _)| n.as_str()).collect();
    for (name, &(fi, smoke_line)) in &bins {
        let wired = wired_names.contains(name.as_str());
        if let Some(line) = smoke_line {
            if arts.ci_yml.is_some() && !wired {
                out.push(mk(
                    &files[fi],
                    "bench-gate",
                    line,
                    1,
                    format!(
                        "experiment `{name}` takes --smoke but ci.yml never runs it — \
                         add a `-p osmosis-bench -- {name} --smoke` step to the smoke gates"
                    ),
                ));
            }
        }
        graph.bench_bins.push(BenchBinNode {
            name: name.clone(),
            smoke: smoke_line.is_some(),
            ci_wired: wired,
        });
    }
    for (name, line) in &ci_wired {
        if !bins.contains_key(name) {
            let snippet = arts
                .ci_yml
                .as_deref()
                .and_then(|t| t.lines().nth((*line as usize).saturating_sub(1)))
                .unwrap_or("")
                .to_string();
            out.push(mk_artifact(
                ".github/workflows/ci.yml",
                "bench-gate",
                *line,
                format!("ci.yml smoke-gates experiment `{name}` that does not exist"),
                snippet,
            ));
        }
    }
    for name in &arts.bench_jsons {
        let in_ci = arts
            .ci_yml
            .as_deref()
            .is_some_and(|t| t.contains(name.as_str()));
        let referenced = in_ci
            || files.iter().any(|f| {
                f.kind == FileKind::Bin
                    && f.tokens().iter().any(|t| {
                        t.kind == TokKind::Str
                            && t.str_content().is_some_and(|c| c.contains(name.as_str()))
                    })
            });
        if !referenced {
            out.push(mk_artifact(
                name,
                "bench-gate",
                1,
                format!(
                    "committed baseline `{name}` is not referenced by any bench bin or \
                     ci.yml step — stale artifact, or its writer was removed without it"
                ),
                String::new(),
            ));
        }
        graph.bench_jsons.push(BenchJsonNode {
            name: name.clone(),
            referenced,
        });
    }
}

/// Rule `model-crate-sync`: the hand-kept `MODEL_CRATES` list must match
/// the workspace — every listed crate exists as a member, every crate
/// implementing a fingerprint-feeding trait is listed, and (when
/// DESIGN.md is present) every workspace crate appears in its inventory.
fn rule_model_crate_sync(
    files: &[SourceFile],
    trees: &[Option<ItemTree>],
    arts: &Artifacts,
    out: &mut Vec<Diagnostic>,
    graph: &mut ContractGraph,
) {
    let mut crates: Vec<String> = files
        .iter()
        .filter(|f| f.rel_path.starts_with("crates/"))
        .map(|f| f.crate_name.clone())
        .collect();
    crates.sort();
    crates.dedup();
    if let Some(cargo) = &arts.cargo_toml {
        let (_, members_line) = arts.cargo_members();
        let snippet = cargo
            .lines()
            .nth((members_line as usize).saturating_sub(1))
            .unwrap_or("")
            .to_string();
        for m in MODEL_CRATES {
            let listed = crates.iter().any(|c| c == m);
            let covered = arts.member_glob_covers(&format!("crates/{m}"));
            if !listed || !covered {
                out.push(mk_artifact(
                    "Cargo.toml",
                    "model-crate-sync",
                    members_line.max(1),
                    format!(
                        "MODEL_CRATES entry `{m}` is not a workspace member — the \
                         determinism rules would guard a crate that no longer exists"
                    ),
                    snippet.clone(),
                ));
            }
        }
    }
    for (f, tree) in files.iter().zip(trees) {
        if f.kind != FileKind::Lib || !f.rel_path.starts_with("crates/") {
            continue;
        }
        if MODEL_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let Some(tree) = tree else { continue };
        fn walk(items: &[crate::itemtree::Item], hits: &mut Vec<(String, u32)>) {
            for it in items {
                if it.kind == ItemKind::Impl {
                    if let Some(tn) = &it.trait_name {
                        if MODEL_TRAITS.contains(&tn.as_str()) {
                            hits.push((tn.clone(), it.line));
                        }
                    }
                }
                walk(&it.children, hits);
            }
        }
        let mut hits = Vec::new();
        walk(&tree.items, &mut hits);
        for (trait_name, line) in hits {
            if f.in_test_code(line) {
                continue;
            }
            out.push(mk(
                f,
                "model-crate-sync",
                line,
                1,
                format!(
                    "crate `{}` implements fingerprint-feeding trait `{trait_name}` \
                     but is missing from MODEL_CRATES (crates/lint/src/rules.rs) — \
                     the determinism rules do not cover it",
                    f.crate_name
                ),
            ));
        }
    }
    if arts.design_md.is_some() {
        for c in &crates {
            if !arts.design_mentions_crate(c) {
                out.push(mk_artifact(
                    "DESIGN.md",
                    "model-crate-sync",
                    1,
                    format!("crate `osmosis-{c}` is missing from the DESIGN.md crate inventory"),
                    String::new(),
                ));
            }
        }
    }
    graph.workspace_crates = crates;
}

/// Rule `hot-loop-alloc`: no allocation inside the bodies of the
/// [`HOT_FN_NAMES`] fns in model crates, and no [`HOT_FN_NAMES`] entry
/// without such a fn. These run once per simulated slot (or per switch,
/// or per cell, within one); an allocation there is both a perf cliff
/// and a blocker for ROADMAP item 1's bitset rewrite.
/// The check is name-scoped (call-graph-blind): a helper that allocates
/// and is *called* from a hot fn is seen only if its name is listed, so
/// a new per-slot helper goes on the list in the PR that adds it.
fn rule_hot_loop_alloc(
    files: &[SourceFile],
    trees: &[Option<ItemTree>],
    out: &mut Vec<Diagnostic>,
    graph: &mut ContractGraph,
) {
    for (f, tree) in files.iter().zip(trees) {
        if f.kind != FileKind::Lib || !MODEL_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let Some(tree) = tree else { continue };
        let toks = f.tokens();
        for fr in tree.fns() {
            if !HOT_FN_NAMES.contains(&fr.item.name.as_str()) || f.in_test_code(fr.item.line) {
                continue;
            }
            let Some((lo, hi)) = fr.item.body else {
                continue;
            };
            let mut allocations = 0usize;
            for k in lo + 1..hi {
                let t = &toks[k];
                if t.kind != TokKind::Ident {
                    continue;
                }
                if let Some(what) = alloc_at(toks, k) {
                    allocations += 1;
                    out.push(mk(
                        f,
                        "hot-loop-alloc",
                        t.line,
                        t.col,
                        format!(
                            "{what} inside per-slot `fn {}`: the slot loop must be \
                             allocation-free — hoist to scratch state cleared with \
                             `.fill(..)`/`.clear()` (precondition for the bitset \
                             hot-path rewrite, ROADMAP item 1)",
                            fr.item.name
                        ),
                    ));
                }
            }
            graph.hot_fns.push(HotFnNode {
                file: f.rel_path.clone(),
                name: fr.item.name.clone(),
                line: fr.item.line,
                allocations,
            });
        }
    }
    // A listed name that no model-crate fn answers to audits nothing.
    // Reported where the list lives, so only a scan that includes this
    // file — the whole workspace — checks it.
    let Some(home) = files.iter().find(|f| f.rel_path == HOT_FN_NAMES_HOME) else {
        return;
    };
    let decl = home
        .lines
        .iter()
        .position(|l| l.contains("const HOT_FN_NAMES"));
    for name in HOT_FN_NAMES {
        if !graph.hot_fns.iter().any(|h| h.name == *name) {
            out.push(mk(
                home,
                "hot-loop-alloc",
                decl.map_or(1, |i| i as u32 + 1),
                1,
                format!(
                    "HOT_FN_NAMES entry `{name}` matches no fn in a model crate: \
                     the helper was renamed or deleted, and the entry is dead \
                     configuration — drop it, or list the fn that took its place"
                ),
            ));
        }
    }
}

/// Is the ident at `k` an allocation site? Returns a description.
fn alloc_at(toks: &[Tok], k: usize) -> Option<String> {
    let t = &toks[k];
    let prev = k.checked_sub(1).map(|p| toks[p].text.as_str());
    let next = toks.get(k + 1).map(|n| n.text.as_str());
    match t.text.as_str() {
        "vec" | "format" if next == Some("!") => Some(format!("`{}!`", t.text)),
        "collect" | "to_vec" | "to_string" | "to_owned" if prev == Some(".") => {
            Some(format!("`.{}()`", t.text))
        }
        "Vec" | "VecDeque" | "Box" | "String" | "BTreeMap" | "BTreeSet"
            if next == Some("::")
                && toks.get(k + 2).is_some_and(|m| {
                    matches!(m.text.as_str(), "new" | "from" | "with_capacity")
                }) =>
        {
            Some(format!("`{}::{}`", t.text, toks[k + 2].text))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deep(paths_srcs: &[(&str, &str)], arts: &Artifacts) -> (Vec<Diagnostic>, ContractGraph) {
        let files: Vec<SourceFile> = paths_srcs
            .iter()
            .map(|(p, s)| SourceFile::new(p, s))
            .collect();
        check_workspace(&files, arts)
    }

    #[test]
    fn fault_coverage_requires_a_test_reference() {
        let plan = "pub enum FaultKind {\n    SoaStuckOff,\n    CreditDrop,\n}\n";
        let test = "#[test]\nfn replays() { inject(FaultKind::SoaStuckOff); }\n";
        let (diags, graph) = deep(
            &[
                ("crates/faults/src/plan.rs", plan),
                ("tests/fault_determinism.rs", test),
            ],
            &Artifacts::default(),
        );
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "fault-coverage")
            .collect();
        assert_eq!(hits.len(), 1, "{diags:#?}");
        assert!(hits[0].message.contains("CreditDrop"));
        assert_eq!(graph.fault_kinds.len(), 2);
        assert_eq!(graph.fault_kinds[0].covered_by.len(), 1);
    }

    #[test]
    fn jsonl_sync_flags_both_directions() {
        let export = "fn emit() {\n    w(&[(\"type\", Value::Str(\"meta\".into()))]);\n    w(&[(\"type\", Value::Str(\"span\".into()))]);\n}\n\
                      pub fn validate_jsonl(text: &str) -> Result<(), String> {\n    match ty {\n        \"meta\" => {}\n        \"ghost\" => {}\n        _ => {}\n    }\n    Ok(())\n}\n";
        let (diags, graph) = deep(
            &[("crates/telemetry/src/export.rs", export)],
            &Artifacts::default(),
        );
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "jsonl-schema-sync")
            .collect();
        assert_eq!(hits.len(), 2, "{diags:#?}");
        assert!(hits.iter().any(|d| d.message.contains("\"span\"")));
        assert!(hits.iter().any(|d| d.message.contains("\"ghost\"")));
        assert_eq!(graph.record_types.len(), 3);
    }

    #[test]
    fn extras_registry_wants_unique_asserted_keys() {
        let a = "fn f(r: &mut R) { r.set_extra(\"shared\", 1); r.set_extra(\"mine\", 2); }\n";
        let b = "fn g(r: &mut R) { r.set_extra(\"shared\", 3); }\n";
        let test = "#[test]\nfn t() { assert!(rep.extras[\"shared\"] > 0); assert!(rep.extras[\"mine\"] > 0); }\n";
        let (diags, graph) = deep(
            &[
                ("crates/sim/src/a.rs", a),
                ("crates/switch/src/b.rs", b),
                ("tests/extras.rs", test),
            ],
            &Artifacts::default(),
        );
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "extras-registry")
            .collect();
        assert_eq!(hits.len(), 1, "{diags:#?}");
        assert!(hits[0].message.contains("also set by crate `switch`"));
        assert_eq!(graph.extras.len(), 2);
        assert!(graph.extras.iter().all(|e| e.asserted));
    }

    #[test]
    fn bench_gate_cross_references_ci_and_baselines() {
        let wired = "pub fn run(args: &Args) { let quick = args.smoke; }\n";
        let unwired = "pub fn run(args: &Args) { if args.smoke {} write(\"BENCH_x.json\"); }\n";
        let door = "fn main() { let smoke = args.smoke; }\n";
        let arts = Artifacts {
            ci_yml: Some(
                "      - run: cargo run -p osmosis-bench -- wired --smoke --audit\n\
                 - run: cargo run -p osmosis-bench -- ghost --smoke\n\
                 - run: perf agree BENCH_ledger.json set.jsonl\n"
                    .into(),
            ),
            bench_jsons: vec![
                "BENCH_x.json".into(),
                "BENCH_stale.json".into(),
                "BENCH_ledger.json".into(),
            ],
            ..Artifacts::default()
        };
        let (diags, graph) = deep(
            &[
                ("crates/bench/src/bin/repro/wired.rs", wired),
                ("crates/bench/src/bin/repro/unwired.rs", unwired),
                ("crates/bench/src/bin/repro/main.rs", door),
            ],
            &arts,
        );
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == "bench-gate").collect();
        assert_eq!(hits.len(), 3, "{diags:#?}");
        assert!(hits
            .iter()
            .any(|d| d.message.contains("`unwired` takes --smoke")));
        assert!(hits
            .iter()
            .any(|d| d.message.contains("`ghost` that does not exist")));
        assert!(hits.iter().any(|d| d.message.contains("BENCH_stale.json")));
        assert_eq!(graph.bench_bins.len(), 2);
        assert_eq!(graph.bench_jsons.len(), 3);
    }

    #[test]
    fn model_crate_sync_catches_unlisted_implementor_and_dead_entry() {
        let rogue = "impl SlottedModel for NewEngine {\n    fn arbitrate(&mut self) {}\n}\n";
        let arts = Artifacts {
            cargo_toml: Some("[workspace]\nmembers = [\"crates/rogue\"]\n".into()),
            ..Artifacts::default()
        };
        let (diags, _) = deep(&[("crates/rogue/src/lib.rs", rogue)], &arts);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "model-crate-sync")
            .collect();
        // One per missing MODEL_CRATES member (all 9 in this tiny
        // workspace) plus the unlisted implementor.
        assert!(
            hits.iter()
                .any(|d| d.message.contains("`rogue` implements fingerprint-feeding")),
            "{diags:#?}"
        );
        assert!(hits
            .iter()
            .any(|d| d.file == "Cargo.toml" && d.message.contains("`sim`")));
    }

    #[test]
    fn hot_loop_alloc_scopes_to_hot_fns_in_model_crates() {
        let src = "impl CellScheduler for S {\n    fn arbitrate(&mut self) {\n        let m = vec![false; self.n];\n        let s: Vec<u32> = it.collect();\n    }\n}\n\
                   fn setup() -> Vec<u32> { Vec::new() }\n";
        let (diags, graph) = deep(&[("crates/sched/src/s.rs", src)], &Artifacts::default());
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "hot-loop-alloc")
            .collect();
        assert_eq!(hits.len(), 2, "{diags:#?}");
        assert!(hits.iter().all(|d| d.line == 3 || d.line == 4));
        assert_eq!(graph.hot_fns.len(), 1);
        assert_eq!(graph.hot_fns[0].allocations, 2);
        // Same code outside a model crate is out of scope.
        let (diags, _) = deep(&[("crates/analysis/src/s.rs", src)], &Artifacts::default());
        assert!(diags.iter().all(|d| d.rule != "hot-loop-alloc"));
    }

    #[test]
    fn hot_loop_alloc_sees_per_slot_maps_in_a_listed_ledger_snapshot() {
        // The shape the fabric's ledger snapshot had (as
        // `FatTreeFabric::report_credit_ledgers`) before it moved to
        // port-indexed scratch: three maps built per audited slot.
        let src = "impl CompiledFabric {\n    fn report_ledgers(&mut self) {\n        \
                   let mut cells_to: BTreeMap<(usize, usize), u64> = BTreeMap::new();\n        \
                   let mut credits_to_out: BTreeMap<(usize, usize), u64> = BTreeMap::new();\n        \
                   let mut credits_to_host: BTreeMap<usize, u64> = BTreeMap::new();\n    }\n}\n";
        let (diags, _) = deep(&[("crates/fabric/src/m.rs", src)], &Artifacts::default());
        let hits = diags.iter().filter(|d| d.rule == "hot-loop-alloc");
        assert_eq!(hits.count(), 3, "{diags:#?}");
    }

    #[test]
    fn hot_loop_alloc_sees_per_cell_scheduler_bookkeeping() {
        // An occupancy that rebuilds its requester row per cell instead of
        // keeping one bit, and a sub-scheduler that rebuilds state per
        // departure: every per-cell helper a `tick` fans out to is
        // audited, not only the round itself.
        let src = "impl Requests {\n    \
                   pub fn try_dec(&mut self, i: usize, o: usize) -> bool {\n        \
                   self.rows[o] = self.column(o).collect();\n    }\n    \
                   fn column(&self, o: usize) {}\n}\n\
                   impl SubScheduler {\n    \
                   pub fn note_departure(&mut self, i: usize, o: usize) {\n        \
                   let stale: Vec<usize> = Vec::new();\n    }\n    \
                   fn unmatch(&mut self, pos: usize) {\n        \
                   self.pairs = self.pairs.to_vec();\n    }\n}\n";
        let (diags, graph) = deep(&[("crates/sched/src/s.rs", src)], &Artifacts::default());
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "hot-loop-alloc")
            .collect();
        assert_eq!(hits.len(), 3, "{diags:#?}");
        for name in ["try_dec", "note_departure", "unmatch"] {
            assert!(
                hits.iter()
                    .any(|d| d.message.contains(&format!("`fn {name}`"))),
                "{name}: {diags:#?}"
            );
        }
        assert_eq!(graph.hot_fns.len(), 3);
    }

    #[test]
    fn hot_loop_alloc_sees_the_buffer_plane_phases_past_tick() {
        // The shapes `FdlQueue` had while only `tick` was listed: two
        // vectors and a sort per queue per slot in `settle`, a sorted
        // copy of the bank on every health command and every refusal.
        let src = "impl<T> FdlQueue<T> {\n    \
                   pub fn settle(&mut self, slot: u64) {\n        \
                   let mut to_place: Vec<(FdlKey, usize, bool)> = Vec::new();\n        \
                   let mut order: Vec<(u64, usize)> = self.alive().collect();\n    }\n    \
                   pub fn set_line_dead(&mut self, line: usize, dead: bool) {\n        \
                   let alive: Vec<u64> = self.lines.alive_lengths().collect();\n    }\n    \
                   pub fn push(&mut self, priority: u64, payload: T) -> bool {\n        \
                   let all = self.lines.lengths.to_vec();\n    }\n    \
                   pub fn pop(&mut self) -> Option<T> {\n        \
                   let key = format!(\"{:?}\", self.head());\n    }\n    \
                   fn fill_requests(&self, requests: &mut [u64]) {\n        \
                   let ready = vec![false; self.ports];\n    }\n    \
                   pub fn stats(&self) -> Vec<u64> { Vec::new() }\n}\n";
        let (diags, graph) = deep(&[("crates/fdl/src/q.rs", src)], &Artifacts::default());
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "hot-loop-alloc")
            .collect();
        assert_eq!(hits.len(), 6, "{diags:#?}");
        for name in ["settle", "set_line_dead", "push", "pop", "fill_requests"] {
            assert!(
                hits.iter()
                    .any(|d| d.message.contains(&format!("`fn {name}`"))),
                "{name}: {diags:#?}"
            );
        }
        assert_eq!(graph.hot_fns.len(), 5);
    }

    #[test]
    fn hot_loop_alloc_reports_listed_names_without_a_fn() {
        // Only a scan that includes the list's own file checks it; there,
        // every name but the one this workspace defines is stale.
        let model = ("crates/sched/src/s.rs", "fn tick(&mut self) {}\n");
        let (diags, _) = deep(&[model], &Artifacts::default());
        assert!(
            diags.iter().all(|d| d.rule != "hot-loop-alloc"),
            "{diags:#?}"
        );
        let list = "// The list.\npub const HOT_FN_NAMES: &[&str] = &[];\n";
        let (diags, _) = deep(&[model, (HOT_FN_NAMES_HOME, list)], &Artifacts::default());
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "hot-loop-alloc")
            .collect();
        assert_eq!(hits.len(), HOT_FN_NAMES.len() - 1, "{diags:#?}");
        assert!(hits
            .iter()
            .all(|d| d.file == HOT_FN_NAMES_HOME && d.line == 2 && !d.message.contains("`tick`")));
        assert!(hits.iter().any(|d| d.message.contains("`enqueue`")));
    }

    #[test]
    fn graph_renders_deterministic_json() {
        let (_, graph) = deep(
            &[("crates/faults/src/plan.rs", "pub enum FaultKind { A, }\n")],
            &Artifacts::default(),
        );
        let j = graph.render_json();
        assert!(j.contains("\"fault_kinds\""));
        assert!(j.contains("\"name\": \"A\""));
        assert!(j.contains("\"workspace_crates\": [\"faults\"]"));
    }
}
