//! The rule set. Each rule encodes one contract the workspace actually
//! relies on — see DESIGN.md "Static invariants" for the rationale and
//! the PR that introduced each contract.
//!
//! Rules are token-level by design: the build is offline (no `syn`), so
//! every check is phrased over the lexed token stream plus the file
//! classification in [`crate::context`]. That makes each rule an
//! approximation — the approximations are chosen so false negatives are
//! unlikely on this codebase's idioms, and false positives are cheap to
//! silence with a reasoned `lint:allow`.

use crate::context::{FileKind, SourceFile};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// Crates whose per-slot state feeds engine fingerprints; iteration-order
/// nondeterminism here leaks straight into a report. `campaign` belongs
/// here too: it folds per-shard results into campaign fingerprints, so
/// iteration order and wall clock are results-affecting in exactly the
/// same way.
pub const MODEL_CRATES: &[&str] = &[
    "sim", "switch", "sched", "fabric", "faults", "traffic", "ocs", "campaign", "fdl",
];

/// Crates exempt from the determinism-sources and debug-output rules:
/// `bench` is the figure-printing harness (stdout *is* its output and it
/// parses CLI args), `lint` is this tool.
pub const HARNESS_CRATES: &[&str] = &["bench", "lint"];

/// Null-object types of the observation and circuit planes plus the
/// engine's built-in no-op sink. Their impls are the zero-cost claim:
/// nothing in them may allocate.
pub const NULL_PLANE_TYPES: &[&str] = &[
    "NullTelemetry",
    "NullTrace",
    "NoAudit",
    "NullFaults",
    "NullCircuits",
];

/// Static description of one rule, for `--list-rules` and the docs.
pub struct RuleInfo {
    /// Stable identifier used in diagnostics and suppressions.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary of the contract the rule guards.
    pub summary: &'static str,
    /// Contract-graph rule: runs only under `--deep` (see
    /// [`crate::contracts`]).
    pub deep: bool,
}

/// Every rule the engine knows, including the `suppression` meta-rule.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-order",
        severity: Severity::Error,
        summary: "no HashMap/HashSet in model crates — iteration order would leak into fingerprints",
        deep: false,
    },
    RuleInfo {
        id: "panic-free",
        severity: Severity::Error,
        summary: "no unwrap/expect/panic!/todo! in library code outside #[cfg(test)]",
        deep: false,
    },
    RuleInfo {
        id: "determinism",
        severity: Severity::Error,
        summary: "no wall-clock or entropy sources (Instant::now, SystemTime, thread_rng, std::env) in fingerprint-feeding crates",
        deep: false,
    },
    RuleInfo {
        id: "forbid-unsafe",
        severity: Severity::Error,
        summary: "every crate root must carry #![forbid(unsafe_code)]",
        deep: false,
    },
    RuleInfo {
        id: "zero-cost-plane",
        severity: Severity::Error,
        summary: "no allocation in NullTelemetry/NullTrace/NoAudit/NullFaults impls — the disabled planes must stay free",
        deep: false,
    },
    RuleInfo {
        id: "float-eq",
        severity: Severity::Error,
        summary: "no == / != against float literals outside tests",
        deep: false,
    },
    RuleInfo {
        id: "cross-crate-unwrap",
        severity: Severity::Error,
        summary: "Result-returning pub fns must not be .unwrap()ed from other library crates",
        deep: false,
    },
    RuleInfo {
        id: "no-debug-output",
        severity: Severity::Error,
        summary: "no dbg!/println!/print! in library crates (binaries exempt)",
        deep: false,
    },
    RuleInfo {
        id: "typed-ids",
        severity: Severity::Error,
        summary: "fabric pub fns must take typed entity ids (PortId/SwitchId/…), not raw usize port/switch indices",
        deep: false,
    },
    RuleInfo {
        id: "suppression",
        severity: Severity::Error,
        summary: "lint:allow comments must parse, name a known rule, carry a reason, and actually suppress something",
        deep: false,
    },
    RuleInfo {
        id: "fault-coverage",
        severity: Severity::Error,
        summary: "every FaultKind variant must be exercised by at least one test file",
        deep: true,
    },
    RuleInfo {
        id: "jsonl-schema-sync",
        severity: Severity::Error,
        summary: "telemetry record types emitted and validate_jsonl match arms must be the same set",
        deep: true,
    },
    RuleInfo {
        id: "extras-registry",
        severity: Severity::Error,
        summary: "set_extra keys must be workspace-unique and asserted by some test",
        deep: true,
    },
    RuleInfo {
        id: "bench-gate",
        severity: Severity::Error,
        summary: "--smoke harness experiments must be ci.yml gates; committed BENCH_*.json must map to live bins",
        deep: true,
    },
    RuleInfo {
        id: "model-crate-sync",
        severity: Severity::Error,
        summary: "MODEL_CRATES must match the workspace: members exist, fingerprint-trait implementors are listed, DESIGN.md inventory is complete",
        deep: true,
    },
    RuleInfo {
        id: "hot-loop-alloc",
        severity: Severity::Error,
        summary: "no allocation inside fn arbitrate / fn tick bodies, or their listed per-slot helpers, in model crates (ROADMAP item 1 precondition)",
        deep: true,
    },
];

/// The ids of all rules, for suppression validation.
pub fn known_rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|r| r.id).collect()
}

/// The ids of the token-level rules that run in every pass (the deep
/// contract-graph rules run only under `--deep`).
pub fn shallow_rule_ids() -> Vec<&'static str> {
    RULES.iter().filter(|r| !r.deep).map(|r| r.id).collect()
}

/// Workspace-level index for the cross-file rule: map from function name
/// to the crates that export it as a `pub fn … -> Result`.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// fn name → set of defining crates (BTreeMap for deterministic output).
    pub result_fns: BTreeMap<String, Vec<String>>,
}

/// Build the cross-crate index over every library file.
pub fn build_index(files: &[SourceFile]) -> WorkspaceIndex {
    let mut idx = WorkspaceIndex::default();
    for f in files {
        if f.kind != FileKind::Lib {
            continue;
        }
        for (name, line) in pub_result_fns(f.tokens()) {
            let _ = line;
            let entry = idx.result_fns.entry(name).or_default();
            if !entry.contains(&f.crate_name) {
                entry.push(f.crate_name.clone());
            }
        }
    }
    idx
}

/// Scan a token stream for `pub fn NAME … -> Result` signatures and
/// return (name, line) pairs.
fn pub_result_fns(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].text == "pub" {
            // Skip pub(crate) / pub(super) visibility qualifiers.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "(") {
                while j < toks.len() && toks[j].text != ")" {
                    j += 1;
                }
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.text == "fn") {
                if let Some(name_tok) = toks.get(j + 1) {
                    // Walk the signature to its body/terminator and look
                    // for `-> Result` at paren depth 0.
                    let mut depth = 0i32;
                    let mut k = j + 2;
                    let mut returns_result = false;
                    let mut after_arrow = false;
                    while k < toks.len() {
                        let t = &toks[k];
                        match t.text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" | ";" if depth == 0 => break,
                            "->" if depth == 0 => after_arrow = true,
                            "Result" if after_arrow => returns_result = true,
                            _ => {}
                        }
                        k += 1;
                    }
                    if returns_result {
                        out.push((name_tok.text.clone(), name_tok.line));
                    }
                    i = k;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

fn mk(file: &SourceFile, rule: &'static str, t: &Tok, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        file: file.rel_path.clone(),
        line: t.line,
        col: t.col,
        message,
        snippet: file.snippet(t.line).to_string(),
    }
}

/// Run every per-file rule plus the workspace-level ones; returns raw
/// findings (suppressions are applied by the caller).
pub fn check_file(file: &SourceFile, idx: &WorkspaceIndex) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rule_hash_order(file, &mut out);
    rule_panic_free(file, &mut out);
    rule_determinism(file, &mut out);
    rule_forbid_unsafe(file, &mut out);
    rule_zero_cost_plane(file, &mut out);
    rule_float_eq(file, &mut out);
    rule_cross_crate_unwrap(file, idx, &mut out);
    rule_no_debug_output(file, &mut out);
    rule_typed_ids(file, &mut out);
    out
}

/// Rule `hash-order`: `HashMap`/`HashSet` anywhere in a model crate —
/// including its test modules, where order-dependent assertions turn
/// flaky. `BTreeMap`/`BTreeSet` iterate in key order and cost nothing
/// at these sizes.
fn rule_hash_order(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib && file.kind != FileKind::Bin {
        return;
    }
    if !MODEL_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for t in file.tokens() {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(mk(
                file,
                "hash-order",
                t,
                format!(
                    "`{}` in model crate `{}`: iteration order is nondeterministic and \
                     would leak into engine fingerprints — use `BTree{}` or drain sorted",
                    t.text,
                    file.crate_name,
                    &t.text[4..]
                ),
            ));
        }
    }
}

/// Rule `panic-free`: `.unwrap()` / `.expect(…)` / `panic!` / `todo!` /
/// `unimplemented!` in library code outside `#[cfg(test)]`. Library
/// crates surface failures as typed errors; a panic in a sweep worker is
/// only survivable because `sweep.rs` catches it, and it still aborts
/// the whole replay.
fn rule_panic_free(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib {
        return;
    }
    let toks = file.tokens();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].text == ".";
        let next_bang = toks.get(i + 1).is_some_and(|n| n.text == "!");
        match t.text.as_str() {
            "unwrap" | "expect" if prev_dot => {
                out.push(mk(
                    file,
                    "panic-free",
                    t,
                    format!(
                        "`.{}()` in library code: return a typed error, or justify with \
                         `lint:allow(panic-free)` if genuinely infallible",
                        t.text
                    ),
                ));
            }
            "panic" | "todo" | "unimplemented" if next_bang => {
                out.push(mk(
                    file,
                    "panic-free",
                    t,
                    format!("`{}!` in library code outside #[cfg(test)]", t.text),
                ));
            }
            _ => {}
        }
    }
}

/// Rule `determinism`: wall-clock and entropy sources in fingerprint-
/// feeding crates. A single `Instant::now()` influencing control flow
/// breaks bit-exact replay; `std::env` reads make runs depend on the
/// invoking shell.
fn rule_determinism(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib {
        return;
    }
    if HARNESS_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let toks = file.tokens();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        let banned = match t.text.as_str() {
            "Instant" | "SystemTime" => true,
            "thread_rng" | "OsRng" => true,
            // `rand::random()` — but not a locally defined seeded
            // constructor that happens to be named `random`.
            "random" => i > 0 && toks[i - 1].text == "::",
            "env" => {
                // `std::env::…` or `env::…` module access, not `env!`.
                toks.get(i + 1).is_some_and(|n| n.text == "::")
            }
            _ => false,
        };
        if banned {
            out.push(mk(
                file,
                "determinism",
                t,
                format!(
                    "`{}` is a wall-clock/entropy/environment source: crate `{}` feeds \
                     engine fingerprints, which must be pure functions of the seed",
                    t.text, file.crate_name
                ),
            ));
        }
    }
}

/// Rule `forbid-unsafe`: every crate root carries
/// `#![forbid(unsafe_code)]`. `forbid` (unlike `deny`) cannot be
/// overridden downstream, so the attribute is a whole-crate proof.
fn rule_forbid_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.is_crate_root {
        return;
    }
    let toks = file.tokens();
    let has = toks.windows(8).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == "forbid"
            && w[4].text == "("
            && w[5].text == "unsafe_code"
            && w[6].text == ")"
            && w[7].text == "]"
    });
    if !has {
        let anchor = Tok {
            kind: TokKind::Punct,
            text: String::new(),
            line: 1,
            col: 1,
        };
        out.push(mk(
            file,
            "forbid-unsafe",
            toks.first().unwrap_or(&anchor),
            format!(
                "crate root `{}` is missing `#![forbid(unsafe_code)]`",
                file.rel_path
            ),
        ));
    }
}

/// Rule `zero-cost-plane`: inside any `impl … for NullTelemetry /
/// NullTrace / NoAudit / NullFaults` block, allocation-constructing
/// calls are banned. These impls *are* the zero-cost claim — PR 2–4
/// prove "disabled plane ⇒ bit-identical fingerprints" dynamically;
/// this keeps the "and free" half visible statically.
fn rule_zero_cost_plane(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = file.tokens();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "impl" && toks[i].kind == TokKind::Ident {
            // Collect the header up to the opening `{`.
            let mut j = i + 1;
            let mut null_ty: Option<&str> = None;
            while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                if toks[j].kind == TokKind::Ident {
                    if let Some(ty) = NULL_PLANE_TYPES.iter().find(|ty| toks[j].text == **ty) {
                        null_ty = Some(ty);
                    }
                }
                j += 1;
            }
            if toks.get(j).map(|t| t.text.as_str()) != Some("{") || null_ty.is_none() {
                i = j;
                continue;
            }
            let ty = null_ty.unwrap_or("");
            // Walk the impl body to its matching close brace.
            let mut depth = 1i32;
            let mut k = j + 1;
            while k < toks.len() && depth > 0 {
                let t = &toks[k];
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => {}
                }
                if t.kind == TokKind::Ident && depth > 0 {
                    let prev = &toks[k - 1];
                    let next = toks.get(k + 1).map(|n| n.text.as_str());
                    let alloc = match t.text.as_str() {
                        "vec" | "format" => next == Some("!"),
                        "to_string" | "to_owned" | "push" | "insert" | "extend" | "collect" => {
                            prev.text == "."
                        }
                        "Box" | "Vec" | "String" | "BTreeMap" | "BTreeSet" | "VecDeque" => {
                            next == Some("::")
                                && toks.get(k + 2).is_some_and(|m| {
                                    m.text == "new" || m.text == "from" || m.text == "with_capacity"
                                })
                        }
                        _ => false,
                    };
                    if alloc {
                        out.push(mk(
                            file,
                            "zero-cost-plane",
                            t,
                            format!(
                                "allocation in `impl … for {ty}`: the disabled plane's hooks \
                                 must compile to nothing — no `{}`",
                                t.text
                            ),
                        ));
                    }
                }
                k += 1;
            }
            i = k;
        } else {
            i += 1;
        }
    }
}

/// Rule `float-eq`: `==` / `!=` with a float-literal operand outside
/// tests. Exact float equality is almost always a latent tolerance bug;
/// the few intentional exact-sentinel checks carry a reasoned allow.
fn rule_float_eq(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind == FileKind::Vendor || file.kind == FileKind::Test {
        return;
    }
    let toks = file.tokens();
    for (i, t) in toks.iter().enumerate() {
        if (t.text == "==" || t.text == "!=") && !file.in_test_code(t.line) {
            let float_adjacent = (i > 0 && toks[i - 1].kind == TokKind::Float)
                || toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Float);
            if float_adjacent {
                out.push(mk(
                    file,
                    "float-eq",
                    t,
                    format!(
                        "`{}` against a float literal: exact float comparison outside tests \
                         — compare with a tolerance or justify the exact sentinel",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// Rule `cross-crate-unwrap`: `name(…).unwrap()` where `name` is a
/// `pub fn … -> Result` exported by a *different* library crate. Even
/// where a panic is locally justified, unwrapping another crate's
/// fallible API couples the caller to error conditions it cannot see.
fn rule_cross_crate_unwrap(file: &SourceFile, idx: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib {
        return;
    }
    let toks = file.tokens();
    for (i, t) in toks.iter().enumerate() {
        if t.text != "unwrap" || t.kind != TokKind::Ident {
            continue;
        }
        if file.in_test_code(t.line) {
            continue;
        }
        // Pattern: IDENT ( … ) . unwrap
        if i < 2 || toks[i - 1].text != "." || toks[i - 2].text != ")" {
            continue;
        }
        // Walk back to the matching `(`.
        let mut depth = 0i32;
        let mut j = i - 2;
        loop {
            match toks[j].text.as_str() {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                break;
            }
            j -= 1;
        }
        if j == 0 || depth != 0 {
            continue;
        }
        let callee = &toks[j - 1];
        if callee.kind != TokKind::Ident {
            continue;
        }
        if let Some(defs) = idx.result_fns.get(&callee.text) {
            if defs.iter().any(|c| *c != file.crate_name) && !defs.contains(&file.crate_name) {
                out.push(mk(
                    file,
                    "cross-crate-unwrap",
                    t,
                    format!(
                        "`{}(…).unwrap()`: `{}` is a fallible pub API of crate `{}` — \
                         propagate its error instead of unwrapping across the crate boundary",
                        callee.text,
                        callee.text,
                        defs.join("/")
                    ),
                ));
            }
        }
    }
}

/// Rule `no-debug-output`: `dbg!` / `println!` / `print!` in library
/// code. Library crates report through returned values and the telemetry
/// plane; stray stdout corrupts the JSONL exports that PR 4's tooling
/// parses. Binaries (and the bench harness) own stdout and are exempt.
fn rule_no_debug_output(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib {
        return;
    }
    if HARNESS_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let toks = file.tokens();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        if matches!(t.text.as_str(), "dbg" | "println" | "print")
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
        {
            out.push(mk(
                file,
                "no-debug-output",
                t,
                format!(
                    "`{}!` in library crate `{}`: stdout belongs to binaries; report \
                     through return values or the telemetry plane",
                    t.text, file.crate_name
                ),
            ));
        }
    }
}

/// Entity-index parameter names and the typed id each should carry.
const TYPED_PARAMS: &[(&str, &str)] = &[
    ("port", "PortId"),
    ("switch", "SwitchId"),
    ("spine", "SwitchId"),
    ("leaf", "SwitchId"),
    ("link", "LinkId"),
    ("stage", "StageId"),
];

/// Rule `typed-ids`: a `pub fn` in the fabric crate taking a raw
/// `usize` parameter named like an entity index (`port`, `switch`,
/// `spine`, `leaf`, `link`, `stage`). The topology compiler gives every
/// fabric entity a dense typed id; public surface added after it must
/// speak those types so index spaces cannot be crossed silently. The
/// compiler internals that *build* the arenas (`expand.rs`, `ids.rs`)
/// are exempt, as is non-public code.
fn rule_typed_ids(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib || file.crate_name != "fabric" {
        return;
    }
    if file.rel_path.ends_with("/expand.rs") || file.rel_path.ends_with("/ids.rs") {
        return;
    }
    let toks = file.tokens();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].text != "pub" {
            i += 1;
            continue;
        }
        // Skip pub(crate) / pub(super) qualifiers.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "(") {
            while j < toks.len() && toks[j].text != ")" {
                j += 1;
            }
            j += 1;
        }
        if toks.get(j).map(|t| t.text.as_str()) != Some("fn") {
            i += 1;
            continue;
        }
        // Find the parameter list (first `(` after the name/generics).
        let mut k = j + 1;
        while k < toks.len() && !matches!(toks[k].text.as_str(), "(" | "{" | ";") {
            k += 1;
        }
        if toks.get(k).map(|t| t.text.as_str()) != Some("(") {
            i = k;
            continue;
        }
        let mut depth = 0i32;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            let t = &toks[k];
            if t.kind == TokKind::Ident && !file.in_test_code(t.line) {
                if let Some((name, typed)) = TYPED_PARAMS.iter().find(|(n, _)| *n == t.text) {
                    if toks.get(k + 1).is_some_and(|n| n.text == ":")
                        && toks.get(k + 2).is_some_and(|n| n.text == "usize")
                    {
                        out.push(mk(
                            file,
                            "typed-ids",
                            t,
                            format!(
                                "`{name}: usize` in a fabric pub fn: entity indices carry \
                                 typed ids — take `{typed}`, or justify the raw index with \
                                 `lint:allow(typed-ids)`"
                            ),
                        ));
                    }
                }
            }
            k += 1;
        }
        i = k + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(src: &str) -> SourceFile {
        SourceFile::new("crates/sim/src/x.rs", src)
    }

    #[test]
    fn index_collects_pub_result_fns() {
        let f = SourceFile::new(
            "crates/sim/src/a.rs",
            "pub fn load(p: &str) -> Result<u32, E> { Ok(1) }\n\
             pub(crate) fn scoped() -> Result<(), E> { Ok(()) }\n\
             fn private() -> Result<(), E> { Ok(()) }\n\
             pub fn infallible() -> u32 { 1 }\n",
        );
        let idx = build_index(&[f]);
        assert!(idx.result_fns.contains_key("load"));
        assert!(idx.result_fns.contains_key("scoped"));
        assert!(!idx.result_fns.contains_key("private"));
        assert!(!idx.result_fns.contains_key("infallible"));
    }

    #[test]
    fn panic_free_skips_test_modules() {
        let f = lib_file(
            "fn live(x: Option<u8>) -> u8 { x.unwrap() }\n\
             #[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) -> u8 { x.unwrap() }\n}\n",
        );
        let idx = WorkspaceIndex::default();
        let d = check_file(&f, &idx);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "panic-free").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn zero_cost_plane_scopes_to_null_impls() {
        let src = "impl TraceSink for NullTrace {\n    fn hook(&mut self) { let v = Vec::new(); v.push(1); }\n}\n\
                   impl TraceSink for RealTrace {\n    fn hook(&mut self) { self.buf.push(1); }\n}\n";
        let f = lib_file(src);
        let d = check_file(&f, &WorkspaceIndex::default());
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "zero-cost-plane").collect();
        assert_eq!(hits.len(), 2, "Vec::new and push in the Null impl only");
        assert!(hits.iter().all(|d| d.line == 2));
    }

    #[test]
    fn forbid_unsafe_checks_roots_only() {
        let root = SourceFile::new("crates/sim/src/lib.rs", "//! docs\npub mod x;\n");
        let not_root = SourceFile::new("crates/sim/src/x.rs", "pub fn f() {}\n");
        let idx = WorkspaceIndex::default();
        assert!(check_file(&root, &idx)
            .iter()
            .any(|d| d.rule == "forbid-unsafe"));
        assert!(!check_file(&not_root, &idx)
            .iter()
            .any(|d| d.rule == "forbid-unsafe"));
        let good = SourceFile::new(
            "crates/sim/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod x;\n",
        );
        assert!(!check_file(&good, &idx)
            .iter()
            .any(|d| d.rule == "forbid-unsafe"));
    }

    #[test]
    fn cross_crate_unwrap_needs_foreign_definition() {
        let def = SourceFile::new(
            "crates/fec/src/a.rs",
            "pub fn decode(x: u8) -> Result<u8, E> { Ok(x) }\n",
        );
        let caller = SourceFile::new(
            "crates/sim/src/b.rs",
            "fn f() { let v = decode(3).unwrap(); }\n",
        );
        let same_crate = SourceFile::new(
            "crates/fec/src/b.rs",
            "fn f() { let v = decode(3).unwrap(); }\n",
        );
        let idx = build_index(&[def]);
        assert!(check_file(&caller, &idx)
            .iter()
            .any(|d| d.rule == "cross-crate-unwrap"));
        assert!(!check_file(&same_crate, &idx)
            .iter()
            .any(|d| d.rule == "cross-crate-unwrap"));
    }

    #[test]
    fn float_eq_flags_literal_comparisons() {
        let f = lib_file("fn f(x: f64) -> bool { x == 0.5 }\nfn g(x: u32) -> bool { x == 5 }\n");
        let d = check_file(&f, &WorkspaceIndex::default());
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "float-eq").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn hash_order_only_in_model_crates() {
        let model = lib_file("use std::collections::HashMap;\n");
        let non_model = SourceFile::new(
            "crates/analysis/src/x.rs",
            "use std::collections::HashMap;\n",
        );
        let idx = WorkspaceIndex::default();
        assert!(check_file(&model, &idx)
            .iter()
            .any(|d| d.rule == "hash-order"));
        assert!(!check_file(&non_model, &idx)
            .iter()
            .any(|d| d.rule == "hash-order"));
    }

    #[test]
    fn determinism_sources_flagged_outside_tests() {
        let f = lib_file(
            "fn f() { let t = Instant::now(); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { let d = std::env::temp_dir(); }\n}\n",
        );
        let d = check_file(&f, &WorkspaceIndex::default());
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "determinism").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn typed_ids_scopes_to_fabric_pub_fns() {
        let src = "pub fn up_port(spine: usize) -> usize { spine }\n\
                   fn private(port: usize) -> usize { port }\n\
                   pub fn radix_of(radix: usize) -> usize { radix }\n";
        let idx = WorkspaceIndex::default();
        let fabric = SourceFile::new("crates/fabric/src/topology.rs", src);
        let hits: Vec<_> = check_file(&fabric, &idx)
            .into_iter()
            .filter(|d| d.rule == "typed-ids")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert_eq!(hits[0].line, 1);
        // Other crates and the compiler internals are out of scope.
        let other = SourceFile::new("crates/sim/src/x.rs", src);
        assert!(check_file(&other, &idx)
            .iter()
            .all(|d| d.rule != "typed-ids"));
        let internals = SourceFile::new("crates/fabric/src/ids.rs", src);
        assert!(check_file(&internals, &idx)
            .iter()
            .all(|d| d.rule != "typed-ids"));
    }

    #[test]
    fn debug_output_flagged_in_lib_not_bin() {
        let lib = lib_file("fn f() { println!(\"x\"); }\n");
        let bin = SourceFile::new(
            "crates/bench/src/bin/f.rs",
            "fn main() { println!(\"x\"); }\n",
        );
        let idx = WorkspaceIndex::default();
        assert!(check_file(&lib, &idx)
            .iter()
            .any(|d| d.rule == "no-debug-output"));
        assert!(check_file(&bin, &idx).is_empty());
    }
}
