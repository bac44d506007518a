//! The token-level rules: contracts the workspace relies on that no
//! rustc or clippy lint states. The determinism, panic-safety, float,
//! output, unsafe and suppression contracts are the root `Cargo.toml`'s
//! `[workspace.lints]` table; see DESIGN.md "Static invariants".
//!
//! Rules are token-level by design: the build is offline (no `syn`), so
//! every check is phrased over the lexed token stream plus the file
//! classification in [`crate::context`]. That makes each rule an
//! approximation, chosen so that false negatives are unlikely on this
//! codebase's idioms.

use crate::context::{FileKind, SourceFile};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};

/// Null-object types of the fault and circuit planes plus the engine's
/// built-in no-op sink. Their impls are the zero-cost claim:
/// nothing in them may allocate.
pub const NULL_PLANE_TYPES: &[&str] = &["NullTrace", "NullFaults", "NullCircuits"];

/// Static description of one rule, for `--list-rules` and the docs.
pub struct RuleInfo {
    /// Stable identifier used in diagnostics.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary of the contract the rule guards.
    pub summary: &'static str,
    /// Contract-graph rule: runs only under `--deep` (see
    /// [`crate::contracts`]).
    pub deep: bool,
}

/// Every rule the engine knows.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "zero-cost-plane",
        severity: Severity::Error,
        summary: "no allocation in NullTrace/NullFaults/NullCircuits impls — the disabled planes must stay free",
        deep: false,
    },
    RuleInfo {
        id: "typed-ids",
        severity: Severity::Error,
        summary: "fabric pub fns must take typed entity ids (PortId/SwitchId/…), not raw usize port/switch indices",
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
        summary: "MODEL_CRATES must match the workspace (members exist, fingerprint-trait implementors are listed, DESIGN.md inventory is complete), and every member manifest inherits the workspace lint table",
        deep: true,
    },
    RuleInfo {
        id: "hot-loop-alloc",
        severity: Severity::Error,
        summary: "no allocation inside fn arbitrate / fn tick bodies, or their listed per-slot helpers, in model crates (ROADMAP item 1 precondition)",
        deep: true,
    },
];

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

/// Run every per-file rule over one file.
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rule_zero_cost_plane(file, &mut out);
    rule_typed_ids(file, &mut out);
    out
}

/// Rule `zero-cost-plane`: inside any `impl … for NullTrace /
/// NullFaults / NullCircuits` block, allocation-constructing
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
                                 typed ids — take `{typed}`"
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

    #[test]
    fn zero_cost_plane_scopes_to_null_impls() {
        let src = "impl TraceSink for NullTrace {\n    fn hook(&mut self) { let v = Vec::new(); v.push(1); }\n}\n\
                   impl TraceSink for RealTrace {\n    fn hook(&mut self) { self.buf.push(1); }\n}\n";
        let f = SourceFile::new("crates/sim/src/x.rs", src);
        let d = check_file(&f);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "zero-cost-plane").collect();
        assert_eq!(hits.len(), 2, "Vec::new and push in the Null impl only");
        assert!(hits.iter().all(|d| d.line == 2));
    }

    #[test]
    fn typed_ids_scopes_to_fabric_pub_fns() {
        let src = "pub fn up_port(spine: usize) -> usize { spine }\n\
                   fn private(port: usize) -> usize { port }\n\
                   pub fn radix_of(radix: usize) -> usize { radix }\n";
        let fabric = SourceFile::new("crates/fabric/src/topology.rs", src);
        let hits = check_file(&fabric);
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert_eq!(hits[0].line, 1);
        // Other crates and the compiler internals are out of scope.
        let other = SourceFile::new("crates/sim/src/x.rs", src);
        assert!(check_file(&other).is_empty());
        let internals = SourceFile::new("crates/fabric/src/ids.rs", src);
        assert!(check_file(&internals).is_empty());
    }
}
