//! The repository's cross-file contracts, read from the files as plain
//! text:
//!
//! - every committed `BENCH_*.json` has a writer (an experiment of the
//!   `repro` harness) or a reader (a CI step);
//! - every workspace member inherits the workspace lint table, and every
//!   crate is in DESIGN.md's inventory;
//! - the fabric's public functions take typed entity ids, not raw
//!   `usize` indices;
//! - every simulator has a row in the allocation battery (`alloc-free/`),
//!   which measures that its slot loop stays within its budget.
//!
//! Code under a file's `#[cfg(test)]` (by convention the last item of a
//! file) is test code, and the checks skip it.
#![expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]

use std::fs;
use std::path::Path;

/// The packages with a `[workspace]` table of their own: they are built
/// by manifest path, outside the workspace, and have no workspace lint
/// table to inherit.
const OUTSIDE_WORKSPACE: &[&str] = &["benchmark", "alloc-free"];

/// The traits whose implementors run in the engine's slot loop.
const SLOT_LOOP_TRAITS: &[&str] = &["CellScheduler", "CellSwitch", "SlottedModel"];

/// Parameter names that index a fabric entity, which the topology
/// compiler gives a typed id.
const ENTITY_PARAMS: &[&str] = &["port", "switch", "spine", "leaf", "link", "stage"];

/// The harness's experiment sources, one module per experiment.
const REPRO: &str = "crates/bench/src/bin/repro";

const CI: &str = ".github/workflows/ci.yml";

fn read(rel: &str) -> String {
    fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)).expect("a repo file")
}

/// The entries of the repo directory `rel`, as sorted relative paths.
fn entries(rel: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let mut out: Vec<String> = fs::read_dir(dir)
        .expect("a repo directory")
        .map(|e| {
            let name = e.expect("a directory entry").file_name();
            format!("{rel}/{}", name.to_string_lossy())
        })
        .collect();
    out.sort();
    out
}

fn is_dir(rel: &str) -> bool {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel).is_dir()
}

/// Every `.rs` file under `rel`, recursively, with its text.
fn rust_files(rel: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for path in entries(rel) {
        if path.ends_with(".rs") {
            let text = read(&path);
            out.push((path, text));
        } else if is_dir(&path) {
            out.extend(rust_files(&path));
        }
    }
    out
}

/// The part of a source file before its `#[cfg(test)]`.
fn non_test(text: &str) -> &str {
    text.split("#[cfg(test)]").next().unwrap_or(text)
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `word` occurs in `text` as a whole identifier.
fn has_word(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        !text[..at].ends_with(is_ident) && !text[at + word.len()..].starts_with(is_ident)
    })
}

/// 1-based line of byte offset `at`.
fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

/// `(name, source)` of every experiment of the harness.
fn experiments() -> Vec<(String, String)> {
    rust_files(REPRO)
        .into_iter()
        .filter_map(|(path, text)| {
            let name = path
                .strip_prefix(REPRO)?
                .strip_prefix('/')?
                .strip_suffix(".rs")?;
            (name != "main").then(|| (name.to_string(), text))
        })
        .collect()
}

#[test]
fn every_committed_bench_baseline_has_a_writer_or_a_reader() {
    let ci = read(CI);
    let experiments = experiments();
    let baselines: Vec<String> = entries(".")
        .into_iter()
        .filter_map(|p| {
            let name = p.strip_prefix("./")?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then(|| name.to_string())
        })
        .collect();
    assert!(!baselines.is_empty(), "no BENCH_*.json found at the root");
    let stale: Vec<&String> = baselines
        .iter()
        .filter(|b| {
            !ci.contains(b.as_str()) && !experiments.iter().any(|(_, t)| t.contains(b.as_str()))
        })
        .collect();
    assert!(
        stale.is_empty(),
        "committed baselines no repro experiment writes and no ci.yml step reads: {stale:?}"
    );
}

/// The manifests of the workspace: the root package's and every
/// member's, expanded from the root `members` globs.
fn member_manifests() -> Vec<String> {
    let root = read("Cargo.toml");
    let members = root
        .lines()
        .find_map(|l| l.trim().strip_prefix("members = ["))
        .expect("a one-line members list in the root Cargo.toml");
    let mut out = vec!["Cargo.toml".to_string()];
    for glob in members.split('"').skip(1).step_by(2) {
        let dirs = match glob.strip_suffix("/*") {
            Some(parent) => entries(parent).into_iter().filter(|d| is_dir(d)).collect(),
            None => vec![glob.to_string()],
        };
        out.extend(dirs.into_iter().map(|d| format!("{d}/Cargo.toml")));
    }
    out
}

/// Whether a manifest has `[lints]` with `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn every_member_inherits_the_workspace_lints_and_is_in_the_design_inventory() {
    let manifests = member_manifests();
    assert!(manifests.len() > 15, "{manifests:?}");
    let design = read("DESIGN.md");
    let mut problems = Vec::new();
    for path in &manifests {
        let text = read(path);
        if !inherits_workspace_lints(&text) {
            problems.push(format!(
                "{path} does not inherit the workspace lint table: add `[lints] workspace = true`"
            ));
        }
        let name = text
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|l| l.strip_suffix('"'))
            .expect("a package name");
        if path.starts_with("crates/") && !design.contains(name) {
            problems.push(format!(
                "crate `{name}` is missing from DESIGN.md's inventory"
            ));
        }
    }
    for dir in OUTSIDE_WORKSPACE {
        let path = format!("{dir}/Cargo.toml");
        let own_workspace = read(&path).lines().any(|l| l.trim() == "[workspace]");
        if !own_workspace || manifests.contains(&path) {
            problems.push(format!("{path} must be a package outside the workspace"));
        }
    }
    assert!(problems.is_empty(), "{problems:#?}");
}

/// `(byte offset, signature)` of every `pub fn` in `code`, the signature
/// running from the name to the body or the `;`.
fn pub_fn_signatures(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for (at, _) in code.match_indices("pub") {
        if code[..at].ends_with(is_ident) {
            continue;
        }
        let mut rest = &code[at + 3..];
        if let Some(scoped) = rest.strip_prefix('(') {
            let Some(close) = scoped.find(')') else {
                continue;
            };
            rest = &scoped[close + 1..];
        }
        let Some(rest) = rest.trim_start().strip_prefix("fn ") else {
            continue;
        };
        let end = rest.find(['{', ';']).unwrap_or(rest.len());
        out.push((at, &rest[..end]));
    }
    out
}

#[test]
fn fabric_public_functions_take_typed_ids() {
    let mut problems = Vec::new();
    let mut signatures = 0;
    for (path, text) in rust_files("crates/fabric/src") {
        if path.ends_with("/expand.rs") || path.ends_with("/ids.rs") {
            continue;
        }
        let code = non_test(&text);
        let found = pub_fn_signatures(code);
        // The reader must find every line that opens with a `pub fn`.
        let declared = code
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("pub fn ") || l.starts_with("pub(crate) fn "))
            .count();
        if found.len() != declared {
            problems.push(format!(
                "{path}: the signature reader found {} of {declared} `pub fn` lines",
                found.len()
            ));
        }
        for (at, sig) in found {
            signatures += 1;
            for name in ENTITY_PARAMS {
                let raw = format!("{name}: usize");
                if has_word(sig, &raw) {
                    problems.push(format!(
                        "{path}:{}: `{raw}` in a public fabric fn; take the typed id",
                        line_of(code, at)
                    ));
                }
            }
        }
    }
    assert!(
        signatures > 40,
        "the signature reader found only {signatures}"
    );
    assert!(problems.is_empty(), "{problems:#?}");
}

/// `(trait, type)` of an `impl … Trait… for Type` header.
fn impl_header(header: &str) -> Option<(&str, &str)> {
    let mut rest = header.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let close = rest.find(|c| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        rest = &rest[close + 1..];
    } else if !rest.starts_with(char::is_whitespace) {
        return None;
    }
    let (tr, ty) = rest.split_once(" for ")?;
    let tr = tr.trim().split('<').next()?.rsplit("::").next()?;
    let ty = ty.trim_start().split(|c| !is_ident(c)).next()?;
    Some((tr, ty))
}

#[test]
fn every_simulator_has_a_row_in_the_allocation_battery() {
    let battery: String = rust_files("alloc-free/src")
        .into_iter()
        .map(|(_, text)| text)
        .collect();
    let mut implementors = Vec::new();
    for krate in entries("crates") {
        let src = format!("{krate}/src");
        if !is_dir(&src) {
            continue;
        }
        for (path, text) in rust_files(&src) {
            let code = non_test(&text);
            for (at, _) in code.match_indices("impl") {
                let line_start = code[..at].rfind('\n').map_or(0, |n| n + 1);
                if !code[line_start..at].trim().is_empty() {
                    continue;
                }
                let end = code[at..].find('{').map_or(code.len(), |n| at + n);
                let header = code[at..end]
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ");
                if let Some((tr, ty)) = impl_header(&header) {
                    if SLOT_LOOP_TRAITS.contains(&tr) {
                        let at = format!("{path}:{}", line_of(code, at));
                        implementors.push((at, tr.to_string(), ty.to_string()));
                    }
                }
            }
        }
    }
    assert!(implementors.len() > 15, "{implementors:#?}");
    let missing: Vec<_> = implementors
        .iter()
        .filter(|(_, _, ty)| !has_word(&battery, ty))
        .collect();
    assert!(
        missing.is_empty(),
        "implementors with no row in the allocation battery (alloc-free/src): {missing:#?}"
    );
}
