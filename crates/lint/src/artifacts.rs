//! Non-code workspace artifacts the contract graph cross-references:
//! `Cargo.toml` (member globs), the member manifests (lint-table
//! inheritance), `.github/workflows/ci.yml` (smoke
//! gates and the lint step), `DESIGN.md` (crate inventory), and the
//! committed `BENCH_*.json` baselines.
//!
//! Each artifact is optional — fixture workspaces supply only the
//! artifacts their rule needs, and every contract check that reads an
//! artifact is gated on its presence, so a missing file disables the
//! check instead of fabricating findings.

use std::path::Path;

/// The non-`.rs` inputs to the contract graph, loaded once per run.
#[derive(Debug, Default)]
pub struct Artifacts {
    /// Workspace `Cargo.toml` text, if present.
    pub cargo_toml: Option<String>,
    /// `.github/workflows/ci.yml` text, if present.
    pub ci_yml: Option<String>,
    /// `DESIGN.md` text, if present.
    pub design_md: Option<String>,
    /// File names (not paths) of committed `BENCH_*.json` baselines at
    /// the workspace root, sorted.
    pub bench_jsons: Vec<String>,
    /// `(workspace-relative path, text)` of every member manifest: the
    /// `Cargo.toml` of each directory a `members` glob covers, plus the
    /// root manifest when it declares a `[package]`. Sorted by path.
    pub manifests: Vec<(String, String)>,
}

impl Artifacts {
    /// Load every artifact present under `root`. Absence is not an
    /// error; unreadable files are treated as absent.
    pub fn load(root: &Path) -> Artifacts {
        let read = |rel: &str| std::fs::read_to_string(root.join(rel)).ok();
        let mut bench_jsons: Vec<String> = std::fs::read_dir(root)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                    .collect()
            })
            .unwrap_or_default();
        bench_jsons.sort();
        let mut arts = Artifacts {
            cargo_toml: read("Cargo.toml"),
            ci_yml: read(".github/workflows/ci.yml"),
            design_md: read("DESIGN.md"),
            bench_jsons,
            manifests: Vec::new(),
        };
        if let Some(text) = &arts.cargo_toml {
            if text.lines().any(|l| l.trim() == "[package]") {
                arts.manifests.push(("Cargo.toml".into(), text.clone()));
            }
        }
        for glob in arts.cargo_members().0 {
            let dirs: Vec<String> = match glob.split_once('*') {
                None => vec![glob.clone()],
                Some((pre, _)) => {
                    let parent = pre.trim_end_matches('/');
                    std::fs::read_dir(root.join(parent))
                        .map(|rd| {
                            rd.filter_map(|e| e.ok())
                                .map(|e| format!("{parent}/{}", e.file_name().to_string_lossy()))
                                .filter(|d| glob_matches(&glob, d))
                                .collect()
                        })
                        .unwrap_or_default()
                }
            };
            for dir in dirs {
                let rel = format!("{dir}/Cargo.toml");
                if let Some(text) = read(&rel) {
                    arts.manifests.push((rel, text));
                }
            }
        }
        arts.manifests.sort();
        arts
    }

    /// The `members = [ … ]` globs of the workspace `Cargo.toml`, with
    /// the 1-based line of the `members` key. Empty when the artifact is
    /// absent or has no members table.
    pub fn cargo_members(&self) -> (Vec<String>, u32) {
        let Some(text) = &self.cargo_toml else {
            return (Vec::new(), 0);
        };
        let mut globs = Vec::new();
        let mut members_line = 0u32;
        let mut in_members = false;
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if !in_members {
                if let Some(rest) = trimmed.strip_prefix("members") {
                    let rest = rest.trim_start();
                    if let Some(rest) = rest.strip_prefix('=') {
                        members_line = (i + 1) as u32;
                        in_members = true;
                        collect_quoted(rest, &mut globs);
                        if rest.contains(']') {
                            break;
                        }
                    }
                }
            } else {
                collect_quoted(line, &mut globs);
                if line.contains(']') {
                    break;
                }
            }
        }
        (globs, members_line)
    }

    /// Does any member glob cover `path` (e.g. `crates/*` covers
    /// `crates/sim`)?
    pub fn member_glob_covers(&self, path: &str) -> bool {
        let (globs, _) = self.cargo_members();
        globs.iter().any(|g| glob_matches(g, path))
    }

    /// `(experiment name, 1-based line)` for every ci.yml line that runs
    /// the harness — `-p osmosis-bench -- NAME …` — with `--smoke`.
    pub fn ci_smoke_bins(&self) -> Vec<(String, u32)> {
        let Some(text) = &self.ci_yml else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if !line.contains("--smoke") {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            for w in words.windows(4) {
                if w[..3] == ["-p", "osmosis-bench", "--"] {
                    out.push((w[3].trim_matches('"').to_string(), (i + 1) as u32));
                }
            }
        }
        out
    }

    /// Does DESIGN.md's crate inventory mention `osmosis-<name>`?
    pub fn design_mentions_crate(&self, name: &str) -> bool {
        match &self.design_md {
            Some(text) => text.contains(&format!("osmosis-{name}")),
            None => true, // artifact absent → check disabled
        }
    }
}

/// Does `manifest` opt into the workspace lint table (`[lints]` with
/// `workspace = true`)?
pub fn inherits_workspace_lints(manifest: &str) -> bool {
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

/// Append every `"…"`-quoted string in `line` to `out`.
fn collect_quoted(line: &str, out: &mut Vec<String>) {
    let mut rest = line;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        out.push(after[..end].to_string());
        rest = &after[end + 1..];
    }
}

/// Single-`*` glob match, the only shape workspace member lists use.
fn glob_matches(glob: &str, path: &str) -> bool {
    match glob.split_once('*') {
        None => glob == path,
        Some((pre, suf)) => {
            path.len() >= pre.len() + suf.len() && path.starts_with(pre) && path.ends_with(suf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cargo_members_parse_multiline_lists() {
        let a = Artifacts {
            cargo_toml: Some(
                "[workspace]\nresolver = \"2\"\nmembers = [\n    \"crates/*\",\n    \"vendor/proptest\",\n]\n"
                    .into(),
            ),
            ..Artifacts::default()
        };
        let (globs, line) = a.cargo_members();
        assert_eq!(globs, ["crates/*", "vendor/proptest"]);
        assert_eq!(line, 3);
        assert!(a.member_glob_covers("crates/sim"));
        assert!(a.member_glob_covers("vendor/proptest"));
        assert!(!a.member_glob_covers("tools/x"));
    }

    #[test]
    fn ci_smoke_bins_read_the_experiment_after_the_harness_door() {
        let a = Artifacts {
            ci_yml: Some(
                "      - run: cargo run --release -p osmosis-bench -- ocs_study --smoke\n\
                 - run: cargo run -p osmosis-bench -- full_study\n\
                 - run: cargo run --bin old_form -- --smoke\n"
                    .into(),
            ),
            ..Artifacts::default()
        };
        assert_eq!(a.ci_smoke_bins(), [("ocs_study".to_string(), 1)]);
    }

    #[test]
    fn lint_table_inheritance_reads_only_the_lints_section() {
        assert!(inherits_workspace_lints(
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
        ));
        assert!(!inherits_workspace_lints("[package]\nname = \"x\"\n"));
        assert!(!inherits_workspace_lints(
            "[lints]\n[dependencies]\nworkspace = true\n"
        ));
    }

    #[test]
    fn design_check_disabled_when_artifact_absent() {
        let none = Artifacts::default();
        assert!(none.design_mentions_crate("sim"));
        let some = Artifacts {
            design_md: Some("inventory: osmosis-sim engine\n".into()),
            ..Artifacts::default()
        };
        assert!(some.design_mentions_crate("sim"));
        assert!(!some.design_mentions_crate("missing"));
    }
}
