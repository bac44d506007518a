//! Source-file model: what crate a file belongs to, whether it is
//! library / binary / test / vendored code, and which line ranges sit
//! under `#[cfg(test)]` (rules that exempt test code consult these).

use crate::lexer::{lex, Tok};
use std::path::Path;

/// How a file participates in the build — rules scope themselves by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`crates/*/src/**`, root `src/`); full rule set.
    Lib,
    /// Binary source (`src/bin/**`, `src/main.rs`, `examples/**`).
    Bin,
    /// Test or bench source (`tests/**`, `benches/**`); the contract
    /// rules read it as evidence (a test covers a fault kind, asserts an
    /// extras key).
    Test,
    /// Vendored stand-in for an external dependency (`vendor/**`); the
    /// contract rules skip it.
    Vendor,
}

/// One analyzed source file: lexed tokens plus everything rules need to
/// scope themselves.
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Short crate name (`sim`, `switch`, …; `osmosis` for the root).
    pub crate_name: String,
    /// Build role of this file.
    pub kind: FileKind,
    /// Raw source lines, for diagnostics snippets.
    pub lines: Vec<String>,
    tokens: Vec<Tok>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Build a `SourceFile` from a workspace-relative path and contents.
    pub fn new(rel_path: &str, text: &str) -> SourceFile {
        let rel_path = rel_path.replace('\\', "/");
        let tokens = lex(text);
        let test_regions = find_test_regions(&tokens);
        let (crate_name, kind) = classify(&rel_path);
        SourceFile {
            rel_path,
            crate_name,
            kind,
            lines: text.lines().map(str::to_string).collect(),
            tokens,
            test_regions,
        }
    }

    /// Is `line` inside a `#[cfg(test)]` region (or in a test/bench file)?
    pub fn in_test_code(&self, line: u32) -> bool {
        self.kind == FileKind::Test
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// The verbatim source line (1-based), for diagnostic snippets.
    pub fn snippet(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Tokens of this file.
    pub fn tokens(&self) -> &[Tok] {
        &self.tokens
    }
}

/// Derive (crate name, kind) from a workspace-relative path.
fn classify(rel: &str) -> (String, FileKind) {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = match parts.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        ["vendor", name, ..] => (*name).to_string(),
        _ => "osmosis".to_string(),
    };
    let kind = if parts.first() == Some(&"vendor") {
        FileKind::Vendor
    } else if parts.contains(&"tests") || parts.contains(&"benches") {
        FileKind::Test
    } else if parts.contains(&"examples")
        || parts.windows(2).any(|w| w == ["src", "bin"])
        || rel.ends_with("src/main.rs")
    {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    (crate_name, kind)
}

/// Find line ranges covered by items annotated `#[cfg(test)]` or
/// `#[test]` (including `#[cfg(all(test, …))]`). Token-level item
/// tracking: after the attribute, the item runs to the matching close of
/// its first top-level brace, or to a `;` at top level for braceless
/// items (`#[cfg(test)] use …;`).
fn find_test_regions(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text == "#" && i + 1 < tokens.len() && tokens[i + 1].text == "[" {
            // Collect the attribute body up to the matching `]`.
            let attr_start = i;
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut is_test_attr = false;
            let mut saw_cfg = false;
            while j < tokens.len() {
                let t = &tokens[j];
                match t.text.as_str() {
                    "[" | "(" => depth += 1,
                    "]" | ")" => {
                        depth -= 1;
                        if depth == 0 && t.text == "]" {
                            break;
                        }
                    }
                    "cfg" => saw_cfg = true,
                    // `#[test]` or `test` inside a `cfg(...)`.
                    "test" if saw_cfg || j == attr_start + 2 => {
                        is_test_attr = true;
                    }
                    _ => {}
                }
                j += 1;
            }
            if !is_test_attr {
                i = j + 1;
                continue;
            }
            // Scan forward for the end of the annotated item.
            let start_line = tokens[attr_start].line;
            let mut k = j + 1;
            let mut stack = 0i32;
            let mut end_line = start_line;
            while k < tokens.len() {
                let t = &tokens[k];
                match t.text.as_str() {
                    "{" | "(" | "[" => stack += 1,
                    "}" | ")" | "]" => {
                        stack -= 1;
                        if stack == 0 && t.text == "}" {
                            end_line = t.line;
                            break;
                        }
                    }
                    ";" if stack == 0 => {
                        end_line = t.line;
                        break;
                    }
                    _ => {}
                }
                end_line = t.line;
                k += 1;
            }
            regions.push((start_line, end_line));
            i = k + 1;
        } else {
            i += 1;
        }
    }
    merge_regions(regions)
}

fn merge_regions(mut regions: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    regions.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::new();
    for (lo, hi) in regions {
        match out.last_mut() {
            Some((_, phi)) if lo <= *phi + 1 => *phi = (*phi).max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Walk the workspace collecting `.rs` files that the lint pass covers.
/// Skips `target/`, hidden directories, and the lint fixture corpus
/// (fixtures are known-bad on purpose).
pub fn walk_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files: Vec<(String, String)> = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let text = std::fs::read_to_string(&path)?;
                files.push((rel, text));
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let cases = [
            ("crates/sim/src/engine.rs", "sim", FileKind::Lib),
            ("crates/bench/src/bin/fig7.rs", "bench", FileKind::Bin),
            ("tests/determinism.rs", "osmosis", FileKind::Test),
            ("crates/bench/benches/fec.rs", "bench", FileKind::Test),
            ("vendor/proptest/src/lib.rs", "proptest", FileKind::Vendor),
            ("src/lib.rs", "osmosis", FileKind::Lib),
            ("examples/demo.rs", "osmosis", FileKind::Bin),
        ];
        for (path, name, kind) in cases {
            let f = SourceFile::new(path, "");
            assert_eq!(f.crate_name, name, "{path}");
            assert_eq!(f.kind, kind, "{path}");
        }
    }

    #[test]
    fn cfg_test_mod_region() {
        let src =
            "fn live() {}\n\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let f = SourceFile::new("crates/sim/src/x.rs", src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(3));
        assert!(f.in_test_code(5));
        assert!(f.in_test_code(6));
        assert!(!f.in_test_code(7));
    }

    #[test]
    fn cfg_test_braceless_item() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let f = SourceFile::new("crates/sim/src/x.rs", src);
        assert!(f.in_test_code(2));
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t {\n}\n";
        let f = SourceFile::new("crates/sim/src/x.rs", src);
        assert!(f.in_test_code(2));
    }

    #[test]
    fn non_test_cfg_does_not_count() {
        let src = "#[cfg(feature = \"fast\")]\nmod speed {\n    fn f() {}\n}\n";
        let f = SourceFile::new("crates/sim/src/x.rs", src);
        assert!(!f.in_test_code(3));
    }
}
