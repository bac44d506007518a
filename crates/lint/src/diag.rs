//! Diagnostics: what a rule reports, and the two output formats (human
//! `file:line:col` text with a snippet, and machine-readable JSON).

use std::fmt::Write as _;

/// How bad a finding is. Every severity gates CI — the distinction is
/// for readers, not for the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Contract violation: breaks a workspace contract, such as the
    /// zero-cost-plane claim.
    Error,
    /// Hygiene problem that has not yet broken a contract.
    Warning,
}

impl Severity {
    /// Lower-case label used in both output formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding, anchored to a source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (`typed-ids`, `hot-loop-alloc`, …).
    pub rule: &'static str,
    /// Severity of this finding.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, verbatim.
    pub snippet: String,
}

/// Everything one analyzer run produces.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings — any one gates the exit code.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Does the run gate (any finding)?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable rendering: one block per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{}: [{}] {}\n  --> {}:{}:{}\n   | {}",
                d.severity.label(),
                d.rule,
                d.message,
                d.file,
                d.line,
                d.col,
                d.snippet.trim_end()
            );
        }
        let _ = writeln!(
            out,
            "osmosis-lint: {} file(s) scanned, {} finding(s)",
            self.files_scanned,
            self.diagnostics.len()
        );
        out
    }

    /// JSON rendering (hand-rolled — the workspace is offline, no serde).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"snippet\": {}}}",
                json_str(d.rule),
                json_str(d.severity.label()),
                json_str(&d.file),
                d.line,
                d.col,
                json_str(&d.message),
                json_str(d.snippet.trim_end()),
            );
        }
        if !self.diagnostics.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        let _ = write!(
            out,
            "],\n  \"files_scanned\": {},\n  \"clean\": {}\n}}",
            self.files_scanned,
            self.is_clean()
        );
        out.push('\n');
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "typed-ids",
            severity: Severity::Error,
            file: "crates/fabric/src/x.rs".into(),
            line: 3,
            col: 9,
            message: "`port: usize` in a fabric pub fn".into(),
            snippet: "pub fn name(port: usize) -> &'static str { \"x\" }".into(),
        }
    }

    #[test]
    fn human_format_has_position_and_snippet() {
        let mut r = LintReport {
            files_scanned: 1,
            ..LintReport::default()
        };
        r.diagnostics.push(diag());
        let h = r.render_human();
        assert!(h.contains("crates/fabric/src/x.rs:3:9"));
        assert!(h.contains("[typed-ids]"));
        assert!(h.contains("name(port: usize)"));
        assert!(h.contains("1 finding(s)"));
    }

    #[test]
    fn json_escapes_and_reports_clean_flag() {
        let mut r = LintReport {
            files_scanned: 2,
            ..LintReport::default()
        };
        let j = r.render_json();
        assert!(j.contains("\"clean\": true"));
        r.diagnostics.push(diag());
        let j = r.render_json();
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("{ \\\"x\\\" }"));
        assert!(json_str("a\"b\\c\n").contains("\\\""));
    }
}
