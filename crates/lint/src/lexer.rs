//! A hand-rolled, dependency-free Rust lexer.
//!
//! The build environment is offline (no `syn`, no `proc-macro2`), so the
//! analyzer works at the token level: identifiers, literals, punctuation,
//! lifetimes; comments are skipped. The lexer is deliberately forgiving:
//! it never fails, it just produces the best token stream it can, because
//! a lint pass must not be more fragile than the compiler that follows it.
//!
//! What matters for rule quality is that *strings and comments are never
//! mistaken for code*: `"Vec::new() here"` in a message or doc comment
//! must not trip the zero-cost-plane rule, and a `{` inside one must not
//! unbalance the item tree. Everything else (numeric suffixes,
//! raw-identifier edge cases) only needs to be good enough to keep token
//! boundaries honest.

/// The coarse classification a rule needs to reason about a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `push`, `Vec`, …).
    Ident,
    /// Numeric literal (`42`, `0xFF`, `1.0`, `2e-9`, `0.5f32`).
    Num,
    /// String, raw-string, byte-string, or char literal (contents opaque).
    Str,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation; multi-char operators (`::`, `->`, `==`, …) are fused.
    Punct,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Verbatim source text (for `Str` this includes the quotes).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in chars).
    pub col: u32,
}

impl Tok {
    /// Decoded contents of a string/char literal: strips the `b`/`r`/`br`
    /// prefix, hash guards, and quotes, and resolves simple escapes in
    /// cooked literals. The contract-graph rules compare literal
    /// *contents* (CLI flags, `BENCH_*.json` names), so
    /// `r#"--smoke"#` and `"--smoke"` must decode identically. Returns
    /// `None` for non-`Str` tokens.
    pub fn str_content(&self) -> Option<String> {
        if self.kind != TokKind::Str {
            return None;
        }
        let mut s = self.text.as_str();
        if let Some(rest) = s.strip_prefix('b') {
            s = rest;
        }
        let raw = s.starts_with('r');
        if raw {
            s = &s[1..];
        }
        let hashes = s.len() - s.trim_start_matches('#').len();
        s = &s[hashes..];
        let quote = s.chars().next()?;
        if quote != '"' && quote != '\'' {
            return None;
        }
        s = &s[1..];
        // Trailing guard: closing quote plus the hash run — tolerate an
        // unterminated literal (lexer runs to EOF) by stripping what is
        // there.
        let tail: String = std::iter::once(quote)
            .chain(std::iter::repeat_n('#', hashes))
            .collect();
        if let Some(body) = s.strip_suffix(tail.as_str()) {
            s = body;
        }
        if raw {
            return Some(s.to_string());
        }
        // Cooked literal: resolve the escapes that matter for content
        // comparison; unknown escapes pass through verbatim.
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('0') => out.push('\0'),
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('\'') => out.push('\''),
                Some('x') => {
                    let hex: String = chars.by_ref().take(2).collect();
                    match u8::from_str_radix(&hex, 16) {
                        Ok(b) => out.push(b as char),
                        Err(_) => {
                            out.push('x');
                            out.push_str(&hex);
                        }
                    }
                }
                Some('u') => {
                    // \u{XXXX}: consume the brace group.
                    let mut body = String::new();
                    for c in chars.by_ref() {
                        if c == '}' {
                            break;
                        }
                        if c != '{' {
                            body.push(c);
                        }
                    }
                    match u32::from_str_radix(&body, 16).ok().and_then(char::from_u32) {
                        Some(ch) => out.push(ch),
                        None => out.push_str(&body),
                    }
                }
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        Some(out)
    }
}

/// Multi-char punctuation, longest first so matching is greedy.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Lex `src` into code tokens, in source order. Never fails;
/// unterminated constructs simply run to end of file.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Tok>,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if c == '"' {
                self.string(line, col);
            } else if (c == 'r' || c == 'b') && self.raw_or_byte_prefix() {
                self.raw_or_byte(line, col);
            } else if c == '\'' {
                self.char_or_lifetime(line, col);
            } else if c.is_ascii_digit() {
                self.number(line, col);
            } else if c == '_' || c.is_alphanumeric() {
                self.ident(line, col);
            } else {
                self.punct(line, col);
            }
        }
        self.out
    }

    /// Does the cursor sit on `r"`, `r#"`, `b"`, `b'`, `br"`, `br#"`?
    fn raw_or_byte_prefix(&self) -> bool {
        let mut i = 1;
        if self.peek(0) == Some('b') && self.peek(1) == Some('r') {
            i = 2;
        }
        let mut j = i;
        while self.peek(j) == Some('#') {
            j += 1;
        }
        matches!(self.peek(j), Some('"'))
            || (i == 1 && self.peek(0) == Some('b') && self.peek(1) == Some('\''))
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    fn string(&mut self, line: u32, col: u32) {
        let start = self.pos;
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if c == '"' {
                break;
            }
        }
        self.push_span(TokKind::Str, start, line, col);
    }

    /// Raw strings (`r"…"`, `r#"…"#`), byte strings (`b"…"`, `br#"…"#`),
    /// and byte chars (`b'x'`).
    fn raw_or_byte(&mut self, line: u32, col: u32) {
        let start = self.pos;
        if self.peek(0) == Some('b') && self.peek(1) == Some('\'') {
            self.bump(); // b
            self.bump(); // '
            while let Some(c) = self.bump() {
                if c == '\\' {
                    self.bump();
                } else if c == '\'' {
                    break;
                }
            }
            self.push_span(TokKind::Str, start, line, col);
            return;
        }
        // Consume optional b, the r is optional for b"…".
        if self.peek(0) == Some('b') {
            self.bump();
        }
        let raw = self.peek(0) == Some('r');
        if raw {
            self.bump();
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            self.bump();
            hashes += 1;
        }
        if self.peek(0) != Some('"') {
            // `r#ident` raw identifier: rewind conceptually by lexing the
            // rest as an identifier (the consumed `r#` stays in the text).
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    self.bump();
                } else {
                    break;
                }
            }
            self.push_span(TokKind::Ident, start, line, col);
            return;
        }
        self.bump(); // opening quote
        'scan: while let Some(c) = self.bump() {
            if !raw && c == '\\' {
                self.bump();
            } else if c == '"' {
                if hashes == 0 {
                    break;
                }
                let mut seen = 0usize;
                while seen < hashes && self.peek(0) == Some('#') {
                    self.bump();
                    seen += 1;
                }
                if seen == hashes {
                    break 'scan;
                }
            }
        }
        self.push_span(TokKind::Str, start, line, col);
    }

    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        let start = self.pos;
        // 'a followed by another ' is a char literal; 'a followed by
        // anything else is a lifetime. '\… is always a char literal.
        let is_lifetime = match (self.peek(1), self.peek(2)) {
            (Some('\\'), _) => false,
            (Some(c), Some('\'')) if c != '\'' => false,
            (Some(c), _) if c == '_' || c.is_alphanumeric() => true,
            _ => false,
        };
        self.bump(); // '
        if is_lifetime {
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    self.bump();
                } else {
                    break;
                }
            }
            self.push_span(TokKind::Lifetime, start, line, col);
        } else {
            while let Some(c) = self.bump() {
                if c == '\\' {
                    self.bump();
                } else if c == '\'' {
                    break;
                }
            }
            self.push_span(TokKind::Str, start, line, col);
        }
    }

    fn number(&mut self, line: u32, col: u32) {
        let start = self.pos;
        let radix_prefix = self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x') | Some('X') | Some('b') | Some('o'));
        // Leading digits (covers 0x/0b/0o bodies too: hex digits and `_`
        // are alphanumeric, so the ident-char loop swallows them).
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                // A signed exponent (`1e-3`) stays in the literal — except
                // inside hex bodies, where `e` is a digit.
                if (c == 'e' || c == 'E')
                    && !radix_prefix
                    && matches!(self.peek(1), Some('+') | Some('-'))
                    && self.peek(2).is_some_and(|d| d.is_ascii_digit())
                {
                    self.bump();
                }
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                self.bump();
            } else if c == '.'
                && self.peek(1) != Some('.')
                && !self.peek(1).is_some_and(|d| d == '_' || d.is_alphabetic())
            {
                // Trailing-dot float like `1.` (but not `1..` or `1.foo`).
                self.bump();
                break;
            } else {
                break;
            }
        }
        self.push_span(TokKind::Num, start, line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        self.push_span(TokKind::Ident, start, line, col);
    }

    fn punct(&mut self, line: u32, col: u32) {
        for op in MULTI_PUNCT {
            if self.matches(op) {
                for _ in 0..op.chars().count() {
                    self.bump();
                }
                self.push(TokKind::Punct, (*op).to_string(), line, col);
                return;
            }
        }
        if let Some(c) = self.bump() {
            self.push(TokKind::Punct, c.to_string(), line, col);
        }
    }

    fn matches(&self, s: &str) -> bool {
        s.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c))
    }

    fn push_span(&mut self, kind: TokKind, start: usize, line: u32, col: u32) {
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(kind, text, line, col);
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.out.push(Tok {
            kind,
            text,
            line,
            col,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let l = lex("let x = \"call .unwrap() now\"; // and .unwrap() here");
        assert!(l.iter().all(|t| t.text != "unwrap"));
        assert_eq!(l.last().map(|t| t.text.as_str()), Some(";"));
    }

    #[test]
    fn raw_strings_and_nested_comments() {
        let l = lex("r#\"a \" unwrap b\"# /* outer /* inner */ unwrap */ done");
        assert!(l.iter().any(|t| t.text == "done"));
        assert!(l.iter().all(|t| t.text != "unwrap"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ks = kinds("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert_eq!(
            ks.iter().filter(|(k, _)| *k == TokKind::Str).count(),
            2,
            "both char literals lex as Str"
        );
    }

    #[test]
    fn numbers_keep_their_boundaries() {
        for src in [
            "1.0", "2e9", "1e-3", "0.5f32", "42", "0xFE", "1_000u64", "1.",
        ] {
            assert_eq!(kinds(src), [(TokKind::Num, src.to_string())], "{src}");
        }
        // Ranges and method calls must not fuse into the literal.
        let ks = kinds("0..10");
        assert_eq!(ks[0], (TokKind::Num, "0".into()));
        assert_eq!(ks[1], (TokKind::Punct, "..".into()));
        assert_eq!(kinds("1.max(2)")[0], (TokKind::Num, "1".into()));
    }

    #[test]
    fn multichar_punct_fuses() {
        let ks = kinds("a == b != c -> d :: e");
        let ops: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ops, ["==", "!=", "->", "::"]);
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  bb");
        assert_eq!((l[0].line, l[0].col), (1, 1));
        assert_eq!((l[1].line, l[1].col), (2, 3));
    }

    /// Braces, quotes, and comment markers inside raw strings must stay
    /// inside the `Str` token — the item tree brace-matches the token
    /// stream, so a leaked `{` would corrupt every span after it.
    #[test]
    fn raw_string_contents_cannot_unbalance_braces() {
        let cases = [
            "fn f() { let x = r\"} { \\\"; }",
            "fn f() { let x = r#\"} \" fn bogus() { \"#; }",
            "fn f() { let x = r##\"a \"# b } {\"##; }",
            "fn f() { let x = br#\"{ // } /* } \"#; }",
        ];
        for src in cases {
            let l = lex(src);
            let opens = l.iter().filter(|t| t.text == "{").count();
            let closes = l.iter().filter(|t| t.text == "}").count();
            assert_eq!(opens, 1, "{src}: exactly the fn body opens");
            assert_eq!(closes, 1, "{src}: exactly the fn body closes");
            assert!(
                !l.iter().any(|t| t.text == "bogus"),
                "{src}: string contents leaked into the ident stream"
            );
        }
    }

    /// Same guarantee for nested block comments: brace/quote soup inside
    /// `/* /* … */ */` must never surface as tokens.
    #[test]
    fn nested_block_comment_contents_cannot_unbalance_braces() {
        let cases = [
            "fn f() {} /* } { \" /* } \" */ } */ fn g() {}",
            "/* /* /* deep */ */ \"}{\" */ fn g() {}",
            "fn f() { /* unterminated body comment } */ }",
        ];
        for src in cases {
            let l = lex(src);
            let opens = l.iter().filter(|t| t.text == "{").count();
            let closes = l.iter().filter(|t| t.text == "}").count();
            assert_eq!(opens, closes, "{src}: token-stream braces must balance");
        }
    }

    /// A raw string whose body contains a shorter hash-guard than its
    /// delimiter must not terminate early — `"#` inside an `r##…##`
    /// literal is content, not a close.
    #[test]
    fn raw_string_partial_hash_guards_do_not_terminate() {
        let l = lex("let a = r##\"x \"# y\"##; done");
        let strs: Vec<&Tok> = l.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].str_content().unwrap(), "x \"# y");
        assert!(l.iter().any(|t| t.text == "done"));
    }

    #[test]
    fn str_content_decodes_every_literal_form() {
        let cases: &[(&str, &str)] = &[
            ("\"plain\"", "plain"),
            ("r\"raw\"", "raw"),
            ("r#\"raw hash\"#", "raw hash"),
            ("r##\"--smoke\"##", "--smoke"),
            ("b\"bytes\"", "bytes"),
            ("br#\"braw\"#", "braw"),
            ("\"esc\\n\\t\\\"q\\\"\"", "esc\n\t\"q\""),
            ("\"hex\\x41\"", "hexA"),
            ("\"uni\\u{2192}\"", "uni\u{2192}"),
            ("'c'", "c"),
            ("'\\n'", "\n"),
            ("b'z'", "z"),
        ];
        for (src, want) in cases {
            let l = lex(&format!("let x = {src};"));
            let tok = l
                .iter()
                .find(|t| t.kind == TokKind::Str)
                .unwrap_or_else(|| panic!("{src}: no Str token"));
            assert_eq!(tok.str_content().as_deref(), Some(*want), "{src}");
        }
        // Non-string tokens decode to None.
        let l = lex("ident");
        assert_eq!(l[0].str_content(), None);
    }

    /// The lexer is forgiving about unterminated literals (they run to
    /// EOF); `str_content` must not panic or mangle them.
    #[test]
    fn unterminated_literals_decode_without_panicking() {
        for src in ["\"open", "r#\"open", "r##\"open\"#", "'x"] {
            let l = lex(src);
            let tok = l.iter().find(|t| t.kind == TokKind::Str);
            if let Some(t) = tok {
                let _ = t.str_content();
            }
        }
    }
}
