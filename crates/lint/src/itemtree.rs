//! Layer 1 of the analyzer: a brace-matched item tree over the token
//! stream.
//!
//! The token-level rules ask "does this token appear?"; the
//! contract-graph rules of [`crate::contracts`] ask structural questions
//! — "which crate implements `SlottedModel`?", "is this allocation
//! inside the body of `fn arbitrate` in a `SlottedModel` impl?". This module answers them without `syn` (the build is
//! offline): a forgiving recursive-descent pass that brace-matches the
//! lexed tokens into items. It is an approximation, like every rule
//! here — exotic shapes (const-generic default expressions, macro
//! output) degrade to "no item recognized", never to a wrong span,
//! because the lexer already guarantees strings and comments cannot
//! unbalance the brace structure.

use crate::lexer::{Tok, TokKind};

/// What kind of item a tree node describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` — free, inherent, or trait method.
    Fn,
    /// `impl` block (inherent or trait).
    Impl,
    /// `enum` definition.
    Enum,
    /// `struct` / `union` definition.
    Struct,
    /// `trait` definition.
    Trait,
    /// Inline `mod name { … }`.
    Mod,
}

/// One parsed item. Spans are *token indices* into the stream the tree
/// was parsed from, so rules can re-scan exactly the tokens they care
/// about.
#[derive(Debug)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Item name. For `impl` blocks this is the self type's last path
    /// segment (`CellSwitch` for `impl<T> SlottedModel for CellSwitch<T>`).
    pub name: String,
    /// For trait impls, the implemented trait's last path segment.
    pub trait_name: Option<String>,
    /// Did the item carry `pub` (any visibility qualifier counts)?
    pub is_pub: bool,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token-index span of the `{ … }` body: (index of `{`, index of the
    /// matching `}`). `None` for braceless items (trait method
    /// signatures, unit structs).
    pub body: Option<(usize, usize)>,
    /// Child items of `impl` / `trait` / `mod` bodies. Fn bodies are
    /// opaque — statements are not items.
    pub children: Vec<Item>,
}

/// A parsed file: the top-level items in source order.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// Top-level items.
    pub items: Vec<Item>,
}

/// A flattened view of one `fn` with its enclosing `impl`/`trait`, for
/// rules that scope by trait membership ("`fn arbitrate` in a
/// `SlottedModel` impl").
pub struct FnRef<'a> {
    /// The function item.
    pub item: &'a Item,
    /// Nearest enclosing `impl` or `trait` item, if any.
    pub owner: Option<&'a Item>,
}

impl<'a> FnRef<'a> {
    /// Trait the enclosing impl implements (`None` for free fns,
    /// inherent impls, and trait definitions).
    pub fn impl_trait(&self) -> Option<&'a str> {
        self.owner
            .filter(|o| o.kind == ItemKind::Impl)
            .and_then(|o| o.trait_name.as_deref())
    }

    /// Self type of the enclosing impl (`None` for free fns).
    pub fn impl_type(&self) -> Option<&'a str> {
        self.owner
            .filter(|o| o.kind == ItemKind::Impl)
            .map(|o| o.name.as_str())
    }
}

impl ItemTree {
    /// Parse a token stream into an item tree. Never fails: unrecognized
    /// shapes are skipped token by token.
    pub fn parse(toks: &[Tok]) -> ItemTree {
        let p = Parser { toks };
        ItemTree {
            items: p.parse_range(0, toks.len()),
        }
    }

    /// Every `fn` in the tree (any nesting depth), with its enclosing
    /// impl/trait, in source order.
    pub fn fns(&self) -> Vec<FnRef<'_>> {
        let mut out = Vec::new();
        fn walk<'a>(items: &'a [Item], owner: Option<&'a Item>, out: &mut Vec<FnRef<'a>>) {
            for it in items {
                match it.kind {
                    ItemKind::Fn => out.push(FnRef { item: it, owner }),
                    ItemKind::Impl | ItemKind::Trait => walk(&it.children, Some(it), out),
                    _ => walk(&it.children, owner, out),
                }
            }
        }
        walk(&self.items, None, &mut out);
        out
    }
}

/// Index of the token that closes the group opened at `open` (any of
/// `{([`), or `hi - 1` if the stream ends first.
fn matching_close(toks: &[Tok], open: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < hi {
        match toks[i].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    hi.saturating_sub(1)
}

struct Parser<'a> {
    toks: &'a [Tok],
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn is_str(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokKind::Str)
    }

    fn parse_range(&self, lo: usize, hi: usize) -> Vec<Item> {
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi {
            i = self.item(i, hi, &mut out);
        }
        out
    }

    /// Parse (or skip) one item starting at `i`; returns the index just
    /// past it.
    fn item(&self, mut i: usize, hi: usize, out: &mut Vec<Item>) -> usize {
        if self.text(i) == "#" {
            return self.skip_attr(i, hi);
        }
        let mut is_pub = false;
        loop {
            match self.text(i) {
                "pub" => {
                    is_pub = true;
                    i += 1;
                    // pub(crate) / pub(in path) qualifier.
                    if self.text(i) == "(" {
                        i = self.skip_group(i, hi);
                    }
                }
                "unsafe" | "async" | "default" => i += 1,
                "const" => {
                    // `const fn` is a modifier; `const NAME: T = …;` is a
                    // braceless item we skip whole.
                    if self.text(i + 1) == "fn" {
                        i += 1;
                    } else {
                        return self.skip_to_semi(i, hi);
                    }
                }
                "extern" => {
                    // `extern "C" fn` modifier vs `extern "C" { … }`
                    // block vs `extern crate x;`.
                    i += 1;
                    if self.is_str(i) {
                        i += 1;
                    }
                    match self.text(i) {
                        "fn" => {}
                        "{" => return self.skip_group(i, hi),
                        _ => return self.skip_to_semi(i, hi),
                    }
                }
                _ => break,
            }
        }
        match self.text(i) {
            "fn" => self.parse_fn(i, hi, is_pub, out),
            "impl" => self.parse_impl(i, hi, out),
            "enum" => self.parse_struct(i, hi, ItemKind::Enum, is_pub, out),
            "struct" | "union" => self.parse_struct(i, hi, ItemKind::Struct, is_pub, out),
            "trait" => self.parse_trait(i, hi, is_pub, out),
            "mod" => self.parse_mod(i, hi, is_pub, out),
            "macro_rules" => {
                // macro_rules! name { … } — the body is token soup.
                let mut j = i + 1;
                while j < hi && !matches!(self.text(j), "{" | "(" | "[") {
                    j += 1;
                }
                if j < hi {
                    self.skip_group(j, hi)
                } else {
                    hi
                }
            }
            "use" | "type" | "static" => self.skip_to_semi(i, hi),
            _ => i + 1,
        }
    }

    fn parse_fn(&self, kw: usize, hi: usize, is_pub: bool, out: &mut Vec<Item>) -> usize {
        let Some(name_tok) = self.toks.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
            return kw + 1;
        };
        // Walk the signature (generics, params, return type, where
        // clause) to its body or `;`. Only paren/bracket depth matters:
        // no `{` can appear in a signature at depth 0.
        let mut depth = 0i32;
        let mut j = kw + 2;
        while j < hi {
            match self.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let (body, next) = if self.text(j) == "{" {
            let close = matching_close(self.toks, j, hi);
            (Some((j, close)), close + 1)
        } else {
            (None, (j + 1).min(hi))
        };
        out.push(Item {
            kind: ItemKind::Fn,
            name: name_tok.text.clone(),
            trait_name: None,
            is_pub,
            line: name_tok.line,
            body,
            children: Vec::new(),
        });
        next
    }

    fn parse_impl(&self, kw: usize, hi: usize, out: &mut Vec<Item>) -> usize {
        let mut j = kw + 1;
        // Generic intro `impl<…>`; fused `<<`/`>>` count double.
        if self.text(j) == "<" || self.text(j) == "<<" {
            let mut adepth = 0i32;
            while j < hi {
                match self.text(j) {
                    "<" => adepth += 1,
                    "<<" => adepth += 2,
                    ">" => adepth -= 1,
                    ">>" => adepth -= 2,
                    _ => {}
                }
                j += 1;
                if adepth <= 0 {
                    break;
                }
            }
        }
        // Header: `TraitPath for TypePath where …` up to the body `{`.
        // Idents at angle/paren depth 0 are path segments; the last one
        // before `for` names the trait, the last one after names the
        // self type.
        let mut adepth = 0i32;
        let mut pdepth = 0i32;
        let mut saw_for = false;
        let mut collecting = true;
        let mut pre_for: Option<&Tok> = None;
        let mut post_for: Option<&Tok> = None;
        while j < hi {
            let t = &self.toks[j];
            match t.text.as_str() {
                "<" => adepth += 1,
                "<<" => adepth += 2,
                ">" => adepth -= 1,
                ">>" => adepth -= 2,
                "(" | "[" => pdepth += 1,
                ")" | "]" => pdepth -= 1,
                "{" if pdepth == 0 => break,
                ";" if pdepth == 0 && adepth == 0 => break,
                "for" if pdepth == 0 && adepth == 0 => saw_for = true,
                "where" if pdepth == 0 && adepth == 0 => collecting = false,
                _ if collecting
                    && t.kind == TokKind::Ident
                    && pdepth == 0
                    && adepth == 0
                    && !matches!(t.text.as_str(), "mut" | "dyn" | "const") =>
                {
                    if saw_for {
                        post_for = Some(t);
                    } else {
                        pre_for = Some(t);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let (name_tok, trait_name) = if saw_for {
            (post_for, pre_for.map(|t| t.text.clone()))
        } else {
            (pre_for, None)
        };
        let (body, children, next) = if self.text(j) == "{" {
            let close = matching_close(self.toks, j, hi);
            (Some((j, close)), self.parse_range(j + 1, close), close + 1)
        } else {
            (None, Vec::new(), (j + 1).min(hi))
        };
        let anchor = name_tok.unwrap_or(&self.toks[kw]);
        out.push(Item {
            kind: ItemKind::Impl,
            name: anchor.text.clone(),
            trait_name,
            is_pub: false,
            line: anchor.line,
            body,
            children,
        });
        next
    }

    /// An `enum`, `struct` or `union`: a name and an opaque body.
    fn parse_struct(
        &self,
        kw: usize,
        hi: usize,
        kind: ItemKind,
        is_pub: bool,
        out: &mut Vec<Item>,
    ) -> usize {
        let Some(name_tok) = self.toks.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
            return kw + 1;
        };
        let mut depth = 0i32;
        let mut j = kw + 2;
        while j < hi {
            match self.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let (body, next) = if self.text(j) == "{" {
            let close = matching_close(self.toks, j, hi);
            (Some((j, close)), close + 1)
        } else {
            (None, (j + 1).min(hi))
        };
        out.push(Item {
            kind,
            name: name_tok.text.clone(),
            trait_name: None,
            is_pub,
            line: name_tok.line,
            body,
            children: Vec::new(),
        });
        next
    }

    fn parse_trait(&self, kw: usize, hi: usize, is_pub: bool, out: &mut Vec<Item>) -> usize {
        let Some(name_tok) = self.toks.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
            return kw + 1;
        };
        let mut depth = 0i32;
        let mut j = kw + 2;
        while j < hi {
            match self.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let (body, children, next) = if self.text(j) == "{" {
            let close = matching_close(self.toks, j, hi);
            (Some((j, close)), self.parse_range(j + 1, close), close + 1)
        } else {
            (None, Vec::new(), (j + 1).min(hi))
        };
        out.push(Item {
            kind: ItemKind::Trait,
            name: name_tok.text.clone(),
            trait_name: None,
            is_pub,
            line: name_tok.line,
            body,
            children,
        });
        next
    }

    fn parse_mod(&self, kw: usize, hi: usize, is_pub: bool, out: &mut Vec<Item>) -> usize {
        let Some(name_tok) = self.toks.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
            return kw + 1;
        };
        let mut j = kw + 2;
        while j < hi && !matches!(self.text(j), "{" | ";") {
            j += 1;
        }
        let (body, children, next) = if self.text(j) == "{" {
            let close = matching_close(self.toks, j, hi);
            (Some((j, close)), self.parse_range(j + 1, close), close + 1)
        } else {
            (None, Vec::new(), (j + 1).min(hi))
        };
        out.push(Item {
            kind: ItemKind::Mod,
            name: name_tok.text.clone(),
            trait_name: None,
            is_pub,
            line: name_tok.line,
            body,
            children,
        });
        next
    }

    /// Skip `#[…]` / `#![…]`; returns the index just past the closing `]`.
    fn skip_attr(&self, i: usize, hi: usize) -> usize {
        let mut j = i + 1;
        if self.text(j) == "!" {
            j += 1;
        }
        if self.text(j) == "[" {
            self.skip_group(j, hi)
        } else {
            i + 1
        }
    }

    /// Skip a balanced bracket group opened at `i`; returns the index
    /// just past its close.
    fn skip_group(&self, i: usize, hi: usize) -> usize {
        matching_close(self.toks, i, hi) + 1
    }

    /// Skip to the `;` that terminates a braceless item, tracking all
    /// bracket depth so `[u8; 3]` array types and `Foo { x: 1 }` struct
    /// expressions cannot end it early.
    fn skip_to_semi(&self, i: usize, hi: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < hi {
            match self.text(j) {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                ";" if depth == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ItemTree {
        ItemTree::parse(&lex(src))
    }

    #[test]
    fn top_level_fns_with_bodies() {
        let t = tree("pub fn a(x: u8) -> u8 { x + 1 }\nfn b() {}\nfn sig_only();\n");
        assert_eq!(t.items.len(), 3);
        assert_eq!(t.items[0].name, "a");
        assert!(t.items[0].is_pub);
        assert!(t.items[0].body.is_some());
        assert_eq!(t.items[1].name, "b");
        assert!(!t.items[1].is_pub);
        assert_eq!(t.items[2].name, "sig_only");
        assert!(t.items[2].body.is_none());
    }

    #[test]
    fn impl_trait_for_type_with_generics() {
        let t = tree(
            "impl<T: TraceSink> SlottedModel for CellSwitch<T> {\n    fn arbitrate(&mut self, t: u64) {}\n}\n\
             impl fmt::Display for Foo { fn fmt(&self) {} }\n\
             impl Engine { pub fn new() -> Engine { Engine }\n}\n",
        );
        assert_eq!(t.items.len(), 3);
        assert_eq!(t.items[0].kind, ItemKind::Impl);
        assert_eq!(t.items[0].trait_name.as_deref(), Some("SlottedModel"));
        assert_eq!(t.items[0].name, "CellSwitch");
        assert_eq!(t.items[0].children[0].name, "arbitrate");
        assert_eq!(t.items[1].trait_name.as_deref(), Some("Display"));
        assert_eq!(t.items[1].name, "Foo");
        assert_eq!(t.items[2].trait_name, None);
        assert_eq!(t.items[2].name, "Engine");
        assert!(t.items[2].children[0].is_pub);
    }

    #[test]
    fn skipped_items_do_not_desync_the_walker() {
        let t = tree(
            "use std::fmt::{self, Write};\n\
             const N: [u8; 3] = [1, 2, 3];\n\
             static S: &str = \"; } {\";\n\
             macro_rules! m { ($x:expr) => { $x + 1 }; }\n\
             type Alias = Vec<Vec<u8>>;\n\
             extern \"C\" { fn ffi(); }\n\
             mod inner { pub fn deep() {} }\n\
             fn after() {}\n",
        );
        let names: Vec<&str> = t.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["inner", "after"]);
        assert_eq!(t.items[0].children[0].name, "deep");
    }

    #[test]
    fn trait_methods_with_and_without_bodies() {
        let t = tree(
            "trait Plane {\n    fn hook(&mut self);\n    fn free(&self) -> bool { true }\n}\n",
        );
        let tr = &t.items[0];
        assert_eq!(tr.kind, ItemKind::Trait);
        assert_eq!(tr.children.len(), 2);
        assert!(tr.children[0].body.is_none());
        assert!(tr.children[1].body.is_some());
    }

    #[test]
    fn fns_flatten_with_owner_context() {
        let t = tree("impl SlottedModel for Engine { fn arbitrate(&mut self) {} }\nfn free() {}\n");
        let fns = t.fns();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].item.name, "arbitrate");
        assert_eq!(fns[0].impl_trait(), Some("SlottedModel"));
        assert_eq!(fns[0].impl_type(), Some("Engine"));
        assert_eq!(fns[1].item.name, "free");
        assert_eq!(fns[1].impl_trait(), None);
    }

    #[test]
    fn raw_strings_in_bodies_stay_opaque() {
        let t = tree("fn f() { let x = r#\"} fn bogus() { \"#; }\nfn g() {}\n");
        let names: Vec<&str> = t.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["f", "g"]);
    }
}
