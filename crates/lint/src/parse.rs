//! A lightweight item-level Rust parser on top of the lexer.
//!
//! The semantic lints (S101, S102, S104) need to know *which symbols
//! exist* — structs with their field lists, free and associated
//! functions with their body extents — not what every expression means. So this parser
//! recognizes item structure only and treats function bodies as opaque
//! token ranges for the call-graph layer ([`crate::callgraph`]) to scan.
//!
//! Soundness posture (see `DESIGN.md` §15):
//!
//! * **Under-approximation:** items nested inside function bodies
//!   (closures, local `fn`s, items expanded from macro invocations) are
//!   invisible; macro bodies are skipped as balanced token groups.
//! * **Over-approximation:** `#[cfg]`-gated items are always parsed, so
//!   the model may contain symbols a given build excludes.
//!
//! Both directions are deliberate: the lints built on the model only
//! ever compare *sets of names*, where a missing nested item can at
//! worst cause a false negative in a place token lints already cover.

use crate::lex::Kind;
use crate::source::File;

/// One `fn` item: free function, associated function, or trait method
/// (declaration or default body).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` self-type or `trait` name, `None` for free
    /// functions.
    pub owner: Option<String>,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token-index range `(open_brace, close_brace)` of the body;
    /// `None` for bodiless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
}

/// One `struct` item with its named fields (empty for tuple/unit
/// structs).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Whether the struct has a named-field body (`struct S { … }`).
    pub named: bool,
    /// Declared field names with their lines, in declaration order.
    pub fields: Vec<(String, u32)>,
}

/// Every item parsed out of one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// All functions, in source order.
    pub fns: Vec<FnItem>,
    /// All structs, in source order.
    pub structs: Vec<StructItem>,
}

/// Parses the item structure of `f`.
pub fn parse_items(f: &File) -> FileItems {
    let mut out = FileItems::default();
    parse_region(f, 0, f.tokens.len(), None, &mut out);
    out
}

/// How a signature scan ended: at a body brace, at a `;`, or never.
enum SigEnd {
    Body(usize),
    Semi(usize),
    None,
}

/// Parses items in the token range `[start, end)` with the given owner
/// (the enclosing `impl` type or `trait` name).
fn parse_region(f: &File, start: usize, end: usize, owner: Option<&str>, out: &mut FileItems) {
    let mut i = start;
    while i < end {
        // Attributes (`#[…]` / `#![…]`) are skipped as token groups.
        if f.is_punct(i, "#") {
            let mut j = i + 1;
            if f.is_punct(j, "!") {
                j += 1;
            }
            if f.is_punct(j, "[") {
                i = f.matching(j) + 1;
                continue;
            }
        }
        if f.tokens[i].kind != Kind::Ident {
            i += 1;
            continue;
        }
        match f.t(i) {
            "fn" => i = parse_fn(f, i, end, owner, out),
            "struct" => i = parse_struct(f, i, end, out),
            "enum" | "union" => i = skip_type_item(f, i, end),
            "trait" => i = parse_trait(f, i, end, out),
            "impl" => i = parse_impl(f, i, end, out),
            "mod" => i = parse_mod(f, i, end, out),
            "macro_rules" => i = skip_macro_def(f, i, end),
            "use" | "static" | "type" => i = skip_to_semi(f, i + 1, end),
            "const" => {
                // `const fn` is a modifier; `const NAME: T = …;` is an item.
                if f.is_ident(i + 1, "fn") {
                    i += 1;
                } else {
                    i = skip_to_semi(f, i + 1, end);
                }
            }
            "extern" => {
                // `extern crate x;`, `extern "C" { … }`, or an
                // `extern "C" fn` modifier.
                let mut j = i + 1;
                if f.tokens.get(j).is_some_and(|t| t.kind == Kind::Str) {
                    j += 1;
                }
                if f.is_ident(j, "fn") {
                    i = j;
                } else if f.is_punct(j, "{") {
                    i = f.matching(j) + 1;
                } else {
                    i = skip_to_semi(f, j, end);
                }
            }
            _ => i += 1,
        }
    }
}

/// Parses `fn name …` at token `i` (the `fn` keyword); returns the index
/// just past the item.
fn parse_fn(f: &File, i: usize, end: usize, owner: Option<&str>, out: &mut FileItems) -> usize {
    let Some(name_tok) = f.tokens.get(i + 1) else {
        return i + 1;
    };
    if name_tok.kind != Kind::Ident {
        return i + 1;
    }
    let name = f.t(i + 1).to_string();
    let line = name_tok.line;
    let has_self = param_list_has_self(f, i + 2, end);
    match scan_signature(f, i + 2, end) {
        SigEnd::Body(open) => {
            let close = f.matching(open);
            out.fns.push(FnItem {
                name,
                owner: owner.map(str::to_string),
                line,
                body: Some((open, close)),
                has_self,
            });
            close + 1
        }
        SigEnd::Semi(semi) => {
            out.fns.push(FnItem {
                name,
                owner: owner.map(str::to_string),
                line,
                body: None,
                has_self,
            });
            semi + 1
        }
        SigEnd::None => end,
    }
}

/// Whether the first parenthesized group at angle-depth 0 after `from`
/// (the parameter list) starts with a `self` receiver.
fn param_list_has_self(f: &File, from: usize, end: usize) -> bool {
    let mut angle = 0i32;
    let mut j = from;
    while j < end {
        match (f.tokens[j].kind, f.t(j)) {
            (Kind::Punct, "<") => angle += 1,
            (Kind::Punct, ">") => angle = (angle - 1).max(0),
            (Kind::Punct, ">>") => angle = (angle - 2).max(0),
            (Kind::Punct, "(") if angle == 0 => {
                let close = f.matching(j);
                // Only the receiver position counts: scan up to the
                // first argument separator at depth 0.
                let mut depth = 0i32;
                for k in j + 1..close.min(end) {
                    if f.tokens[k].kind == Kind::Punct {
                        match f.t(k) {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            "," if depth == 0 => break,
                            _ => {}
                        }
                    }
                    if f.is_ident(k, "self") {
                        let fine = f.is_punct(k - 1, "(")
                            || f.is_punct(k - 1, "&")
                            || f.is_ident(k - 1, "mut")
                            || f.tokens[k - 1].kind == Kind::Lifetime;
                        if fine {
                            return true;
                        }
                    }
                }
                return false;
            }
            (Kind::Punct, "{" | ";") if angle == 0 => return false,
            _ => {}
        }
        j += 1;
    }
    false
}

/// Scans a signature tail (generics, params, return type, where clause)
/// for the body `{` or declaration `;` at depth 0.
fn scan_signature(f: &File, from: usize, end: usize) -> SigEnd {
    let mut angle = 0i32;
    let mut j = from;
    while j < end {
        match (f.tokens[j].kind, f.t(j)) {
            (Kind::Punct, "<") => angle += 1,
            (Kind::Punct, ">") => angle = (angle - 1).max(0),
            (Kind::Punct, ">>") => angle = (angle - 2).max(0),
            (Kind::Punct, "(" | "[") => {
                j = f.matching(j);
            }
            (Kind::Punct, "{") if angle == 0 => return SigEnd::Body(j),
            (Kind::Punct, "{") => {
                // Const-generic expression braces inside generics.
                j = f.matching(j);
            }
            (Kind::Punct, ";") if angle == 0 => return SigEnd::Semi(j),
            _ => {}
        }
        j += 1;
    }
    SigEnd::None
}

/// Parses `struct name …` at token `i`; returns the index past the item.
fn parse_struct(f: &File, i: usize, end: usize, out: &mut FileItems) -> usize {
    let Some(name_tok) = f.tokens.get(i + 1) else {
        return i + 1;
    };
    if name_tok.kind != Kind::Ident {
        return i + 1;
    }
    let name = f.t(i + 1).to_string();
    let line = name_tok.line;
    match scan_signature(f, i + 2, end) {
        SigEnd::Body(open) => {
            let close = f.matching(open);
            let fields = parse_fields(f, open, close);
            out.structs.push(StructItem {
                name,
                line,
                named: true,
                fields,
            });
            close + 1
        }
        SigEnd::Semi(semi) => {
            // Tuple or unit struct: no named fields to model.
            out.structs.push(StructItem {
                name,
                line,
                named: false,
                fields: Vec::new(),
            });
            semi + 1
        }
        SigEnd::None => end,
    }
}

/// Collects named fields inside a struct body `{ … }`.
fn parse_fields(f: &File, open: usize, close: usize) -> Vec<(String, u32)> {
    let mut fields = Vec::new();
    let mut k = open + 1;
    while k < close {
        if f.is_punct(k, "#") && f.is_punct(k + 1, "[") {
            k = f.matching(k + 1) + 1;
            continue;
        }
        if f.is_ident(k, "pub") {
            k += 1;
            if f.is_punct(k, "(") {
                k = f.matching(k) + 1;
            }
            continue;
        }
        if f.tokens[k].kind == Kind::Ident && f.is_punct(k + 1, ":") {
            fields.push((f.t(k).to_string(), f.tokens[k].line));
            k += 2;
            // Skip the type to the `,` at depth 0; `>>` closes two
            // angle levels, delimiter groups are skipped whole.
            let mut angle = 0i32;
            while k < close {
                match (f.tokens[k].kind, f.t(k)) {
                    (Kind::Punct, "(" | "[" | "{") => k = f.matching(k) + 1,
                    (Kind::Punct, "<") => {
                        angle += 1;
                        k += 1;
                    }
                    (Kind::Punct, ">") => {
                        angle = (angle - 1).max(0);
                        k += 1;
                    }
                    (Kind::Punct, ">>") => {
                        angle = (angle - 2).max(0);
                        k += 1;
                    }
                    (Kind::Punct, ",") if angle == 0 => {
                        k += 1;
                        break;
                    }
                    _ => k += 1,
                }
            }
            continue;
        }
        k += 1;
    }
    fields
}

/// Skips an `enum`/`union` item (name, generics, body or `;`).
fn skip_type_item(f: &File, i: usize, end: usize) -> usize {
    match scan_signature(f, i + 1, end) {
        SigEnd::Body(open) => f.matching(open) + 1,
        SigEnd::Semi(semi) => semi + 1,
        SigEnd::None => end,
    }
}

/// Parses `trait Name … { … }`, recursing into the body with the trait
/// as owner so method declarations become [`FnItem`]s.
fn parse_trait(f: &File, i: usize, end: usize, out: &mut FileItems) -> usize {
    let Some(name_tok) = f.tokens.get(i + 1) else {
        return i + 1;
    };
    if name_tok.kind != Kind::Ident {
        return i + 1;
    }
    let name = f.t(i + 1).to_string();
    match scan_signature(f, i + 2, end) {
        SigEnd::Body(open) => {
            let close = f.matching(open);
            parse_region(f, open + 1, close.min(end), Some(&name), out);
            close + 1
        }
        SigEnd::Semi(semi) => semi + 1,
        SigEnd::None => end,
    }
}

/// Parses `impl … { … }`: determines the self-type name (the last path
/// segment after `for`, or of the sole type) and recurses with it as
/// owner.
fn parse_impl(f: &File, i: usize, end: usize, out: &mut FileItems) -> usize {
    let mut j = i + 1;
    // Leading generic parameters.
    if f.is_punct(j, "<") {
        let mut angle = 0i32;
        while j < end {
            match (f.tokens[j].kind, f.t(j)) {
                (Kind::Punct, "<") => angle += 1,
                (Kind::Punct, ">") => angle -= 1,
                (Kind::Punct, ">>") => angle -= 2,
                (Kind::Punct, "(" | "[" | "{") => j = f.matching(j),
                _ => {}
            }
            j += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    // Walk the type path: the owner is the last plain identifier seen
    // before the body (reset at `for`, so `impl Trait for Type` names
    // `Type`); generic argument groups are skipped.
    let mut owner: Option<String> = None;
    let mut angle = 0i32;
    while j < end {
        match (f.tokens[j].kind, f.t(j)) {
            (Kind::Punct, "<") => angle += 1,
            (Kind::Punct, ">") => angle = (angle - 1).max(0),
            (Kind::Punct, ">>") => angle = (angle - 2).max(0),
            (Kind::Punct, "(" | "[") => j = f.matching(j),
            (Kind::Punct, "{") if angle == 0 => break,
            (Kind::Punct, "{") => j = f.matching(j),
            (Kind::Ident, "for") if angle == 0 => owner = None,
            (Kind::Ident, "where") if angle == 0 => {
                match scan_signature(f, j + 1, end) {
                    SigEnd::Body(open) => j = open,
                    _ => return end,
                }
                break;
            }
            (Kind::Ident, "dyn" | "mut" | "const") => {}
            (Kind::Ident, _) if angle == 0 => owner = Some(f.t(j).to_string()),
            _ => {}
        }
        j += 1;
        if f.is_punct(j, "{") && angle == 0 {
            break;
        }
    }
    if !f.is_punct(j, "{") {
        return end;
    }
    let close = f.matching(j);
    parse_region(f, j + 1, close.min(end), owner.as_deref(), out);
    close + 1
}

/// Parses `mod name { … }` (recursing, owner reset) or skips `mod name;`.
fn parse_mod(f: &File, i: usize, end: usize, out: &mut FileItems) -> usize {
    let mut j = i + 1;
    while j < end && !f.is_punct(j, "{") && !f.is_punct(j, ";") {
        j += 1;
    }
    if f.is_punct(j, "{") {
        let close = f.matching(j);
        parse_region(f, j + 1, close.min(end), None, out);
        close + 1
    } else {
        j + 1
    }
}

/// Skips `macro_rules! name { … }` as one balanced group.
fn skip_macro_def(f: &File, i: usize, end: usize) -> usize {
    let mut j = i + 1;
    while j < end {
        if f.is_punct(j, "{") || f.is_punct(j, "(") || f.is_punct(j, "[") {
            return f.matching(j) + 1;
        }
        j += 1;
    }
    end
}

/// Skips to just past the next `;` at delimiter depth 0 (groups are
/// stepped over whole, so `use x::{a, b};` works).
fn skip_to_semi(f: &File, from: usize, end: usize) -> usize {
    let mut j = from;
    while j < end {
        if f.tokens[j].kind == Kind::Punct {
            match f.t(j) {
                "(" | "[" | "{" => {
                    j = f.matching(j) + 1;
                    continue;
                }
                ";" => return j + 1,
                _ => {}
            }
        }
        j += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> FileItems {
        parse_items(&File::new("crates/core/src/x.rs", src))
    }

    #[test]
    fn free_and_assoc_fns() {
        let it = items(
            "fn free(a: u32) -> u32 { a }\n\
             struct S { x: u32, y: Vec<(u8, u8)> }\n\
             impl S {\n    fn method(&self) -> u32 { self.x }\n    fn assoc() -> S { todo!() }\n}\n",
        );
        let names: Vec<_> = it
            .fns
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str(), f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                (None, "free", false),
                (Some("S"), "method", true),
                (Some("S"), "assoc", false),
            ]
        );
        assert_eq!(it.structs[0].fields.len(), 2);
        assert_eq!(it.structs[0].fields[0].0, "x");
        assert_eq!(it.structs[0].fields[1].0, "y");
    }

    #[test]
    fn trait_impl_owner_is_self_type() {
        let it = items(
            "trait T { fn decl(&self); fn with_default(&self) {} }\n\
             impl T for Wrapper<'_> { fn decl(&self) {} }\n",
        );
        assert_eq!(it.fns[0].owner.as_deref(), Some("T"));
        assert!(it.fns[0].body.is_none());
        assert_eq!(it.fns[1].owner.as_deref(), Some("T"));
        assert!(it.fns[1].body.is_some());
        assert_eq!(it.fns[2].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn nested_generics_and_where_clauses() {
        let it = items(
            "fn tricky<W: Workload<Item = Vec<Vec<u8>>>>(w: W) -> Option<Box<dyn Fn() -> u8>>\n\
             where W: Clone { None }\n\
             struct G<K, V> { map: FxHashMap<K, Vec<V>>, n: usize }\n",
        );
        assert_eq!(it.fns[0].name, "tricky");
        assert!(it.fns[0].body.is_some());
        let fields: Vec<_> = it.structs[0].fields.iter().map(|f| f.0.as_str()).collect();
        assert_eq!(fields, vec!["map", "n"]);
    }

    #[test]
    fn bodies_are_opaque_and_macros_skipped() {
        let it = items(
            "macro_rules! m { ($x:expr) => { fn not_an_item() {} }; }\n\
             fn outer() { fn inner() {} let c = |x: u32| x; }\n",
        );
        let names: Vec<_> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer"]);
    }

    #[test]
    fn tuple_structs_and_mods() {
        let it = items(
            "struct Unit;\npub struct Pair(u32, u32);\n\
             mod inner { pub fn in_mod() {} struct Deep { d: u8 } }\n",
        );
        assert!(!it.structs[0].named);
        assert!(!it.structs[1].named);
        assert!(it
            .fns
            .iter()
            .any(|f| f.name == "in_mod" && f.owner.is_none()));
        assert!(it.structs.iter().any(|s| s.name == "Deep" && s.named));
    }
}
