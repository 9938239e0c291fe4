//! Lightweight item-level parse layer over the token stream.
//!
//! `unchecked-sub` needs more shape than a flat token list — which fn a
//! token lives in, what `Self` means there, what type a field has — but
//! far less than a real AST. This module extracts exactly that: struct
//! declarations with their field types, and fn items with signature and
//! body token ranges, resolved against the enclosing `impl` block's
//! `Self` type. Everything is recovered by bracket matching; on malformed
//! input the parser skips forward rather than erroring (the compiler
//! owns syntax diagnostics, the linter only needs best-effort structure).

use crate::tokenizer::{TokKind, Token};

/// One `struct` declaration with named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct type name.
    pub name: String,
    /// `(field, type-text)` pairs; type text is the joined token text.
    pub fields: Vec<(String, String)>,
    /// 1-indexed line of the `struct` keyword.
    pub line: u32,
}

/// One `fn` item: signature facts plus the body's token index range.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// `Self` type when declared inside an `impl` block.
    pub self_type: Option<String>,
    /// `(param, type-text)` pairs; `self` receivers are omitted.
    pub params: Vec<(String, String)>,
    /// Return type text after `->`, if any.
    pub ret: Option<String>,
    /// Token index range `[body_start, body_end)` of the `{ ... }` body,
    /// including the braces themselves. Empty for bodyless trait fns.
    pub body: (usize, usize),
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
}

/// Item-level structure of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All named-field struct declarations.
    pub structs: Vec<StructDef>,
    /// All fn items, including those nested in impl/trait blocks.
    pub fns: Vec<FnDef>,
}

/// Find the index of the matching close delimiter for the open delimiter
/// at `open` (any of `(`/`[`/`{`), or `tokens.len()` when unbalanced.
pub fn matching_close(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Join token texts with single spaces (canonical "type text" form).
pub fn join_tokens(tokens: &[Token]) -> String {
    tokens
        .iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parse the item structure of a token stream.
pub fn parse_items(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    // Stack of `Self` types for nested impl blocks: (close-index, type).
    let mut impl_stack: Vec<(usize, String)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while let Some((close, _)) = impl_stack.last() {
            if i > *close {
                impl_stack.pop();
            } else {
                break;
            }
        }
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" => {
                if let Some((self_ty, body_open)) = parse_impl_header(tokens, i) {
                    let close = matching_close(tokens, body_open);
                    impl_stack.push((close, self_ty));
                    i = body_open + 1;
                } else {
                    i += 1;
                }
            }
            "struct" => {
                if let Some((def, next)) = parse_struct(tokens, i) {
                    out.structs.push(def);
                    i = next;
                } else {
                    i += 1;
                }
            }
            "fn" => {
                let self_type = impl_stack.last().map(|(_, ty)| ty.clone());
                if let Some((def, next)) = parse_fn(tokens, i, self_type) {
                    i = next;
                    out.fns.push(def);
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Parse `impl [<...>] Type [for Type2] {`, returning the `Self` type
/// name (the `for` target when present) and the body-open token index.
fn parse_impl_header(tokens: &[Token], at: usize) -> Option<(String, usize)> {
    let mut i = at + 1;
    // Skip generic parameter list `<...>` by angle counting.
    if tokens.get(i).is_some_and(|t| t.text == "<") {
        let mut depth = 0i32;
        while i < tokens.len() {
            match tokens[i].text.as_str() {
                "<" | "<<" => depth += if tokens[i].text == "<<" { 2 } else { 1 },
                ">" | ">>" => depth -= if tokens[i].text == ">>" { 2 } else { 1 },
                _ => {}
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    // Collect path segments until `for`, `where`, or `{`; the last plain
    // ident before generics is the type name of interest.
    let mut name: Option<String> = None;
    let mut saw_for = false;
    while i < tokens.len() {
        let tx = tokens[i].text.as_str();
        match tx {
            "{" => return name.map(|n| (n, i)),
            ";" => return None, // e.g. `impl Trait for Type;` degenerate
            "for" => {
                saw_for = true;
                name = None;
                i += 1;
            }
            "where" => {
                // Skip to the body open.
                while i < tokens.len() && tokens[i].text != "{" {
                    i += 1;
                }
            }
            "<" => {
                // Generic args on the type; skip them.
                let mut depth = 0i32;
                while i < tokens.len() {
                    match tokens[i].text.as_str() {
                        "<" => depth += 1,
                        ">" => depth -= 1,
                        ">>" => depth -= 2,
                        "{" if depth <= 0 => break,
                        _ => {}
                    }
                    i += 1;
                    if depth <= 0 {
                        break;
                    }
                }
            }
            _ => {
                if tokens[i].kind == TokKind::Ident && tx != "dyn" && tx != "mut" {
                    name = Some(tx.to_string());
                }
                i += 1;
            }
        }
    }
    let _ = saw_for;
    None
}

/// Parse `struct Name [<...>] { field: Type, ... }`. Tuple and unit
/// structs yield no field map (the rules only need named fields).
fn parse_struct(tokens: &[Token], at: usize) -> Option<(StructDef, usize)> {
    let name_tok = tokens.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut i = at + 2;
    while i < tokens.len() && tokens[i].text != "{" {
        match tokens[i].text.as_str() {
            // Unit struct or tuple struct: no named fields to record.
            ";" => {
                return Some((
                    StructDef {
                        name: name_tok.text.clone(),
                        fields: Vec::new(),
                        line: tokens[at].line,
                    },
                    i + 1,
                ))
            }
            "(" => {
                i = matching_close(tokens, i) + 1;
            }
            _ => i += 1,
        }
    }
    if i >= tokens.len() {
        return None;
    }
    let close = matching_close(tokens, i);
    let mut fields = Vec::new();
    let mut j = i + 1;
    while j < close {
        let t = &tokens[j];
        match t.text.as_str() {
            "#" => {
                if tokens.get(j + 1).is_some_and(|n| n.text == "[") {
                    j = matching_close(tokens, j + 1) + 1;
                } else {
                    j += 1;
                }
            }
            "pub" => {
                // Skip visibility, including `pub(crate)` etc.
                j += 1;
                if tokens.get(j).is_some_and(|n| n.text == "(") {
                    j = matching_close(tokens, j) + 1;
                }
            }
            _ => {
                if t.kind == TokKind::Ident && tokens.get(j + 1).is_some_and(|n| n.text == ":") {
                    // Field: collect type tokens to the next depth-1 comma.
                    let ty_start = j + 2;
                    let mut k = ty_start;
                    let mut depth = 0i32;
                    while k < close {
                        match tokens[k].text.as_str() {
                            "(" | "[" | "{" | "<" => depth += 1,
                            ")" | "]" | "}" | ">" => depth -= 1,
                            ">>" => depth -= 2,
                            "," if depth <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    fields.push((t.text.clone(), join_tokens(&tokens[ty_start..k])));
                    j = k;
                } else {
                    j += 1;
                }
            }
        }
    }
    Some((
        StructDef {
            name: name_tok.text.clone(),
            fields,
            line: tokens[at].line,
        },
        close + 1,
    ))
}

/// Parse one fn item starting at the `fn` keyword.
fn parse_fn(tokens: &[Token], at: usize, self_type: Option<String>) -> Option<(FnDef, usize)> {
    let name_tok = tokens.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // Find the parameter list open paren, skipping generics.
    let mut i = at + 2;
    if tokens.get(i).is_some_and(|t| t.text == "<") {
        let mut depth = 0i32;
        while i < tokens.len() {
            match tokens[i].text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    if tokens.get(i).is_none_or(|t| t.text != "(") {
        return None;
    }
    let params_close = matching_close(tokens, i);
    let params = parse_params(tokens, i + 1, params_close);
    // Return type: tokens between `->` and the body `{` / `where` / `;`.
    let mut j = params_close + 1;
    let mut ret = None;
    if tokens.get(j).is_some_and(|t| t.text == "->") {
        let ret_start = j + 1;
        let mut k = ret_start;
        let mut depth = 0i32;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                ">>" => depth -= 2,
                "{" | ";" if depth <= 0 => break,
                "where" if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        ret = Some(join_tokens(&tokens[ret_start..k]));
        j = k;
    }
    while j < tokens.len() && tokens[j].text != "{" && tokens[j].text != ";" {
        j += 1;
    }
    let body = if tokens.get(j).is_some_and(|t| t.text == "{") {
        let close = matching_close(tokens, j);
        (j, close + 1)
    } else {
        (j, j)
    };
    let next = body.1.max(j + 1);
    Some((
        FnDef {
            name: name_tok.text.clone(),
            self_type,
            params,
            ret,
            body,
            line: tokens[at].line,
        },
        next,
    ))
}

/// Parse a parameter list between `open+1` and `close` into
/// `(name, type-text)` pairs, skipping any `self` receiver and pattern
/// parameters (only simple `name: Type` entries are recorded).
fn parse_params(tokens: &[Token], start: usize, close: usize) -> Vec<(String, String)> {
    let mut params = Vec::new();
    let mut j = start;
    let mut entry_start = true;
    while j < close {
        match tokens[j].text.as_str() {
            "," => {
                entry_start = true;
                j += 1;
            }
            "(" | "[" | "{" => j = matching_close(tokens, j) + 1,
            "&" | "mut" => j += 1,
            _ => {
                if entry_start
                    && tokens[j].kind == TokKind::Ident
                    && tokens[j].text != "self"
                    && tokens.get(j + 1).is_some_and(|n| n.text == ":")
                {
                    let ty_start = j + 2;
                    let mut k = ty_start;
                    let mut depth = 0i32;
                    while k < close {
                        match tokens[k].text.as_str() {
                            "(" | "[" | "<" => depth += 1,
                            ")" | "]" | ">" => depth -= 1,
                            ">>" => depth -= 2,
                            "," if depth <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    params.push((tokens[j].text.clone(), join_tokens(&tokens[ty_start..k])));
                    j = k;
                } else {
                    entry_start = false;
                    j += 1;
                }
            }
        }
    }
    params
}
