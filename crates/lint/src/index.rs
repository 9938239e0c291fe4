//! Workspace symbol index for `unchecked-sub`.
//!
//! Built in a first pass over every first-party file, then handed to the
//! per-file rule pass. The index records the two symbol families the
//! rule resolves operand types through:
//!
//! * struct field types (`unchecked-sub` resolves `self.field` and
//!   `x.field` operands to integer types through them);
//! * fn/method return types (`unchecked-sub` resolves `x.failed()`-style
//!   call operands; a name is only "known" when every declaration in the
//!   workspace agrees on the return type, so ambiguous names stay
//!   unknown and never produce findings).

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{parse_items, ParsedFile};
use crate::tokenizer::tokenize;

/// Symbol index over a set of files (the whole workspace, or a single
/// fixture in tests — fixtures declare their own types, so the rule is
/// self-contained per file).
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Struct name → field name → type text.
    pub struct_fields: BTreeMap<String, BTreeMap<String, String>>,
    /// fn/method name → set of return-type texts seen across the
    /// workspace. Unambiguous iff the set has exactly one element.
    pub fn_returns: BTreeMap<String, BTreeSet<String>>,
}

impl WorkspaceIndex {
    /// Index one file's already-parsed items.
    pub fn add_parsed(&mut self, parsed: &ParsedFile) {
        for s in &parsed.structs {
            let entry = self.struct_fields.entry(s.name.clone()).or_default();
            for (f, ty) in &s.fields {
                entry.insert(f.clone(), ty.clone());
            }
        }
        for f in &parsed.fns {
            let ret = f.ret.clone().unwrap_or_else(|| "()".to_string());
            self.fn_returns
                .entry(f.name.clone())
                .or_default()
                .insert(ret);
        }
    }

    /// Build an index from `(label, source)` pairs.
    pub fn from_sources<'a>(sources: impl IntoIterator<Item = &'a str>) -> WorkspaceIndex {
        let mut idx = WorkspaceIndex::default();
        for src in sources {
            let stream = tokenize(src);
            idx.add_parsed(&parse_items(&stream.tokens));
        }
        idx
    }

    /// The type of `Type::field`, when `Type` is indexed and has it.
    pub fn field_type(&self, ty: &str, field: &str) -> Option<&str> {
        self.struct_fields.get(ty)?.get(field).map(String::as_str)
    }

    /// The unambiguous return type of a fn/method name, if the whole
    /// workspace agrees on one.
    pub fn return_type(&self, name: &str) -> Option<&str> {
        let set = self.fn_returns.get(name)?;
        if set.len() == 1 {
            set.iter().next().map(String::as_str)
        } else {
            None
        }
    }
}

/// Is a type text one of the unsigned integer primitives?
pub fn is_unsigned(ty: &str) -> bool {
    matches!(ty.trim(), "u8" | "u16" | "u32" | "u64" | "u128" | "usize")
}
