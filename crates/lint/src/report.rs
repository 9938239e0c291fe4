//! Machine-readable report: JSON serialization.
//!
//! The JSON is hand-rolled (the workspace is vendored-offline, and the
//! shape is a few scalar fields plus a flat findings array), with full
//! string escaping so arbitrary matched text is embedded intact.

use crate::rules::{Finding, Rule};

/// Aggregate result of a lint run over many files.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by well-formed inline suppressions.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Canonical ordering so text and JSON output are deterministic.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
    }

    /// Surviving findings per rule, over the full catalog (zeroes
    /// included, so the report shape does not depend on what fired).
    pub fn rule_counts(&self) -> Vec<(&'static str, usize)> {
        Rule::ALL
            .iter()
            .map(|r| {
                (
                    r.name(),
                    self.findings.iter().filter(|f| f.rule == *r).count(),
                )
            })
            .collect()
    }

    /// Render the JSON report (schema v4: the scalars, per-rule counts
    /// over the six-rule catalog and the findings — nothing read from a
    /// clock, so the committed file regenerates byte for byte).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 4,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));
        s.push_str("  \"rule_counts\": {");
        for (i, (name, count)) in self.rule_counts().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{name}\": {count}"));
        }
        s.push_str("\n  },\n");
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                escape(&f.file),
                f.line,
                f.rule.name(),
                escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Escape a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Re-export used by tests to assert rule identity from parsed names.
pub fn rule_names() -> Vec<&'static str> {
    Rule::ALL.iter().map(|r| r.name()).collect()
}
