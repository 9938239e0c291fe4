//! The rule engine: domain invariants checked over the token stream.
//!
//! Every rule is named, line-anchored, and suppressible with an inline
//! `//` comment directive: the tool name, a colon, then
//! `allow(<rule>) — <justification>`, trailing the offending line or
//! standing directly above it. The justification text is mandatory; a
//! bare directive is itself reported under the `suppression` rule.

use crate::index::WorkspaceIndex;
use crate::parse::parse_items;
use crate::semantic::unchecked_sub;
use crate::tokenizer::{tokenize, Comment, TokKind, Token, TokenStream};

/// The rule catalog. Names are stable: they appear in findings, reports,
/// and suppression directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `==`/`!=` with a float-literal operand outside `#[cfg(test)]`.
    FloatCmp,
    /// `unwrap`/`expect`/`panic!`/`todo!`/`dbg!` in library code paths.
    NoPanic,
    /// Ad-hoc `floor`/`round`/`ceil`/`trunc` or float-to-int `as` casts
    /// in files that touch partition geometry.
    QuantizeCast,
    /// Nondeterminism sources in the deterministic core.
    Nondet,
    /// Malformed suppression directive (unknown rule, or no justification).
    Suppression,
    /// Unguarded unsigned subtraction in the deterministic core.
    UncheckedSub,
}

impl Rule {
    /// Stable kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatCmp => "float-cmp",
            Rule::NoPanic => "no-panic",
            Rule::QuantizeCast => "quantize-cast",
            Rule::Nondet => "nondet",
            Rule::Suppression => "suppression",
            Rule::UncheckedSub => "unchecked-sub",
        }
    }

    /// Parse a rule name as written inside `allow(...)`.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "float-cmp" => Some(Rule::FloatCmp),
            "no-panic" => Some(Rule::NoPanic),
            "quantize-cast" => Some(Rule::QuantizeCast),
            "nondet" => Some(Rule::Nondet),
            "suppression" => Some(Rule::Suppression),
            "unchecked-sub" => Some(Rule::UncheckedSub),
            _ => None,
        }
    }

    /// Every rule, in report order.
    pub const ALL: &'static [Rule] = &[
        Rule::FloatCmp,
        Rule::NoPanic,
        Rule::QuantizeCast,
        Rule::Nondet,
        Rule::Suppression,
        Rule::UncheckedSub,
    ];
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation, including the matched text.
    pub message: String,
}

impl Finding {
    /// Render as the canonical `file:line rule message` text line.
    pub fn render(&self) -> String {
        format!(
            "{}:{} {} {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Which rule families apply to a file. Derived from the workspace path
/// by [`crate::walk::classify`], or constructed directly in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Library code path: `no-panic` applies. False for `src/bin/`,
    /// `main.rs`, and build scripts.
    pub library: bool,
    /// Deterministic core (runtime/sim/server/federation): `nondet` and
    /// `unchecked-sub` apply.
    pub deterministic: bool,
}

/// Result of linting one file: surviving findings plus how many were
/// suppressed by directives.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Findings not covered by a suppression directive.
    pub findings: Vec<Finding>,
    /// Count of findings silenced by a well-formed directive.
    pub suppressed: usize,
}

/// Geometry marker types: a file mentioning any of these is treated as
/// "touching partition or broadcast geometry" and gets the
/// `quantize-cast` rule.
const GEOMETRY_MARKERS: &[&str] = &["QuantizedGeometry", "PartitionWindows", "PyramidGeometry"];

/// Identifiers that, as `.method()` calls, constitute ad-hoc quantization.
const ROUNDING_METHODS: &[&str] = &["floor", "round", "ceil", "trunc"];

/// Lint one file's source text under the given classification, with a
/// symbol index built from the file itself. Fixture tests and
/// single-file CLI runs use this entry: `unchecked-sub` resolves types
/// against the file's own declarations, so a fixture is self-contained.
/// Workspace runs use [`lint_source_indexed`] with the cross-file index
/// instead.
pub fn lint_source(file: &str, src: &str, class: FileClass) -> FileLint {
    let index = WorkspaceIndex::from_sources([src]);
    lint_source_indexed(file, src, class, &index)
}

/// Lint one file against a pre-built (typically workspace-wide) index.
pub fn lint_source_indexed(
    file: &str,
    src: &str,
    class: FileClass,
    index: &WorkspaceIndex,
) -> FileLint {
    let stream = tokenize(src);
    let test_regions = test_regions(&stream.tokens);
    let in_test = |line: u32| test_regions.iter().any(|r| r.0 <= line && line <= r.1);
    let (suppressions, mut findings) = parse_suppressions(file, &stream.comments);

    let geometry = stream
        .tokens
        .iter()
        .any(|t| t.kind == TokKind::Ident && GEOMETRY_MARKERS.contains(&t.text.as_str()));

    rule_float_cmp(file, &stream, &in_test, &mut findings);
    if class.library {
        rule_no_panic(file, &stream, &in_test, &mut findings);
    }
    if geometry {
        rule_quantize_cast(file, &stream, &in_test, &mut findings);
    }
    if class.deterministic {
        rule_nondet(file, &stream, &in_test, &mut findings);
        let parsed = parse_items(&stream.tokens);
        unchecked_sub::check(
            file,
            &stream.tokens,
            &parsed,
            index,
            &in_test,
            &mut findings,
        );
    }

    // A directive trailing a code line covers that line; a standalone
    // directive (possibly a multi-line justification comment) covers the
    // next line that contains code.
    let token_lines: std::collections::BTreeSet<u32> =
        stream.tokens.iter().map(|t| t.line).collect();
    let mut out = FileLint::default();
    for f in findings {
        let covered = suppressions.iter().any(|s| {
            s.rule == f.rule
                && if token_lines.contains(&s.line) {
                    s.line == f.line
                } else {
                    token_lines.range(s.line + 1..).next() == Some(&f.line)
                }
        });
        if covered && f.rule != Rule::Suppression {
            out.suppressed += 1;
        } else {
            out.findings.push(f);
        }
    }
    out.findings.sort_by_key(|a| (a.line, a.rule));
    out
}

/// A parsed, well-formed suppression directive.
struct SuppressionSite {
    line: u32,
    rule: Rule,
}

/// Extract suppression directives from the comment stream. Malformed
/// directives (unknown rule name, missing justification) become findings
/// under [`Rule::Suppression`].
fn parse_suppressions(file: &str, comments: &[Comment]) -> (Vec<SuppressionSite>, Vec<Finding>) {
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    let marker = "vod-lint:";
    for c in comments {
        let Some(pos) = c.text.find(marker) else {
            continue;
        };
        let rest = c.text[pos + marker.len()..].trim_start();
        let Some(inner) = rest.strip_prefix("allow(") else {
            findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: Rule::Suppression,
                message: "directive must be of the form allow(<rule>) <justification>".into(),
            });
            continue;
        };
        let Some(close) = inner.find(')') else {
            findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: Rule::Suppression,
                message: "unclosed allow( in suppression directive".into(),
            });
            continue;
        };
        let names = &inner[..close];
        let justification = inner[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim();
        if justification.len() < 8 {
            findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: Rule::Suppression,
                message: "suppression requires a justification after allow(...)".into(),
            });
            continue;
        }
        for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Rule::from_name(name) {
                Some(rule) => sites.push(SuppressionSite { line: c.line, rule }),
                None => findings.push(Finding {
                    file: file.to_string(),
                    line: c.line,
                    rule: Rule::Suppression,
                    message: format!("unknown rule `{name}` in suppression directive"),
                }),
            }
        }
    }
    (sites, findings)
}

/// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]` items. Rules
/// exempt these regions: test code may compare floats exactly, unwrap,
/// and use ad-hoc arithmetic to cross-check the blessed implementations.
fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_cfg_test = matches_seq(tokens, i, &["#", "[", "cfg", "(", "test", ")", "]"]);
        let is_test_attr = matches_seq(tokens, i, &["#", "[", "test", "]"]);
        if !(is_cfg_test || is_test_attr) {
            i += 1;
            continue;
        }
        let attr_len = if is_cfg_test { 7 } else { 4 };
        // Find the item body: first `{` before any item-terminating `;`.
        let mut j = i + attr_len;
        let mut open = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else {
            i += attr_len;
            continue;
        };
        let mut depth = 0usize;
        let mut k = open;
        let mut end_line = tokens[open].line;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = tokens[k].line;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        regions.push((tokens[i].line, end_line));
        i = k.max(i + attr_len);
    }
    regions
}

fn matches_seq(tokens: &[Token], at: usize, texts: &[&str]) -> bool {
    texts.len() <= tokens.len().saturating_sub(at)
        && texts
            .iter()
            .enumerate()
            .all(|(k, t)| tokens[at + k].text == *t)
}

/// Rule `float-cmp`: `==`/`!=` where an operand is a float literal.
///
/// Token-level heuristic: the token directly left of the operator, or the
/// first token right of it after unary `-`/`(`, is a float literal. This
/// catches the load-bearing cases (`x == 0.0`) without type inference;
/// float-typed variable comparisons are left to clippy's `float_cmp`.
fn rule_float_cmp(
    file: &str,
    s: &TokenStream,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in s.tokens.iter().enumerate() {
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        if in_test(t.line) {
            continue;
        }
        let left_float = i > 0 && s.tokens[i - 1].kind == TokKind::Float;
        let mut j = i + 1;
        while j < s.tokens.len() && matches!(s.tokens[j].text.as_str(), "-" | "(") {
            j += 1;
        }
        let right_float = j < s.tokens.len() && s.tokens[j].kind == TokKind::Float;
        if left_float || right_float {
            let lit = if right_float {
                &s.tokens[j]
            } else {
                &s.tokens[i - 1]
            };
            out.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: Rule::FloatCmp,
                message: format!(
                    "float equality `{} {}` — use the epsilon/exact helpers in vod-dist::approx",
                    t.text, lit.text
                ),
            });
        }
    }
}

/// Rule `no-panic`: panic-family calls in library code. `unwrap`/`expect`
/// must be method calls (`.unwrap()`); `panic`/`todo`/`dbg`/`unimplemented`
/// must be macro invocations (`panic!`). Plain `assert!` is allowed: it
/// states an invariant.
fn rule_no_panic(
    file: &str,
    s: &TokenStream,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in s.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| s.tokens[p].text.as_str());
        let next = s.tokens.get(i + 1).map(|n| n.text.as_str());
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => prev == Some(".") && next == Some("("),
            "panic" | "todo" | "dbg" | "unimplemented" => next == Some("!"),
            _ => false,
        };
        if hit {
            out.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: Rule::NoPanic,
                message: format!(
                    "`{}` in library code — propagate a Result/Option or suppress with justification",
                    t.text
                ),
            });
        }
    }
}

/// Rule `quantize-cast`: in geometry-touching files, rounding must go
/// through `QuantizedGeometry`, not ad-hoc `.floor()`/`.round()` chains
/// or float-to-int `as` casts (the PR 2 double-rounding bug class).
fn rule_quantize_cast(
    file: &str,
    s: &TokenStream,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in s.tokens.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| s.tokens[p].text.as_str());
        let next = s.tokens.get(i + 1).map(|n| n.text.as_str());
        if t.kind == TokKind::Ident
            && ROUNDING_METHODS.contains(&t.text.as_str())
            && prev == Some(".")
            && next == Some("(")
        {
            out.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: Rule::QuantizeCast,
                message: format!(
                    "ad-hoc `.{}()` in geometry code — quantization must go through QuantizedGeometry",
                    t.text
                ),
            });
        }
        if t.kind == TokKind::Ident
            && t.text == "as"
            && i > 0
            && s.tokens[i - 1].kind == TokKind::Float
            && s.tokens.get(i + 1).is_some_and(|n| {
                matches!(
                    n.text.as_str(),
                    "usize" | "u8" | "u16" | "u32" | "u64" | "i32" | "i64" | "isize"
                )
            })
        {
            out.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: Rule::QuantizeCast,
                message: "truncating float-to-int `as` cast in geometry code".into(),
            });
        }
    }
}

/// Rule `nondet`: sources of nondeterminism in the runtime/sim/server
/// deterministic core — wall-clock time, hash-order iteration, thread
/// identity. `BTreeMap`/`BTreeSet` are the sanctioned replacements.
fn rule_nondet(file: &str, s: &TokenStream, in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in s.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        let std_prefixed = i >= 2 && s.tokens[i - 1].text == "::" && s.tokens[i - 2].text == "std";
        let msg = match t.text.as_str() {
            "HashMap" | "HashSet" => Some(format!(
                "`{}` in the deterministic core — iteration order is nondeterministic, use BTreeMap/BTreeSet",
                t.text
            )),
            "Instant" | "SystemTime" => Some(format!("wall-clock `{}` in the deterministic core", t.text)),
            "RandomState" | "DefaultHasher" => Some(format!(
                "`{}` hashes with per-process random state in the deterministic core — use BTree collections or a fixed-key hasher",
                t.text
            )),
            "available_parallelism" => Some(
                "`available_parallelism` varies by machine — the deterministic core must not branch on core count"
                    .into(),
            ),
            "time" if std_prefixed => Some("`std::time` in the deterministic core".into()),
            "thread" if std_prefixed => Some("`std::thread` identity/ordering in the deterministic core".into()),
            "thread_rng" => Some("`thread_rng` is unseeded — deterministic code must take an explicit seed".into()),
            _ => None,
        };
        if let Some(message) = msg {
            out.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: Rule::Nondet,
                message,
            });
        }
    }
}
