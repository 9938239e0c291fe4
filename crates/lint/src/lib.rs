//! `vod-lint` — workspace semantic analyzer for the VOD reproduction.
//!
//! A dependency-free static-analysis pass (hand-rolled tokenizer, no
//! `syn`) that walks the first-party crate sources and enforces the
//! domain invariants the test suite can only probabilistically catch.
//! Six token-level rules (v1) run per line; four semantic families (v2)
//! run over a lightweight parse layer ([`parse`]), a workspace symbol
//! index ([`index`]), and intra-procedural use-def facts ([`dataflow`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `float-cmp` | no `==`/`!=` with float-literal operands outside `#[cfg(test)]` — use the `vod_dist::approx` helpers |
//! | `no-panic` | no `unwrap`/`expect`/`panic!`/`todo!`/`dbg!` in library code paths |
//! | `quantize-cast` | no ad-hoc `floor`/`round`/`ceil`/`trunc` or float→int `as` casts in files touching partition geometry — quantization goes through `QuantizedGeometry` |
//! | `nondet` | no `std::time`, `HashMap`/`HashSet`, `RandomState`/`DefaultHasher`, `available_parallelism`, or thread-identity sources in the runtime/sim/server deterministic core |
//! | `pub-fn-doc` | every `pub fn` in `vod-dist`/`vod-runtime`/`vod-lint` carries a doc comment |
//! | `suppression` | every inline suppression names a known rule and carries a justification |
//! | `unchecked-sub` | no unguarded `a - b` on unsigned integers in the deterministic core — guard with `>=`, or use `saturating_sub`/`checked_sub` (PR 6 class) |
//! | `counter-conservation` | paired ledgers (`reserve`/`disk` stream failures, `degraded_entries`/population, `faults_injected`) mutate together, in files with a `check_invariants` audit (PR 8 class) |
//! | `fault-exhaustive` | every `FaultKind`/`BackendKind` variant handled in each fault handler and dispatch file; no `_` wildcard over those enums (PR 5/8 class) |
//! | `time-domain` | no tick/minute/segment cross-domain arithmetic without explicit conversion (PR 2 class) |
//!
//! Findings print as `file:line rule message`, a machine-readable JSON
//! report (schema v3: per-rule counts + analyzer wall time) is written
//! with `--json`, and the binary exits nonzero on any unsuppressed
//! finding. The CI gate requires exactly zero findings.
//! Suppress a single site with a comment on (or directly above) the
//! offending line:
//!
//! ```text
//! // vod-lint: allow(quantize-cast) — this IS the blessed rounding site
//! ```
//!
//! See DESIGN.md §9 (token rules) and §14 (semantic rule catalog v2)
//! for the rationale and suppression policy.

#![forbid(unsafe_code)]

pub mod dataflow;
pub mod index;
pub mod parse;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod tokenizer;
pub mod walk;

pub use index::WorkspaceIndex;
pub use report::Report;
pub use rules::{lint_source, lint_source_indexed, FileClass, FileLint, Finding, Rule};

use std::path::Path;

/// Lint every first-party file under `root`, returning the aggregated
/// (sorted) report. Two passes: the first builds the workspace symbol
/// index (enum variant sets, struct field types, method return types)
/// from every file, the second runs the rules against it — so the
/// semantic rules see cross-file facts, e.g. a `FaultKind` variant
/// added in `vod-runtime` widens the exhaustiveness requirement on
/// every backend. IO errors carry the offending path.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let files =
        walk::workspace_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let label = walk::rel_label(root, path);
        let src = std::fs::read_to_string(path).map_err(|e| format!("reading {label}: {e}"))?;
        sources.push((label, src));
    }
    let index = WorkspaceIndex::from_sources(sources.iter().map(|(_, s)| s.as_str()));
    let mut report = Report::default();
    for (label, src) in &sources {
        let lint = lint_source_indexed(label, src, walk::classify(label), &index);
        report.findings.extend(lint.findings);
        report.suppressed += lint.suppressed;
        report.files_scanned += 1;
    }
    report.sort();
    Ok(report)
}
