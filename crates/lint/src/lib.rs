//! `vod-lint` — workspace invariant checker for the VOD reproduction.
//!
//! A dependency-free static-analysis pass (hand-rolled tokenizer, no
//! `syn`) that walks the first-party crate sources and enforces the
//! domain invariants that `rustc`, the configured clippy wall and the
//! test suite do not. Five token-level rules run per line; one semantic
//! rule runs over a lightweight parse layer ([`parse`]), a workspace
//! symbol index ([`index`]) and intra-procedural use-def facts
//! ([`dataflow`]). A rule stays in the catalog only while there is an
//! edit to the tree that it alone flags (DESIGN.md §9 names one per
//! rule, and what replaced the four families that had none):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `float-cmp` | no `==`/`!=` with float-literal operands outside `#[cfg(test)]` — use the `vod_dist::approx` helpers (clippy's `float_cmp` exempts zero and infinity) |
//! | `no-panic` | no `unwrap`/`expect`/`panic!`/`todo!`/`dbg!` in library code paths (the clippy wall denies `unwrap_used` only) |
//! | `quantize-cast` | no ad-hoc `floor`/`round`/`ceil`/`trunc` or float→int `as` casts in files touching partition geometry — quantization goes through `QuantizedGeometry` |
//! | `nondet` | no `std::time`, `HashMap`/`HashSet`, `RandomState`/`DefaultHasher`, `available_parallelism`, or thread-identity sources in the runtime/sim/server/federation deterministic core |
//! | `suppression` | every inline suppression names a known rule and carries a justification |
//! | `unchecked-sub` | no unguarded `a - b` on unsigned integers in the deterministic core — guard with `>=`, or use `saturating_sub`/`checked_sub` (PR 6 class) |
//!
//! Findings print as `file:line rule message`, a machine-readable JSON
//! report (schema v4: per-rule counts, no clock reading — the file
//! regenerates byte for byte) is written with `--json`, and the binary
//! exits nonzero on any unsuppressed finding. The CI gate requires
//! exactly zero findings.
//! Suppress a single site with a comment on (or directly above) the
//! offending line:
//!
//! ```text
//! // vod-lint: allow(quantize-cast) — this IS the blessed rounding site
//! ```
//!
//! See DESIGN.md §9 (rule catalog and suppression policy) and §14 (the
//! parse / index / dataflow layers under `unchecked-sub`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
/// index (struct field types, method return types) from every file, the
/// second runs the rules against it — so `unchecked-sub` types
/// `core.disk.failed()` in one file through declarations in two others.
/// IO errors carry the offending path.
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
