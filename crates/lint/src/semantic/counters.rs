//! Rule `counter-conservation`: paired-counter mutations must stay
//! paired, and counter-mutating files must carry an audit (the PR 8
//! `reserve.failed != disk.failed` fail-before-release class).
//!
//! Three paired groups, each checked per fn body:
//!
//! 1. **reserve/disk stream parity** — a `reserve.fail_streams(..)` (or
//!    `recover_streams`) call must be paired with the disk-side call of
//!    the same name in the same fn, so the two failure ledgers move
//!    together. Files that never reference `DiskSubsystem` (the sim
//!    mirrors the reserve without a disk model) are exempt.
//! 2. **degraded population** — `metrics.runtime.degraded_entries += ..`
//!    must be accompanied by a mutation of the live population counter
//!    (`ServerCore::degraded_count`, the one every backend shares) in the
//!    same fn; the per-tick audits compare the two.
//! 3. **fault attribution** — `faults_injected += ..` may only happen in
//!    a fn that actually handles `FaultKind` events.
//!
//! Mirror merges (`x.degraded_entries += y.degraded_entries`, as in
//! `RuntimeMetrics` aggregation) conserve by construction and are
//! exempt. Any file with a non-exempt mutation site must also define or
//! call `check_invariants` — the audited scope the ledgers are checked
//! under.

use crate::dataflow::operand_ending_at;
use crate::parse::{FnDef, ParsedFile};
use crate::rules::{Finding, Rule};
use crate::tokenizer::{TokKind, Token};

/// Stream-ledger methods whose reserve/disk sides must move together.
const PAIRED_STREAM_METHODS: &[&str] = &["fail_streams", "recover_streams"];

/// The live-population counter that mirrors `degraded_entries`.
const POPULATION_COUNTERS: &[&str] = &["degraded_count"];

/// Run the rule over every fn body in the file.
pub fn check(
    file: &str,
    tokens: &[Token],
    parsed: &ParsedFile,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let file_has_disk = tokens
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "DiskSubsystem");
    let file_has_audit = tokens
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "check_invariants");
    let mut first_mutation: Option<u32> = None;

    for fndef in &parsed.fns {
        let (start, end) = fndef.body;
        if start >= end {
            continue;
        }
        let body = &tokens[start..end.min(tokens.len())];
        check_stream_parity(
            file,
            tokens,
            fndef,
            file_has_disk,
            in_test,
            &mut first_mutation,
            out,
        );
        check_population(file, body, in_test, &mut first_mutation, out);
        check_fault_attribution(file, body, in_test, &mut first_mutation, out);
    }

    if let Some(line) = first_mutation {
        if !file_has_audit {
            out.push(Finding {
                file: file.to_string(),
                line,
                rule: Rule::CounterConservation,
                message:
                    "file mutates conserved counters but never defines or calls `check_invariants` — every ledger mutation must be reachable from an audit"
                        .into(),
            });
        }
    }
}

/// Group 1: reserve-side stream calls need a disk-side twin in the fn.
fn check_stream_parity(
    file: &str,
    tokens: &[Token],
    fndef: &FnDef,
    file_has_disk: bool,
    in_test: &dyn Fn(u32) -> bool,
    first_mutation: &mut Option<u32>,
    out: &mut Vec<Finding>,
) {
    let (start, end) = fndef.body;
    let end = end.min(tokens.len());
    for method in PAIRED_STREAM_METHODS {
        let mut reserve_line: Option<u32> = None;
        let mut disk_seen = false;
        for i in start..end {
            let t = &tokens[i];
            if t.kind != TokKind::Ident || t.text != *method || in_test(t.line) {
                continue;
            }
            // Must be a method call: `.method(`.
            if i == 0
                || tokens[i - 1].text != "."
                || tokens.get(i + 1).is_none_or(|n| n.text != "(")
            {
                continue;
            }
            let Some(recv) = operand_ending_at(tokens, i - 1) else {
                continue;
            };
            let recv_text: String = tokens[recv.0..recv.1]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            if recv_text.contains("reserve") {
                reserve_line.get_or_insert(t.line);
            } else if recv_text.contains("disk") {
                disk_seen = true;
            }
        }
        if let Some(line) = reserve_line {
            if first_mutation.is_none() {
                *first_mutation = Some(line);
            }
            if file_has_disk && !disk_seen {
                out.push(Finding {
                    file: file.to_string(),
                    line,
                    rule: Rule::CounterConservation,
                    message: format!(
                        "`reserve.{method}` without the paired disk-side `{method}` in the same fn — reserve and disk failure ledgers must move together (PR 8 parity class)"
                    ),
                });
            }
        }
    }
}

/// Group 2: `degraded_entries +=` needs a population-counter mutation.
fn check_population(
    file: &str,
    body: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    first_mutation: &mut Option<u32>,
    out: &mut Vec<Finding>,
) {
    let population_mutated = body.windows(2).any(|w| {
        w[0].kind == TokKind::Ident
            && POPULATION_COUNTERS.contains(&w[0].text.as_str())
            && matches!(w[1].text.as_str(), "+=" | "-=" | "=")
    });
    for (k, w) in body.windows(2).enumerate() {
        if w[0].kind != TokKind::Ident
            || w[0].text != "degraded_entries"
            || w[1].text != "+="
            || in_test(w[0].line)
        {
            continue;
        }
        // Mirror merge: `a.degraded_entries += b.degraded_entries`.
        if body
            .get(k + 2..)
            .is_some_and(|rest| rest.iter().take(4).any(|t| t.text == "degraded_entries"))
        {
            continue;
        }
        if first_mutation.is_none() {
            *first_mutation = Some(w[0].line);
        }
        if !population_mutated {
            out.push(Finding {
                file: file.to_string(),
                line: w[0].line,
                rule: Rule::CounterConservation,
                message:
                    "`degraded_entries` incremented without mutating the live population counter (degraded_count) in the same fn — the per-tick audit compares the two"
                        .into(),
            });
        }
    }
}

/// Group 3: `faults_injected +=` only inside `FaultKind` handlers.
fn check_fault_attribution(
    file: &str,
    body: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    first_mutation: &mut Option<u32>,
    out: &mut Vec<Finding>,
) {
    let handles_faults = body
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "FaultKind");
    for (k, w) in body.windows(2).enumerate() {
        if w[0].kind != TokKind::Ident
            || w[0].text != "faults_injected"
            || w[1].text != "+="
            || in_test(w[0].line)
        {
            continue;
        }
        if body
            .get(k + 2..)
            .is_some_and(|rest| rest.iter().take(4).any(|t| t.text == "faults_injected"))
        {
            continue;
        }
        if first_mutation.is_none() {
            *first_mutation = Some(w[0].line);
        }
        if !handles_faults {
            out.push(Finding {
                file: file.to_string(),
                line: w[0].line,
                rule: Rule::CounterConservation,
                message:
                    "`faults_injected` incremented in a fn that handles no `FaultKind` — fault attribution must happen at the injection site"
                        .into(),
            });
        }
    }
}
