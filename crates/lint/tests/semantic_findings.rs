//! Fixture-driven tests for the semantic rule `unchecked-sub`, plus
//! mutation probes: each probe edits a guarded fixture the way a
//! regressing patch would (drop an assert, drop a `.min` clamp) and
//! asserts the rule starts firing. That is the property the workspace
//! gate rests on — `findings == 0` only means something if removing a
//! guard is visible.

#![allow(clippy::unwrap_used)]

use vod_lint::{lint_source, FileClass, Finding, Rule};

/// The classification under which the semantic rule runs.
fn det() -> FileClass {
    FileClass {
        deterministic: true,
        ..FileClass::default()
    }
}

/// Parse the `LINT: <rule> [<rule>...]` markers out of a fixture.
fn expected_markers(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(rest) = line.split("LINT:").nth(1) {
            for rule in rest.split_whitespace() {
                out.push((i as u32 + 1, rule.to_string()));
            }
        }
    }
    out
}

fn as_pairs(findings: &[Finding]) -> Vec<(u32, String)> {
    findings
        .iter()
        .map(|f| (f.line, f.rule.name().to_string()))
        .collect()
}

fn check_fixture(name: &str, src: &str) -> vod_lint::FileLint {
    let lint = lint_source(name, src, det());
    assert_eq!(
        as_pairs(&lint.findings),
        expected_markers(src),
        "fixture {name}: findings do not match the LINT markers"
    );
    lint
}

const UNCHECKED_SUB: &str = include_str!("fixtures/unchecked_sub.rs");

#[test]
fn unchecked_sub_matches_markers() {
    let lint = check_fixture("fixtures/unchecked_sub.rs", UNCHECKED_SUB);
    assert_eq!(lint.findings.len(), 2);
    assert!(lint.findings.iter().all(|f| f.rule == Rule::UncheckedSub));
    // The directive-covered `self.failed - tail` site.
    assert_eq!(lint.suppressed, 1);
}

#[test]
fn removing_the_assert_guard_makes_unchecked_sub_fire() {
    let mutated = UNCHECKED_SUB.replace("debug_assert!(self.budget > 0);", "");
    let lint = lint_source("fixtures/unchecked_sub.rs", &mutated, det());
    assert_eq!(
        lint.findings
            .iter()
            .filter(|f| f.rule == Rule::UncheckedSub)
            .count(),
        3,
        "dropping the debug_assert must unguard `self.budget -= 1`"
    );
    assert!(lint
        .findings
        .iter()
        .any(|f| f.message.contains("self.budget -= 1")));
}

#[test]
fn removing_the_min_clamp_makes_unchecked_sub_fire() {
    let mutated = UNCHECKED_SUB.replace("count.min(self.failed)", "count");
    let lint = lint_source("fixtures/unchecked_sub.rs", &mutated, det());
    assert_eq!(
        lint.findings
            .iter()
            .filter(|f| f.rule == Rule::UncheckedSub)
            .count(),
        3,
        "dropping the .min clamp must unguard `self.failed -= recovered`"
    );
}

#[test]
fn clean_fixture_survives_the_semantic_families() {
    let lint = lint_source(
        "fixtures/clean.rs",
        include_str!("fixtures/clean.rs"),
        FileClass {
            library: true,
            deterministic: true,
        },
    );
    assert!(lint.findings.is_empty(), "unexpected: {:?}", lint.findings);
}
