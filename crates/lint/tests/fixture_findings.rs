//! Fixture-driven tests for the `vod-lint` rule engine.
//!
//! Each known-bad fixture under `tests/fixtures/` marks every line the
//! engine must flag with a trailing `LINT: <rule>` comment (one rule name
//! per expected finding; repeat the name for multiple findings on one
//! line). The harness compares the engine's `(line, rule)` output against
//! those markers exactly, so a rule that over- or under-fires fails the
//! test with a precise diff. Suppression-directive behaviour and the
//! JSON shape are asserted by hand.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use vod_lint::walk::classify;
use vod_lint::{lint_source, report, FileClass, Finding, Report, Rule};

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

fn check_fixture(name: &str, src: &str, class: FileClass) -> vod_lint::FileLint {
    let lint = lint_source(name, src, class);
    assert_eq!(
        as_pairs(&lint.findings),
        expected_markers(src),
        "fixture {name}: findings do not match the LINT markers"
    );
    lint
}

#[test]
fn clean_fixture_has_no_findings() {
    let lint = lint_source(
        "fixtures/clean.rs",
        include_str!("fixtures/clean.rs"),
        FileClass {
            library: true,
            deterministic: true,
        },
    );
    assert!(lint.findings.is_empty(), "unexpected: {:?}", lint.findings);
    assert_eq!(lint.suppressed, 0);
}

#[test]
fn float_cmp_flags_literal_comparisons_outside_tests() {
    let lint = check_fixture(
        "fixtures/float_cmp.rs",
        include_str!("fixtures/float_cmp.rs"),
        FileClass::default(),
    );
    assert_eq!(lint.findings.len(), 3);
    assert!(lint.findings.iter().all(|f| f.rule == Rule::FloatCmp));
}

#[test]
fn no_panic_flags_panic_family_but_not_asserts() {
    let lint = check_fixture(
        "fixtures/no_panic.rs",
        include_str!("fixtures/no_panic.rs"),
        FileClass {
            library: true,
            ..FileClass::default()
        },
    );
    assert_eq!(lint.findings.len(), 5);
}

#[test]
fn no_panic_is_off_for_binary_targets() {
    let lint = lint_source(
        "fixtures/no_panic.rs",
        include_str!("fixtures/no_panic.rs"),
        FileClass::default(), // library = false, as for src/bin/ files
    );
    assert!(lint.findings.is_empty());
}

#[test]
fn quantize_cast_fires_only_in_geometry_files() {
    let lint = check_fixture(
        "fixtures/quantize.rs",
        include_str!("fixtures/quantize.rs"),
        FileClass::default(),
    );
    assert_eq!(lint.findings.len(), 3);
    // The blessed `.round()` site carries a directive and is suppressed.
    assert_eq!(lint.suppressed, 1);

    // Identical code without the marker type never enters the rule.
    let stripped = include_str!("fixtures/quantize.rs").replace("QuantizedGeometry", "Plain");
    let lint = lint_source("fixtures/quantize.rs", &stripped, FileClass::default());
    assert!(lint.findings.is_empty());
}

#[test]
fn nondet_flags_clocks_hashes_and_thread_identity() {
    let lint = check_fixture(
        "fixtures/nondet.rs",
        include_str!("fixtures/nondet.rs"),
        FileClass {
            deterministic: true,
            ..FileClass::default()
        },
    );
    assert_eq!(lint.findings.len(), 10);

    // Outside the deterministic core the same file is unconstrained.
    let lint = lint_source(
        "fixtures/nondet.rs",
        include_str!("fixtures/nondet.rs"),
        FileClass::default(),
    );
    assert!(lint.findings.is_empty());
}

#[test]
fn suppression_directives_cover_and_misfire_as_specified() {
    let lint = lint_source(
        "fixtures/suppressions.rs",
        include_str!("fixtures/suppressions.rs"),
        FileClass {
            library: true,
            ..FileClass::default()
        },
    );
    // Standalone + trailing well-formed directives each silence one site.
    assert_eq!(lint.suppressed, 2);
    // Three malformed directives report under `suppression`; the two
    // no-panic sites they failed to cover survive.
    let suppression_msgs: Vec<&str> = lint
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Suppression)
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(suppression_msgs.len(), 3, "{suppression_msgs:?}");
    assert!(suppression_msgs
        .iter()
        .any(|m| m.contains("unknown rule `bogus-rule`")));
    assert!(suppression_msgs
        .iter()
        .any(|m| m.contains("requires a justification")));
    assert!(suppression_msgs
        .iter()
        .any(|m| m.contains("must be of the form")));
    assert_eq!(
        lint.findings
            .iter()
            .filter(|f| f.rule == Rule::NoPanic)
            .count(),
        2
    );
}

#[test]
fn findings_render_as_file_line_rule_message() {
    let lint = lint_source(
        "fixtures/float_cmp.rs",
        include_str!("fixtures/float_cmp.rs"),
        FileClass::default(),
    );
    let first = &lint.findings[0];
    let rendered = first.render();
    assert!(
        rendered.starts_with(&format!("fixtures/float_cmp.rs:{} float-cmp ", first.line)),
        "unexpected render: {rendered}"
    );
}

#[test]
fn json_report_shape_round_trips_through_baseline() {
    let lint = lint_source(
        "fixtures/no_panic.rs",
        include_str!("fixtures/no_panic.rs"),
        FileClass {
            library: true,
            ..FileClass::default()
        },
    );
    let mut rep = Report {
        findings: lint.findings.clone(),
        suppressed: lint.suppressed,
        files_scanned: 1,
    };
    rep.sort();
    let json = rep.to_json();
    assert!(json.contains("\"version\": 4"));
    // Nothing read from a clock: the committed report is under `cmp`.
    assert!(!json.contains("wall_time_ms"));
    assert!(json.contains("\"files_scanned\": 1"));
    assert!(json.contains("\"rule\": \"no-panic\""));
    // Per-rule counts over the full catalog, zeroes included: exactly
    // the six rules, in report order.
    let counts = format!(
        "\"rule_counts\": {{\n    \"float-cmp\": 0,\n    \"no-panic\": {},\n    \
         \"quantize-cast\": 0,\n    \"nondet\": 0,\n    \"suppression\": 0,\n    \
         \"unchecked-sub\": 0\n  }}",
        rep.findings.len()
    );
    assert!(json.contains(&counts), "{json}");
    // One finding object per line, carrying all four keys.
    let obj_lines: Vec<&str> = json
        .lines()
        .filter(|l| l.trim_start().starts_with('{') && l.contains("\"file\""))
        .collect();
    assert_eq!(obj_lines.len(), rep.findings.len());
    for l in &obj_lines {
        for key in ["\"file\"", "\"line\"", "\"rule\"", "\"message\""] {
            assert!(l.contains(key), "missing {key} in {l}");
        }
    }
}

#[test]
fn classify_maps_paths_to_rule_families() {
    let c = classify("crates/sim/src/engine.rs");
    assert!(c.library && c.deterministic);

    let c = classify("crates/dist/src/special.rs");
    assert!(c.library && !c.deterministic);

    let c = classify("crates/bench/src/bin/fig7.rs");
    assert!(!c.library);

    let c = classify("src/main.rs");
    assert!(!c.library);

    let c = classify("src/cli.rs");
    assert!(c.library && !c.deterministic);
}

#[test]
fn rule_names_round_trip() {
    assert_eq!(
        report::rule_names(),
        [
            "float-cmp",
            "no-panic",
            "quantize-cast",
            "nondet",
            "suppression",
            "unchecked-sub"
        ]
    );
    for name in report::rule_names() {
        let rule = Rule::from_name(name).unwrap();
        assert_eq!(rule.name(), name);
    }
    assert!(Rule::from_name("not-a-rule").is_none());
}

#[test]
fn merged_workspace_tree_lints_clean() {
    // CARGO_MANIFEST_DIR = crates/lint; the workspace root is two up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let rep = vod_lint::lint_workspace(&root).unwrap();
    assert!(
        rep.findings.is_empty(),
        "workspace must lint clean:\n{}",
        rep.findings
            .iter()
            .map(Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        rep.files_scanned > 50,
        "walk found too few files: {}",
        rep.files_scanned
    );
    // The committed report is this run, byte for byte (ci.sh `cmp`s the
    // binary's own output too; this is the tier-1 half of that gate).
    assert_eq!(
        rep.to_json(),
        std::fs::read_to_string(root.join("results/LINT_REPORT.json")).unwrap(),
        "results/LINT_REPORT.json is stale — regenerate it with \
         `cargo run -p vod-lint --release -- --workspace --json results/LINT_REPORT.json`"
    );
}
