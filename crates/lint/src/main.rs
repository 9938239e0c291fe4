//! `vod-lint` CLI: the CI lint gate.
//!
//! ```text
//! vod-lint --workspace [--root DIR] [--json REPORT] [PATH...]
//! ```
//!
//! Exit codes: 0 clean (or all findings suppressed), 1 findings,
//! 2 usage or IO error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use vod_lint::{lint_source, walk, Report};

struct Args {
    workspace: bool,
    root: PathBuf,
    json: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        json: None,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a path")?),
            "--json" => args.json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?)),
            "--help" | "-h" => {
                return Err(
                    "usage: vod-lint --workspace [--root DIR] [--json REPORT] [PATH...]".into(),
                )
            }
            p if !p.starts_with('-') => args.paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if !args.workspace && args.paths.is_empty() {
        return Err("nothing to lint: pass --workspace or explicit paths (try --help)".into());
    }
    Ok(args)
}

fn run() -> Result<Report, String> {
    let args = parse_args()?;
    let mut report = if args.workspace {
        vod_lint::lint_workspace(&args.root)?
    } else {
        Report::default()
    };
    // Explicit paths (files or directories), classified relative to root.
    let mut extra_files = Vec::new();
    for p in &args.paths {
        if p.is_dir() {
            walk::collect_rs(p, &mut extra_files)
                .map_err(|e| format!("walking {}: {e}", p.display()))?;
        } else {
            extra_files.push(p.clone());
        }
    }
    for path in extra_files {
        let label = walk::rel_label(&args.root, &path);
        let src = std::fs::read_to_string(&path).map_err(|e| format!("reading {label}: {e}"))?;
        let lint = lint_source(&label, &src, walk::classify(&label));
        report.findings.extend(lint.findings);
        report.suppressed += lint.suppressed;
        report.files_scanned += 1;
    }
    report.sort();

    if let Some(json_path) = &args.json {
        if let Some(dir) = json_path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        std::fs::write(json_path, report.to_json())
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    }
    Ok(report)
}

fn main() -> ExitCode {
    // Wall time goes to the terminal only: the JSON report is a committed
    // result and must regenerate byte for byte.
    let started = Instant::now();
    match run() {
        Ok(report) => {
            for f in &report.findings {
                println!("{}", f.render());
            }
            // Per-rule summary table (the report's `rule_counts`).
            eprintln!("vod-lint: rule                  findings");
            for (name, count) in report.rule_counts() {
                eprintln!("vod-lint:   {name:<20} {count:>8}");
            }
            eprintln!(
                "vod-lint: {} file(s), {} finding(s), {} suppressed, {} ms",
                report.files_scanned,
                report.findings.len(),
                report.suppressed,
                started.elapsed().as_millis()
            );
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("vod-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
