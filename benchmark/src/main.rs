//! The repo's one yardstick: plan → serve → fail over, end to end and
//! layer by layer. See `README.md` next to this package.
//!
//! ```text
//! vod-benchmark run [--workload NAME] [--seed 42] [--seconds 20]
//!                   [--trace 0|1] [--out PATH] [--smoke]
//! vod-benchmark compare A.json B.json
//! vod-benchmark manifest
//! ```

mod alloc;
mod compare;
mod federation;
mod json;
mod load;
mod machine;
mod metrics;
mod plan;
mod probes;
mod report;
mod ring;
mod run;
mod segment;
mod serve;
mod sizes;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::{obj, Json};
use metrics::{RUN_SECONDS, WORKLOADS};
use run::RunOpts;
use sizes::Sizes;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: vod-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--smoke]
       vod-benchmark compare A.json B.json
       vod-benchmark manifest";

struct RunArgs {
    workloads: Vec<&'static str>,
    /// `Some(false)`: timed pass only; `Some(true)`: traced pass only;
    /// `None`: both, which is what `--out` documents hold.
    trace: Option<bool>,
    out: Option<PathBuf>,
    opts: RunOpts,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: WORKLOADS.iter().map(|w| w.0).collect(),
        trace: None,
        out: None,
        opts: RunOpts {
            seed: 42,
            seconds: RUN_SECONDS as f64,
            sizes: Sizes::frozen(),
            trace_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            run.opts.sizes = Sizes::smoke();
            continue;
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| w.0 == value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                    format!("unknown workload `{value}` (known: {})", names.join(", "))
                })?;
                run.workloads = vec![known.0];
            }
            "--seed" => run.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                run.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => run.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    // A smoke run is one repetition unless told otherwise.
    run.opts.seconds = seconds.unwrap_or(if run.opts.sizes.smoke {
        0.0
    } else {
        run.opts.seconds
    });
    Ok(run)
}

/// Run the selected passes of the selected workloads. Nothing is printed
/// until every pass has cleared the correctness gate.
fn run(args: &RunArgs) -> Result<String, String> {
    let mut text = String::new();
    let mut last_line = String::new();
    let mut workloads_doc = Vec::new();
    for &workload in &args.workloads {
        let mut entry = Vec::new();
        if args.trace != Some(true) {
            let pass = run::timed_pass(workload, &args.opts)?;
            let rendered = report::render_timed(workload, &pass);
            text.push_str(&rendered.text);
            entry.extend(rendered.doc);
            last_line = rendered.result_line;
        }
        if args.trace != Some(false) {
            let pass = run::traced_pass(workload, &args.opts)?;
            let rendered = report::render_traced(workload, &pass);
            text.push_str(&rendered.text);
            entry.extend(rendered.doc);
            if args.trace == Some(true) {
                last_line = rendered.result_line;
            }
        }
        workloads_doc.push((workload, obj(entry)));
    }
    if let Some(path) = &args.out {
        let doc = obj([
            ("schema", Json::from(1u64)),
            ("machine", machine::provenance()),
            ("seed", Json::from(args.opts.seed)),
            ("seconds", Json::from(args.opts.seconds)),
            ("sizes", args.opts.sizes.to_json()),
            ("workloads", obj(workloads_doc)),
        ]);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        text.push_str(&format!("wrote {}\n", path.display()));
    }
    // The harness reads the last line of standard output.
    text.push_str(&last_line);
    text.push('\n');
    Ok(text)
}

fn read_doc(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..])
            .and_then(|a| run(&a))
            .map(|text| (text, true)),
        Some("compare") if args.len() == 3 => read_doc(&args[1])
            .and_then(|a| Ok((a, read_doc(&args[2])?)))
            .and_then(|(a, b)| compare::compare(&a, &b)),
        Some("manifest") if args.len() == 1 => Ok((metrics::manifest().pretty(), true)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok((text, ok)) => {
            print!("{text}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("vod-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_in_the_harness_form() {
        let a = parse_run(&args(&[
            "--workload",
            "serve-storm",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workloads, vec!["serve-storm"]);
        assert_eq!(
            (a.opts.seed, a.opts.seconds, a.trace),
            (7, 20.0, Some(true))
        );
        assert!(!a.opts.sizes.smoke);
        let all = parse_run(&args(&["--smoke"])).unwrap();
        assert_eq!(all.workloads.len(), 4);
        assert_eq!((all.opts.seconds, all.trace), (0.0, None));
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seed"],
            &["--bogus", "1"],
        ] {
            assert!(parse_run(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    /// `run --smoke` drives all four workloads through both passes, and
    /// each pass emits exactly the metrics the registry (and therefore
    /// `BENCHMARK.json`) names.
    #[test]
    fn smoke_run_emits_every_registered_metric_and_nothing_else() {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/selftest"));
        let out = dir.join("BENCH_smoke.json");
        let mut a = parse_run(&args(&["--smoke", "--out", out.to_str().unwrap()])).unwrap();
        a.opts.trace_dir = dir.clone();
        let t0 = std::time::Instant::now();
        let text = run(&a).expect("the smoke run clears the gate");
        assert!(
            t0.elapsed().as_secs_f64() < 10.0,
            "smoke run took {:?}",
            t0.elapsed()
        );

        let doc =
            json::parse(&std::fs::read_to_string(&out).unwrap()).expect("well-formed document");
        let names = |defs: Vec<metrics::MetricDef>| -> Vec<String> {
            defs.into_iter().map(|d| d.name).collect()
        };
        let keys =
            |j: &Json| -> Vec<String> { j.as_obj().iter().map(|(k, _)| k.clone()).collect() };
        let workloads = doc.get("workloads").unwrap();
        assert_eq!(
            keys(workloads),
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        );
        for (workload, entry) in workloads.as_obj() {
            assert_eq!(
                keys(entry.get("end_to_end").unwrap()),
                names(metrics::end_to_end()),
                "{workload}"
            );
            assert_eq!(
                keys(entry.get("per_layer").unwrap()),
                names(metrics::per_layer()),
                "{workload}"
            );
            for (name, metric) in entry.get("end_to_end").unwrap().as_obj() {
                let value = metric.get("value").and_then(Json::as_f64).unwrap();
                assert!(
                    value > 0.0,
                    "{workload}: end-to-end metric {name} is {value}"
                );
            }
            let file = dir.join(format!("trace-{workload}.jsonl"));
            let trace = std::fs::read_to_string(&file).unwrap();
            assert!(trace.lines().count() > 3);
            for line in trace.lines() {
                let span = json::parse(line).expect("each trace line is one JSON object");
                assert!(
                    span.get("end_ns").unwrap().as_f64() >= span.get("start_ns").unwrap().as_f64()
                );
            }
        }
        for key in [
            "nproc",
            "cpu_model",
            "kernel",
            "rustc",
            "git_commit",
            "git_dirty",
        ] {
            assert!(
                doc.get("machine").unwrap().get(key).is_some(),
                "machine.{key}"
            );
        }

        // The last line is the harness's result object, and a document
        // compares clean against itself.
        let last = json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert!(last.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let (table, ok) = compare::compare(&doc, &doc).unwrap();
        assert!(
            ok && table.contains("0 worse, 0 unresolved, 0 exact values differ"),
            "{table}"
        );
    }

    /// Same seed ⇒ same digests, another seed ⇒ other inputs.
    #[test]
    fn digests_repeat_per_seed() {
        let sizes = Sizes::smoke();
        let digest = |seed| {
            let work = run::Work::new("serve-storm", &sizes, seed);
            report::stats_digest(&work.rep(seed, &mut trace::Tracer::new(false), None))
        };
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
    }
}
