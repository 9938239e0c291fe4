//! Seeded mutation fuzz over the places text from outside the program
//! enters it: the JSON reader (`vod_runtime::json::parse`, behind `scale
//! --previous`) and `FaultPlan::from_json` on top of it, the trace-CSV
//! reader and `vodplan`'s `parse_args` (and, for hostile numbers, `run`).
//! Each case takes a *valid* input, applies a few byte-level mutations
//! (overwrite, bit flip, delete, insert, truncate, splice an over-long
//! number, raise a number to `u64::MAX`) and requires an answer — `Err`, or an `Ok` that holds exactly what the text
//! said — never a panic and never a counter that wrapped on the way in.
//! A fault plan that parses is also armed and run: what was read must not
//! panic or break conservation where it is used, either.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use rand::RngCore;

use vod_federation::{
    run_federation, FederationConfig, FederationHarnessConfig, ShardSpec, WorkloadShape,
};
use vod_prealloc::cli::{parse_args, run};
use vod_prealloc::dist::rng::seeded;
use vod_prealloc::runtime::json::{self, Json};
use vod_prealloc::runtime::{BackendKind, DegradePolicy, FaultPlan, RuntimeMetrics};
use vod_prealloc::server::{
    run_backend, HarnessConfig, HostedMovie, MovieId, ServerConfig, Workload,
};
use vod_prealloc::workload::{
    read_csv, write_csv, BehaviorModel, TraceError, VcrKind, VcrTraceRecord,
};

/// One to three seeded byte-level mutations of `input`.
fn mutate(input: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = seeded(seed);
    let mut out = input.to_vec();
    for _ in 0..1 + rng.next_u64() % 3 {
        let at = (rng.next_u64() % (out.len() as u64 + 1)) as usize;
        let byte = rng.next_u64() as u8;
        match rng.next_u64() % 7 {
            0 if at < out.len() => out[at] = byte,
            1 if at < out.len() => out[at] ^= 1 << (byte % 8),
            2 if at < out.len() => drop(out.remove(at)),
            3 => out.insert(at, byte),
            4 => out.truncate(at),
            // 2^64 + 4: a parser that wraps reads it as 4.
            5 => drop(out.splice(at..at, *b"18446744073709551620")),
            // The first number from `at` on becomes `u64::MAX`: the parser
            // must take it where the field is that wide, and so must
            // whatever adds to the field afterwards.
            _ => {
                let digit = |b: &&u8| b.is_ascii_digit();
                let start = at + out[at..].iter().take_while(|b| !digit(b)).count();
                let end = start + out[start..].iter().take_while(digit).count();
                drop(out.splice(start..end, *b"18446744073709551615"));
            }
        }
    }
    out
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Does every run of ASCII digits in `text` spell a number a `u64` holds?
fn numbers_fit_u64(text: &str) -> bool {
    text.split(|c: char| !c.is_ascii_digit())
        .all(|run| run.is_empty() || run.parse::<u64>().is_ok())
}

fn trace() -> Vec<u8> {
    let records: Vec<VcrTraceRecord> = (0..12u32)
        .map(|i| VcrTraceRecord {
            issued_at: 3.25 * f64::from(i),
            position: 1.5 * f64::from(i % 7),
            kind: [VcrKind::FastForward, VcrKind::Rewind, VcrKind::Pause][i as usize % 3],
            magnitude: 0.5 + f64::from(i),
            hit: i % 2 == 0,
        })
        .collect();
    let mut csv = Vec::new();
    write_csv(&mut csv, &records).unwrap();
    csv
}

fn vodplan_args() -> Vec<String> {
    [
        "--movie",
        "a;l=60;w=1;p=0.5;dist=exp:mean=5",
        "--movie",
        "b;l=90;w=1.5;p=0.5;dist=gamma:shape=2,scale=4;mix=0.2,0.2,0.6",
        "--streams",
        "80",
        "--buffer",
        "200",
        "--phi",
        "10.7",
        "--vcr-rate",
        "1.5",
        "--denial",
        "0.02",
        "--threads",
        "2",
    ]
    .map(String::from)
    .to_vec()
}

/// Ticks an armed plan is run for, and the horizon it is generated over.
const ARMED_TICKS: u64 = 40;

/// One 120-minute movie on 20 streams and a 100-minute buffer, VCR reserve 40.
fn small_server() -> ServerConfig {
    let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
    ServerConfig::provisioned(vec![movie], 40)
}

/// The paper's viewer arriving every two minutes for `movie`, all
/// [`ARMED_TICKS`] measured.
fn armed_workload<M>(movie: M) -> Workload<M> {
    Workload {
        behavior: BehaviorModel::paper_fig7d(),
        mean_interarrival: 2.0,
        warmup: 0,
        measure: ARMED_TICKS,
        movies: vec![movie],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// A mutated plan is refused, or parses to a plan its own JSON gives
    /// back; an integer no `u64` holds is always refused.
    #[test]
    fn fault_plan_json_survives_mutation(plan_seed in 0u64..64, seed in 0u64..u64::MAX) {
        let valid = FaultPlan::generate_federation(plan_seed, 1440, 14, 4).to_json();
        let text = lossy(&mutate(valid.as_bytes(), seed));
        match FaultPlan::from_json(&text) {
            Err(_) => {}
            Ok(plan) => {
                prop_assert!(numbers_fit_u64(&text), "overflow accepted: {}", text);
                prop_assert_eq!(FaultPlan::from_json(&plan.to_json()), Ok(plan));
            }
        }
    }

    /// A mutated report is refused at an offset inside it, or reads as a
    /// document that its own rendering gives back.
    #[test]
    fn json_report_survives_mutation(plan_seed in 0u64..64, seed in 0u64..u64::MAX) {
        let plan = FaultPlan::generate_federation(plan_seed, 1440, 14, 4).json();
        let fields = [("plan", plan), ("note", "é \"q\"\n".into()), ("metrics", RuntimeMetrics::new().json())];
        let text = lossy(&mutate(Json::object(json::Layout::Block, fields).render().as_bytes(), seed));
        match json::parse(&text) {
            Err(e) => prop_assert!(e.offset <= text.len(), "{} outside {:?}", e, text),
            Ok(read) => prop_assert_eq!(json::parse(&read.render()), Ok(read)),
        }
    }

    /// A mutated trace is refused with a line number inside the input,
    /// or yields at most one record per data line.
    #[test]
    fn trace_csv_survives_mutation(seed in 0u64..u64::MAX) {
        let bytes = mutate(&trace(), seed);
        let lines = bytes.split(|&b| b == b'\n').count();
        match read_csv(bytes.as_slice()) {
            Ok(records) => prop_assert!(records.len() < lines.max(1)),
            Err(TraceError::Parse { line, .. }) => prop_assert!((1..=lines).contains(&line)),
            Err(TraceError::Io(_)) => {}
        }
    }

    /// One mutated `vodplan` argument is refused, or parsed to exactly
    /// the numbers it spells.
    #[test]
    fn vodplan_arguments_survive_mutation(which in 0usize..16, seed in 0u64..u64::MAX) {
        let mut args = vodplan_args();
        args[which] = lossy(&mutate(args[which].as_bytes(), seed));
        if let Ok(opts) = parse_args(&args) {
            prop_assert!(!opts.movies.is_empty() && opts.movies.len() <= 2);
            let flag = |name: &str| args.iter().position(|a| a == name).map(|i| &args[i + 1]);
            if let Some(text) = flag("--streams") {
                prop_assert_eq!(text.parse::<u128>().ok(), Some(u128::from(opts.streams)));
            }
            if let Some(text) = flag("--threads") {
                prop_assert_eq!(text.parse::<u128>().ok(), Some(opts.threads as u128));
            }
        }
    }
}

proptest! {
    // One mutated plan in fifty-five parses: this many cases arm 360 of
    // them.
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// A mutated plan that parses can be armed and run: no panic and a clean
    /// audit after every tick, on one backend and behind a two-shard front
    /// tier — the plan was written for four shards, so half its whole-shard
    /// events name a shard that is not there.
    #[test]
    fn a_plan_that_parses_can_be_armed_and_ticked(plan_seed in 0u64..64, seed in 0u64..u64::MAX) {
        let valid = FaultPlan::generate_federation(plan_seed, ARMED_TICKS, 14, 4).to_json();
        let text = lossy(&mutate(valid.as_bytes(), seed));
        if let Ok(plan) = FaultPlan::from_json(&text) {
            let (kind, policy) = (BackendKind::BatchingBuffering, DegradePolicy::default());
            let (server, workload) = (small_server(), armed_workload(MovieId(0)));
            let run = run_backend(&HarnessConfig { server, workload }, kind, seed, &plan, policy);
            prop_assert_eq!(run.outcome.violations, Vec::<String>::new(), "backend, plan {}", text);
            let front = FederationConfig {
                shards: vec![ShardSpec { backend: kind, server: small_server() }; 2],
                placement: vec![vec![(0, MovieId(0)), (1, MovieId(0))]],
                policy,
            };
            let (workload, shape) = (armed_workload(0), WorkloadShape::RoundRobin);
            let run = run_federation(front, &plan, &FederationHarnessConfig { workload, shape }, seed);
            prop_assert_eq!(run.violations, Vec::<String>::new(), "federation, plan {}", text);
        }
    }
}

/// Two movies whose pure-batching stream counts each saturate `u32`:
/// without `--streams` their total is the default budget, and it must be
/// refused rather than summed past `u32::MAX`.
#[test]
fn vodplan_default_stream_budget_cannot_wrap() {
    let huge = "l=9e12;w=1;p=0.5;dist=exp:mean=5";
    let args = [
        "--movie",
        &format!("a;{huge}"),
        "--movie",
        &format!("b;{huge}"),
    ]
    .map(String::from);
    let refused = parse_args(&args).expect_err("a 2 × u32::MAX stream budget");
    assert!(refused.0.contains("exceeds u32::MAX"), "{refused}");
}

/// Each numeric `vodplan` flag set to a hostile value is refused by
/// `parse_args` or by `run`, or planned: never a panic.
#[test]
fn every_numeric_vodplan_flag_survives_hostile_values() {
    for flag in ["--vcr-rate", "--buffer", "--phi", "--denial"] {
        for value in ["nan", "inf", "-inf", "-1", "0", "1e300"] {
            let args =
                ["--movie", "a;l=60;w=1;p=0.5;dist=exp:mean=5", flag, value].map(String::from);
            let answer = std::panic::catch_unwind(|| parse_args(&args).map(|opts| run(&opts)));
            assert!(answer.is_ok(), "`{flag} {value}` panicked");
        }
    }
}

/// Every committed `results/*.json` is one well-formed JSON document —
/// the timing files no `cmp` gate regenerates included.
#[test]
fn every_committed_json_result_parses() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut seen = 0;
    for entry in std::fs::read_dir(results).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            let read = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(read.fields().is_some(), "{}: not an object", path.display());
            seen += 1;
        }
    }
    assert!(seen >= 9, "only {seen} JSON results found");
}
