//! Wall-clock benchmark for the `SweepExecutor` parallel evaluation path.
//!
//! Measures three representative workloads serial vs multi-threaded,
//! checks the parallel results are *bitwise identical* to the serial
//! ones, and writes `results/BENCH_parallel_sweep.json`:
//!
//! 1. **fig7-sweep** — the analytic `P(hit)` curve of Figure 7(d)
//!    evaluated on a fine `n` grid (model only; the seeded simulation
//!    is deterministic per point and would only dilute the model timing).
//! 2. **catalog-sizing** — `Catalog::new` over a synthetic 100-movie
//!    catalog: one feasibility bisection per movie, each a chain of
//!    `hit_probability` evaluations.
//! 3. **catalog-sizing-1000** — the same over 1 000 movies, the size
//!    ROADMAP item 3(a) asks the executor to be judged at.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin parallel_sweep -- [--threads N] [--out PATH]
//! ```
//!
//! Every cell is timed [`REPS`] times and recorded as best and median,
//! and `speedup` is best serial over best parallel: on a shared machine
//! the second core is not always ours, and a single reading taken while
//! a neighbour holds it says 1.0× whatever the code does. The recorded
//! `available_cores` and `cpu_model` give the rest of the context (a
//! 1-core container cannot show a parallel speedup at any thread count).

use std::sync::Arc;
use std::time::Instant;

use vod_bench::report::{write_json, Flags};
use vod_dist::kinds::{Exponential, Gamma};
use vod_model::{p_hit_single_dist, ModelOptions, Rates, SweepExecutor, SystemParams, VcrMix};
use vod_runtime::json::{Json, Layout};
use vod_sizing::{Catalog, MovieSpec};

/// Timed repetitions per cell: enough that the best one falls in a stretch
/// where the second core is free.
const REPS: usize = 10;

fn main() {
    let flags = Flags::parse("parallel_sweep", "--threads N --out PATH");
    let threads = flags
        .value("--threads")
        .map_or(vec![2usize, 4], |n| vec![n]);
    let out_path = flags.value("--out");
    let out_path = out_path.unwrap_or_else(|| "results/BENCH_parallel_sweep.json".to_string());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# parallel_sweep: {cores} core(s) available, best / median of {REPS}");

    let tasks = vec![
        bench_fig7_sweep(&threads),
        bench_catalog_sizing("catalog-sizing", 100, &threads),
        bench_catalog_sizing("catalog-sizing-1000", 1000, &threads),
    ];
    let json = [
        ("benchmark", "parallel_sweep".into()),
        ("available_cores", cores.into()),
        ("cpu_model", cpu_model().as_str().into()),
        ("reps", REPS.into()),
        ("tasks", Json::Array(Layout::Block, tasks)),
    ];
    write_json(
        "parallel_sweep",
        &out_path,
        &Json::object(Layout::Block, json),
    );
}

/// The processor's model name, as Linux reports it; `unknown` elsewhere.
fn cpu_model() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name")?.split_once(':'))
        .map_or_else(
            || "unknown".to_string(),
            |(_, name)| name.trim().to_string(),
        )
}

/// Run `work` [`REPS`] times: `(best ms, median ms, last result)`.
fn time<R>(mut work: impl FnMut() -> R) -> (f64, f64, R) {
    let mut ms = Vec::with_capacity(REPS);
    let mut result = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        result = Some(work());
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    ms.sort_by(f64::total_cmp);
    (ms[0], ms[REPS / 2], result.expect("REPS > 0"))
}

/// One task's JSON object: `work` timed on the serial executor, then on
/// each thread count, every parallel result checked `same` as the serial
/// one. `size` is the task's `"points"` / `"movies"` line.
fn bench_task<R>(
    task: &str,
    size: (&'static str, usize),
    threads: &[usize],
    work: impl Fn(&SweepExecutor) -> R,
    same: impl Fn(&R, &R) -> bool,
) -> Json {
    let (serial_ms, serial_median_ms, serial) = time(|| work(&SweepExecutor::serial()));
    println!(
        "{task}: {} {}, serial {serial_ms:.1} / {serial_median_ms:.1} ms",
        size.1, size.0
    );
    let mut runs = Vec::new();
    for &t in threads {
        let exec = SweepExecutor::new(t);
        let (ms, median_ms, par) = time(|| work(&exec));
        let identical = same(&serial, &par);
        assert!(identical, "{task}: parallel diverged at {t} threads");
        let speedup = serial_ms / ms;
        println!("{task}: {t} threads {ms:.1} / {median_ms:.1} ms (speedup {speedup:.2}x)");
        let run = [
            ("threads", t.into()),
            ("ms", Json::Fixed(ms, 3)),
            ("median_ms", Json::Fixed(median_ms, 3)),
            ("speedup", Json::Fixed(speedup, 3)),
            ("bitwise_identical", identical.into()),
        ];
        runs.push(Json::object(Layout::Line, run));
    }
    let json = [
        ("task", task.into()),
        (size.0, size.1.into()),
        ("serial_ms", Json::Fixed(serial_ms, 3)),
        ("serial_median_ms", Json::Fixed(serial_median_ms, 3)),
        ("parallel", Json::Array(Layout::Block, runs)),
    ];
    Json::object(Layout::Block, json)
}

/// Figure-7(d)-style model sweep: P(hit) at every n on a fine grid.
fn bench_fig7_sweep(threads: &[usize]) -> Json {
    let dist = Gamma::paper_fig7();
    let mix = VcrMix::paper_fig7d();
    let opts = ModelOptions::default();
    let ns: Vec<u32> = (4..=236).collect();
    let eval = |&n: &u32| -> u64 {
        let params = SystemParams::from_wait(120.0, 0.5, n, Rates::paper()).expect("n*w < l");
        p_hit_single_dist(&params, &dist, &mix, &opts)
            .total
            .to_bits()
    };
    bench_task(
        "fig7-sweep",
        ("points", ns.len()),
        threads,
        |exec| exec.map(&ns, eval),
        |serial, par| serial == par,
    )
}

/// A deterministic synthetic catalog: lengths 60–180 min, waits and VCR
/// means varied so each movie's feasibility bisection differs.
fn synthetic_catalog(count: usize) -> Vec<MovieSpec> {
    (0..count)
        .map(|i| {
            let l = 60.0 + 1.2 * i as f64;
            let w = 0.5 + 0.02 * (i % 10) as f64;
            let mean = 2.0 + 0.25 * (i % 16) as f64;
            MovieSpec::new(
                format!("m{i:03}"),
                l,
                w,
                0.5,
                VcrMix::paper_fig7d(),
                Arc::new(Exponential::with_mean(mean).expect("valid mean")),
                Rates::paper(),
            )
            .expect("valid synthetic movie")
        })
        .collect()
}

/// Catalog sizing: one feasibility bisection per movie; two catalogs are
/// the same when the plan at the middle stream total is, bit for bit.
fn bench_catalog_sizing(task: &str, count: usize, threads: &[usize]) -> Json {
    let movies = synthetic_catalog(count);
    let opts = ModelOptions::default();
    let plan = |catalog: &Catalog<'_>| {
        let mid_total = (catalog.len() as u32 + catalog.max_total_streams()) / 2;
        catalog
            .plan_at_stream_total(mid_total, &opts)
            .expect("model ok")
            .expect("feasible")
    };
    bench_task(
        task,
        ("movies", count),
        threads,
        |exec| Catalog::new_with(&movies, &opts, exec).expect("satisfiable catalog"),
        |serial, par| {
            let (a, b) = (plan(serial), plan(par));
            a.allocations.len() == b.allocations.len()
                && a.allocations.iter().zip(&b.allocations).all(|(a, b)| {
                    a.n_streams == b.n_streams
                        && a.buffer.to_bits() == b.buffer.to_bits()
                        && a.p_hit.to_bits() == b.p_hit.to_bits()
                })
        },
    )
}
