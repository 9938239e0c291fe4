//! Backend comparison sweep: the same seeded workload, catalog, and
//! startup-wait promise through all three delivery backends
//! ([`vod_server::DeliveryBackend`]) —
//! batching+buffering (the paper's scheme), pyramid fast broadcasting,
//! and the pure-unicast dedicated-stream baseline — across a catalog
//! size × offered load grid.
//!
//! Each cell reports the Eq. 23 provisioning cost `C = C_n(φ·ΣB + Σn)`
//! at the paper's Example 2 prices (φ ≈ 10.7), the resume hit
//! probability `P(hit)`, and the mean startup wait. Identical seeds per
//! cell make the columns directly comparable. Writes
//! `results/BENCH_backend_compare.json` (the whole grid takes well under
//! a second, so the CI gate regenerates it and `cmp`s the bytes); exits
//! non-zero on any invariant violation.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin backend_compare [-- --out PATH]
//! ```

use std::process::ExitCode;

use vod_bench::report::{exit_code, out_path, write_json};
use vod_bench::table::{num, Table};
use vod_runtime::json::{Json, Layout};
use vod_runtime::{BackendKind, DegradePolicy, FaultPlan};
use vod_server::{
    run_backend, BackendRun, HarnessConfig, HostedMovie, MovieId, ServerConfig, Workload,
};
use vod_sizing::HardwareSpec;
use vod_workload::BehaviorModel;

const MOVIE_LEN: u32 = 120;
const STREAMS_PER_MOVIE: u32 = 20;
const BUFFER_PER_MOVIE: f64 = 100.0;
const VCR_RESERVE: u32 = 40;
const CATALOGS: [u32; 2] = [1, 3];
const INTERARRIVALS: [f64; 3] = [4.0, 2.0, 1.0];
const SEEDS: [u64; 2] = [11, 2026];
const WARMUP: u64 = 240;
const MEASURE: u64 = 1200;

/// The shared provisioning for a `catalog`-movie cell: every movie gets
/// the harness geometry `(l = 120, n = 20, B = 100)`, one pool, one VCR
/// reserve. `make_backend` re-derives each scheme's own envelope from
/// this config, holding the catalog and wait promise fixed.
fn harness_config(catalog: u32, interarrival: f64) -> HarnessConfig {
    let movies: Vec<HostedMovie> = (0..catalog)
        .map(|m| {
            HostedMovie::from_allocation(MovieId(m), MOVIE_LEN, STREAMS_PER_MOVIE, BUFFER_PER_MOVIE)
        })
        .collect();
    HarnessConfig {
        server: ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(movies, VCR_RESERVE)
        },
        workload: Workload {
            behavior: BehaviorModel::paper_fig7d(),
            mean_interarrival: interarrival,
            warmup: WARMUP,
            measure: MEASURE,
            movies: (0..catalog).map(MovieId).collect(),
        },
    }
}

fn json_cell(catalog: u32, interarrival: f64, seed: u64, run: &BackendRun, cost: f64) -> Json {
    let cell = [
        ("catalog", catalog.into()),
        ("interarrival", interarrival.into()),
        ("seed", seed.into()),
        ("backend", run.kind.name().into()),
        ("io_streams", run.io_streams.into()),
        ("buffer_segments", run.buffer_segments.into()),
        ("cost", Json::Fixed(cost, 3)),
        ("hit_ratio", Json::Fixed(run.outcome.metrics.hit_ratio(), 6)),
        ("startup_wait_mean", Json::Fixed(run.startup_wait_mean, 6)),
        ("startup_wait_samples", run.startup_wait_samples.into()),
        ("sessions_opened", run.outcome.sessions_opened.into()),
        ("sessions_done", run.outcome.sessions_done.into()),
        ("violations", run.outcome.violation_count.into()),
        ("metrics", run.outcome.metrics.json()),
    ];
    Json::object(Layout::Line, cell)
}

fn main() -> ExitCode {
    let report_path = out_path("backend_compare", "results/BENCH_backend_compare.json");
    let prices = HardwareSpec::paper_example2()
        .resource_cost()
        .expect("paper prices are valid");
    let mut failures = Vec::new();
    let mut cells = Vec::new();
    let mut t = Table::new(vec![
        "catalog", "1/λ", "seed", "backend", "Σn", "ΣB", "cost $", "P(hit)", "wait μ", "opened",
        "done", "violat.",
    ]);
    for catalog in CATALOGS {
        for interarrival in INTERARRIVALS {
            let cfg = harness_config(catalog, interarrival);
            for seed in SEEDS {
                for backend in BackendKind::ALL {
                    let plan = FaultPlan::empty();
                    let run = run_backend(&cfg, backend, seed, &plan, DegradePolicy::default());
                    let cost = prices.total(run.buffer_segments as f64, run.io_streams);
                    if run.outcome.violation_count > 0 {
                        failures.push(format!(
                            "{backend} catalog {catalog} 1/λ {interarrival} seed {seed}: \
                             {} invariant violation(s), first: {}",
                            run.outcome.violation_count,
                            run.outcome.violations.first().map_or("?", |v| v.as_str()),
                        ));
                    }
                    if run.startup_wait_samples == 0 {
                        failures.push(format!(
                            "{backend} catalog {catalog} 1/λ {interarrival} seed {seed}: \
                             no startup waits sampled"
                        ));
                    }
                    t.row(vec![
                        catalog.to_string(),
                        interarrival.to_string(),
                        seed.to_string(),
                        backend.name().to_string(),
                        run.io_streams.to_string(),
                        run.buffer_segments.to_string(),
                        num(cost, 0),
                        num(run.outcome.metrics.hit_ratio(), 3),
                        num(run.startup_wait_mean, 2),
                        run.outcome.sessions_opened.to_string(),
                        run.outcome.sessions_done.to_string(),
                        run.outcome.violation_count.to_string(),
                    ]);
                    cells.push(json_cell(catalog, interarrival, seed, &run, cost));
                }
            }
        }
    }
    println!(
        "# Backend comparison (l = {MOVIE_LEN}, n = {STREAMS_PER_MOVIE}, B = {BUFFER_PER_MOVIE} \
         per movie, reserve {VCR_RESERVE}, φ = {:.2}, warmup {WARMUP}, measure {MEASURE})",
        prices.phi(),
    );
    print!("{}", t.render());
    println!(
        "(cost = C_n(φ·ΣB + Σn) at Example 2 prices; wait μ = mean minutes from open to \
         scheduled start; pyramid's client-side buffer is not priced)\n"
    );

    let json = [
        ("ok", failures.is_empty().into()),
        ("phi", Json::Fixed(prices.phi(), 6)),
        ("failures", Json::strings(&failures)),
        ("cells", Json::Array(Layout::Block, cells)),
    ];
    write_json(
        "backend_compare",
        &report_path,
        &Json::object(Layout::Block, json),
    );
    exit_code("BACKEND_COMPARE", &failures)
}
