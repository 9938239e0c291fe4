//! Chaos matrix (schema v2): drive **all three delivery backends**
//! through a seed × fault-plan grid via [`vod_server::run_backend`],
//! checking after **every tick** that
//!
//! * no session is lost or double-counted,
//! * streams are conserved (`in_use + free + failed == provisioned`,
//!   plus each backend's own audits: channel-wheel phase and reception
//!   fronts for pyramid, reserve/queue conservation for dedicated),
//! * cumulative metrics never move backwards, and
//! * identical `(seed, plan, backend)` inputs reproduce
//!   bitwise-identical outcomes.
//!
//! (That arming the empty plan costs nothing — the `baseline` cells are
//! the never-armed harness — is pinned per backend by the
//! `chaos_faults` and `backend_equivalence` suites.)
//!
//! Each plan also runs through the continuous-time simulator's fault
//! mirror under the same backend so the hit-ratio impact is visible on
//! both legs. Writes `results/CHAOS_REPORT.json` (3 seeds × 6 plans ×
//! 3 backends = 54 cells); exits non-zero on any violation.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin chaos [-- --out PATH]
//! ```

use std::process::ExitCode;

use vod_bench::report::{chaos_cell_server, exit_code, out_path, write_json};
use vod_bench::table::{num, Table};
use vod_model::{Rates, SystemParams};
use vod_runtime::json::{Json, Layout};
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan};
use vod_server::{run_backend, BackendRun, HarnessConfig, MovieId, Workload};
use vod_sim::{run_seeded, SimConfig};
use vod_workload::BehaviorModel;

const MOVIE_LEN: f64 = 120.0;
const STREAMS: u32 = 20;
const WARMUP: u64 = 240;
const MEASURE: u64 = 1200;
const SEEDS: [u64; 3] = [11, 2026, 77_777];

fn harness_config() -> HarnessConfig {
    HarnessConfig {
        server: chaos_cell_server(),
        workload: Workload {
            behavior: BehaviorModel::paper_fig7d(),
            mean_interarrival: 2.0,
            warmup: WARMUP,
            measure: MEASURE,
            movies: vec![MovieId(0)],
        },
    }
}

/// The named fault plans of the matrix. Every event lands inside the
/// measured window so the degradation shows up in the metrics.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("baseline", FaultPlan::empty()),
        (
            "disk-loss",
            FaultPlan::new(vec![FaultEvent {
                at: 420,
                kind: FaultKind::DiskStreamLoss { count: 4 },
            }]),
        ),
        (
            "disk-outage",
            FaultPlan::new(vec![FaultEvent {
                at: 520,
                kind: FaultKind::DiskOutage {
                    count: 6,
                    recover_after: 60,
                },
            }]),
        ),
        (
            "slowdown",
            FaultPlan::new(vec![FaultEvent {
                at: 600,
                kind: FaultKind::DiskSlowdown {
                    period: 3,
                    duration: 120,
                },
            }]),
        ),
        (
            "buffer-squeeze",
            FaultPlan::new(vec![
                FaultEvent {
                    at: 450,
                    kind: FaultKind::BufferShrink { segments: 30 },
                },
                FaultEvent {
                    at: 900,
                    kind: FaultKind::BufferRestore { segments: 30 },
                },
            ]),
        ),
        ("storm", FaultPlan::generate(9, WARMUP + MEASURE, 8)),
    ]
}

/// Run the sim leg with the same plan under `backend` and return its
/// overall hit ratio.
fn sim_hit_ratio(plan: &FaultPlan, seed: u64, backend: BackendKind) -> f64 {
    let params = SystemParams::from_wait(MOVIE_LEN, 1.0, STREAMS, Rates::paper())
        .expect("valid configuration");
    let mut cfg = SimConfig::new(params, BehaviorModel::paper_fig7d());
    cfg.horizon = (WARMUP + MEASURE) as f64;
    cfg.warmup = WARMUP as f64;
    cfg.faults = plan.clone();
    cfg.backend = backend;
    run_seeded(&cfg, seed).runtime.hit_ratio()
}

/// One report cell. The incumbent's cells keep the v1 shape — no
/// `"backend"` key — so they stay byte-identical across reports; the
/// other backends' cells carry the discriminator.
fn json_case(seed: u64, name: &str, plan: &FaultPlan, run: &BackendRun, sim_hit: f64) -> Json {
    let out = &run.outcome;
    let mut cell = vec![
        ("seed", seed.into()),
        ("plan", name.into()),
        ("plan_events", plan.json()),
        ("violations", out.violation_count.into()),
        ("violation_details", Json::strings(&out.violations)),
        ("sessions_opened", out.sessions_opened.into()),
        ("sessions_done", out.sessions_done.into()),
        ("degraded_at_end", out.degraded_at_end.into()),
        ("sim_hit_ratio", Json::Fixed(sim_hit, 6)),
        ("metrics", out.metrics.json()),
    ];
    if run.kind != BackendKind::BatchingBuffering {
        cell.insert(1, ("backend", run.kind.name().into()));
    }
    Json::object(Layout::Line, cell)
}

fn main() -> ExitCode {
    let report_path = out_path("chaos", "results/CHAOS_REPORT.json");
    let cfg = harness_config();
    let policy = DegradePolicy::default();
    let mut failures = Vec::new();
    let mut json_cases = Vec::new();
    let mut t = Table::new(vec![
        "seed",
        "backend",
        "plan",
        "faults",
        "violat.",
        "degr.entries",
        "rejoined",
        "dedicated",
        "den.trans",
        "den.perm",
        "srv hit",
        "sim hit",
    ]);
    for seed in SEEDS {
        for kind in BackendKind::ALL {
            for (name, plan) in plans() {
                let run = run_backend(&cfg, kind, seed, &plan, policy);
                if run != run_backend(&cfg, kind, seed, &plan, policy) {
                    failures.push(format!(
                        "seed {seed} backend {kind} plan {name}: outcome not bitwise deterministic"
                    ));
                }
                let out = &run.outcome;
                if out.violation_count > 0 {
                    failures.push(format!(
                        "seed {seed} backend {kind} plan {name}: \
                         {} invariant violation(s), first: {}",
                        out.violation_count,
                        out.violations.first().map_or("?", |v| v.as_str()),
                    ));
                }
                let sim_hit = sim_hit_ratio(&plan, seed, kind);
                t.row(vec![
                    seed.to_string(),
                    kind.to_string(),
                    name.to_string(),
                    out.metrics.faults_injected.to_string(),
                    out.violation_count.to_string(),
                    out.metrics.degraded_entries.to_string(),
                    out.metrics.degraded_rejoined.to_string(),
                    out.metrics.degraded_dedicated.to_string(),
                    out.metrics.denied_transient.to_string(),
                    out.metrics.denied_permanent.to_string(),
                    num(out.metrics.hit_ratio(), 3),
                    num(sim_hit, 3),
                ]);
                json_cases.push(json_case(seed, name, &plan, &run, sim_hit));
            }
        }
    }
    println!(
        "# Chaos matrix (l = 120, n = {STREAMS}, disk 40, seeds {SEEDS:?}, \
         3 backends, warmup {WARMUP}, measure {MEASURE})"
    );
    print!("{}", t.render());
    println!("(faults counted in the measured window; srv/sim hit = resume hit ratio)\n");

    let report = [
        ("schema", 2u64.into()),
        ("ok", failures.is_empty().into()),
        ("failures", Json::strings(&failures)),
        ("cases", Json::Array(Layout::Block, json_cases)),
    ];
    write_json("chaos", &report_path, &Json::object(Layout::Block, report));
    if failures.is_empty() {
        println!("all chaos invariants held");
    }
    exit_code("CHAOS", &failures)
}
