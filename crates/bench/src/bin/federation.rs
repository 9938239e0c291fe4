//! Federation chaos matrix (schema v1): drive sharded federations
//! through a seed × plan × shard-count grid with per-tick conservation
//! audits, checking that
//!
//! * every displaced session is accounted (re-admitted, re-waiting, or
//!   denied) — the ledger balances in every cell,
//! * identical `(seed, config, plan)` inputs reproduce
//!   bitwise-identical outcomes,
//! * a **one-shard federation with an empty plan is bitwise-identical
//!   to the plain `run_harness`** on the same config/seed (the
//!   federation layer adds zero behavior until shards/faults exist),
//!   reported as `"identity_ok"`, and
//! * Zipf-drifting and flash-crowd workload shapes stay conserved under
//!   whole-shard outage + recovery.
//!
//! Writes `results/FEDERATION_REPORT.json` (3 seeds × \[1,2,4\] shards ×
//! 4 plans + 2 shaped cells × 3 seeds = 42 cells); exits non-zero on
//! any violation.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin federation [-- --out PATH]
//! ```

use std::process::ExitCode;

use vod_bench::report::{chaos_cell_server, exit_code, out_path, write_json};
use vod_bench::table::Table;
use vod_federation::{
    run_federation, FederationConfig, FederationHarnessConfig, FederationOutcome, ShardSpec,
    WorkloadShape,
};
use vod_runtime::json::{Json, Layout};
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan};
use vod_server::{run_harness, HarnessConfig, MovieId, Workload};
use vod_workload::BehaviorModel;

const STREAMS: u32 = 20;
const WARMUP: u64 = 240;
const MEASURE: u64 = 1200;
const SEEDS: [u64; 3] = [11, 2026, 77_777];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// A federation of `shards` replicas of the chaos matrix's single-movie
/// server (so the identity leg compares against the established harness
/// baseline).
fn federation_config(shards: usize) -> FederationConfig {
    FederationConfig {
        shards: (0..shards)
            .map(|_| ShardSpec {
                backend: BackendKind::BatchingBuffering,
                server: chaos_cell_server(),
            })
            .collect(),
        placement: vec![(0..shards).map(|s| (s, MovieId(0))).collect()],
        policy: DegradePolicy::default(),
    }
}

/// The one workload of the matrix, over movie handle `movie`: a global
/// index for the federation, a `MovieId` for the plain-harness identity
/// leg.
fn workload<M>(movie: M) -> Workload<M> {
    Workload {
        behavior: BehaviorModel::paper_fig7d(),
        mean_interarrival: 2.0,
        warmup: WARMUP,
        measure: MEASURE,
        movies: vec![movie],
    }
}

/// The named fault plans of the matrix, sized to `shards`. Every event
/// lands inside the measured window.
fn plans(shards: usize) -> Vec<(&'static str, FaultPlan)> {
    let last = (shards - 1) as u32;
    vec![
        ("baseline", FaultPlan::empty()),
        (
            "outage-recovery",
            FaultPlan::new(vec![
                FaultEvent {
                    at: 520,
                    kind: FaultKind::ShardOutage { shard: 0 },
                },
                FaultEvent {
                    at: 640,
                    kind: FaultKind::ShardRecovery { shard: 0 },
                },
            ]),
        ),
        (
            "shard-storm",
            FaultPlan::generate_federation(9, WARMUP + MEASURE, 10, shards as u32),
        ),
        (
            "mixed",
            FaultPlan::new(vec![
                FaultEvent {
                    at: 420,
                    kind: FaultKind::DiskStreamLoss { count: 4 },
                },
                FaultEvent {
                    at: 520,
                    kind: FaultKind::ShardOutage { shard: last },
                },
                FaultEvent {
                    at: 600,
                    kind: FaultKind::DiskSlowdown {
                        period: 3,
                        duration: 120,
                    },
                },
                FaultEvent {
                    at: 700,
                    kind: FaultKind::ShardRecovery { shard: last },
                },
                FaultEvent {
                    at: 800,
                    kind: FaultKind::BufferShrink { segments: 30 },
                },
                FaultEvent {
                    at: 1000,
                    kind: FaultKind::BufferRestore { segments: 30 },
                },
            ]),
        ),
    ]
}

fn shape_name(shape: WorkloadShape) -> &'static str {
    match shape {
        WorkloadShape::RoundRobin => "round-robin",
        WorkloadShape::ZipfDrift { .. } => "zipf-drift",
        WorkloadShape::FlashCrowd { .. } => "flash-crowd",
    }
}

/// The matrix so far: verdict, JSON cells and the printed table.
struct Report {
    failures: Vec<String>,
    cells: Vec<Json>,
    table: Table,
}

impl Report {
    /// Run one cell twice (determinism pin), check its ledger, and record
    /// its failures, table row and JSON cell.
    fn cell(
        &mut self,
        seed: u64,
        shards: usize,
        plan_name: &str,
        plan: &FaultPlan,
        shape: WorkloadShape,
    ) -> FederationOutcome {
        let cfg = FederationHarnessConfig {
            workload: workload(0),
            shape,
        };
        let out = run_federation(federation_config(shards), plan, &cfg, seed);
        let again = run_federation(federation_config(shards), plan, &cfg, seed);
        let shape = shape_name(shape);
        let tag = format!("seed {seed} shards {shards} plan {plan_name} workload {shape}");
        if out != again {
            self.failures
                .push(format!("{tag}: outcome not bitwise deterministic"));
        }
        if out.violation_count > 0 {
            self.failures.push(format!(
                "{tag}: {} invariant violation(s), first: {}",
                out.violation_count,
                out.violations.first().map_or("?", |v| v.as_str()),
            ));
        }
        if !out.fed.conserved(out.displaced_in_flight) {
            let resolved = out.fed.readmitted_cohort
                + out.fed.readmitted_dedicated
                + out.fed.denied_transient
                + out.fed.denied_permanent;
            self.failures.push(format!(
                "{tag}: displaced ledger out of balance ({} displaced, {} resolved, {} in flight)",
                out.fed.displaced_total, resolved, out.displaced_in_flight
            ));
        }
        self.table.row(vec![
            seed.to_string(),
            shards.to_string(),
            plan_name.to_string(),
            shape.to_string(),
            out.violation_count.to_string(),
            out.sessions_opened.to_string(),
            out.sessions_denied_admission.to_string(),
            out.fed.displaced_total.to_string(),
            out.fed.readmitted_cohort.to_string(),
            out.fed.readmitted_dedicated.to_string(),
            out.fed.denied_transient.to_string(),
            out.fed.denied_permanent.to_string(),
        ]);
        let cell = [
            ("seed", seed.into()),
            ("shards", shards.into()),
            ("plan", plan_name.into()),
            ("workload", shape.into()),
            ("plan_events", plan.json()),
            ("violations", out.violation_count.into()),
            ("sessions_opened", out.sessions_opened.into()),
            ("sessions_denied", out.sessions_denied_admission.into()),
            ("sessions_done", out.sessions_done.into()),
            ("degraded_at_end", out.degraded_at_end.into()),
            ("displaced_in_flight", out.displaced_in_flight.into()),
            ("federation", out.fed.json()),
        ];
        self.cells.push(Json::object(Layout::Line, cell));
        out
    }
}

fn main() -> ExitCode {
    let report_path = out_path("federation", "results/FEDERATION_REPORT.json");
    let mut identity_ok = true;
    let mut report = Report {
        failures: Vec::new(),
        cells: Vec::new(),
        table: Table::new(vec![
            "seed",
            "shards",
            "plan",
            "workload",
            "violat.",
            "opened",
            "denied",
            "displaced",
            "cohort",
            "dedic.",
            "den.trans",
            "den.perm",
        ]),
    };
    for seed in SEEDS {
        // Identity leg: the 1-shard empty-plan federation must be
        // bitwise-identical to the plain harness.
        let plain = HarnessConfig {
            server: chaos_cell_server(),
            workload: workload(MovieId(0)),
        };
        let reference = run_harness(&plain, seed);
        for shards in SHARD_COUNTS {
            for (plan_name, plan) in plans(shards) {
                let out = report.cell(seed, shards, plan_name, &plan, WorkloadShape::RoundRobin);
                let identical = out.per_shard[0].as_ref() == Some(&reference)
                    && out.sessions_denied_admission == 0;
                if shards == 1 && plan.is_empty() && !identical {
                    identity_ok = false;
                    report.failures.push(format!(
                        "seed {seed}: 1-shard empty-plan federation diverged from run_harness"
                    ));
                }
            }
        }
        // Shaped-load cells: drifting Zipf popularity and a flash crowd
        // over a 2-shard federation under whole-shard outage+recovery.
        let (plan_name, plan) = ("outage-recovery", &plans(2)[1].1);
        for shape in [
            WorkloadShape::ZipfDrift {
                start_skew: 0.2,
                end_skew: 1.6,
            },
            WorkloadShape::FlashCrowd {
                at: 520,
                duration: 120,
                factor: 4.0,
                movie: 0,
            },
        ] {
            report.cell(seed, 2, plan_name, plan, shape);
        }
    }
    println!(
        "# Federation chaos matrix (l = 120, n = {STREAMS}, seeds {SEEDS:?}, \
         shards {SHARD_COUNTS:?}, warmup {WARMUP}, measure {MEASURE})"
    );
    print!("{}", report.table.render());
    println!(
        "(displaced/cohort/dedicated/denied are front-tier ledger counters \
         over the measured window)\n"
    );

    let Report {
        failures, cells, ..
    } = report;
    let cell_count = cells.len();
    let json = [
        ("schema", 1u64.into()),
        ("ok", failures.is_empty().into()),
        ("identity_ok", identity_ok.into()),
        ("failures", Json::strings(&failures)),
        ("cells", Json::Array(Layout::Block, cells)),
    ];
    write_json(
        "federation",
        &report_path,
        &Json::object(Layout::Block, json),
    );
    if failures.is_empty() {
        println!("all federation invariants held ({cell_count} cells)");
    }
    exit_code("FEDERATION", &failures)
}
