//! `federation`: the front tier over batching shards. Segment `outage`
//! is whole-shard failover at scale (displacement snapshot, ledger
//! retries, cross-shard adoption) with the federation audit after every
//! tick; segment `steady` is tick-dominated with independent shards, the
//! only place a shard-per-thread design could show. The single-backend
//! workloads bypass the front tier entirely.

use std::time::Instant;

use vod_federation::{Federation, FederationConfig, ShardSpec};
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan};
use vod_server::MovieId;

use crate::alloc;
use crate::load::{drive, Load, PhaseNames};
use crate::segment::{stream_equivalents, Segment};
use crate::serve::harness_config;
use crate::sizes::Sizes;
use crate::stats::fnv1a64;
use crate::trace::{SpanId, Tracer};

/// `shards` batching shards over `movies` catalog movies. Movies are
/// dealt round-robin by popularity rank, so the Zipf head does not land on
/// one shard: shard `s` hosts its own `movies / shards` primaries (local
/// ids first) and a replica of every movie of shard `s + 1`, so each
/// movie fails over to the previous shard.
pub fn federation_config(movies: usize, shards: usize, reserve: u32) -> FederationConfig {
    let per = (movies / shards).max(1);
    let hosted = if shards > 1 { 2 * per } else { per };
    let placement = (0..per * shards)
        .map(|m| {
            let (home, local) = (m % shards, m / shards);
            let mut replicas = vec![(home, MovieId(local as u32))];
            if shards > 1 {
                let previous = (home + shards - 1) % shards;
                replicas.push((previous, MovieId((per + local) as u32)));
            }
            replicas
        })
        .collect();
    FederationConfig {
        shards: (0..shards)
            .map(|_| ShardSpec {
                backend: BackendKind::BatchingBuffering,
                server: harness_config(hosted, reserve),
            })
            .collect(),
        placement,
        policy: DegradePolicy::default(),
    }
}

/// `outages` ShardOutage → ShardRecovery pairs rotating over the shards,
/// each dark for a twelfth of the run, with a `DiskOutage` of a quarter
/// of the reserve inside each (routed to shard `at % shards`).
pub fn outage_plan(sizes: &Sizes) -> FaultPlan {
    let ticks = sizes.ticks;
    let stride = ticks / (sizes.fed_outages + 2);
    let dark = (ticks / 12).max(2);
    let mut events = Vec::new();
    for k in 0..sizes.fed_outages {
        let at = (k + 1) * stride;
        let shard = (k % sizes.fed_shards as u64) as u32;
        events.push(FaultEvent {
            at,
            kind: FaultKind::ShardOutage { shard },
        });
        events.push(FaultEvent {
            at: at + dark / 4,
            kind: FaultKind::DiskOutage {
                count: sizes.fed_reserve / 4,
                recover_after: 3 * dark / 4,
            },
        });
        events.push(FaultEvent {
            at: at + dark,
            kind: FaultKind::ShardRecovery { shard },
        });
    }
    FaultPlan::new(events)
}

/// One federation, one fresh instance, `load.ticks` ticks.
pub fn federation_segment(
    name: &'static str,
    config: &FederationConfig,
    plan: &FaultPlan,
    load: &Load,
    seed: u64,
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> Segment {
    let names = PhaseNames::new(tr, name);
    let [seg_name, build, collect, teardown] =
        ["", "/build", "/collect", "/drop"].map(|s| tr.name(&format!("{name}{s}")));
    let counting = tr.count_allocs;
    let (mut seg, allocs) = alloc::counted(counting, || {
        let t0 = Instant::now();
        let span = tr.open(seg_name, parent);

        let s = tr.open(build, span);
        let mut fed = Federation::new(config.clone(), plan.clone());
        tr.close(s, 1);

        let seen = drive(&mut fed, load, seed, tr, &names, span);

        let s = tr.open(collect, span);
        let fm = fed.federation_metrics();
        let shards = fed.per_shard_metrics();
        let finished = fed.sessions_finished();
        let in_flight = fed.displaced_in_flight();
        tr.close(s, 1);

        let s = tr.open(teardown, span);
        drop(fed);
        tr.close(s, 1);

        tr.close(span, 1);
        let wall_s = t0.elapsed().as_secs_f64();

        let (mut hits, mut trials, mut restart_failures) = (0, 0, 0);
        let mut text = fm.to_json();
        for rt in shards.iter().flatten() {
            hits += rt.resumes.hits();
            trials += rt.resumes.trials();
            restart_failures += rt.restart_failures;
            text.push_str(&rt.to_json());
        }
        text.push_str(&format!("|{seen:?}|{finished}|{in_flight}"));
        let cost = config
            .shards
            .iter()
            .map(|s| stream_equivalents(s.server.buffer_budget as f64, s.server.disk_streams))
            .sum();
        Segment {
            name,
            work_unit: "sessions",
            wall_s,
            work: seen.sessions,
            attempted: seen.sessions + seen.admissions_refused + seen.vcr_ops,
            refused: seen.admissions_refused
                + seen.vcr_refused
                + fm.denied_transient
                + fm.denied_permanent
                + restart_failures,
            wrong: seen.violations,
            hit_ratio: if trials == 0 {
                0.0
            } else {
                hits as f64 / trials as f64
            },
            cost,
            digest: fnv1a64(text.as_bytes()),
            counts: vec![
                ("sessions", seen.sessions as f64),
                ("finished", finished as f64),
                ("admissions_denied", seen.admissions_refused as f64),
                ("admissions_rerouted", fm.admissions_rerouted as f64),
                ("vcr_ops", seen.vcr_ops as f64),
                ("vcr_denied", seen.vcr_refused as f64),
                ("shard_outages", fm.shard_outages as f64),
                ("displaced_total", fm.displaced_total as f64),
                ("readmitted_cohort", fm.readmitted_cohort as f64),
                ("readmitted_dedicated", fm.readmitted_dedicated as f64),
                ("readmit_refusals", fm.readmit_refusals as f64),
                ("denied_transient", fm.denied_transient as f64),
                ("denied_permanent", fm.denied_permanent as f64),
                ("displaced_in_flight", in_flight as f64),
                ("audits", seen.audits as f64),
                ("violations", seen.violations as f64),
            ],
            allocs: Default::default(),
            problems: seen.violation_samples.clone(),
        }
    });
    seg.allocs = allocs;
    seg
}

/// Everything `federation` sets up once per pass.
pub struct Fed {
    pub config: FederationConfig,
    pub plan: FaultPlan,
    pub outage: Load,
    pub steady: Load,
}

impl Fed {
    pub fn new(sizes: &Sizes) -> Self {
        let load = |rate, audit| Load {
            ticks: sizes.ticks,
            rate,
            movies: sizes.movies,
            audit,
        };
        Self {
            config: federation_config(sizes.movies, sizes.fed_shards, sizes.fed_reserve),
            plan: outage_plan(sizes),
            outage: load(sizes.fed_outage_rate, true),
            steady: load(sizes.fed_steady_rate, false),
        }
    }

    pub fn rep(&self, seed: u64, tr: &mut Tracer, parent: Option<SpanId>) -> Vec<Segment> {
        vec![
            federation_segment(
                "outage",
                &self.config,
                &self.plan,
                &self.outage,
                seed,
                tr,
                parent,
            ),
            federation_segment(
                "steady",
                &self.config,
                &FaultPlan::empty(),
                &self.steady,
                seed,
                tr,
                parent,
            ),
        ]
    }
}
