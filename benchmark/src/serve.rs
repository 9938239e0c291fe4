//! `serve-vcr` and `serve-storm`: the three delivery backends (and, on
//! `serve-vcr`, the continuous-time sim mirror) on the fixed harness
//! geometry. The geometry is not planner output, so a change to the model
//! numerics cannot change the load the backends are timed on.

use std::collections::BTreeSet;
use std::time::Instant;

use vod_dist::kinds::Gamma;
use vod_model::{p_hit_single_dist, ModelOptions, Rates, SystemParams, VcrMix};
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan};
use vod_server::{make_backend, HostedMovie, MovieId, ServerConfig};
use vod_sim::{run_catalog_seeded, CatalogConfig, MovieLoad};
use vod_workload::Zipf;

use crate::alloc;
use crate::load::{behavior, drive, Load, PhaseNames, ZIPF_THETA};
use crate::segment::{stream_equivalents, Segment};
use crate::sizes::Sizes;
use crate::stats::fnv1a64;
use crate::trace::{SpanId, Tracer};

/// The harness geometry every hosted movie uses: `(l, n, B)`.
pub const MOVIE_LEN: u32 = 120;
pub const MOVIE_STREAMS: u32 = 20;
pub const MOVIE_BUFFER: f64 = 100.0;

pub const BACKEND_KINDS: [(&str, BackendKind); 3] = [
    ("batching", BackendKind::BatchingBuffering),
    ("pyramid", BackendKind::PyramidBroadcast),
    ("dedicated", BackendKind::DedicatedStream),
];

/// `movies` harness movies with `reserve` VCR streams, piggyback off
/// (merge-back is a mechanism the model does not describe).
pub fn harness_config(movies: usize, reserve: u32) -> ServerConfig {
    let hosted = (0..movies)
        .map(|m| {
            HostedMovie::from_allocation(MovieId(m as u32), MOVIE_LEN, MOVIE_STREAMS, MOVIE_BUFFER)
        })
        .collect();
    ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(hosted, reserve)
    }
}

/// The harness geometry as the model and the sim take it.
pub fn model_params() -> SystemParams {
    SystemParams::new(
        f64::from(MOVIE_LEN),
        MOVIE_BUFFER,
        MOVIE_STREAMS,
        Rates::paper(),
    )
    .expect("the harness geometry is a valid (l, B, n)")
}

/// The analytic `P(hit)` of the harness geometry under the Fig. 7(d) mix.
pub fn model_p_hit() -> f64 {
    p_hit_single_dist(
        &model_params(),
        &Gamma::paper_fig7(),
        &VcrMix::paper_fig7d(),
        &ModelOptions::default(),
    )
    .total
}

/// The storm plan: `events` faults evenly spaced over `[ticks/8, ticks)`,
/// cycling the five capacity faults with magnitudes scaled to the pool
/// (`FaultPlan::generate`'s 1–2-stream faults vanish in a pool of
/// thousands).
pub fn storm_plan(cfg: &ServerConfig, ticks: u64, events: u64) -> FaultPlan {
    let pool = cfg.disk_streams;
    let budget = cfg.buffer_budget as u32;
    let lo = ticks / 8;
    let plan = (0..events)
        .map(|i| FaultEvent {
            at: lo + i * (ticks - lo) / events,
            kind: match i % 5 {
                0 => FaultKind::DiskStreamLoss { count: pool / 50 },
                1 => FaultKind::DiskOutage {
                    count: pool / 5,
                    recover_after: 45,
                },
                2 => FaultKind::DiskSlowdown {
                    period: 3,
                    duration: 40,
                },
                3 => FaultKind::BufferShrink {
                    segments: budget / 5,
                },
                _ => FaultKind::BufferRestore {
                    segments: budget / 5,
                },
            },
        })
        .collect();
    FaultPlan::new(plan)
}

/// Ticks on which a fault event or a scheduled recovery fires.
pub fn fault_ticks(plan: &FaultPlan) -> BTreeSet<u64> {
    let mut ticks = BTreeSet::new();
    for e in plan.events() {
        ticks.insert(e.at);
        match e.kind {
            FaultKind::DiskOutage { recover_after, .. } => {
                ticks.insert(e.at + recover_after);
            }
            FaultKind::DiskSlowdown { duration, .. } => {
                ticks.insert(e.at + duration);
            }
            FaultKind::DiskStreamLoss { .. }
            | FaultKind::BufferShrink { .. }
            | FaultKind::BufferRestore { .. }
            | FaultKind::ShardOutage { .. }
            | FaultKind::ShardRecovery { .. } => {}
        }
    }
    ticks
}

/// The sim mirror of a backend segment: the same catalog, popularity and
/// behaviour in continuous time.
pub fn sim_config(
    sizes: &Sizes,
    kind: BackendKind,
    rate: f64,
    capacity: u32,
    horizon: f64,
) -> CatalogConfig {
    let zipf = Zipf::new(sizes.movies, ZIPF_THETA);
    CatalogConfig {
        movies: (0..sizes.movies)
            .map(|m| MovieLoad {
                params: model_params(),
                mean_interarrival: 1.0 / (rate * zipf.pmf(m)),
                behavior: behavior(),
            })
            .collect(),
        horizon,
        warmup: 0.0,
        count_ff_end_as_hit: true,
        collect_trace: false,
        dedicated_capacity: Some(capacity),
        faults: FaultPlan::empty(),
        backend: kind,
    }
}

/// One backend, one fresh instance, `load.ticks` ticks. The wall covers
/// what a user pays: construction, the ticks, reading the metrics and
/// tearing the backend down.
#[allow(clippy::too_many_arguments)]
pub fn backend_segment(
    name: &'static str,
    kind: BackendKind,
    cfg: &ServerConfig,
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
        let mut backend = make_backend(kind, cfg);
        backend.inject_faults(plan.clone(), DegradePolicy::default());
        tr.close(s, 1);

        let seen = drive(&mut backend, load, seed, tr, &names, span);

        let s = tr.open(collect, span);
        let rt = backend.runtime_metrics();
        let verify_failures = backend.verify_failures();
        let finished = backend.sessions_finished();
        let degraded_at_end = backend.degraded_sessions();
        let cost = stream_equivalents(backend.buffer_segments() as f64, backend.io_streams());
        tr.close(s, 1);

        let s = tr.open(teardown, span);
        drop(backend);
        tr.close(s, 1);

        tr.close(span, 1);
        let wall_s = t0.elapsed().as_secs_f64();

        let mut problems = seen.violation_samples.clone();
        if verify_failures > 0 {
            problems.push(format!("{verify_failures} byte-verification failures"));
        }
        let rt_json = rt.to_json();
        Segment {
            name,
            work_unit: "sessions",
            wall_s,
            work: seen.sessions,
            attempted: seen.sessions + seen.admissions_refused + seen.vcr_ops,
            refused: seen.admissions_refused + seen.vcr_refused + rt.restart_failures,
            wrong: verify_failures + seen.violations,
            hit_ratio: rt.hit_ratio(),
            cost,
            digest: fnv1a64(format!("{rt_json}|{seen:?}|{finished}|{degraded_at_end}").as_bytes()),
            counts: vec![
                ("sessions", seen.sessions as f64),
                ("finished", finished as f64),
                ("status_calls", seen.status_calls as f64),
                ("vcr_ops", seen.vcr_ops as f64),
                ("vcr_denied", seen.vcr_refused as f64),
                ("resume_trials", rt.resumes.trials() as f64),
                ("segments", rt.buffer_minutes + rt.disk_minutes),
                ("restart_failures", rt.restart_failures as f64),
                ("faults_injected", rt.faults_injected as f64),
                ("degraded_entries", rt.degraded_entries as f64),
                ("denied_transient", rt.denied_transient as f64),
                ("denied_permanent", rt.denied_permanent as f64),
                ("audits", seen.audits as f64),
                ("violations", seen.violations as f64),
            ],
            allocs: Default::default(),
            problems,
        }
    });
    seg.allocs = allocs;
    seg
}

/// One continuous-time simulation of the whole catalog.
pub fn sim_segment(
    name: &'static str,
    cfg: &CatalogConfig,
    seed: u64,
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> Segment {
    let seg_name = tr.name(name);
    let t0 = Instant::now();
    let span = tr.open(seg_name, parent);
    let report = run_catalog_seeded(cfg, seed);
    tr.close(span, 1);
    let wall_s = t0.elapsed().as_secs_f64();

    let rt = &report.runtime;
    let viewers: u64 = report.per_movie.iter().map(|m| m.viewers_arrived).sum();
    let vcr_ops = rt.resumes.trials() + rt.vcr_denied;
    Segment {
        name,
        work_unit: "viewers",
        wall_s,
        work: viewers,
        attempted: viewers + vcr_ops,
        refused: rt.vcr_denied + rt.resume_starved,
        wrong: 0,
        hit_ratio: rt.hit_ratio(),
        cost: 0.0,
        digest: fnv1a64(format!("{}|{viewers}", rt.to_json()).as_bytes()),
        counts: vec![
            ("viewers", viewers as f64),
            ("resume_trials", rt.resumes.trials() as f64),
            ("vcr_denied", rt.vcr_denied as f64),
        ],
        allocs: Default::default(),
        problems: Vec::new(),
    }
}

/// Everything `serve-vcr` / `serve-storm` set up once per pass.
pub struct Serve {
    pub storm: bool,
    pub cfg: ServerConfig,
    pub plan: FaultPlan,
    /// Arrivals per tick, in [`BACKEND_KINDS`] order.
    pub rates: [f64; 3],
    pub ticks: u64,
    pub movies: usize,
    /// `serve-vcr` only: the sim mirror and the analytic `P(hit)` the
    /// cross-validation gate compares it and the batching server with.
    pub sim: Option<CatalogConfig>,
    pub model_p_hit: Option<f64>,
}

impl Serve {
    pub fn vcr(sizes: &Sizes) -> Self {
        let cfg = harness_config(sizes.movies, sizes.reserve);
        Self {
            storm: false,
            sim: Some(sim_config(
                sizes,
                BackendKind::BatchingBuffering,
                sizes.vcr_rate,
                sizes.reserve,
                sizes.sim_horizon,
            )),
            model_p_hit: Some(model_p_hit()),
            cfg,
            plan: FaultPlan::empty(),
            rates: [sizes.vcr_rate, sizes.vcr_rate, sizes.vcr_dedicated_rate],
            ticks: sizes.ticks,
            movies: sizes.movies,
        }
    }

    pub fn storm(sizes: &Sizes) -> Self {
        let cfg = harness_config(sizes.movies, sizes.reserve);
        Self {
            storm: true,
            plan: storm_plan(&cfg, sizes.ticks, sizes.storm_events),
            cfg,
            rates: [sizes.storm_rate; 3],
            ticks: sizes.ticks,
            movies: sizes.movies,
            sim: None,
            model_p_hit: None,
        }
    }

    /// One repetition: every segment on fresh state, same seed.
    pub fn rep(&self, seed: u64, tr: &mut Tracer, parent: Option<SpanId>) -> Vec<Segment> {
        let mut segments: Vec<Segment> = BACKEND_KINDS
            .iter()
            .zip(self.rates)
            .map(|(&(name, kind), rate)| {
                let load = Load {
                    ticks: self.ticks,
                    rate,
                    movies: self.movies,
                    // `run_chaos` semantics under the storm, `run_harness`
                    // semantics without it.
                    audit: self.storm,
                };
                backend_segment(name, kind, &self.cfg, &self.plan, &load, seed, tr, parent)
            })
            .collect();
        if let Some(sim) = &self.sim {
            segments.push(sim_segment("sim", sim, seed, tr, parent));
        }
        if let Some(model) = self.model_p_hit {
            let gap = crossval(model, &mut segments);
            segments[0].counts.push(("crossval_gap", gap));
        }
        segments
    }
}

/// The windows of `tests/cross_validation.rs`: sim − model and server −
/// model in [−0.05, 0.08], |server − sim| ≤ 0.05. Returns the largest
/// pairwise gap and files any miss on the batching segment.
fn crossval(model: f64, segments: &mut [Segment]) -> f64 {
    let server = segments[0].hit_ratio;
    let sim = segments
        .iter()
        .find(|s| s.name == "sim")
        .map_or(server, |s| s.hit_ratio);
    let mut misses = Vec::new();
    for (what, bias) in [("sim", sim - model), ("server", server - model)] {
        if !(-0.05..=0.08).contains(&bias) {
            misses.push(format!(
                "cross-validation: {what} − model = {bias:.4} outside [−0.05, 0.08]"
            ));
        }
    }
    if (server - sim).abs() > 0.05 {
        misses.push(format!(
            "cross-validation: |server − sim| = {:.4} > 0.05",
            (server - sim).abs()
        ));
    }
    segments[0].problems.extend(misses);
    (sim - model)
        .abs()
        .max((server - model).abs())
        .max((server - sim).abs())
}
