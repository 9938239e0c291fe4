//! The two passes of a run — timed (tracing off, end-to-end metrics) and
//! traced (spans and allocation counts on, per-layer metrics) — and the
//! correctness gate both go through.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use vod_runtime::{BackendKind, FaultKind, FaultPlan};
use vod_sim::{run_federation_seeded, SimConfig};

use crate::federation::{federation_config, federation_segment, Fed};
use crate::load::{behavior, Load};
use crate::machine::{cpu_seconds, peak_rss_mib};
use crate::metrics::BACKENDS;
use crate::plan::Plan;
use crate::probes::{self, Prober};
use crate::segment::Segment;
use crate::serve::{
    backend_segment, fault_ticks, harness_config, model_params, sim_config, sim_segment, Serve,
};
use crate::sizes::Sizes;
use crate::stats::{median, tail};
use crate::trace::{SpanId, Tracer};

pub struct RunOpts {
    pub seed: u64,
    /// The timed pass repeats until this much wall time has passed.
    pub seconds: f64,
    pub sizes: Sizes,
    /// Where `trace-<workload>.jsonl` goes.
    pub trace_dir: PathBuf,
}

/// One workload, set up.
pub enum Work {
    Plan(Plan),
    Serve(Serve),
    Fed(Fed),
}

impl Work {
    /// Config and fault-plan construction and the one model evaluation.
    pub fn new(workload: &str, sizes: &Sizes, seed: u64) -> Self {
        match workload {
            "plan-catalog" => Work::Plan(Plan::new(sizes, seed)),
            "serve-vcr" => Work::Serve(Serve::vcr(sizes)),
            "serve-storm" => Work::Serve(Serve::storm(sizes)),
            "federation" => Work::Fed(Fed::new(sizes)),
            other => unreachable!("workload names are checked against the registry: {other}"),
        }
    }

    /// One repetition: every segment on fresh state.
    pub fn rep(&self, seed: u64, tr: &mut Tracer, parent: Option<SpanId>) -> Vec<Segment> {
        match self {
            Work::Plan(plan) => plan.rep(tr, parent),
            Work::Serve(serve) => serve.rep(seed, tr, parent),
            Work::Fed(fed) => fed.rep(seed, tr, parent),
        }
    }

    /// `Plan::new` computes the reference plan through the library — the
    /// same work as a repetition — so it is its own warm-up.
    fn set_up_warm(&self) -> bool {
        matches!(self, Work::Plan(_))
    }
}

/// The correctness gate for one repetition: no wrong outcome, no gate
/// miss, and the same outputs as the first repetition.
fn gate(workload: &str, segments: &[Segment], first: Option<&[Segment]>) -> Result<(), String> {
    for (i, seg) in segments.iter().enumerate() {
        if let Some(problem) = seg.problems.first() {
            return Err(format!("{workload}/{}: {problem}", seg.name));
        }
        if seg.wrong > 0 {
            return Err(format!(
                "{workload}/{}: {} wrong outcomes",
                seg.name, seg.wrong
            ));
        }
        if let Some(first) = first {
            if first[i].digest != seg.digest {
                return Err(format!(
                    "{workload}/{}: stats_digest {:#018x} differs from the first repetition's {:#018x}",
                    seg.name, seg.digest, first[i].digest
                ));
            }
        }
    }
    Ok(())
}

/// Set up (and, where set-up is not already one, run the discarded
/// warm-up repetition). Returns the wall time of the whole pass.
fn set_up(workload: &str, opts: &RunOpts) -> Result<(Work, f64), String> {
    let t0 = Instant::now();
    let work = Work::new(workload, &opts.sizes, opts.seed);
    if !work.set_up_warm() {
        let warm = work.rep(opts.seed, &mut Tracer::new(false), None);
        gate(workload, &warm, None)?;
    }
    Ok((work, t0.elapsed().as_secs_f64()))
}

pub struct TimedPass {
    pub setup_s: Vec<f64>,
    pub reps: Vec<Vec<Segment>>,
    pub wall_s: f64,
    pub peak_rss_mib: f64,
}

/// Tracing off: set up `sizes.setups` times, then repeat the workload
/// until `--seconds` have passed.
pub fn timed_pass(workload: &str, opts: &RunOpts) -> Result<TimedPass, String> {
    let t_pass = Instant::now();
    let mut setup_s = Vec::new();
    let mut work = None;
    for _ in 0..opts.sizes.setups {
        let (w, s) = set_up(workload, opts)?;
        setup_s.push(s);
        work = Some(w);
    }
    let work = work.expect("at least one set-up pass");

    let mut off = Tracer::new(false);
    let mut reps: Vec<Vec<Segment>> = Vec::new();
    let t_reps = Instant::now();
    while reps.len() < opts.sizes.min_reps || t_reps.elapsed().as_secs_f64() < opts.seconds {
        let segments = work.rep(opts.seed, &mut off, None);
        gate(workload, &segments, reps.first().map(Vec::as_slice))?;
        reps.push(segments);
    }
    Ok(TimedPass {
        setup_s,
        reps,
        wall_s: t_pass.elapsed().as_secs_f64(),
        peak_rss_mib: peak_rss_mib(),
    })
}

fn rep_wall(segments: &[Segment]) -> f64 {
    segments.iter().map(|s| s.wall_s).sum()
}

/// The segment whose hit ratio the workload reports.
fn hit_segment(segments: &[Segment]) -> &Segment {
    segments
        .iter()
        .find(|s| matches!(s.name, "plan" | "batching" | "steady"))
        .expect("every workload has a plan, batching or steady segment")
}

/// Samples of every end-to-end metric, in registry order. The reported
/// value is the median of the samples.
pub fn end_to_end_samples(pass: &TimedPass) -> Vec<(&'static str, Vec<f64>)> {
    let per_rep = |f: &dyn Fn(&[Segment]) -> f64| pass.reps.iter().map(|r| f(r)).collect();
    vec![
        ("setup_s", pass.setup_s.clone()),
        (
            "work_per_s",
            per_rep(&|r| r.iter().map(|s| s.work).sum::<u64>() as f64 / rep_wall(r)),
        ),
        ("hit_ratio", per_rep(&|r| hit_segment(r).hit_ratio)),
        (
            "served_share",
            per_rep(&|r| {
                let refused: u64 = r.iter().map(|s| s.refused).sum();
                let attempted: u64 = r.iter().map(|s| s.attempted).sum();
                1.0 - refused as f64 / attempted as f64
            }),
        ),
        (
            "provisioned_cost",
            per_rep(&|r| r.iter().map(|s| s.cost).sum()),
        ),
        ("peak_rss_mib", vec![pass.peak_rss_mib]),
    ]
}

pub struct TracedPass {
    /// Every computed per-layer metric (the caller zero-fills the rest).
    pub layers: BTreeMap<String, f64>,
    pub reps: Vec<Vec<Segment>>,
    pub spans: usize,
    /// Per driven segment: share of its wall inside named child spans.
    pub attributed: Vec<(String, f64)>,
    pub trace_file: PathBuf,
    pub wall_s: f64,
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

fn per_call_ns(tr: &Tracer, names: &[String]) -> f64 {
    let (ns, calls) = names
        .iter()
        .map(|n| tr.total(n))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64
    }
}

/// Durations (ms) of the `tick` spans of `segment` that fall on one of
/// `ticks_of_interest`. Every repetition records exactly `ticks` tick
/// spans per segment, in tick order.
fn tick_ms_at(
    tr: &Tracer,
    segment: &str,
    ticks: u64,
    ticks_of_interest: &std::collections::BTreeSet<u64>,
) -> Vec<f64> {
    ms(&tr.durations_ns(&format!("{segment}/tick")))
        .into_iter()
        .enumerate()
        .filter(|(i, _)| ticks_of_interest.contains(&(*i as u64 % ticks)))
        .map(|(_, d)| d)
        .collect()
}

/// Metrics of one backend's calls, from its segment's spans.
fn backend_layers(
    b: &str,
    tr: &Tracer,
    reps: &[Vec<Segment>],
    counted: &[Segment],
    ticks: u64,
    plan: &FaultPlan,
    layers: &mut BTreeMap<String, f64>,
) {
    let mut set = |name: &str, v: f64| {
        layers.insert(format!("server.{b}.{name}"), v);
    };
    let seg_ns = tr.total(b).0 as f64;
    let last = counted
        .iter()
        .find(|s| s.name == b)
        .expect("the counting repetition ran every backend");
    for (metric, phase) in [
        ("open_ns", "admit"),
        ("vcr_ns", "vcr"),
        ("status_ns", "status"),
    ] {
        set(metric, per_call_ns(tr, &[format!("{b}/{phase}")]));
    }
    let tick_ns = tr.durations_ns(&format!("{b}/tick"));
    let tick_ms = ms(&tick_ns);
    set("tick_ms_p50", median_or_zero(&tick_ms));
    set("tick_ms_p99", tail(&tick_ms).1);
    let tick_total: u64 = tick_ns.iter().sum();
    set("tick_share", tick_total as f64 / seg_ns);
    let segments_delivered = last.count("segments") * reps.len() as f64;
    set(
        "ns_per_segment",
        tick_total as f64 / segments_delivered.max(1.0),
    );
    let sessions = last.count("sessions").max(1.0);
    set(
        "peak_live_bytes_per_session",
        last.allocs.peak_live_bytes as f64 / sessions,
    );
    set("allocs_per_session", last.allocs.allocs as f64 / sessions);
    for count in [
        "vcr_ops",
        "vcr_denied",
        "segments",
        "degraded_entries",
        "denied_transient",
        "violations",
    ] {
        set(count, last.count(count));
    }
    let audit_ns = tr.durations_ns(&format!("{b}/audit"));
    set("audit_ms_p50", median_or_zero(&ms(&audit_ns)));
    set("audit_share", audit_ns.iter().sum::<u64>() as f64 / seg_ns);
    let at_faults = tick_ms_at(tr, b, ticks, &fault_ticks(plan));
    set("fault_tick_ms_p50", median_or_zero(&at_faults));
    set(
        "fault_tick_ms_max",
        at_faults.iter().copied().fold(0.0, f64::max),
    );
}

/// Share of each driven segment's wall that named child spans cover, and
/// the generator's own share (self time of the `step` spans).
fn attribution(tr: &Tracer, segments: &[&str]) -> (Vec<(String, f64)>, f64) {
    let mut attributed = Vec::new();
    let mut driver_share: f64 = 0.0;
    for &seg in segments {
        let (seg_ns, _) = tr.total(seg);
        // Only segments this generator drives have `step` spans.
        if seg_ns == 0 || tr.total(&format!("{seg}/step")).1 == 0 {
            continue;
        }
        let seg_self = tr.self_total_ns(seg);
        attributed.push((seg.to_string(), 1.0 - seg_self as f64 / seg_ns as f64));
        let step_self = tr.self_total_ns(&format!("{seg}/step"));
        driver_share = driver_share.max(step_self as f64 / seg_ns as f64);
    }
    (attributed, driver_share)
}

/// The traced pass: traced repetitions (alternating with untraced ones,
/// the overhead baseline), one allocation-counting repetition, then the
/// workload's extra layer measurements.
pub fn traced_pass(workload: &str, opts: &RunOpts) -> Result<TracedPass, String> {
    let t_pass = Instant::now();
    let sizes = &opts.sizes;
    let (work, _) = set_up(workload, opts)?;

    let mut tr = Tracer::new(true);
    let rep_name = tr.name("rep");
    let traced_reps = match work {
        Work::Plan(_) => 1,
        _ => sizes.tick_samples.div_ceil(sizes.ticks).max(1),
    };
    // Untraced and traced repetitions alternate, so machine noise falls
    // on both sides of the overhead ratio alike.
    let mut untraced: Vec<Vec<Segment>> = Vec::new();
    let mut reps: Vec<Vec<Segment>> = Vec::new();
    let mut cpu_s = 0.0;
    for k in 0..traced_reps {
        let plain = work.rep(opts.seed, &mut Tracer::new(false), None);
        gate(workload, &plain, untraced.first().map(Vec::as_slice))?;
        untraced.push(plain);

        tr.rep = k as u32;
        let cpu0 = cpu_seconds();
        let root = tr.open(rep_name, None);
        let segments = work.rep(opts.seed, &mut tr, root);
        tr.close(root, 1);
        cpu_s += (cpu_seconds() - cpu0) / traced_reps as f64;
        gate(workload, &segments, Some(&untraced[0]))?;
        reps.push(segments);
    }
    let baseline = &untraced[0];
    let walls = |reps: &[Vec<Segment>]| -> Vec<f64> { reps.iter().map(|r| rep_wall(r)).collect() };
    let overhead = median(&walls(&reps)) / median(&walls(&untraced)) - 1.0;
    // One more repetition, spans off, for the exact allocation counts.
    let mut counting = Tracer::new(false);
    counting.count_allocs = true;
    let counted = work.rep(opts.seed, &mut counting, None);
    gate(workload, &counted, Some(baseline))?;

    let mut layers = BTreeMap::new();
    layers.insert("driver.trace_overhead_share".to_string(), overhead);
    let driven: Vec<&str> = reps[0].iter().map(|s| s.name).collect();
    let (attributed, driver_share) = attribution(&tr, &driven);
    layers.insert("driver.self_share".to_string(), driver_share);

    tr.rep = traced_reps as u32;
    let extras = tr.name("extras");
    let root = tr.open(extras, None);
    let min_batch_ns = sizes.probe_batch_ns;
    match &work {
        Work::Plan(plan) => {
            layers.insert(
                "cli.parse_us".to_string(),
                per_call_ns(&tr, &["plan/parse_args".into()]) / 1e3,
            );
            layers.insert("cli.cpu_s".to_string(), cpu_s);
            layers.extend(plan.layer_calls(&mut tr, root));
            let mut p = Prober {
                tr: &mut tr,
                parent: root,
                min_batch_ns,
            };
            layers.extend(probes::dist(&mut p));
            layers.extend(probes::model(&mut p));
        }
        Work::Serve(serve) => {
            for b in BACKENDS {
                backend_layers(
                    b,
                    &tr,
                    &reps,
                    &counted,
                    sizes.ticks,
                    &serve.plan,
                    &mut layers,
                );
            }
            if !serve.storm {
                layers.insert("crossval.gap".to_string(), reps[0][0].count("crossval_gap"));
                serve_vcr_extras(serve, opts, &reps[0], &mut tr, root, &mut layers);
                let mut p = Prober {
                    tr: &mut tr,
                    parent: root,
                    min_batch_ns,
                };
                layers.extend(probes::runtime(&mut p));
                layers.extend(probes::workload(&mut p, sizes.movies));
            }
        }
        Work::Fed(fed) => {
            federation_layers(fed, &tr, &reps, sizes, &mut layers);
            federation_extras(fed, opts, &reps[0], &mut tr, root, &mut layers);
        }
    }
    tr.close(root, 1);

    let trace_file = opts.trace_dir.join(format!("trace-{workload}.jsonl"));
    tr.write_jsonl(&trace_file)
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    Ok(TracedPass {
        layers,
        reps,
        spans: tr.spans.len(),
        attributed,
        trace_file,
        wall_s: t_pass.elapsed().as_secs_f64(),
    })
}

/// `serve-vcr` extras: the sim mirror of the other two backends and of a
/// federation, for the `sim.*` layer metrics.
fn serve_vcr_extras(
    serve: &Serve,
    opts: &RunOpts,
    rep: &[Segment],
    tr: &mut Tracer,
    root: Option<SpanId>,
    layers: &mut BTreeMap<String, f64>,
) {
    let sizes = &opts.sizes;
    let sim = rep
        .iter()
        .find(|s| s.name == "sim")
        .expect("serve-vcr has a sim segment");
    layers.insert("sim.viewers_per_s.batching".to_string(), sim.rate());
    layers.insert(
        "sim.resumes_per_s".to_string(),
        sim.count("resume_trials") / sim.wall_s,
    );
    for (name, kind, rate, capacity) in [
        (
            "sim.pyramid",
            BackendKind::PyramidBroadcast,
            sizes.vcr_rate,
            sizes.reserve,
        ),
        (
            "sim.dedicated",
            BackendKind::DedicatedStream,
            sizes.vcr_dedicated_rate,
            serve.cfg.disk_streams,
        ),
    ] {
        let cfg = sim_config(sizes, kind, rate, capacity, sizes.sim_horizon);
        let seg = sim_segment(name, &cfg, opts.seed, tr, root);
        layers.insert(name.replace("sim.", "sim.viewers_per_s."), seg.rate());
    }

    // One single-movie shard per federation shard, as the mirror takes them.
    let shard = SimConfig {
        mean_interarrival: sizes.fed_shards as f64 / sizes.vcr_rate,
        horizon: sizes.sim_horizon,
        warmup: 0.0,
        dedicated_capacity: Some(sizes.fed_reserve),
        ..SimConfig::new(model_params(), behavior())
    };
    let shards = vec![shard; sizes.fed_shards];
    let id = tr.name("sim.federation");
    let t0 = Instant::now();
    let span = tr.open(id, root);
    let report = run_federation_seeded(&shards, &FaultPlan::empty(), opts.seed);
    tr.close(span, 1);
    let viewers: u64 = report.per_shard.iter().map(|r| r.viewers_arrived).sum();
    layers.insert(
        "sim.federation_viewers_per_s".to_string(),
        viewers as f64 / t0.elapsed().as_secs_f64(),
    );
}

/// `federation.*` from the spans of both segments.
fn federation_layers(
    fed: &Fed,
    tr: &Tracer,
    reps: &[Vec<Segment>],
    sizes: &Sizes,
    layers: &mut BTreeMap<String, f64>,
) {
    let mut set = |name: &str, v: f64| {
        layers.insert(format!("federation.{name}"), v);
    };
    let both = |phase: &str| vec![format!("outage/{phase}"), format!("steady/{phase}")];
    set("open_ns", per_call_ns(tr, &both("admit")));
    set("vcr_ns", per_call_ns(tr, &both("vcr")));
    let mut tick_ms = ms(&tr.durations_ns("outage/tick"));
    tick_ms.extend(ms(&tr.durations_ns("steady/tick")));
    set("tick_ms_p50", median_or_zero(&tick_ms));
    set("tick_ms_p99", tail(&tick_ms).1);
    set(
        "audit_ms_p50",
        median_or_zero(&ms(&tr.durations_ns("outage/audit"))),
    );
    let shard_events = fed
        .plan
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                FaultKind::ShardOutage { .. } | FaultKind::ShardRecovery { .. }
            )
        })
        .map(|e| e.at)
        .collect();
    let at_outages = tick_ms_at(tr, "outage", sizes.ticks, &shard_events);
    set(
        "outage_tick_ms_max",
        at_outages.iter().copied().fold(0.0, f64::max),
    );
    let outage = &reps[0][0];
    for count in [
        "displaced_total",
        "readmitted_cohort",
        "readmitted_dedicated",
        "readmit_refusals",
        "denied_transient",
    ] {
        set(count, outage.count(count));
    }
}

/// `federation` extras: the steady segment at 1 and 2 shards, and a
/// 1-shard empty-plan federation against the bare backend on the same
/// arrival stream (the front tier's own overhead).
fn federation_extras(
    fed: &Fed,
    opts: &RunOpts,
    rep: &[Segment],
    tr: &mut Tracer,
    root: Option<SpanId>,
    layers: &mut BTreeMap<String, f64>,
) {
    let sizes = &opts.sizes;
    let steady = rep
        .iter()
        .find(|s| s.name == "steady")
        .expect("steady segment");
    let key = |shards: usize| format!("federation.steady_sessions_per_s.shards{shards}");
    layers.insert(key(sizes.fed_shards), steady.rate());
    let empty = FaultPlan::empty();
    for (name, shards) in [("steady.shards1", 1), ("steady.shards2", 2)] {
        let config = federation_config(sizes.movies, shards, sizes.fed_reserve);
        let seg = federation_segment(name, &config, &empty, &fed.steady, opts.seed, tr, root);
        layers.insert(key(shards), seg.rate());
    }

    let load = Load {
        movies: (sizes.movies / sizes.fed_shards).max(1),
        ..fed.steady
    };
    let front = federation_segment(
        "front.federation",
        &federation_config(load.movies, 1, sizes.fed_reserve),
        &empty,
        &load,
        opts.seed,
        tr,
        root,
    );
    let bare = backend_segment(
        "front.bare",
        BackendKind::BatchingBuffering,
        &harness_config(load.movies, sizes.fed_reserve),
        &empty,
        &load,
        opts.seed,
        tr,
        root,
    );
    layers.insert(
        "federation.front_overhead_share".to_string(),
        front.wall_s / bare.wall_s - 1.0,
    );
}
