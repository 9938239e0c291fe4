//! `plan-catalog`: `vodplan` in-process on the argv a user would type.
//! All wall time is `vod-dist` → `vod-model` → `vod-sizing`; the four
//! distribution kinds span analytic `∫F` (exponential) to fully numeric
//! (lognormal), so a quadrature or work-sharing change shows here and
//! nowhere else.

use std::time::Instant;

use vod_dist::rng::{seeded, u01};
use vod_model::{expected_miss_hold_piggyback, ModelOptions};
use vod_prealloc::cli;
use vod_runtime::BackendKind;
use vod_server::{config_from_plan, make_backend};
use vod_sizing::{
    allocate_min_buffer, max_feasible_streams, procurement, size_vcr_reserve, split_budget,
    Budgets, Catalog, HardwareSpec, ResourceCost, ResourcePlan, VcrLoad,
};

use crate::metrics::DIST_KINDS;
use crate::segment::{Segment, PHI};
use crate::sizes::Sizes;
use crate::stats::fnv1a64;
use crate::trace::{SpanId, Tracer};

/// Movie `i` of the issue's catalog: `l = 60 + 1.2i`, `w = 0.5 + 0.02(i
/// mod 10)`, `p = 0.5`, mean `m = 2 + 0.25(i mod 16)`, distribution kind
/// cycling exp / gamma / weibull / lognormal. Returns `(kind, spec)`.
pub fn movie_spec(i: usize) -> (&'static str, String) {
    let l = 60.0 + 1.2 * i as f64;
    let w = 0.5 + 0.02 * (i % 10) as f64;
    let m = 2.0 + 0.25 * (i % 16) as f64;
    let kind = DIST_KINDS[i % 4];
    let dist = match kind {
        "exp" => format!("exp:mean={m}"),
        "gamma" => format!("gamma:shape=2,mean={m}"),
        "weibull" => format!("weibull:shape=1.5,scale={m}"),
        _ => format!("lognormal:mean={m},cv=0.7"),
    };
    (kind, format!("m{i:02};l={l:.1};w={w:.2};p=0.5;dist={dist}"))
}

/// Everything `plan-catalog` sets up once per pass.
pub struct Plan {
    pub argv: Vec<String>,
    /// Distribution kind of each movie, in argv order.
    pub kinds: Vec<&'static str>,
    /// The exact plan (full-precision `(n, B, p_hit)`), computed through
    /// the library with the options `vodplan` uses; it doubles as the
    /// warm-up repetition.
    pub reference: ResourcePlan,
    pub targets: Vec<f64>,
    pub cost: f64,
}

impl Plan {
    /// The seed decides the order the user lists the movies in; the set
    /// of movies — and so the work — is the same for every seed.
    pub fn new(sizes: &Sizes, seed: u64) -> Self {
        let mut order: Vec<usize> = (0..sizes.plan_movies).collect();
        let mut rng = seeded(seed);
        for i in (1..order.len()).rev() {
            let j = (u01(&mut rng) * (i + 1) as f64) as usize;
            order.swap(i, j);
        }
        let mut argv = Vec::new();
        let mut kinds = Vec::new();
        for &i in &order {
            let (kind, spec) = movie_spec(i);
            kinds.push(kind);
            argv.push("--movie".to_string());
            argv.push(spec);
        }
        let opts = cli::parse_args(&argv).expect("the generated argv parses");
        let reference = allocate_min_buffer(
            &opts.movies,
            Budgets {
                streams: opts.streams,
                buffer: opts.buffer,
            },
            &ModelOptions::default(),
        )
        .expect("every movie of the catalog is satisfiable");
        let prices = ResourceCost::from_phi(PHI).expect("phi is positive");
        Self {
            cost: reference.cost(&prices),
            targets: opts.movies.iter().map(|m| m.target_hit).collect(),
            argv,
            kinds,
            reference,
        }
    }

    /// One repetition: parse the argv and run the planner, then check the
    /// report shows the reference plan.
    pub fn rep(&self, tr: &mut Tracer, parent: Option<SpanId>) -> Vec<Segment> {
        let [seg_name, parse, run] = ["plan", "plan/parse_args", "plan/run"].map(|s| tr.name(s));
        let t0 = Instant::now();
        let span = tr.open(seg_name, parent);
        let s = tr.open(parse, span);
        let opts = cli::parse_args(&self.argv).expect("the generated argv parses");
        tr.close(s, 1);
        let s = tr.open(run, span);
        let report = cli::run(&opts).expect("the catalog plans");
        tr.close(s, 1);
        tr.close(span, 1);
        let wall_s = t0.elapsed().as_secs_f64();

        let mut problems = Vec::new();
        let mut below_target = 0;
        for (a, &target) in self.reference.allocations.iter().zip(&self.targets) {
            if a.p_hit < target {
                below_target += 1;
                problems.push(format!(
                    "{}: planned P(hit) {} < target {target}",
                    a.movie, a.p_hit
                ));
            }
            // The row `vodplan` prints for this allocation.
            let row = format!(
                "{:<16} {:>8} {:>10.1} {:>8.3}",
                a.movie, a.n_streams, a.buffer, a.p_hit
            );
            if !report.contains(&row) {
                problems.push(format!("report lacks the reference row `{row}`"));
            }
        }
        let cost_line = format!(
            "cost at phi = {PHI:.2}: {:.1} stream-equivalents",
            self.cost
        );
        if !report.contains(&cost_line) {
            problems.push(format!("report lacks `{cost_line}`"));
        }

        let movies = self.reference.allocations.len() as u64;
        let mean_hit = self
            .reference
            .allocations
            .iter()
            .map(|a| a.p_hit)
            .sum::<f64>()
            / movies as f64;
        let mut bits = Vec::new();
        for a in &self.reference.allocations {
            bits.extend(a.n_streams.to_le_bytes());
            bits.extend(a.buffer.to_bits().to_le_bytes());
            bits.extend(a.p_hit.to_bits().to_le_bytes());
        }
        bits.extend(fnv1a64(report.as_bytes()).to_le_bytes());
        vec![Segment {
            name: "plan",
            work_unit: "movies",
            wall_s,
            work: movies,
            attempted: movies,
            refused: 0,
            wrong: below_target,
            hit_ratio: mean_hit,
            cost: self.cost,
            digest: fnv1a64(&bits),
            counts: vec![
                ("movies", movies as f64),
                ("streams", f64::from(self.reference.total_streams())),
                ("buffer_minutes", self.reference.total_buffer()),
            ],
            allocs: Default::default(),
            problems,
        }]
    }

    /// The traced pass's second half: the public sizing calls `cli::run`
    /// is made of, one span each, and what the plan provisions. Returns
    /// per-layer `(metric, value)` pairs.
    pub fn layer_calls(&self, tr: &mut Tracer, parent: Option<SpanId>) -> Vec<(String, f64)> {
        let mopts = ModelOptions::default();
        let cli_opts = cli::parse_args(&self.argv).expect("the generated argv parses");
        let movies = &cli_opts.movies;
        let mut out = Vec::new();
        let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

        let (catalog, s) = timed(tr, parent, "sizing/Catalog::new", || {
            Catalog::new(movies, &mopts).expect("catalog frontier")
        });
        put("sizing.frontier_s", s);
        let (plan, s) = timed(tr, parent, "sizing/plan_at_stream_total", || {
            catalog
                .plan_at_stream_total(catalog.max_total_streams(), &mopts)
                .expect("plan at the frontier")
                .expect("the frontier total is in range")
        });
        put("sizing.plan_build_ms", s * 1e3);
        let evals = catalog.model_evaluations() as f64;
        put("sizing.model_evals", evals);
        put("sizing.evals_per_movie", evals / movies.len() as f64);

        // The reserve and shopping list exactly as `cli::run` derives them.
        let (worst, spec) = plan
            .allocations
            .iter()
            .zip(movies)
            .min_by(|a, b| a.0.p_hit.total_cmp(&b.0.p_hit))
            .expect("non-empty plan");
        let params = spec
            .params_for_streams(worst.n_streams)
            .expect("planned n is valid");
        let load = VcrLoad {
            ops_per_minute: cli_opts.vcr_ops_per_minute,
            mean_phase1: 3.0,
            mean_miss_hold: expected_miss_hold_piggyback(&params, 0.05),
            p_hit: worst.p_hit,
        };
        let (reserve, s) = timed(tr, parent, "sizing/size_vcr_reserve", || {
            size_vcr_reserve(&load, cli_opts.denial_target).expect("reserve")
        });
        put("sizing.reserve_us", s * 1e6);
        let minutes: f64 = movies.iter().map(|m| m.length).sum();
        let (_, s) = timed(tr, parent, "sizing/procurement", || {
            procurement(&plan, reserve, minutes, &HardwareSpec::paper_example2())
                .expect("procurement")
        });
        put("sizing.procurement_us", s * 1e6);

        let budgets = Budgets {
            streams: cli_opts.streams,
            buffer: cli_opts.buffer,
        };
        let shards = 2.min(movies.len() as u32);
        let (_, s) = timed(tr, parent, "sizing/split_budget", || {
            split_budget(movies, budgets, shards, &mopts).expect("split")
        });
        put("sizing.split_budget_ms", s * 1e3);

        // Provisioning all three backends from the plan also proves the
        // plan provisions.
        let lengths: Vec<u32> = movies.iter().map(|m| m.length.round() as u32).collect();
        let (_, s) = timed(tr, parent, "server/provision", || {
            let cfg = config_from_plan(&plan, &lengths, reserve);
            [
                BackendKind::BatchingBuffering,
                BackendKind::PyramidBroadcast,
                BackendKind::DedicatedStream,
            ]
            .map(|kind| make_backend(kind, &cfg).io_streams())
        });
        put("server.provision_ms", s * 1e3);

        // One feasibility bisection per movie, averaged per kind.
        let mut per_kind = [(0.0, 0u32); 4];
        for (movie, kind) in movies.iter().zip(&self.kinds) {
            let name = format!("sizing/max_feasible_streams.{kind}");
            let (_, s) = timed(tr, parent, &name, || {
                max_feasible_streams(movie, &mopts).expect("bisection")
            });
            let k = DIST_KINDS
                .iter()
                .position(|d| d == kind)
                .expect("known kind");
            per_kind[k].0 += s;
            per_kind[k].1 += 1;
        }
        for (kind, (total, n)) in DIST_KINDS.iter().zip(per_kind) {
            let ms = if n == 0 {
                0.0
            } else {
                total * 1e3 / f64::from(n)
            };
            put(&format!("sizing.bisection_ms.{kind}"), ms);
        }
        out
    }
}

/// Run `f` inside one span called `name`; returns its result (kept from
/// the optimiser) and its wall time in seconds.
fn timed<R>(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    name: &str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let id = tr.name(name);
    let t0 = Instant::now();
    let span = tr.open(id, parent);
    let out = std::hint::black_box(f());
    tr.close(span, 1);
    (out, t0.elapsed().as_secs_f64())
}
