//! The metric and workload registry: the single list `BENCHMARK.json` is
//! generated from (`manifest` subcommand) and checked against (self-test).

use crate::json::{obj, Json};

pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` — why each workload exists, in one line.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "plan-catalog",
        "vodplan on a mixed-distribution catalog: all wall time is dist -> model -> sizing, from analytic to fully numeric integrals; the server does nothing",
    ),
    (
        "serve-vcr",
        "steady data path under the Fig. 7(d) VCR mix, no faults, audit off: each of the three backends and the sim mirror is its own timed segment",
    ),
    (
        "serve-storm",
        "same tick entry point, other half of the code: pool-scaled fault plan, lease revocation, degrade ledger, conservation audit after every tick",
    ),
    (
        "federation",
        "front tier over 4 shards: whole-shard outage failover with per-tick audit, then a tick-dominated steady segment that bypasses failover",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: what a user of the pipeline sees. Every workload
/// reports every one of them (the harness contract), so each is defined
/// on all four; the per-segment rates they summarise are in the run
/// report and compared by `compare`.
///
/// Bounds are at least three times the widest run-to-run spread measured
/// over two sets of ten seeds per workload on the 2-core machine the
/// baseline comes from (see README, "Steadiness"). The two timings get
/// the widest bound the harness admits: that machine has minutes-long
/// slow episodes that cost 10–25 % whatever estimator summarises the
/// repetitions.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    let e = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        // One set-up pass: config and fault-plan construction, the one
        // model evaluation, one discarded full-size warm-up rep.
        e("setup_s", "s", Lower, 0.25),
        // Work units (movies planned, sessions opened, sim viewers
        // arrived) per wall-second of one repetition.
        e("work_per_s", "1/s", Higher, 0.25),
        // Planned P(hit) (plan-catalog), resume hit ratio of the batching
        // segment (serve-*) or of the steady segment (federation).
        e("hit_ratio", "ratio", Higher, 0.04),
        // 1 − refused ÷ attempted operations.
        e("served_share", "ratio", Higher, 0.01),
        // The paper's objective φΣB + Σn of what the workload provisions.
        e("provisioned_cost", "stream-eq", Lower, 0.001),
        e("peak_rss_mib", "MiB", Lower, 0.20),
    ]
}

pub const BACKENDS: [&str; 3] = ["batching", "pyramid", "dedicated"];
pub const DIST_KINDS: [&str; 4] = ["exp", "gamma", "weibull", "lognormal"];

/// Per-layer metrics, from the traced pass. Layers are the crates. A
/// workload's traced pass measures the layers it exercises; every other
/// layer's metrics read 0 there (that layer did no work).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = Vec::new();
    // vod-dist: quadrature, special functions, ∫F per distribution kind.
    for name in ["gauss_legendre_ns", "adaptive_simpson_ns", "gamma_p_ns"] {
        v.push(def(format!("dist.{name}"), "ns", Lower));
    }
    for kind in DIST_KINDS {
        v.push(def(format!("dist.cdf_integral_ns.{kind}"), "ns", Lower));
    }
    // vod-model: one P(hit) evaluation.
    for kind in DIST_KINDS {
        v.push(def(format!("model.p_hit_ms.{kind}"), "ms", Lower));
    }
    for name in ["ff_ms", "rw_ms", "pause_ms"] {
        v.push(def(format!("model.{name}"), "ms", Lower));
    }
    v.push(def("model.p_hit_us_per_stream", "us", Lower));
    v.push(def("model.allocs_per_eval", "count", Lower));
    // vod-sizing and the CLI: the public calls `cli::run` is made of.
    v.push(def("sizing.frontier_s", "s", Lower));
    v.push(def("sizing.plan_build_ms", "ms", Lower));
    for name in ["reserve_us", "procurement_us"] {
        v.push(def(format!("sizing.{name}"), "us", Lower));
    }
    // Milliseconds, not the issue's microseconds: `split_budget` re-solves
    // the whole allocation before it splits it.
    v.push(def("sizing.split_budget_ms", "ms", Lower));
    for kind in DIST_KINDS {
        v.push(def(format!("sizing.bisection_ms.{kind}"), "ms", Lower));
    }
    v.push(def("sizing.model_evals", "count", Lower));
    v.push(def("sizing.evals_per_movie", "count", Lower));
    v.push(def("cli.parse_us", "us", Lower));
    v.push(def("cli.cpu_s", "s", Lower));
    v.push(def("server.provision_ms", "ms", Lower));
    // vod-runtime: probe loops on the public primitives.
    for name in [
        "wheel_schedule_ns",
        "wheel_drain_ns",
        "arena_insert_ns",
        "arena_remove_ns",
        "windows_covers_ns",
        "plan_vcr_ns",
        "reserve_acquire_ns",
    ] {
        v.push(def(format!("runtime.{name}"), "ns", Lower));
    }
    v.push(def("runtime.faultplan_from_json_us", "us", Lower));
    // vod-server: each backend's calls, steady path then fault path.
    for b in BACKENDS {
        for name in ["open_ns", "vcr_ns", "status_ns"] {
            v.push(def(format!("server.{b}.{name}"), "ns", Lower));
        }
        v.push(def(format!("server.{b}.tick_ms_p50"), "ms", Lower));
        v.push(def(format!("server.{b}.tick_ms_p99"), "ms", Lower));
        v.push(def(format!("server.{b}.tick_share"), "share", Lower));
        v.push(def(format!("server.{b}.ns_per_segment"), "ns", Lower));
        v.push(def(
            format!("server.{b}.peak_live_bytes_per_session"),
            "B",
            Lower,
        ));
        v.push(def(
            format!("server.{b}.allocs_per_session"),
            "count",
            Lower,
        ));
        v.push(def(format!("server.{b}.vcr_ops"), "count", Higher));
        v.push(def(format!("server.{b}.vcr_denied"), "count", Lower));
        v.push(def(format!("server.{b}.segments"), "count", Higher));
        v.push(def(format!("server.{b}.audit_ms_p50"), "ms", Lower));
        v.push(def(format!("server.{b}.audit_share"), "share", Lower));
        v.push(def(format!("server.{b}.fault_tick_ms_p50"), "ms", Lower));
        v.push(def(format!("server.{b}.fault_tick_ms_max"), "ms", Lower));
        v.push(def(format!("server.{b}.degraded_entries"), "count", Lower));
        v.push(def(format!("server.{b}.denied_transient"), "count", Lower));
        v.push(def(format!("server.{b}.violations"), "count", Lower));
    }
    // vod-federation: the front tier.
    for name in ["open_ns", "vcr_ns"] {
        v.push(def(format!("federation.{name}"), "ns", Lower));
    }
    for name in [
        "tick_ms_p50",
        "tick_ms_p99",
        "audit_ms_p50",
        "outage_tick_ms_max",
    ] {
        v.push(def(format!("federation.{name}"), "ms", Lower));
    }
    v.push(def("federation.front_overhead_share", "share", Lower));
    for shards in [1, 2, 4] {
        v.push(def(
            format!("federation.steady_sessions_per_s.shards{shards}"),
            "1/s",
            Higher,
        ));
    }
    v.push(def("federation.displaced_total", "count", Higher));
    v.push(def("federation.readmitted_cohort", "count", Higher));
    v.push(def("federation.readmitted_dedicated", "count", Higher));
    v.push(def("federation.readmit_refusals", "count", Lower));
    v.push(def("federation.denied_transient", "count", Lower));
    // vod-sim: the continuous-time mirror.
    for b in BACKENDS {
        v.push(def(format!("sim.viewers_per_s.{b}"), "1/s", Higher));
    }
    v.push(def("sim.resumes_per_s", "1/s", Higher));
    v.push(def("sim.federation_viewers_per_s", "1/s", Higher));
    v.push(def("crossval.gap", "ratio", Lower));
    // vod-workload samplers and the load generator itself.
    for name in ["gap_sample_ns", "request_sample_ns", "zipf_sample_ns"] {
        v.push(def(format!("workload.{name}"), "ns", Lower));
    }
    v.push(def("driver.self_share", "share", Lower));
    v.push(def("driver.trace_overhead_share", "share", Lower));
    v
}

/// The `BENCHMARK.json` document this registry describes.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::from(m.name.as_str())),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::from(bound)));
        }
        obj(pairs)
    };
    obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .into_iter()
                .map(Json::from)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| obj([("name", Json::from(name)), ("why", Json::from(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_respects_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in e2e.iter().chain(&layers) {
            assert!(m.unit.len() <= 16, "unit {}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &e2e {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` names every metric and workload the binary emits,
    /// and nothing else: it is exactly the generated manifest.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
