//! Probe loops on the public functions of the lower layers: cost per
//! call of the primitives the workloads are built from. Each loop is one
//! span (`probe/<name>`, `calls` = iterations).

use std::hint::black_box;
use std::time::Instant;

use vod_dist::kinds::{Exponential, Gamma, LogNormal, Weibull};
use vod_dist::quad::{adaptive_simpson, gauss_legendre};
use vod_dist::rng::seeded;
use vod_dist::special::gamma_p;
use vod_dist::DurationDist;
use vod_model::{
    p_hit_ff, p_hit_pause, p_hit_rw, p_hit_single_dist, ModelOptions, Rates, SystemParams, VcrMix,
};
use vod_runtime::{plan_vcr, Arena, FaultPlan, PartitionWindows, StreamReserve, TimerWheel};
use vod_workload::{VcrKind, Zipf};

use crate::alloc;
use crate::load::{behavior, ZIPF_THETA};
use crate::metrics::DIST_KINDS;
use crate::trace::{SpanId, Tracer};

pub struct Prober<'a> {
    pub tr: &'a mut Tracer,
    pub parent: Option<SpanId>,
    /// Each loop grows until one batch takes at least this long.
    pub min_batch_ns: u128,
}

impl Prober<'_> {
    /// Nanoseconds per call of `f`, from the first batch (of 1, 4, 16, …
    /// calls) that runs long enough to time.
    fn ns_per_call(&mut self, name: &str, mut f: impl FnMut(u64)) -> f64 {
        let id = self.tr.name(&format!("probe/{name}"));
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            let span = self.tr.open(id, self.parent);
            for i in 0..iters {
                f(i);
            }
            self.tr.close(span, iters);
            let ns = t0.elapsed().as_nanos();
            if ns >= self.min_batch_ns {
                return ns as f64 / iters as f64;
            }
            iters *= 4;
        }
    }

    /// Nanoseconds per item of filling `state` with `n` items and of
    /// emptying it again, each direction its own span, repeated until
    /// the two together run long enough to time.
    fn fill_and_empty<S>(
        &mut self,
        names: [&str; 2],
        n: u64,
        mut fill: impl FnMut(&mut S, u64),
        mut empty: impl FnMut(&mut S),
        state: &mut S,
    ) -> (f64, f64) {
        let [fill_id, empty_id] = names.map(|name| self.tr.name(&format!("probe/{name}")));
        let (mut fill_ns, mut empty_ns, mut items) = (0u128, 0u128, 0u64);
        while fill_ns + empty_ns < self.min_batch_ns {
            let t0 = Instant::now();
            let span = self.tr.open(fill_id, self.parent);
            for i in 0..n {
                fill(state, i);
            }
            self.tr.close(span, n);
            fill_ns += t0.elapsed().as_nanos();
            let t0 = Instant::now();
            let span = self.tr.open(empty_id, self.parent);
            empty(state);
            self.tr.close(span, n);
            empty_ns += t0.elapsed().as_nanos();
            items += n;
        }
        (
            fill_ns as f64 / items as f64,
            empty_ns as f64 / items as f64,
        )
    }
}

fn dists() -> [Box<dyn DurationDist>; 4] {
    [
        Box::new(Exponential::with_mean(5.0).expect("valid")),
        Box::new(Gamma::paper_fig7()),
        Box::new(Weibull::new(1.5, 5.0).expect("valid")),
        Box::new(LogNormal::with_mean_cv(5.0, 0.7).expect("valid")),
    ]
}

/// `vod-dist`: quadrature, a special function, `∫F` per kind.
pub fn dist(p: &mut Prober<'_>) -> Vec<(String, f64)> {
    let smooth = |x: f64| x * (-x).exp();
    let mut out = vec![
        (
            "dist.gauss_legendre_ns".to_string(),
            p.ns_per_call("gauss_legendre", |i| {
                black_box(gauss_legendre(smooth, 0.0, 4.0 + (i % 8) as f64 * 0.25));
            }),
        ),
        (
            "dist.adaptive_simpson_ns".to_string(),
            p.ns_per_call("adaptive_simpson", |i| {
                black_box(adaptive_simpson(
                    smooth,
                    0.0,
                    4.0 + (i % 8) as f64 * 0.25,
                    1e-8,
                ));
            }),
        ),
        (
            "dist.gamma_p_ns".to_string(),
            p.ns_per_call("gamma_p", |i| {
                black_box(gamma_p(2.0, 0.25 + (i % 64) as f64 * 0.125));
            }),
        ),
    ];
    for (kind, d) in DIST_KINDS.iter().zip(dists()) {
        let ns = p.ns_per_call(&format!("cdf_integral.{kind}"), |i| {
            black_box(d.cdf_integral(0.5 + (i % 64) as f64 * 0.5));
        });
        out.push((format!("dist.cdf_integral_ns.{kind}"), ns));
    }
    out
}

/// `vod-model`: one `P(hit)` evaluation at `n = 20`, its three parts, its
/// growth with `n`, and what it allocates.
pub fn model(p: &mut Prober<'_>) -> Vec<(String, f64)> {
    let opts = ModelOptions::default();
    let mix = VcrMix::paper_fig7d();
    let at = |n: u32| SystemParams::from_wait(120.0, 1.0, n, Rates::paper()).expect("valid");
    let n20 = at(20);
    let gamma = Gamma::paper_fig7();
    let mut out = Vec::new();
    for (kind, d) in DIST_KINDS.iter().zip(dists()) {
        let ns = p.ns_per_call(&format!("p_hit.{kind}"), |_| {
            black_box(p_hit_single_dist(&n20, d.as_ref(), &mix, &opts).total);
        });
        out.push((format!("model.p_hit_ms.{kind}"), ns / 1e6));
    }
    let ns = p.ns_per_call("p_hit_ff", |_| {
        black_box(p_hit_ff(&n20, &gamma, &opts).total());
    });
    out.push(("model.ff_ms".to_string(), ns / 1e6));
    let ns = p.ns_per_call("p_hit_rw", |_| {
        black_box(p_hit_rw(&n20, &gamma, &opts).total());
    });
    out.push(("model.rw_ms".to_string(), ns / 1e6));
    let ns = p.ns_per_call("p_hit_pause", |_| {
        black_box(p_hit_pause(&n20, &gamma, &opts));
    });
    out.push(("model.pause_ms".to_string(), ns / 1e6));

    let mut cost_at = |n: u32| {
        let params = at(n);
        p.ns_per_call(&format!("p_hit.gamma.n{n}"), |_| {
            black_box(p_hit_single_dist(&params, &gamma, &mix, &opts).total);
        })
    };
    let slope_ns = (cost_at(100) - cost_at(10)) / 90.0;
    out.push(("model.p_hit_us_per_stream".to_string(), slope_ns / 1e3));

    let (_, allocs) = alloc::counted(true, || {
        black_box(p_hit_single_dist(&n20, &gamma, &mix, &opts).total);
    });
    out.push(("model.allocs_per_eval".to_string(), allocs.allocs as f64));
    out
}

/// `vod-runtime`: the wheel, the arena, window membership, VCR planning,
/// the reserve, fault-plan parsing.
pub fn runtime(p: &mut Prober<'_>) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    // Wheel and arena: fill with `N` entries, then empty again, so both
    // directions are timed at a realistic population.
    const N: u64 = 4096;
    // (wheel, current tick, entries drained so far)
    let mut wheel: (TimerWheel<u64>, u64, u64) = (TimerWheel::new(), 0, 0);
    let (schedule, drain) = p.fill_and_empty(
        ["wheel_schedule", "wheel_drain"],
        N,
        |(wheel, now, _), i| wheel.schedule(*now + 1 + i % 240, i),
        |(wheel, now, drained)| {
            // Tick by tick, the way the servers drain it.
            for _ in 0..240 {
                *now += 1;
                *drained += wheel.drain_tick(*now).len() as u64;
            }
        },
        &mut wheel,
    );
    assert!(
        wheel.2 > 0 && wheel.2.is_multiple_of(N),
        "the wheel lost entries"
    );
    out.push(("runtime.wheel_schedule_ns".to_string(), schedule));
    out.push(("runtime.wheel_drain_ns".to_string(), drain));

    let mut arena: (Arena<u64>, Vec<_>) = (Arena::new(), Vec::with_capacity(N as usize));
    let (insert, remove) = p.fill_and_empty(
        ["arena_insert", "arena_remove"],
        N,
        |(arena, ids), i| ids.push(arena.insert(i)),
        |(arena, ids)| {
            for id in ids.drain(..) {
                black_box(arena.remove(id));
            }
        },
        &mut arena,
    );
    out.push(("runtime.arena_insert_ns".to_string(), insert));
    out.push(("runtime.arena_remove_ns".to_string(), remove));

    let windows = PartitionWindows::new(120.0, 6.0, 5.0);
    let ns = p.ns_per_call("windows_covers", |i| {
        black_box(windows.covers(300.0 + (i % 97) as f64 * 0.37, (i % 113) as f64));
    });
    out.push(("runtime.windows_covers_ns".to_string(), ns));

    let rates = Rates::paper();
    let ns = p.ns_per_call("plan_vcr", |i| {
        let kind = VcrKind::ALL[(i % 3) as usize];
        black_box(plan_vcr(
            kind,
            1.0 + (i % 17) as f64,
            (i % 113) as f64,
            120.0,
            &rates,
        ));
    });
    out.push(("runtime.plan_vcr_ns".to_string(), ns));

    let mut reserve = StreamReserve::with_capacity(1 << 20);
    // The reserve's occupancy clock must never run backwards, and every
    // batch restarts `i` at 0.
    let mut t = 0.0;
    let ns = p.ns_per_call("reserve_acquire", |_| {
        t += 1.0;
        if reserve.try_acquire(t) {
            reserve.release(t);
        }
    });
    out.push(("runtime.reserve_acquire_ns".to_string(), ns));

    let text = FaultPlan::generate(7, 720, 15).to_json();
    let ns = p.ns_per_call("faultplan_from_json", |_| {
        black_box(FaultPlan::from_json(&text).expect("round trip").len());
    });
    out.push(("runtime.faultplan_from_json_us".to_string(), ns / 1e3));
    out
}

/// `vod-workload`: the three samplers the generator calls.
pub fn workload(p: &mut Prober<'_>, movies: usize) -> Vec<(String, f64)> {
    let behavior = behavior();
    let zipf = Zipf::new(movies, ZIPF_THETA);
    let mut rng = seeded(1);
    let gap = p.ns_per_call("gap_sample", |_| {
        black_box(behavior.next_interaction_gap(&mut rng));
    });
    let request = p.ns_per_call("request_sample", |_| {
        black_box(behavior.sample_request(&mut rng));
    });
    let pick = p.ns_per_call("zipf_sample", |_| {
        black_box(zipf.sample(&mut rng));
    });
    vec![
        ("workload.gap_sample_ns".to_string(), gap),
        ("workload.request_sample_ns".to_string(), request),
        ("workload.zipf_sample_ns".to_string(), pick),
    ]
}
