//! Property-based tests of the simulator: conservation laws and geometry
//! under arbitrary valid configurations.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::sync::Arc;

use proptest::prelude::*;

use vod_dist::kinds::Exponential;
use vod_model::{Rates, SystemParams};
use vod_runtime::PartitionWindows;
use vod_sim::{run_seeded, SimConfig};
use vod_workload::BehaviorModel;

fn any_config() -> impl Strategy<Value = SimConfig> {
    (
        60.0f64..150.0, // movie length
        0.05f64..0.95,  // buffer fraction
        2u32..40,       // streams
        1.0f64..20.0,   // VCR duration mean
        0.0f64..1.0,    // ff weight
        0.0f64..1.0,    // rw fraction of remainder
        5.0f64..60.0,   // think time
    )
        .prop_map(|(l, bfrac, n, mean, ffw, rwf, think)| {
            let params = SystemParams::new(l, bfrac * l, n, Rates::paper()).unwrap();
            let rww = (1.0 - ffw) * rwf;
            let behavior = BehaviorModel::uniform_dist(
                (ffw, rww, 1.0 - ffw - rww),
                think,
                Arc::new(Exponential::with_mean(mean).unwrap()),
            );
            let mut cfg = SimConfig::new(params, behavior);
            cfg.horizon = 10.0 * l;
            cfg.warmup = 2.0 * l;
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reports_are_internally_consistent(cfg in any_config(), seed in 0u64..500) {
        let r = run_seeded(&cfg, seed);
        // Ratios are probabilities.
        prop_assert!((0.0..=1.0).contains(&r.runtime.resumes.value()));
        // Per-kind trials sum to the overall count.
        let per: u64 = r.runtime.resumes_by_kind.iter().map(|k| k.trials()).sum();
        prop_assert_eq!(per, r.runtime.resumes.trials());
        let hits: u64 = r.runtime.resumes_by_kind.iter().map(|k| k.hits()).sum();
        prop_assert_eq!(hits, r.runtime.resumes.hits());
        // Waits bounded by w; type-2 viewers wait zero.
        prop_assert!(r.wait.mean() <= cfg.params.max_wait() + 1e-9);
        // Resource usage sane.
        prop_assert!(r.runtime.dedicated_avg >= 0.0);
        prop_assert!(r.runtime.dedicated_peak >= r.runtime.dedicated_avg - 1e-9);
        // Population sanity: completions never exceed arrivals plus the
        // pre-warmup backlog. (A *tight* conservation bound is impossible
        // for arbitrary behavior: a mix dominated by long rewinds gives
        // viewers no net forward progress, so they legitimately stay in
        // the system for the whole horizon — see
        // engine_behavior::conservation_of_viewers for the tight check
        // under the paper's workload.)
        let backlog = (cfg.warmup / cfg.mean_interarrival).ceil() as u64 + 10;
        prop_assert!(
            r.viewers_completed <= r.viewers_arrived + backlog,
            "completed {} exceeds arrivals {} + backlog {backlog}",
            r.viewers_completed,
            r.viewers_arrived
        );
    }

    #[test]
    fn determinism(cfg in any_config(), seed in 0u64..500) {
        let a = run_seeded(&cfg, seed);
        let b = run_seeded(&cfg, seed);
        prop_assert_eq!(a.runtime.resumes.trials(), b.runtime.resumes.trials());
        prop_assert_eq!(a.runtime.resumes.hits(), b.runtime.resumes.hits());
        prop_assert!((a.runtime.dedicated_avg - b.runtime.dedicated_avg).abs() < 1e-12);
    }

    #[test]
    fn partition_membership_matches_brute_force(
        cfg in any_config(),
        t in 200.0f64..2000.0,
        p_frac in 0.0f64..1.0,
    ) {
        // O(1) window arithmetic vs explicit enumeration of streams.
        let l = cfg.params.movie_len();
        let tt = cfg.params.restart_interval();
        let b = cfg.params.partition_len();
        let p = p_frac * l;
        let windows = PartitionWindows::from_params(&cfg.params);
        let fast = windows.covers(t, p);
        let mut slow = false;
        let mut k = 0.0f64;
        while k * tt <= t {
            let age = t - k * tt;
            if age <= l && p <= age + 1e-9 && p >= age - b - 1e-9 && p >= (age - b).max(0.0) - 1e-9
            {
                // inside [max(0, age−b), age]
                if p <= age && p >= age - b {
                    slow = true;
                    break;
                }
            }
            k += 1.0;
        }
        // Tolerate boundary-epsilon disagreement by re-checking with a
        // nudged position when the verdicts differ.
        if fast != slow {
            let nudged = windows.covers(t, p + 1e-6) || windows.covers(t, (p - 1e-6).max(0.0));
            prop_assert!(
                nudged == slow || (p % tt).abs() < 1e-6,
                "fast {fast} vs slow {slow} at t={t} p={p}"
            );
        }
    }
}
