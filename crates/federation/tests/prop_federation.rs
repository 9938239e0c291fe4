//! Property-based tests of the federation front tier: under arbitrary
//! seeded outage storms — random shard counts, backend mixes, degrade
//! policies, and fault plans — session conservation holds at every tick
//! (audited inside `run_federation`) and the displaced ledger always
//! balances at the end of the run.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::sync::Arc;

use proptest::prelude::*;

use vod_dist::kinds::Gamma;
use vod_federation::{
    run_federation, FederationConfig, FederationHarnessConfig, ShardSpec, WorkloadShape,
};
use vod_model::{Rates, SystemParams};
use vod_runtime::{BackendKind, DegradePolicy, FaultPlan};
use vod_server::{HostedMovie, MovieId, ServerConfig, Workload};
use vod_workload::BehaviorModel;

/// A small single-movie shard server (fast enough for many cases).
fn shard_server() -> ServerConfig {
    let params = SystemParams::from_wait(30.0, 1.0, 6, Rates::paper()).unwrap();
    let movie = HostedMovie::from_allocation(MovieId(0), 30, 6, params.buffer());
    ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], 8)
    }
}

/// Decode a backend from an integer draw (the offline proptest stand-in
/// has no `any::<enum>()`).
fn backend_of(tag: u32) -> BackendKind {
    match tag % 3 {
        0 => BackendKind::BatchingBuffering,
        1 => BackendKind::PyramidBroadcast,
        _ => BackendKind::DedicatedStream,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary seeded outage storms over arbitrary federations never
    /// break conservation: `run_federation` audits `check_invariants`
    /// and ledger/metric monotonicity every tick, and at the end every
    /// displaced session is exactly one of re-admitted, denied, or
    /// still in flight.
    #[test]
    fn outage_storms_conserve_sessions(
        shards in 1usize..5,
        backends in proptest::collection::vec(0u32..3, 4),
        plan_seed in 0u64..u64::MAX,
        run_seed in 0u64..u64::MAX,
        events in 0u32..10,
    ) {
        let config = FederationConfig {
            shards: (0..shards)
                .map(|s| ShardSpec {
                    backend: backend_of(backends[s]),
                    server: shard_server(),
                })
                .collect(),
            placement: vec![(0..shards).map(|s| (s, MovieId(0))).collect()],
            policy: DegradePolicy::default(),
        };
        let cfg = FederationHarnessConfig {
            workload: Workload {
                behavior: BehaviorModel::uniform_dist(
                    (0.2, 0.2, 0.6),
                    10.0,
                    Arc::new(Gamma::paper_fig7()),
                ),
                mean_interarrival: 2.0,
                warmup: 40,
                measure: 200,
                movies: vec![0],
            },
            shape: WorkloadShape::RoundRobin,
        };
        let plan = FaultPlan::generate_federation(plan_seed, 240, events, shards as u32);
        let out = run_federation(config, &plan, &cfg, run_seed);
        prop_assert_eq!(
            out.violation_count, 0,
            "per-tick invariant violations: {:?}", out.violations
        );
        let resolved = out.fed.readmitted_cohort
            + out.fed.readmitted_dedicated
            + out.fed.denied_transient
            + out.fed.denied_permanent;
        prop_assert_eq!(
            out.fed.displaced_total, resolved + out.displaced_in_flight,
            "displaced ledger must balance: {:?}", out.fed
        );
        // Every readmission retried at least once; outages are the only
        // source of displacement, so no outages means an empty ledger.
        if out.fed.shard_outages == 0 {
            prop_assert_eq!(out.fed.displaced_total, 0);
        }
        prop_assert!(out.fed.shard_recoveries <= out.fed.shard_outages);
        prop_assert!(out.fed.conserved(out.displaced_in_flight));
        prop_assert!(out.fed.monotone_violations(&out.fed).is_empty());
    }
}
