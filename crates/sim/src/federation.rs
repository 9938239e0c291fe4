//! Continuous-time federation mirror: the event simulator's view of a
//! sharded catalog under whole-shard chaos.
//!
//! The tick-grid front tier (`vod-federation`) owns the authoritative
//! failover semantics; this mirror answers the cross-validation
//! question — *does the analytic/simulated hit behavior of a federation
//! degrade the way the server says it does?* — without re-implementing
//! the ledger in continuous time. Each shard runs an independent
//! [`run_seeded`] simulation; the global fault plan is projected onto
//! shard-local plans the same way the front tier does it:
//!
//! * [`FaultKind::ShardOutage`]`{s}` becomes a [`FaultKind::DiskOutage`]
//!   that removes *every* stream of shard `s` (a dark shard serves
//!   nothing), recovering when the next [`FaultKind::ShardRecovery`]
//!   for `s` is scheduled — or a permanent
//!   [`FaultKind::DiskStreamLoss`] when none is.
//! * Every other (capacity) fault routes to shard `at % shards`,
//!   matching the front tier's distribution rule.
//!
//! Per-shard seeds derive from the run seed by the same [`splitmix64`]
//! step the fault generator uses, so the mirror is deterministic end to
//! end.

use vod_runtime::{splitmix64, FaultEvent, FaultKind, FaultPlan};

use crate::{run_seeded, SimConfig, SimReport};

/// Aggregate of one federated simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationSimReport {
    /// Per-shard single-shard reports, in shard order.
    pub per_shard: Vec<SimReport>,
    /// Resume hits summed over shards (trial-weighted aggregate).
    pub hits: u64,
    /// Resume trials summed over shards.
    pub trials: u64,
}

impl FederationSimReport {
    /// Trial-weighted overall hit ratio across the federation (0 when
    /// no shard recorded a resume).
    pub fn overall_hit_ratio(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.hits as f64 / self.trials as f64
        }
    }
}

/// Project the global plan onto shard `s`'s local plan (see the module
/// docs for the mapping).
fn shard_plan(global: &FaultPlan, s: u32, shards: u32, all_streams: u32) -> FaultPlan {
    let mut events = Vec::new();
    for (i, e) in global.events().iter().enumerate() {
        match e.kind {
            FaultKind::ShardOutage { shard } if shard == s => {
                // Dark until the next scheduled recovery of this shard.
                let recover_at = global.events()[i + 1..]
                    .iter()
                    .find(|r| matches!(r.kind, FaultKind::ShardRecovery { shard: rs } if rs == s))
                    .map(|r| r.at);
                let kind = match recover_at {
                    Some(at) if at > e.at => FaultKind::DiskOutage {
                        count: all_streams,
                        recover_after: at - e.at,
                    },
                    _ => FaultKind::DiskStreamLoss { count: all_streams },
                };
                events.push(FaultEvent { at: e.at, kind });
            }
            FaultKind::ShardOutage { .. } | FaultKind::ShardRecovery { .. } => {}
            FaultKind::DiskStreamLoss { .. }
            | FaultKind::DiskOutage { .. }
            | FaultKind::DiskSlowdown { .. }
            | FaultKind::BufferShrink { .. }
            | FaultKind::BufferRestore { .. } => {
                if e.at % u64::from(shards) == u64::from(s) {
                    events.push(FaultEvent {
                        at: e.at,
                        kind: e.kind,
                    });
                }
            }
        }
    }
    FaultPlan::new(events)
}

/// Run every shard's simulation under the projected global `plan` and
/// aggregate. `shards[s]` is shard `s`'s own configuration (its slice
/// of the catalog/budget); each runs with seed [`splitmix64`]`(seed ^ s)`.
///
/// # Panics
///
/// Panics if `shards` is empty or a shard's configuration fails
/// validation (same contract as [`run_seeded`]).
pub fn run_federation_seeded(
    shards: &[SimConfig],
    plan: &FaultPlan,
    seed: u64,
) -> FederationSimReport {
    // vod-lint: allow(no-panic) — a shardless federation is a caller bug.
    assert!(!shards.is_empty(), "federation needs at least one shard");
    let n = shards.len() as u32;
    let mut per_shard = Vec::with_capacity(shards.len());
    let mut hits = 0u64;
    let mut trials = 0u64;
    for (s, cfg) in shards.iter().enumerate() {
        let mut local = cfg.clone();
        // The shard serves nothing while dark: take every provisioned
        // stream plus the whole dedicated reserve off the air.
        let all_streams = local
            .params
            .n_streams()
            .saturating_add(local.dedicated_capacity.unwrap_or(0));
        local.faults = shard_plan(plan, s as u32, n, all_streams);
        let report = run_seeded(&local, splitmix64(seed ^ s as u64));
        hits += report.runtime.resumes.hits();
        trials += report.runtime.resumes.trials();
        per_shard.push(report);
    }
    FederationSimReport {
        per_shard,
        hits,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use vod_model::{Rates, SystemParams};
    use vod_workload::BehaviorModel;

    fn shard_cfg() -> SimConfig {
        let params = SystemParams::new(60.0, 30.0, 10, Rates::paper()).unwrap();
        let behavior = BehaviorModel::paper_fig7d();
        SimConfig {
            horizon: 400.0,
            warmup: 40.0,
            dedicated_capacity: Some(6),
            ..SimConfig::new(params, behavior)
        }
    }

    #[test]
    fn shard_plan_projects_outage_and_routes_capacity_faults() {
        let global = FaultPlan::new(vec![
            FaultEvent {
                at: 10,
                kind: FaultKind::ShardOutage { shard: 1 },
            },
            FaultEvent {
                at: 20,
                kind: FaultKind::DiskStreamLoss { count: 2 },
            },
            FaultEvent {
                at: 21,
                kind: FaultKind::DiskSlowdown {
                    period: 2,
                    duration: 5,
                },
            },
            FaultEvent {
                at: 40,
                kind: FaultKind::ShardRecovery { shard: 1 },
            },
        ]);
        // Shard 1: outage becomes a full-width DiskOutage recovering in
        // 30 ticks; the at=21 slowdown routes here (21 % 2 == 1).
        let p1 = shard_plan(&global, 1, 2, 16);
        assert_eq!(p1.len(), 2);
        assert!(matches!(
            p1.events()[0].kind,
            FaultKind::DiskOutage {
                count: 16,
                recover_after: 30
            }
        ));
        assert!(matches!(
            p1.events()[1].kind,
            FaultKind::DiskSlowdown { .. }
        ));
        // Shard 0: only the at=20 stream loss routes there.
        let p0 = shard_plan(&global, 0, 2, 16);
        assert_eq!(p0.len(), 1);
        assert!(matches!(
            p0.events()[0].kind,
            FaultKind::DiskStreamLoss { count: 2 }
        ));
        // Without a scheduled recovery the outage is permanent.
        let no_recovery = FaultPlan::new(vec![FaultEvent {
            at: 10,
            kind: FaultKind::ShardOutage { shard: 0 },
        }]);
        let p = shard_plan(&no_recovery, 0, 2, 16);
        assert!(matches!(
            p.events()[0].kind,
            FaultKind::DiskStreamLoss { count: 16 }
        ));
    }

    #[test]
    fn federation_mirror_is_deterministic_and_degrades_under_outage() {
        let shards = vec![shard_cfg(), shard_cfg()];
        let healthy = run_federation_seeded(&shards, &FaultPlan::empty(), 7);
        let again = run_federation_seeded(&shards, &FaultPlan::empty(), 7);
        assert_eq!(healthy, again, "same seed must reproduce bitwise");
        assert!(healthy.trials > 0, "workload exercised VCR resumes");

        let plan = FaultPlan::new(vec![FaultEvent {
            at: 60,
            kind: FaultKind::ShardOutage { shard: 0 },
        }]);
        let dark = run_federation_seeded(&shards, &plan, 7);
        // Shard 1 never sees the fault: bitwise-identical report.
        assert_eq!(dark.per_shard[1], healthy.per_shard[1]);
        // Shard 0 lost every stream: its hit ratio cannot improve.
        assert!(dark.overall_hit_ratio() <= healthy.overall_hit_ratio() + 1e-12);
    }
}
