//! Simulation output.

use vod_runtime::{kind_index, RuntimeMetrics};
use vod_workload::{Ratio, VcrKind, VcrTraceRecord, Welford};

/// Everything one simulation run measured (after warm-up).
///
/// The mechanism-level counters live in [`RuntimeMetrics`] — the same
/// vocabulary `vod-server` reports — so a simulator run and a server run
/// of the same configuration can be diffed field by field. Simulation-
/// specific observables (waits, arrival counts, traces) sit alongside.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Shared mechanism counters (resume classifications, denials,
    /// starvation, service minutes, reserve occupancy).
    pub runtime: RuntimeMetrics,
    /// Viewers that finished the movie during the measured window.
    pub viewers_completed: u64,
    /// Viewers that arrived during the measured window.
    pub viewers_arrived: u64,
    /// Batching wait of type-1 viewers (minutes).
    pub wait: Welford,
    /// Fraction of arrivals that found the enrollment window open (type-2
    /// viewers).
    pub type2_fraction: Ratio,
    /// Per-operation trace (empty unless `collect_trace`).
    pub trace: Vec<VcrTraceRecord>,
    /// Simulated minutes measured (horizon − warmup).
    pub measured_minutes: f64,
}

impl SimReport {
    /// Hit ratio for one VCR kind.
    pub fn hit_ratio(&self, kind: VcrKind) -> &Ratio {
        self.runtime.resume_ratio(kind)
    }
}

/// Output of a catalog simulation: per-movie statistics plus the
/// catalog-wide aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogReport {
    /// Per-movie reports, in catalog order. Their runtime metrics carry
    /// the *per-movie* resume/sweep counters; the shared-reserve counters
    /// (denials, starvation, acquisition attempts, occupancy) belong to
    /// the catalog-wide [`CatalogReport::runtime`], because the reserve
    /// is shared.
    pub per_movie: Vec<SimReport>,
    /// Catalog-wide runtime metrics: resume classifications aggregated
    /// over every movie, plus the shared reserve's counters.
    pub runtime: RuntimeMetrics,
}

impl CatalogReport {
    pub(crate) fn with_movies(n: usize) -> Self {
        Self {
            per_movie: (0..n).map(|_| SimReport::default()).collect(),
            ..Self::default()
        }
    }

    /// Combined hit ratio across all movies.
    pub fn overall_hit_ratio(&self) -> f64 {
        self.runtime.hit_ratio()
    }
}

/// Aggregate over independent replications (different seeds).
#[derive(Debug, Clone, Default)]
pub struct ReplicatedReport {
    /// Per-replication overall hit ratios.
    pub overall: Welford,
    /// Per-replication hit ratios per kind, `[FF, RW, PAU]`.
    pub per_kind: [Welford; 3],
    /// Per-replication dedicated-stream time averages.
    pub dedicated_avg: Welford,
    /// Total VCR operations observed across replications.
    pub total_ops: u64,
}

impl ReplicatedReport {
    /// Fold one run into the aggregate.
    pub fn push(&mut self, run: &SimReport) {
        self.overall.push(run.runtime.hit_ratio());
        for k in VcrKind::ALL {
            let r = run.hit_ratio(k);
            if r.trials() > 0 {
                self.per_kind[kind_index(k)].push(r.value());
            }
        }
        self.dedicated_avg.push(run.runtime.dedicated_avg);
        self.total_ops += run.runtime.resumes.trials();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_overall_ratio_combines_movies() {
        let mut cat = CatalogReport::with_movies(2);
        for _ in 0..3 {
            cat.runtime.record_resume(VcrKind::Pause, true);
        }
        for _ in 0..5 {
            cat.runtime.record_resume(VcrKind::Pause, false);
        }
        // 3 hits of 8 trials.
        assert!((cat.overall_hit_ratio() - 3.0 / 8.0).abs() < 1e-12);
        let empty = CatalogReport::with_movies(1);
        assert_eq!(empty.overall_hit_ratio(), 0.0);
    }

    #[test]
    fn replicated_report_aggregates() {
        let mut run = SimReport::default();
        run.runtime.record_resume(VcrKind::FastForward, true);
        run.runtime.record_resume(VcrKind::FastForward, false);
        run.runtime.dedicated_avg = 2.0;
        let mut agg = ReplicatedReport::default();
        agg.push(&run);
        agg.push(&run);
        assert_eq!(agg.total_ops, 4);
        assert!((agg.overall.mean() - 0.5).abs() < 1e-12);
        assert!((agg.per_kind[0].mean() - 0.5).abs() < 1e-12);
        // RW never observed: its Welford stays empty.
        assert_eq!(agg.per_kind[1].count(), 0);
        assert!((agg.dedicated_avg.mean() - 2.0).abs() < 1e-12);
    }
}
