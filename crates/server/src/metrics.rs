//! Server-wide counters.

use vod_runtime::RuntimeMetrics;

/// Aggregated server metrics: the shared mechanism-level vocabulary
/// ([`RuntimeMetrics`] — identical in meaning to the simulator's) plus
/// counters only a byte-exact data path can produce.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Shared mechanism counters (resume classifications, denials,
    /// starvation, service minutes). The occupancy fields
    /// (`dedicated_avg`/`dedicated_peak`) are filled by
    /// [`crate::DeliveryBackend::runtime_metrics`], which snapshots the live
    /// reserve; they stay 0 here.
    pub runtime: RuntimeMetrics,
    /// Byte-verification failures (must stay 0).
    pub verify_failures: u64,
    /// Sessions completed.
    pub sessions_done: u64,
    /// Sessions closed early by the client.
    pub sessions_closed_early: u64,
    /// Dedicated streams released by piggyback merges.
    pub piggyback_merges: u64,
    /// Disk leases revoked out from under their holders by injected
    /// stream-loss faults (0 in fault-free runs, like the three below).
    pub leases_revoked: u64,
    /// Partitions evicted to clear a buffer-shrink overcommit.
    pub partitions_evicted: u64,
    /// FF/RW sweeps aborted mid-flight because their lease was revoked.
    pub sweeps_aborted: u64,
    /// New VCR phase-1 grants refused by the starvation policy (degraded
    /// sessions or failed streams present), over and above the reserve's
    /// ordinary Erlang-loss denials.
    pub vcr_denied_degraded: u64,
}

impl ServerMetrics {
    pub(crate) fn new() -> Self {
        Self {
            runtime: RuntimeMetrics::new(),
            verify_failures: 0,
            sessions_done: 0,
            sessions_closed_early: 0,
            piggyback_merges: 0,
            leases_revoked: 0,
            partitions_evicted: 0,
            sweeps_aborted: 0,
            vcr_denied_degraded: 0,
        }
    }

    /// Fraction of all delivered segments served from memory.
    pub fn buffer_service_fraction(&self) -> f64 {
        self.runtime.buffer_service_fraction()
    }
}
