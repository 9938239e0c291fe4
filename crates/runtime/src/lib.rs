//! # vod-runtime — shared mechanism semantics
//!
//! The paper's whole argument rests on one set of rules: streams restart
//! every `T = l/n` minutes, each live stream drags a `b = B/n`-minute
//! partition window behind it, and a VCR viewer's resume is a **hit** iff
//! the resume position lands inside some live window. The repo used to
//! state those rules three times — once in the analytic model, once in
//! the event simulator, and once in the tick server — which let them
//! drift. This crate owns them once, as pure driver-agnostic types:
//!
//! * [`PartitionWindows`] — continuous-time window geometry with the O(1)
//!   "is position `p` buffered at time `t`" membership test.
//! * [`QuantizedGeometry`] — the integer-minute `(l, B, n) → (T, b)`
//!   derivation the tick server hosts movies under, with a single
//!   rounding step so the effective wait `w = T − b` always equals the
//!   quantized model wait.
//! * [`plan_vcr`] / [`ResumeClass`] — the VCR sweep-rate and
//!   truncation-at-boundary rules and the single hit/miss resume
//!   classification both drivers share.
//! * [`StreamReserve`] — the shared dedicated-stream pool accountant with
//!   the paper's denial/starvation semantics.
//! * [`RuntimeMetrics`] — the unified measurement vocabulary
//!   `ServerMetrics` and `SimReport` are built on, with JSON export so
//!   bench bins can diff server-vs-sim-vs-model directly.
//! * [`json`] — the one JSON value, writer and strict reader every
//!   report in the workspace goes through.
//! * [`FaultPlan`] / [`DegradePolicy`] — deterministic, virtual-time
//!   fault schedules and the graceful-degradation knobs (bounded re-wait,
//!   retry backoff, batch-admission fallback) both drivers honor.
//! * [`BackendKind`] / [`PyramidGeometry`] / [`ReceptionFront`] — the
//!   delivery-backend vocabulary: which scheme a driver runs
//!   (batching+buffering, pyramid fast broadcasting, dedicated unicast),
//!   the integer-minute geometric segment schedule of the pyramid
//!   scheme, and the exact per-client reception bitmap whose contiguous
//!   front stays truthful under per-channel faults — so the cost model
//!   can price alternatives to the paper's design on the same axes and
//!   the chaos gate can audit them.
//! * [`TimerWheel`] / [`Arena`] — the million-session engine substrate:
//!   a hierarchical timer wheel over the virtual-time grid with a
//!   `BTreeMap`-equivalent drain order, and a generational slab whose
//!   slot reuse matches a linear free-slot scan, so both drivers'
//!   schedulers are O(1) per wakeup without perturbing a single bit of
//!   the deterministic outputs.
//! * [`SessionStore`] — where the servers and the federation front keep
//!   their sessions: ids issued in admission order and never reused (so
//!   every index-order argument holds), memory given back a chunk at a
//!   time as sessions finish, and a finished id told apart from a
//!   never-issued one without a tombstone.
//!
//! The drivers (`vod-server`, `vod-sim`) stay thin: they own event loops
//! and data paths, never semantics.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

mod arena;
mod backend;
mod degrade;
pub mod json;
mod metrics;
mod quantize;
mod reserve;
mod store;
mod vcr;
mod wheel;
mod windows;

pub use arena::{Arena, ArenaId};
pub use backend::{BackendKind, PyramidGeometry, ReceptionFront};
pub use degrade::{DegradePolicy, FaultEvent, FaultKind, FaultPlan, RetryLedger, RetryStep};
pub use metrics::{kind_index, FederationMetrics, RuntimeMetrics};
pub use quantize::QuantizedGeometry;
pub use reserve::StreamReserve;
pub use store::{SessionStore, CHUNK as SESSION_CHUNK};
pub use vcr::{plan_vcr, truncate_sweep, ResumeClass, SweepPlan};
pub use wheel::TimerWheel;
pub use windows::PartitionWindows;

/// SplitMix64: one step of the standard finalizer-mix generator — small,
/// fast, well-mixed, integer-only, so everything seeded with it is
/// identical on every platform. The one copy behind the synthetic segment
/// bytes, the fault-plan generators and the federation mirror's per-shard
/// seeds. `#[inline(always)]` because the integrity kernel chains it: a
/// call across the crate boundary would cost every verified segment.
#[inline(always)]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64's increment, 2⁶⁴/φ: the step a generator that keeps its own
/// state advances by after each [`splitmix64`] draw.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
