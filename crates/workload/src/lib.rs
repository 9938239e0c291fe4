//! # vod-workload — workload substrate
//!
//! Describes and summarizes the workloads the paper's §4 experiments run:
//! per-viewer VCR interaction behavior (type mix plus general duration
//! distributions; [`BehaviorModel::paper_fig7d`] is the paper's viewer),
//! Zipf catalog popularity for the server's admission experiments, CSV
//! trace persistence (so measured VCR durations can be fitted back into
//! the model via `vod_dist::kinds::Empirical`), and streaming statistics
//! for replicated simulation runs. Arrivals are drawn where they are
//! consumed (`vod_server::Driver`, the `vod-sim` engine), not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

mod behavior;
mod popularity;
mod stats;
mod trace;

pub use behavior::{BehaviorModel, VcrKind, VcrRequest};
pub use popularity::Zipf;
pub use stats::{Histogram, Ratio, TimeWeighted, Welford};
pub use trace::{read_csv, write_csv, TraceError, VcrTraceRecord, CSV_HEADER};
