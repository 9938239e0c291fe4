//! # vod-sim — discrete-event validation simulator
//!
//! Simulates the *actual* static-partitioning VOD system of the paper's
//! §2 (periodic stream restarts, enrollment windows, type-1/type-2
//! viewers, VCR phase-1/phase-2 resource lifecycle, movie start/end
//! boundary behavior) and measures the hit probability the analytic model
//! (`vod-model`) predicts — reproducing the paper's §4 model-verification
//! methodology (Figure 7).
//!
//! ```no_run
//! use vod_model::{Rates, SystemParams};
//! use vod_sim::{run_seeded, SimConfig};
//! use vod_workload::BehaviorModel;
//!
//! let params = SystemParams::new(120.0, 60.0, 20, Rates::paper()).unwrap();
//! let report = run_seeded(&SimConfig::new(params, BehaviorModel::paper_fig7d()), 42);
//! println!("simulated P(hit) = {:.3}", report.runtime.hit_ratio());
//! ```
//!
//! The mechanism semantics (window membership, VCR sweep rules, reserve
//! accounting, metric vocabulary) live in `vod-runtime`; this crate is
//! the event-driven driver over them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

mod config;
mod engine;
mod federation;
mod queue;
mod report;

pub use config::{CatalogConfig, MovieLoad, SimConfig};
pub use engine::{run_catalog_seeded, run_replications, run_seeded};
pub use federation::{run_federation_seeded, FederationSimReport};
pub use report::{CatalogReport, ReplicatedReport, SimReport};
