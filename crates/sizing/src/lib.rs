//! # vod-sizing — resource pre-allocation and system sizing
//!
//! Applies the analytic hit model (`vod-model`) to the paper's §5
//! questions: *given stream and buffer budgets, how should they be split
//! across a catalog of popular movies so that every movie meets its
//! maximum-wait and minimum-hit-probability targets at minimum cost?*
//!
//! * [`MovieSpec`] — one movie's length, QoS targets, and VCR behavior.
//! * [`feasible`](scan_by_buffer_step) — feasible `(B, n)` sets (Figure 8).
//! * [`allocate_min_buffer`] — the §5 Step-3 optimizer (Example 1).
//! * [`ResourceCost`] / [`HardwareSpec`] — Eq. 23 and Example 2's price
//!   derivation.
//! * [`cost_curve_with_catalog`] — Figure 9's cost-vs-streams curves and their optima.
//!
//! ```no_run
//! use vod_model::{ModelOptions, VcrMix};
//! use vod_sizing::{allocate_min_buffer, example1_movies, Budgets};
//!
//! let movies = example1_movies(VcrMix::paper_fig7d());
//! let plan = allocate_min_buffer(
//!     &movies,
//!     Budgets { streams: 1230, buffer: None },
//!     &ModelOptions::default(),
//! )
//! .unwrap();
//! println!(
//!     "{} streams + {:.1} buffer minutes (pure batching: 1230 streams)",
//!     plan.total_streams(),
//!     plan.total_buffer()
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

mod allocate;
mod cost;
mod curve;
mod error;
mod feasible;
mod movie;
mod procurement;
mod reserve;
mod shard;

pub use allocate::{
    allocate_min_buffer, allocate_min_buffer_with, Budgets, Catalog, MovieAllocation, ResourcePlan,
};
pub use cost::{HardwareSpec, ResourceCost};
pub use curve::{cost_curve_with_catalog, CostCurve, CostPoint};
pub use error::SizingError;
pub use feasible::{max_feasible_streams, scan_by_buffer_step, FeasiblePoint};
pub use movie::{example1_movies, MovieSpec};
pub use procurement::{procurement, Procurement};
pub use reserve::{erlang_b, size_vcr_reserve, VcrLoad};
pub use shard::{split_budget, ShardPlan};
