//! # vod-model — analytic hit-probability model
//!
//! The primary contribution of *"Buffer and I/O Resource Pre-allocation
//! for Implementing Batching and Buffering Techniques for Video-on-Demand
//! Systems"* (Leung, Lui & Golubchik, ICDE 1997): given a movie served by
//! `n` periodically restarted I/O streams with a static buffer partition of
//! `B/n` movie minutes behind each, compute the probability that a viewer
//! returning from a VCR operation (fast-forward, rewind, pause) *resumes
//! inside some partition* — a **hit** — so that the dedicated I/O stream
//! allocated for the VCR operation can be released.
//!
//! ```
//! use vod_dist::kinds::Gamma;
//! use vod_model::{p_hit_single_dist, ModelOptions, Rates, SystemParams, VcrMix};
//!
//! // The paper's Figure-7 setting: l = 120 min, FF/RW at 3x,
//! // VCR durations ~ Gamma(shape 2, scale 4) (mean 8 minutes).
//! let params = SystemParams::new(120.0, 60.0, 20, Rates::paper()).unwrap();
//! let d = Gamma::paper_fig7();
//! let hit = p_hit_single_dist(&params, &d, &VcrMix::paper_fig7d(), &ModelOptions::default());
//! assert!(hit.total > 0.0 && hit.total <= 1.0);
//! ```
//!
//! The FF component implements the paper's Eqs. (3)–(21) literally; RW and
//! PAU are derived in [`rw`](p_hit_rw) and [`pause`](p_hit_pause) following
//! the same structure (the paper defers them to technical report
//! CS-TR-96-03). Each component ships a brute-force integration oracle used
//! for cross-validation, and `vod-sim` validates the whole model against a
//! discrete-event simulation of the actual system (the paper's §4).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

mod error;
mod eval;
mod ff;
mod kernel;
mod mix;
mod options;
mod params;
mod pause;
mod piggyback;
mod rw;

pub use error::ModelError;
pub use eval::{HitMemo, SweepExecutor};
pub use ff::{p_hit_ff, p_hit_ff_direct, FfHit};
pub use mix::{p_hit, p_hit_single_dist, HitProbability, VcrDists, VcrMix};
pub use options::{BoundaryMode, ModelOptions};
pub use params::{Rates, SystemParams};
pub use pause::{p_hit_pause, p_hit_pause_direct};
pub use piggyback::{expected_miss_hold_piggyback, expected_miss_hold_plain, merge_time};
pub use rw::{p_hit_rw, p_hit_rw_direct, RwHit};
