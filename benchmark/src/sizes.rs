//! Frozen input sizes.
//!
//! The issue's prototype sizes (720 ticks, 200 arrivals/tick, a 32-movie
//! catalog) need minutes per repetition; the harness gives one run 20 s.
//! Ticks were cut to the 480-tick floor first, then every rate, pool and
//! catalog by the same factor of four, keeping the ratios the workloads
//! depend on: batching : pyramid : dedicated arrivals 4 : 4 : 1, the
//! dedicated pool ≈ 70 % busy, fault magnitudes a fixed share of the pool.

use crate::json::{obj, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    pub smoke: bool,
    /// Virtual minutes every serve and federation segment runs.
    pub ticks: u64,
    /// Movies of the fixed harness geometry (120 min, n = 20, B = 100).
    pub movies: usize,
    /// VCR reserve of the single-backend workloads.
    pub reserve: u32,
    /// `serve-vcr` arrivals per tick: batching and pyramid.
    pub vcr_rate: f64,
    /// `serve-vcr` arrivals per tick: dedicated (≈ 70 % of its pool).
    pub vcr_dedicated_rate: f64,
    /// Horizon of the sim mirror of the batching segment, minutes.
    pub sim_horizon: f64,
    /// `serve-storm` arrivals per tick, all three backends.
    pub storm_rate: f64,
    pub storm_events: u64,
    pub fed_shards: usize,
    /// VCR reserve of each federation shard.
    pub fed_reserve: u32,
    pub fed_outage_rate: f64,
    pub fed_steady_rate: f64,
    /// Outage → recovery pairs in the `outage` segment.
    pub fed_outages: u64,
    /// Movies of the `plan-catalog` catalog (the first of the issue's 32).
    pub plan_movies: usize,
    /// Timed repetitions at least, whatever `--seconds` says.
    pub min_reps: usize,
    /// Set-up passes per run (`setup_s` is their median).
    pub setups: usize,
    /// Traced repetitions pool at least this many tick samples per
    /// backend, so `tick_ms_p99` has ten samples beyond it.
    pub tick_samples: u64,
    /// Each probe loop grows until one batch takes at least this long.
    pub probe_batch_ns: u128,
}

impl Sizes {
    pub fn frozen() -> Self {
        Self {
            smoke: false,
            ticks: 480,
            movies: 16,
            reserve: 2048,
            vcr_rate: 50.0,
            vcr_dedicated_rate: 12.5,
            sim_horizon: 4800.0,
            storm_rate: 12.5,
            storm_events: 15,
            fed_shards: 4,
            fed_reserve: 512,
            fed_outage_rate: 25.0,
            fed_steady_rate: 40.0,
            fed_outages: 6,
            plan_movies: 4,
            min_reps: 3,
            setups: 3,
            tick_samples: 1000,
            probe_batch_ns: 20_000_000,
        }
    }

    /// The self-test size: every code path, a few seconds in total.
    pub fn smoke() -> Self {
        Self {
            smoke: true,
            ticks: 60,
            movies: 4,
            reserve: 256,
            vcr_rate: 8.0,
            vcr_dedicated_rate: 2.0,
            sim_horizon: 240.0,
            storm_rate: 4.0,
            storm_events: 5,
            fed_shards: 4,
            fed_reserve: 64,
            fed_outage_rate: 8.0,
            fed_steady_rate: 12.0,
            fed_outages: 2,
            plan_movies: 2,
            min_reps: 1,
            setups: 1,
            tick_samples: 0,
            probe_batch_ns: 200_000,
        }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("smoke", Json::from(self.smoke)),
            ("ticks", Json::from(self.ticks)),
            ("movies", Json::from(self.movies)),
            ("reserve", Json::from(u64::from(self.reserve))),
            ("vcr_rate", Json::from(self.vcr_rate)),
            ("vcr_dedicated_rate", Json::from(self.vcr_dedicated_rate)),
            ("sim_horizon", Json::from(self.sim_horizon)),
            ("storm_rate", Json::from(self.storm_rate)),
            ("storm_events", Json::from(self.storm_events)),
            ("fed_shards", Json::from(self.fed_shards)),
            ("fed_reserve", Json::from(u64::from(self.fed_reserve))),
            ("fed_outage_rate", Json::from(self.fed_outage_rate)),
            ("fed_steady_rate", Json::from(self.fed_steady_rate)),
            ("fed_outages", Json::from(self.fed_outages)),
            ("plan_movies", Json::from(self.plan_movies)),
            ("min_reps", Json::from(self.min_reps)),
            ("setups", Json::from(self.setups)),
            ("tick_samples", Json::from(self.tick_samples)),
            ("probe_batch_ns", Json::from(self.probe_batch_ns as u64)),
        ])
    }
}
