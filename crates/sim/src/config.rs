//! Simulation configuration.

use vod_model::SystemParams;
use vod_runtime::{BackendKind, FaultPlan};
use vod_workload::BehaviorModel;

/// One movie's load within a catalog simulation.
#[derive(Debug, Clone)]
pub struct MovieLoad {
    /// System geometry and rates for this movie.
    pub params: SystemParams,
    /// Mean inter-arrival time of its viewers (minutes, Poisson).
    pub mean_interarrival: f64,
    /// Its viewers' interaction behavior.
    pub behavior: BehaviorModel,
}

/// Configuration of a catalog simulation: several movies, one shared
/// dedicated-stream reserve — the coupling the §5 multi-movie sizing
/// creates.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// The hosted movies and their loads.
    pub movies: Vec<MovieLoad>,
    /// Total simulated minutes (including warm-up).
    pub horizon: f64,
    /// Warm-up minutes excluded from statistics.
    pub warmup: f64,
    /// Whether an FF reaching the end of the movie counts as a hit.
    pub count_ff_end_as_hit: bool,
    /// Collect per-operation trace records.
    pub collect_trace: bool,
    /// Shared cap on concurrently held dedicated streams; `None` =
    /// infinite reserve.
    pub dedicated_capacity: Option<u32>,
    /// Deterministic fault schedule mirrored from the server's chaos
    /// harness (event times are virtual-minute marks). The continuous
    /// engine applies stream loss/outage to the shared reserve and
    /// buffer shrink/restore to the window geometry; disk slowdowns have
    /// no tick grid to stretch and are counted but otherwise ignored.
    pub faults: FaultPlan,
    /// Delivery scheme the engine models. The default,
    /// [`BackendKind::BatchingBuffering`], is the paper's batching +
    /// static-partition system and keeps the historical RNG stream
    /// bitwise intact. `PyramidBroadcast` replaces restart enrollment
    /// with segment-1 boundary joins and classifies resumes against the
    /// client's reception front; `DedicatedStream` gives every viewer a
    /// private stream from the shared reserve (FIFO queue when capped).
    /// Buffer shrink faults only deform batching windows; the other
    /// schemes count them and move on.
    pub backend: BackendKind,
}

impl CatalogConfig {
    /// Validate cross-field invariants. Called by the engine.
    pub fn validate(&self) -> Result<(), String> {
        if self.movies.is_empty() {
            return Err("catalog must host at least one movie".into());
        }
        for (i, m) in self.movies.iter().enumerate() {
            if !(m.mean_interarrival.is_finite() && m.mean_interarrival > 0.0) {
                return Err(format!(
                    "movie {i}: mean_interarrival must be positive, got {}",
                    m.mean_interarrival
                ));
            }
        }
        if !(self.horizon.is_finite() && self.horizon > 0.0) {
            return Err(format!("horizon must be positive, got {}", self.horizon));
        }
        if !(self.warmup.is_finite() && self.warmup >= 0.0 && self.warmup < self.horizon) {
            return Err(format!(
                "warmup must be in [0, horizon), got {} (horizon {})",
                self.warmup, self.horizon
            ));
        }
        Ok(())
    }
}

impl From<SimConfig> for CatalogConfig {
    fn from(cfg: SimConfig) -> Self {
        CatalogConfig {
            movies: vec![MovieLoad {
                params: cfg.params,
                mean_interarrival: cfg.mean_interarrival,
                behavior: cfg.behavior,
            }],
            horizon: cfg.horizon,
            warmup: cfg.warmup,
            count_ff_end_as_hit: cfg.count_ff_end_as_hit,
            collect_trace: cfg.collect_trace,
            dedicated_capacity: cfg.dedicated_capacity,
            faults: cfg.faults,
            backend: cfg.backend,
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// System geometry and rates (`l`, `B`, `n`, `R_*`).
    pub params: SystemParams,
    /// Mean inter-arrival time of new viewers in minutes (Poisson
    /// arrivals; the paper's §4 uses `1/λ = 2`).
    pub mean_interarrival: f64,
    /// Per-viewer interaction behavior (mix, duration laws, think time).
    pub behavior: BehaviorModel,
    /// Total simulated minutes (including warm-up).
    pub horizon: f64,
    /// Minutes of warm-up during which no statistics are recorded; should
    /// cover at least one full movie length so the stream pattern and the
    /// viewer population reach steady state.
    pub warmup: f64,
    /// Whether a fast-forward that reaches the end of the movie counts as
    /// a hit (the model's Eq. 20 `P(end)` term counts it as a release;
    /// `true` matches the model's accounting).
    pub count_ff_end_as_hit: bool,
    /// Collect per-operation trace records (costs memory on long runs).
    pub collect_trace: bool,
    /// Cap on concurrently held dedicated I/O streams (the VCR reserve).
    /// `None` models an infinite reserve (the paper's §4 measurement
    /// setting); `Some(c)` turns the reserve into an Erlang loss system:
    /// FF/RW issued when all `c` streams are busy are *denied* (the
    /// viewer stays in his batch) and a paused viewer whose miss-resume
    /// finds no stream *abandons* (blocked customers cleared).
    pub dedicated_capacity: Option<u32>,
    /// Deterministic fault schedule (see [`CatalogConfig::faults`]).
    pub faults: FaultPlan,
    /// Delivery scheme (see [`CatalogConfig::backend`]).
    pub backend: BackendKind,
}

impl SimConfig {
    /// Reasonable defaults around the paper's §4 experiment: Poisson
    /// arrivals every 2 minutes, statistics after one movie length of
    /// warm-up, a horizon of 40 movie lengths.
    pub fn new(params: SystemParams, behavior: BehaviorModel) -> Self {
        let l = params.movie_len();
        Self {
            params,
            mean_interarrival: 2.0,
            behavior,
            horizon: 40.0 * l,
            warmup: 2.0 * l,
            count_ff_end_as_hit: true,
            collect_trace: false,
            dedicated_capacity: None,
            faults: FaultPlan::empty(),
            backend: BackendKind::BatchingBuffering,
        }
    }

    /// Validate cross-field invariants: the one-movie
    /// [`CatalogConfig::validate`], which the engine calls.
    pub fn validate(&self) -> Result<(), String> {
        CatalogConfig::from(self.clone()).validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::Rates;

    fn movie() -> MovieLoad {
        MovieLoad {
            params: SystemParams::new(60.0, 30.0, 5, Rates::paper()).unwrap(),
            mean_interarrival: 2.0,
            behavior: BehaviorModel::paper_fig7d(),
        }
    }

    #[test]
    fn sim_config_validation() {
        let params = SystemParams::new(60.0, 30.0, 5, Rates::paper()).unwrap();
        let behavior = BehaviorModel::paper_fig7d();
        let mut cfg = SimConfig::new(params, behavior);
        assert!(cfg.validate().is_ok());
        cfg.mean_interarrival = 0.0;
        assert!(cfg.validate().is_err());
        cfg.mean_interarrival = 2.0;
        cfg.warmup = cfg.horizon;
        assert!(cfg.validate().is_err());
        cfg.warmup = -1.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn catalog_validation() {
        let cfg = CatalogConfig {
            movies: vec![],
            horizon: 100.0,
            warmup: 0.0,
            count_ff_end_as_hit: true,
            collect_trace: false,
            dedicated_capacity: None,
            faults: FaultPlan::empty(),
            backend: BackendKind::BatchingBuffering,
        };
        assert!(cfg.validate().is_err(), "empty catalog rejected");
        let mut cfg = CatalogConfig {
            movies: vec![movie()],
            ..cfg
        };
        assert!(cfg.validate().is_ok());
        cfg.movies[0].mean_interarrival = f64::NAN;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn single_movie_conversion_preserves_fields() {
        let params = SystemParams::new(60.0, 30.0, 5, Rates::paper()).unwrap();
        let behavior = BehaviorModel::paper_fig7d();
        let mut cfg = SimConfig::new(params, behavior);
        cfg.dedicated_capacity = Some(7);
        cfg.collect_trace = true;
        let cat: CatalogConfig = cfg.clone().into();
        assert_eq!(cat.movies.len(), 1);
        assert_eq!(cat.dedicated_capacity, Some(7));
        assert!(cat.collect_trace);
        assert_eq!(cat.horizon, cfg.horizon);
    }
}
