//! Seeded federation workload: [`run_federation`] steps the one
//! `vod-server` [`Driver`] — the harness's own arrival / interaction
//! loop — against a [`Federation`] through its [`Target`] impl. With one
//! shard, an empty fault plan and the [`WorkloadShape::RoundRobin`]
//! shape, shard 0's measured [`RuntimeMetrics`] are therefore bitwise
//! equal to the plain harness on the same workload/seed (pinned by the
//! `federation_identity` test and asserted again by the bench gate).
//! What is the federation's own stays here: the Zipf-drift and
//! flash-crowd [`WorkloadShape`]s, handed to the driver as its
//! [`ArrivalShape`] hook.

use vod_dist::rng::SeededRng;
use vod_runtime::{FaultPlan, FederationMetrics, RuntimeMetrics};
use vod_server::{ArrivalShape, Driver, SessionStatus, Target, Workload};
use vod_workload::{VcrKind, Zipf};

use crate::front::{FedSessionId, Federation, FederationConfig};

/// How arrivals pick movies (and how the arrival rate moves) over the
/// run. [`RoundRobin`](WorkloadShape::RoundRobin) consumes no extra
/// randomness and is the bitwise-identity shape; the other two draw one
/// extra `u64` per arrival (Zipf) or modulate the arrival mean (flash
/// crowd), deliberately diverging from the plain harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadShape {
    /// Cycle through the catalog in arrival order (the harness shape).
    RoundRobin,
    /// Zipf-distributed movie popularity whose skew drifts linearly
    /// from `start_skew` to `end_skew` across the horizon: the hot set
    /// migrates, stressing placement maps sized for the initial skew.
    /// Skews are finite; one below 0 (popularity rising with rank) is read
    /// as 0, uniform.
    ZipfDrift {
        /// Skew exponent at tick 0.
        start_skew: f64,
        /// Skew exponent at the final tick.
        end_skew: f64,
    },
    /// A flash crowd: inside `[at, at + duration)` every arrival
    /// requests `movie` and the arrival mean divides by `factor`.
    FlashCrowd {
        /// First tick of the crowd window.
        at: u64,
        /// Window length in ticks.
        duration: u64,
        /// Arrival-rate multiplier (mean interarrival ÷ `factor`).
        factor: f64,
        /// Global movie index the crowd requests.
        movie: usize,
    },
}

/// Workload configuration for [`run_federation`]: the harness
/// [`Workload`] over global movie indices, plus its [`WorkloadShape`].
#[derive(Clone)]
pub struct FederationHarnessConfig {
    /// The seeded workload; `movies` are global catalog indices.
    pub workload: Workload<usize>,
    /// Movie-selection / arrival-rate shape.
    pub shape: WorkloadShape,
}

/// Result of one [`run_federation`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationOutcome {
    /// Federation-level ledger counters (measured window).
    pub fed: FederationMetrics,
    /// Per-shard runtime metrics (`None` for shards dark at the end).
    pub per_shard: Vec<Option<RuntimeMetrics>>,
    /// Total invariant + monotonicity violations observed.
    pub violation_count: u64,
    /// First few violation descriptions, `"t=<tick>: <what>"`.
    pub violations: Vec<String>,
    /// Sessions admitted over the whole run.
    pub sessions_opened: u64,
    /// Arrivals denied admission (every replica dark).
    pub sessions_denied_admission: u64,
    /// Sessions finished federation-wide by the end.
    pub sessions_done: u64,
    /// Degraded population (in-shard + displaced ledger) at the end.
    pub degraded_at_end: u64,
    /// Displaced sessions still in the ledger at the end.
    pub displaced_in_flight: u64,
    /// Ticks driven (warm-up + measured).
    pub ticks: u64,
}

impl WorkloadShape {
    /// Whether `minute` falls inside this shape's flash-crowd window.
    fn crowd_at(&self, minute: u64) -> Option<(f64, usize)> {
        match *self {
            WorkloadShape::FlashCrowd {
                at,
                duration,
                factor,
                movie,
            } if minute >= at && minute < at.saturating_add(duration) => Some((factor, movie)),
            _ => None,
        }
    }
}

impl ArrivalShape<usize> for WorkloadShape {
    fn pick_movie(
        &self,
        workload: &Workload<usize>,
        arrival: u64,
        minute: u64,
        rng: &mut SeededRng,
    ) -> usize {
        if let Some((_, movie)) = self.crowd_at(minute) {
            return movie;
        }
        if let WorkloadShape::ZipfDrift {
            start_skew,
            end_skew,
        } = *self
        {
            let horizon = workload.horizon();
            let frac = if horizon == 0 {
                0.0
            } else {
                minute as f64 / horizon as f64
            };
            let skew = start_skew + (end_skew - start_skew) * frac;
            let ranks = Zipf::new(workload.movies.len(), skew.max(0.0));
            return workload.movies[ranks.sample(rng)];
        }
        workload.round_robin(arrival)
    }

    fn mean_interarrival(&self, workload: &Workload<usize>, minute: u64) -> f64 {
        match self.crowd_at(minute) {
            Some((factor, _)) => workload.mean_interarrival / factor.max(1.0),
            None => workload.mean_interarrival,
        }
    }
}

impl Target for Federation {
    type Movie = usize;
    type Id = FedSessionId;
    type Counters = FederationMetrics;

    fn open(&mut self, movie: usize) -> Option<FedSessionId> {
        self.open_session(movie)
    }

    fn status(&mut self, id: FedSessionId) -> SessionStatus {
        self.session_status(id)
    }

    fn vcr(&mut self, id: FedSessionId, kind: VcrKind, magnitude: u32) {
        let _ = self.request_vcr(id, kind, magnitude);
    }

    fn tick(&mut self) {
        Federation::tick(self);
    }

    fn reset_metrics(&mut self) {
        Federation::reset_metrics(self);
    }

    fn audit(&mut self, last: &mut Option<FederationMetrics>) -> Vec<String> {
        let mut found = self.check_invariants();
        let now = self.federation_metrics();
        if let Some(last) = last {
            let backwards = last.monotone_violations(&now);
            found.extend(
                backwards
                    .iter()
                    .map(|field| format!("federation counter `{field}` went backwards")),
            );
        }
        *last = Some(now);
        found
    }
}

/// Drive a federation built from `config` with the seeded workload,
/// injecting the global `plan` and auditing
/// [`Federation::check_invariants`] plus [`FederationMetrics`]
/// monotonicity after every tick. Same `(config, plan, cfg, seed)` ⇒
/// bitwise-identical outcome.
pub fn run_federation(
    config: FederationConfig,
    plan: &FaultPlan,
    cfg: &FederationHarnessConfig,
    seed: u64,
) -> FederationOutcome {
    let mut fed = Federation::new(config, plan.clone());
    let tally = Driver::new(&cfg.workload, &cfg.shape, seed).run(&mut fed);
    FederationOutcome {
        fed: fed.federation_metrics(),
        per_shard: fed.per_shard_metrics(),
        violation_count: tally.violation_count,
        violations: tally.violations,
        sessions_opened: tally.opened,
        sessions_denied_admission: tally.refused,
        sessions_done: fed.sessions_finished(),
        degraded_at_end: fed.degraded_sessions(),
        displaced_in_flight: fed.displaced_in_flight(),
        ticks: cfg.workload.horizon(),
    }
}
