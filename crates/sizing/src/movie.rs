//! Per-movie sizing specification.

use std::sync::Arc;

use vod_dist::DurationDist;
use vod_model::{p_hit_single_dist, ModelError, ModelOptions, Rates, SystemParams, VcrMix};

/// Everything the sizing machinery needs to know about one popular movie:
/// its length, the quality-of-service targets (`w_i`, `P_i*`), and the VCR
/// behavior of its audience.
#[derive(Clone)]
pub struct MovieSpec {
    /// Display name used in reports.
    pub name: String,
    /// Movie length `l_i` in minutes.
    pub length: f64,
    /// Maximum batching wait `w_i` in minutes (QoS requirement).
    pub max_wait: f64,
    /// Minimum acceptable hit probability `P_i*` (QoS requirement).
    pub target_hit: f64,
    /// VCR request type mix.
    pub mix: VcrMix,
    /// VCR duration distribution (applied to all three VCR types).
    pub dist: Arc<dyn DurationDist>,
    /// Display rates.
    pub rates: Rates,
}

impl std::fmt::Debug for MovieSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MovieSpec")
            .field("name", &self.name)
            .field("length", &self.length)
            .field("max_wait", &self.max_wait)
            .field("target_hit", &self.target_hit)
            .field("mix", &self.mix)
            .field("dist", &self.dist)
            .finish_non_exhaustive()
    }
}

impl MovieSpec {
    /// Construct a spec with a single duration law for all VCR types.
    pub fn new(
        name: impl Into<String>,
        length: f64,
        max_wait: f64,
        target_hit: f64,
        mix: VcrMix,
        dist: Arc<dyn DurationDist>,
        rates: Rates,
    ) -> Result<Self, ModelError> {
        if !(length.is_finite() && length > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "length",
                value: length,
                requirement: "finite and > 0",
            });
        }
        if !(max_wait.is_finite() && max_wait > 0.0 && max_wait <= length) {
            return Err(ModelError::InvalidParameter {
                name: "max_wait",
                value: max_wait,
                requirement: "finite, > 0 and <= length",
            });
        }
        if !(target_hit.is_finite() && (0.0..=1.0).contains(&target_hit)) {
            return Err(ModelError::InvalidParameter {
                name: "target_hit",
                value: target_hit,
                requirement: "in [0, 1]",
            });
        }
        Ok(Self {
            name: name.into(),
            length,
            max_wait,
            target_hit,
            mix,
            dist,
            rates,
        })
    }

    /// Streams needed under *pure batching* (`B = 0`): `⌈l/w⌉` restarts to
    /// meet the wait bound (paper §5: movie set of Example 1 needs 1230).
    pub fn pure_batching_streams(&self) -> u32 {
        (self.length / self.max_wait).ceil() as u32
    }

    /// Largest stream count for which the buffer is still non-negative
    /// (`n ≤ l/w`, Eq. 2); equals the pure-batching stream count when l/w
    /// is integral.
    pub fn max_streams(&self) -> u32 {
        (self.length / self.max_wait).floor().max(1.0) as u32
    }

    /// Buffer minutes implied by `n` streams at this movie's wait bound
    /// (Eq. 2): `B = l − n·w`.
    pub fn buffer_for_streams(&self, n: u32) -> f64 {
        (self.length - n as f64 * self.max_wait).max(0.0)
    }

    /// Build the model parameters for a given stream count.
    pub fn params_for_streams(&self, n: u32) -> Result<SystemParams, ModelError> {
        SystemParams::new(self.length, self.buffer_for_streams(n), n, self.rates)
    }

    /// Evaluate `P(hit)` at `n` streams (Eq. 22 with this movie's mix).
    pub fn hit_probability(&self, n: u32, opts: &ModelOptions) -> Result<f64, ModelError> {
        let params = self.params_for_streams(n)?;
        Ok(p_hit_single_dist(&params, self.dist.as_ref(), &self.mix, opts).total)
    }
}

/// The three-movie configuration of the paper's Example 1 / Figures 8–9.
///
/// * movie 1: l=75,  w=0.1,  durations ~ Gamma(2, 4)  (mean 8)
/// * movie 2: l=60,  w=0.5,  durations ~ Exp(mean 5)
/// * movie 3: l=90,  w=0.25, durations ~ Exp(mean 2)
///
/// all with `P* = 0.5`. The paper does not state the VCR mix used for the
/// example; `mix` parameterizes it (EXPERIMENTS.md uses the Figure-7d mix).
pub fn example1_movies(mix: VcrMix) -> Vec<MovieSpec> {
    use vod_dist::kinds::{Exponential, Gamma};
    let rates = Rates::paper();
    vec![
        MovieSpec::new(
            "movie-1",
            75.0,
            0.1,
            0.5,
            mix,
            // vod-lint: allow(no-panic) — fixed Example 1 paper constants.
            Arc::new(Gamma::new(2.0, 4.0).expect("valid constants")),
            rates,
        )
        // vod-lint: allow(no-panic) — fixed Example 1 paper constants.
        .expect("valid constants"),
        MovieSpec::new(
            "movie-2",
            60.0,
            0.5,
            0.5,
            mix,
            // vod-lint: allow(no-panic) — fixed Example 1 paper constants.
            Arc::new(Exponential::with_mean(5.0).expect("valid constants")),
            rates,
        )
        // vod-lint: allow(no-panic) — fixed Example 1 paper constants.
        .expect("valid constants"),
        MovieSpec::new(
            "movie-3",
            90.0,
            0.25,
            0.5,
            mix,
            // vod-lint: allow(no-panic) — fixed Example 1 paper constants.
            Arc::new(Exponential::with_mean(2.0).expect("valid constants")),
            rates,
        )
        // vod-lint: allow(no-panic) — fixed Example 1 paper constants.
        .expect("valid constants"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_dist::kinds::Exponential;

    #[test]
    fn example1_pure_batching_totals_1230() {
        // Paper §5: 75/0.1 + 60/0.5 + 90/0.25 = 750 + 120 + 360 = 1230.
        let movies = example1_movies(VcrMix::ff_only());
        let total: u32 = movies.iter().map(|m| m.pure_batching_streams()).sum();
        assert_eq!(total, 1230);
    }

    #[test]
    fn buffer_stream_tradeoff() {
        let movies = example1_movies(VcrMix::ff_only());
        let m1 = &movies[0];
        // Example 1's reported optimum for movie 1: (B, n) = (39, 360).
        assert!((m1.buffer_for_streams(360) - 39.0).abs() < 1e-9);
        // And movie 3: (44.5, 182).
        assert!((movies[2].buffer_for_streams(182) - 44.5).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        let d: Arc<dyn DurationDist> = Arc::new(Exponential::with_mean(5.0).unwrap());
        let mk = |l, w, p| {
            MovieSpec::new(
                "x",
                l,
                w,
                p,
                VcrMix::ff_only(),
                Arc::clone(&d),
                Rates::paper(),
            )
        };
        assert!(mk(0.0, 0.5, 0.5).is_err());
        assert!(mk(60.0, 0.0, 0.5).is_err());
        assert!(mk(60.0, 61.0, 0.5).is_err());
        assert!(mk(60.0, 0.5, 1.5).is_err());
        assert!(mk(60.0, 0.5, 0.5).is_ok());
    }

    #[test]
    fn hit_probability_decreases_with_streams_at_fixed_wait() {
        // At fixed w the window fraction (1 − wn/l) shrinks with n, so
        // P(hit) should fall; the sizing solver relies on this shape.
        let d: Arc<dyn DurationDist> = Arc::new(Exponential::with_mean(5.0).unwrap());
        let m = MovieSpec::new(
            "x",
            60.0,
            0.5,
            0.5,
            VcrMix::paper_fig7d(),
            d,
            Rates::paper(),
        )
        .unwrap();
        let opts = ModelOptions::default();
        let p20 = m.hit_probability(20, &opts).unwrap();
        let p60 = m.hit_probability(60, &opts).unwrap();
        let p110 = m.hit_probability(110, &opts).unwrap();
        assert!(p20 > p60 && p60 > p110, "{p20} {p60} {p110}");
    }
}
