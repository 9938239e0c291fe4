//! Viewer VCR behavior model.
//!
//! The paper treats VCR behavior as "inherently nondeterministic" [8] and
//! characterizes it by (a) the probability that an interaction is FF, RW,
//! or PAU and (b) a general duration distribution per type. This module
//! adds the missing operational piece a simulator needs: *when* viewers
//! interact. Viewers alternate normal-playback intervals (exponentially
//! distributed "think time") with VCR operations.

use std::sync::Arc;

use vod_dist::kinds::Gamma;
use vod_dist::rng::{exponential, u01, SeededRng};
use vod_dist::DurationDist;

/// The three interactive operations (paper §2: FF, RW, PAU with viewing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcrKind {
    /// Fast-forward with viewing.
    FastForward,
    /// Rewind with viewing.
    Rewind,
    /// Pause.
    Pause,
}

impl VcrKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [VcrKind; 3] = [VcrKind::FastForward, VcrKind::Rewind, VcrKind::Pause];

    /// Short label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            VcrKind::FastForward => "FF",
            VcrKind::Rewind => "RW",
            VcrKind::Pause => "PAU",
        }
    }
}

/// A sampled VCR interaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcrRequest {
    /// Which operation.
    pub kind: VcrKind,
    /// Sampled magnitude: movie minutes swept for FF/RW, pause duration in
    /// time units for PAU (see DESIGN.md §3 on units).
    pub magnitude: f64,
}

/// Generative model of one viewer's interaction behavior.
#[derive(Clone)]
pub struct BehaviorModel {
    /// Probability a given interaction is FF / RW / PAU (sums to 1).
    p_ff: f64,
    p_rw: f64,
    /// Mean normal-playback minutes between interactions.
    mean_play_between: f64,
    /// Expected number of interactions per viewing is governed by
    /// `mean_play_between` relative to the movie length.
    dist_ff: Arc<dyn DurationDist>,
    dist_rw: Arc<dyn DurationDist>,
    dist_pause: Arc<dyn DurationDist>,
}

impl std::fmt::Debug for BehaviorModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BehaviorModel")
            .field("p_ff", &self.p_ff)
            .field("p_rw", &self.p_rw)
            .field("p_pause", &(1.0 - self.p_ff - self.p_rw))
            .field("mean_play_between", &self.mean_play_between)
            .finish_non_exhaustive()
    }
}

impl BehaviorModel {
    /// Build a behavior model.
    ///
    /// * `mix = (p_ff, p_rw, p_pau)` must sum to 1.
    /// * `mean_play_between` — mean playback minutes between interactions
    ///   (exponentially distributed), must be positive.
    /// * one duration distribution per type.
    ///
    /// # Panics
    /// Panics on invalid mixes or non-positive think time; behavior
    /// construction happens at configuration time where failing fast is
    /// appropriate.
    pub fn new(
        mix: (f64, f64, f64),
        mean_play_between: f64,
        dist_ff: Arc<dyn DurationDist>,
        dist_rw: Arc<dyn DurationDist>,
        dist_pause: Arc<dyn DurationDist>,
    ) -> Self {
        let (p_ff, p_rw, p_pau) = mix;
        assert!(
            p_ff >= 0.0 && p_rw >= 0.0 && p_pau >= 0.0 && (p_ff + p_rw + p_pau - 1.0).abs() < 1e-9,
            "mix must be a probability vector, got {mix:?}"
        );
        assert!(
            mean_play_between.is_finite() && mean_play_between > 0.0,
            "mean_play_between must be positive"
        );
        Self {
            p_ff,
            p_rw,
            mean_play_between,
            dist_ff,
            dist_rw,
            dist_pause,
        }
    }

    /// Same duration law for all three types — the paper's §4 setting.
    pub fn uniform_dist(
        mix: (f64, f64, f64),
        mean_play_between: f64,
        dist: Arc<dyn DurationDist>,
    ) -> Self {
        Self::new(
            mix,
            mean_play_between,
            Arc::clone(&dist),
            Arc::clone(&dist),
            dist,
        )
    }

    /// The viewer of the paper's §4 validation: the Fig. 7(d) mix
    /// 0.2 / 0.2 / 0.6 (`VcrMix::paper_fig7d` on the model side) over
    /// Gamma(2, 4) durations, 30 playback minutes between interactions.
    /// Every leg of the model ↔ sim ↔ server check takes its viewer here.
    pub fn paper_fig7d() -> Self {
        Self::paper_fig7d_over(Arc::new(Gamma::paper_fig7()))
    }

    /// [`paper_fig7d`](Self::paper_fig7d)'s mix and think time over
    /// another duration law (a catalog movie's own, a fitted trace).
    pub fn paper_fig7d_over(dist: Arc<dyn DurationDist>) -> Self {
        Self::uniform_dist((0.2, 0.2, 0.6), 30.0, dist)
    }

    /// Mean playback minutes between interactions.
    pub fn mean_play_between(&self) -> f64 {
        self.mean_play_between
    }

    /// The duration distribution for a given kind.
    pub fn dist(&self, kind: VcrKind) -> &dyn DurationDist {
        match kind {
            VcrKind::FastForward => self.dist_ff.as_ref(),
            VcrKind::Rewind => self.dist_rw.as_ref(),
            VcrKind::Pause => self.dist_pause.as_ref(),
        }
    }

    /// Sample the playback time until this viewer's next interaction.
    pub fn next_interaction_gap(&self, rng: &mut SeededRng) -> f64 {
        exponential(rng, self.mean_play_between)
    }

    /// Sample an interaction (kind + magnitude).
    pub fn sample_request(&self, rng: &mut SeededRng) -> VcrRequest {
        let u = u01(rng);
        let kind = if u < self.p_ff {
            VcrKind::FastForward
        } else if u < self.p_ff + self.p_rw {
            VcrKind::Rewind
        } else {
            VcrKind::Pause
        };
        VcrRequest {
            kind,
            magnitude: self.dist(kind).sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_dist::kinds::Exponential;
    use vod_dist::rng::seeded;

    fn model(mix: (f64, f64, f64)) -> BehaviorModel {
        BehaviorModel::uniform_dist(mix, 20.0, Arc::new(Gamma::paper_fig7()))
    }

    #[test]
    #[should_panic(expected = "probability vector")]
    fn bad_mix_panics() {
        model((0.5, 0.5, 0.5));
    }

    #[test]
    fn mix_frequencies_respected() {
        let m = BehaviorModel::paper_fig7d();
        let mut rng = seeded(8);
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            match m.sample_request(&mut rng).kind {
                VcrKind::FastForward => counts[0] += 1,
                VcrKind::Rewind => counts[1] += 1,
                VcrKind::Pause => counts[2] += 1,
            }
        }
        let f = |c: usize| c as f64 / n as f64;
        assert!((f(counts[0]) - 0.2).abs() < 0.01);
        assert!((f(counts[1]) - 0.2).abs() < 0.01);
        assert!((f(counts[2]) - 0.6).abs() < 0.01);
    }

    #[test]
    fn magnitudes_follow_duration_law() {
        let m = model((1.0, 0.0, 0.0));
        let mut rng = seeded(5);
        let n = 50_000;
        let s: f64 = (0..n).map(|_| m.sample_request(&mut rng).magnitude).sum();
        assert!((s / n as f64 - 8.0).abs() < 0.2);
    }

    #[test]
    fn per_type_distributions() {
        let m = BehaviorModel::new(
            (0.5, 0.5, 0.0),
            10.0,
            Arc::new(Exponential::with_mean(1.0).unwrap()),
            Arc::new(Exponential::with_mean(20.0).unwrap()),
            Arc::new(Exponential::with_mean(5.0).unwrap()),
        );
        let mut rng = seeded(6);
        let (mut ff_sum, mut ff_n, mut rw_sum, mut rw_n) = (0.0, 0, 0.0, 0);
        for _ in 0..50_000 {
            let r = m.sample_request(&mut rng);
            match r.kind {
                VcrKind::FastForward => {
                    ff_sum += r.magnitude;
                    ff_n += 1;
                }
                VcrKind::Rewind => {
                    rw_sum += r.magnitude;
                    rw_n += 1;
                }
                VcrKind::Pause => unreachable!("mix has no pause mass"),
            }
        }
        assert!((ff_sum / ff_n as f64 - 1.0).abs() < 0.1);
        assert!((rw_sum / rw_n as f64 - 20.0).abs() < 1.0);
    }

    #[test]
    fn interaction_gaps_exponential() {
        let m = BehaviorModel::paper_fig7d();
        let mut rng = seeded(7);
        let n = 50_000;
        let s: f64 = (0..n).map(|_| m.next_interaction_gap(&mut rng)).sum();
        assert!((s / n as f64 - 30.0).abs() < 0.5);
    }

    #[test]
    fn labels_stable() {
        assert_eq!(VcrKind::FastForward.label(), "FF");
        assert_eq!(VcrKind::Rewind.label(), "RW");
        assert_eq!(VcrKind::Pause.label(), "PAU");
    }
}
