//! Figure 7 — model verification.
//!
//! "Simulation and theoretical results for normal playback and (a) only
//! fast-forward … (b) only rewind … (c) only pause … (d) all kinds of VCR
//! requests with P_FF = 0.2, P_RW = 0.2, P_PAU = 0.6. Interarrival times
//! are exponential and 1/λ = 2 minutes; duration of VCR requests is drawn
//! from a skewed gamma distribution with mean = 8 minutes (α = 2, γ = 4)."
//!
//! The probability of a hit is plotted as a function of the number of
//! partitions `n`, one curve per maximum waiting time `w`; movie length
//! `l = 120`, `R_FF = R_RW = 3 R_PB`.
//!
//! Panel (d)'s `w = 1` column is also where the model, the simulator and
//! the tick server are held against each other ([`cross_validation_cells`]).

use std::sync::Arc;

use vod_dist::kinds::Gamma;
use vod_model::{
    p_hit_single_dist, ModelError, ModelOptions, Rates, SweepExecutor, SystemParams, VcrMix,
};
use vod_server::{HarnessConfig, HostedMovie, MovieId, ServerConfig, Workload};
use vod_sim::{run_replications, SimConfig};
use vod_workload::BehaviorModel;

/// Which panel of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// (a) FF only.
    A,
    /// (b) RW only.
    B,
    /// (c) PAU only.
    C,
    /// (d) mixed 0.2/0.2/0.6.
    D,
}

impl Panel {
    /// The VCR mix of this panel.
    pub fn mix(self) -> VcrMix {
        match self {
            Panel::A => VcrMix::ff_only(),
            Panel::B => VcrMix::rw_only(),
            Panel::C => VcrMix::pause_only(),
            Panel::D => VcrMix::paper_fig7d(),
        }
    }

    /// Panel label, e.g. `"7a"`.
    pub fn label(self) -> &'static str {
        match self {
            Panel::A => "7a",
            Panel::B => "7b",
            Panel::C => "7c",
            Panel::D => "7d",
        }
    }
}

/// One point of a Figure-7 curve.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Point {
    /// Partitions / streams `n`.
    pub n: u32,
    /// Buffer minutes `B = l − n·w`.
    pub buffer: f64,
    /// Analytic `P(hit)`.
    pub model: f64,
    /// Simulated hit ratio (mean over replications).
    pub sim: f64,
    /// 95% half-width over replications.
    pub sim_ci: f64,
}

/// Experiment configuration (defaults follow the paper's §4).
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Movie length (minutes).
    pub movie_len: f64,
    /// Maximum waiting times, one curve each.
    pub waits: Vec<f64>,
    /// Stream counts along the x axis.
    pub ns: Vec<u32>,
    /// Simulation replications per point.
    pub replications: u32,
    /// Simulated horizon in movie lengths.
    pub horizon_movies: f64,
    /// Mean playback minutes between VCR interactions.
    pub mean_play_between: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Self {
            movie_len: 120.0,
            waits: vec![0.5, 1.0, 2.0],
            ns: vec![10, 20, 30, 40, 50, 60, 80, 100],
            replications: 3,
            horizon_movies: 30.0,
            mean_play_between: 30.0,
            seed: 1997,
        }
    }
}

/// Generate one curve (fixed `w`) of a Figure-7 panel, fanning the per-`n`
/// model evaluation and seeded simulation across `exec`. Each point's
/// simulation seed derives only from `cfg.seed` and its own `n`, so the
/// output is bitwise identical to the serial curve.
pub fn curve(panel: Panel, cfg: &Fig7Config, w: f64, exec: &SweepExecutor) -> Vec<Fig7Point> {
    let dist = Gamma::paper_fig7();
    let opts = ModelOptions::default();
    let mix = panel.mix();
    let pts = exec.map(&cfg.ns, |&n| {
        let Ok(params) = SystemParams::from_wait(cfg.movie_len, w, n, Rates::paper()) else {
            return None; // n·w exceeds l: no such configuration
        };
        let model = p_hit_single_dist(&params, &dist, &mix, &opts).total;
        let tuple = (mix.ff(), mix.rw(), mix.pause());
        let behavior = BehaviorModel::uniform_dist(tuple, cfg.mean_play_between, Arc::new(dist));
        let mut sim_cfg = SimConfig::new(params, behavior);
        sim_cfg.horizon = cfg.horizon_movies * cfg.movie_len;
        let agg = run_replications(&sim_cfg, cfg.seed.wrapping_add(n as u64), cfg.replications);
        Some(Fig7Point {
            n,
            buffer: params.buffer(),
            model,
            sim: agg.overall.mean(),
            sim_ci: agg.overall.ci_half_width(1.96),
        })
    });
    pts.into_iter().flatten().collect()
}

/// Generate all curves of a panel, keyed by `w`; curves run in sequence,
/// points within each curve across `exec`.
pub fn panel_data(
    panel: Panel,
    cfg: &Fig7Config,
    exec: &SweepExecutor,
) -> Vec<(f64, Vec<Fig7Point>)> {
    cfg.waits
        .iter()
        .map(|&w| (w, curve(panel, cfg, w, exec)))
        .collect()
}

/// Seed of every leg of the three-way cross-validation.
pub const CROSS_SEED: u64 = 2026;

/// Movie length of the three-way cross-validation, as in Figure 7.
const CROSS_MOVIE_LEN: u32 = 120;

/// One cell of the three-way cross-validation: one `(n, w)` point of
/// panel (d)'s mixed workload, configured for the analytic model, the
/// event simulator and the tick server's load harness alike.
pub struct CrossCell {
    /// Partitions / streams `n`.
    pub n: u32,
    /// Maximum wait `w`.
    pub wait: f64,
    /// The shared `(l, B, n)`.
    pub params: SystemParams,
    /// The simulator leg.
    pub sim: SimConfig,
    /// The tick-server leg.
    pub harness: HarnessConfig,
}

impl CrossCell {
    /// The analytic model's `P(hit)` for the cell.
    pub fn model(&self) -> f64 {
        let (dist, mix) = (Gamma::paper_fig7(), VcrMix::paper_fig7d());
        p_hit_single_dist(&self.params, &dist, &mix, &ModelOptions::default()).total
    }
}

/// The cells of the three-way cross-validation, `n = 20, 40, 60` along
/// panel (d)'s `w = 1` column at `l = 120`, each simulated and served for
/// `horizon_lengths` movie lengths, the first two of them warm-up.
/// `cross_validate` runs them for 40 lengths; the determinism test runs
/// its cell for 10.
pub fn cross_validation_cells(horizon_lengths: f64) -> Result<Vec<CrossCell>, ModelError> {
    let len = f64::from(CROSS_MOVIE_LEN);
    let wait = 1.0;
    [20, 40, 60]
        .into_iter()
        .map(|n| {
            let params = SystemParams::from_wait(len, wait, n, Rates::paper())?;
            let mut sim = SimConfig::new(params, BehaviorModel::paper_fig7d());
            sim.horizon = horizon_lengths * len;
            sim.warmup = 2.0 * len;
            let movie =
                HostedMovie::from_allocation(MovieId(0), CROSS_MOVIE_LEN, n, params.buffer());
            let harness = HarnessConfig {
                server: ServerConfig {
                    // Piggyback off: merge-back would re-enroll missed
                    // sessions through a mechanism the model does not
                    // describe.
                    piggyback: None,
                    ..ServerConfig::provisioned(vec![movie], 80)
                },
                workload: Workload {
                    behavior: BehaviorModel::paper_fig7d(),
                    mean_interarrival: sim.mean_interarrival,
                    warmup: sim.warmup as u64,
                    measure: (sim.horizon - sim.warmup) as u64,
                    movies: vec![MovieId(0)],
                },
            };
            Ok(CrossCell {
                n,
                wait,
                params,
                sim,
                harness,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_panel_matches_paper_shape() {
        // Small configuration for test speed: the defining Figure-7
        // property is that model and simulation agree closely and that
        // the hit probability falls as n grows at fixed w.
        let cfg = Fig7Config {
            ns: vec![20, 60],
            replications: 2,
            horizon_movies: 15.0,
            ..Default::default()
        };
        let pts = curve(Panel::A, &cfg, 1.0, &SweepExecutor::serial());
        assert_eq!(pts.len(), 2);
        assert!(pts[0].model > pts[1].model, "P(hit) must fall with n");
        for p in &pts {
            assert!(
                (p.model - p.sim).abs() < 0.05,
                "n={}: model {} vs sim {}",
                p.n,
                p.model,
                p.sim
            );
        }
    }

    #[test]
    fn parallel_curve_matches_serial_bitwise() {
        let cfg = Fig7Config {
            ns: vec![10, 20, 40, 130], // 130·1.0 > 120 exercises the skip path
            replications: 1,
            horizon_movies: 8.0,
            ..Default::default()
        };
        let serial = curve(Panel::D, &cfg, 1.0, &SweepExecutor::serial());
        assert_eq!(serial.len(), 3, "n = 130 must be skipped");
        let exec = SweepExecutor::new(4);
        let par = curve(Panel::D, &cfg, 1.0, &exec);
        let again = curve(Panel::D, &cfg, 1.0, &exec);
        for other in [&par, &again] {
            assert_eq!(other.len(), serial.len());
            for (a, b) in serial.iter().zip(other) {
                assert_eq!(a.n, b.n);
                assert_eq!(a.buffer.to_bits(), b.buffer.to_bits());
                assert_eq!(a.model.to_bits(), b.model.to_bits(), "n={}", a.n);
                assert_eq!(a.sim.to_bits(), b.sim.to_bits(), "n={}", a.n);
                assert_eq!(a.sim_ci.to_bits(), b.sim_ci.to_bits(), "n={}", a.n);
            }
        }
    }
}
