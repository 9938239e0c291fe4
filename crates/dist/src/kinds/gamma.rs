//! Gamma distribution — the paper's "skewed gamma" VCR-duration model.
//!
//! Figure 7 uses a gamma with mean 8 minutes and the parameter pair the
//! paper writes as `(α = 2, γ = 4)`, i.e. shape 2 and scale 4 in modern
//! notation ([`Gamma::paper_fig7`]).

use crate::approx::exact_eq;
use crate::duration::{require_finite_constants, require_positive, DurationDist};
use crate::rng::{exponential, std_normal, u01_open, SeededRng};
use crate::special::{gamma_pq, ln_gamma};
use crate::DistError;

/// Largest integer shape drawn as a sum of exponentials: up to here `k`
/// ziggurat draws cost less than one Marsaglia–Tsang round.
const ERLANG_MAX: u32 = 8;

/// Gamma distribution with shape `k` and scale `θ` (mean `kθ`).
#[derive(Clone, Copy)]
pub struct Gamma {
    shape: f64,
    scale: f64,
    /// `k` when it is an integer up to [`ERLANG_MAX`] — an Erlang law,
    /// drawn as `θ·(E₁ + … + E_k)` — else 0. Derived from `shape`, so
    /// `Debug` and `PartialEq` leave it out.
    erlang: u32,
    /// Marsaglia–Tsang's `d = k′ − 1/3` and `c = 1/√(9d)` for the shape
    /// `k′` the rejection loop runs at (`k + 1` below 1), computed once
    /// here rather than once per draw. Derived from `shape`, so `Debug`
    /// and `PartialEq` leave them out.
    d: f64,
    c: f64,
    /// `ln Γ(k)`, `ln Γ(k + 1)`, `ln Γ(k + 2)`: the three incomplete gammas
    /// of `(F, A, AA)` at one point share `ln t` and these (derived, so
    /// also left out of `Debug` and `PartialEq`).
    ln_gamma: [f64; 3],
}

impl std::fmt::Debug for Gamma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gamma")
            .field("shape", &self.shape)
            .field("scale", &self.scale)
            .finish()
    }
}

impl PartialEq for Gamma {
    fn eq(&self, other: &Self) -> bool {
        (self.shape, self.scale) == (other.shape, other.scale)
    }
}

impl Gamma {
    /// Construct from shape `k > 0` and scale `θ > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistError> {
        let shape = require_positive("shape", shape)?;
        let scale = require_positive("scale", scale)?;
        let ln_gamma = [shape, shape + 1.0, shape + 2.0].map(ln_gamma);
        require_finite_constants(
            "shape",
            shape,
            &ln_gamma,
            "such that ln Γ(shape) and ln Γ(shape + 2) are finite",
        )?;
        let boosted = if shape < 1.0 { shape + 1.0 } else { shape };
        let d = boosted - 1.0 / 3.0;
        let whole = shape.round();
        let erlang = if exact_eq(whole, shape) && whole <= f64::from(ERLANG_MAX) {
            whole as u32
        } else {
            0
        };
        Ok(Self {
            shape,
            scale,
            erlang,
            d,
            c: 1.0 / (9.0 * d).sqrt(),
            ln_gamma,
        })
    }

    /// Construct from shape and *mean* (`θ = mean / k`).
    pub fn with_shape_mean(shape: f64, mean: f64) -> Result<Self, DistError> {
        let shape = require_positive("shape", shape)?;
        let mean = require_positive("mean", mean)?;
        Self::new(shape, mean / shape)
    }

    /// The skewed gamma used throughout the paper's §4 experiments:
    /// shape 2, scale 4 — mean 8 minutes.
    pub fn paper_fig7() -> Self {
        // vod-lint: allow(no-panic) — shape 2, scale 4 are fixed in-domain constants.
        Self::new(2.0, 4.0).expect("constants are valid")
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl DurationDist for Gamma {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            let t = x / self.scale;
            gamma_pq(self.shape, t, t.ln(), self.ln_gamma[0]).0
        }
    }

    /// `F(y) = P(k, t)` with `t = y/θ`; `A(y) = y·S(y) + M₁(y)` and
    /// `AA(y) = ½[y²S(y) + 2y·M₁(y) − M₂(y)]` with the partial moments
    /// `M₁(y) = kθ·P(k+1, t)`, `M₂(y) = k(k+1)θ²·P(k+2, t)`: one `ln t`
    /// and one expansion per shape.
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        if y <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        if y.is_infinite() {
            return (1.0, self.mean(), f64::INFINITY);
        }
        let (k, s) = (self.shape, self.scale);
        let t = y / s;
        let ln_t = t.ln();
        let [g0, g1, g2] = self.ln_gamma;
        let (p0, q0) = gamma_pq(k, t, ln_t, g0);
        let m1 = k * s * gamma_pq(k + 1.0, t, ln_t, g1).0;
        let m2 = k * (k + 1.0) * s * s * gamma_pq(k + 2.0, t, ln_t, g2).0;
        (p0, y * q0 + m1, 0.5 * (y * y * q0 + 2.0 * y * m1 - m2))
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    /// An integer shape up to 8 sums `k` exponentials (the
    /// §4 law, `k = 2`, is two ziggurat draws); any other shape runs
    /// Marsaglia–Tsang.
    fn sample(&self, rng: &mut SeededRng) -> f64 {
        if self.erlang > 0 {
            return self.scale * (0..self.erlang).map(|_| exponential(rng, 1.0)).sum::<f64>();
        }
        let standard = if self.shape < 1.0 {
            // Johnk-style boost: Gamma(k) = Gamma(k + 1) · U^{1/k}.
            let boost = u01_open(rng).powf(1.0 / self.shape);
            boost * marsaglia_tsang(self.d, self.c, rng)
        } else {
            marsaglia_tsang(self.d, self.c, rng)
        };
        self.scale * standard
    }

    fn support_hint(&self) -> (f64, f64) {
        (0.0, self.mean() + 40.0 * self.variance().sqrt())
    }
}

/// Marsaglia–Tsang sampling of a standard Gamma(k, 1) variate, `k ≥ 1`,
/// from its precomputed `d = k − 1/3` and `c = 1/√(9d)`.
fn marsaglia_tsang(d: f64, c: f64, rng: &mut SeededRng) -> f64 {
    loop {
        let x = std_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u = u01_open(rng);
        let x2 = x * x;
        // Squeeze test first (cheap), then the full log test.
        if u < 1.0 - 0.0331 * x2 * x2 {
            return d * v;
        }
        if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::assert_integrals_consistent;
    use crate::rng::seeded;

    #[test]
    fn paper_parameters() {
        let d = Gamma::paper_fig7();
        assert_eq!(d.shape(), 2.0);
        assert_eq!(d.scale(), 4.0);
        assert_eq!(d.mean(), 8.0);
    }

    /// The cached sampler constants are not part of the value.
    #[test]
    fn debug_and_eq_see_shape_and_scale_only() {
        let d = Gamma::paper_fig7();
        assert_eq!(format!("{d:?}"), "Gamma { shape: 2.0, scale: 4.0 }");
        assert_eq!(d, Gamma::with_shape_mean(2.0, 8.0).unwrap());
        assert_ne!(d, Gamma::new(2.0, 4.5).unwrap());
    }

    #[test]
    fn erlang2_closed_form() {
        // Gamma(2, θ) cdf = 1 − (1 + x/θ) e^{−x/θ}.
        let d = Gamma::new(2.0, 4.0).unwrap();
        for &x in &[0.5, 2.0, 8.0, 25.0] {
            let t: f64 = x / 4.0;
            let want = 1.0 - (1.0 + t) * (-t).exp();
            assert!((d.cdf(x) - want).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn cdf_integral_matches_numeric() {
        // A cdf steep at 0 and a near-normal one.
        for dist in [
            Gamma::new(0.3, 10.0).unwrap(),
            Gamma::new(20.0, 0.5).unwrap(),
        ] {
            assert_integrals_consistent(&dist, &[0.5, 2.0, 8.0, 40.0, 120.0]);
        }
    }

    #[test]
    fn cdf_integral2_matches_numeric() {
        for dist in [
            Gamma::new(2.0, 4.0).unwrap(),
            Gamma::new(0.7, 3.0).unwrap(),
            Gamma::new(5.0, 1.5).unwrap(),
        ] {
            // 400 lies beyond every support hint above.
            assert_integrals_consistent(&dist, &[0.5, 2.0, 8.0, 40.0, 120.0, 400.0]);
        }
    }

    #[test]
    fn sample_moments() {
        for (shape, scale) in [(2.0, 4.0), (0.5, 2.0), (9.0, 0.5)] {
            let d = Gamma::new(shape, scale).unwrap();
            let mut rng = seeded(2024);
            let n = 200_000;
            let (mut s, mut s2) = (0.0, 0.0);
            for _ in 0..n {
                let x = d.sample(&mut rng);
                assert!(x >= 0.0);
                s += x;
                s2 += x * x;
            }
            let mean = s / n as f64;
            let var = s2 / n as f64 - mean * mean;
            assert!(
                (mean - d.mean()).abs() < 0.05 * d.mean().max(1.0),
                "shape={shape} mean {mean} want {}",
                d.mean()
            );
            assert!(
                (var - d.variance()).abs() < 0.08 * d.variance().max(1.0),
                "shape={shape} var {var} want {}",
                d.variance()
            );
        }
    }

    #[test]
    fn quantile_round_trip() {
        let d = Gamma::paper_fig7();
        for &p in &[0.05, 0.5, 0.95] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-9, "p={p} x={x}");
        }
    }
}
