//! Finite mixture of duration distributions.
//!
//! Real VCR behavior is multi-modal — short "skip the recap" hops mixed
//! with long "skip to the ending" jumps. A mixture of the primitive kinds
//! models this while keeping every quantity the analytic model needs in
//! closed form (all are linear in the mixture weights).

use crate::duration::DurationDist;
use crate::rng::{u01, SeededRng};
use crate::DistError;

/// Convex combination of component distributions.
#[derive(Debug)]
pub struct Mixture {
    /// Normalized weights, parallel to `components`.
    weights: Vec<f64>,
    components: Vec<Box<dyn DurationDist>>,
}

impl Mixture {
    /// Build a mixture from `(weight, component)` pairs. Weights must be
    /// finite and non-negative with a positive sum; they are normalized.
    pub fn new(parts: Vec<(f64, Box<dyn DurationDist>)>) -> Result<Self, DistError> {
        if parts.is_empty() {
            return Err(DistError::Empty("mixture components"));
        }
        let mut weights = Vec::with_capacity(parts.len());
        let mut components = Vec::with_capacity(parts.len());
        let mut total = 0.0;
        for (w, c) in parts {
            if !w.is_finite() || w < 0.0 {
                return Err(DistError::BadWeights(format!(
                    "weight {w} is not finite and non-negative"
                )));
            }
            total += w;
            weights.push(w);
            components.push(c);
        }
        if total <= 0.0 {
            return Err(DistError::BadWeights("weights sum to zero".into()));
        }
        for w in &mut weights {
            *w /= total;
        }
        Ok(Self {
            weights,
            components,
        })
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when the mixture has no components (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The components with a positive weight: a zero-weight one adds
    /// nothing, and `0 · ∞` (its `AA(+∞)`, an infinite mean) would be NaN.
    fn parts(&self) -> impl Iterator<Item = (f64, &dyn DurationDist)> {
        self.weights
            .iter()
            .zip(&self.components)
            .filter(|(w, _)| **w > 0.0)
            .map(|(w, c)| (*w, c.as_ref()))
    }

    fn weighted<F: Fn(&dyn DurationDist) -> f64>(&self, f: F) -> f64 {
        self.parts().map(|(w, c)| w * f(c)).sum()
    }
}

impl DurationDist for Mixture {
    fn cdf(&self, x: f64) -> f64 {
        self.weighted(|c| c.cdf(x))
    }

    /// Each component's triple, weighted and summed in component order from
    /// `-0.0` as `f64`'s `Sum` in `weighted` does, so `F` is bitwise
    /// [`Mixture`]'s `cdf`.
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        self.parts().fold((-0.0, -0.0, -0.0), |(f, a, aa), (w, c)| {
            let (cf, ca, caa) = c.cdf_and_survival_integrals(y);
            (f + w * cf, a + w * ca, aa + w * caa)
        })
    }

    fn mean(&self) -> f64 {
        self.weighted(|c| c.mean())
    }

    fn variance(&self) -> f64 {
        // Var = Σ wᵢ (σᵢ² + μᵢ²) − μ², the law of total variance.
        let mean = self.mean();
        self.weighted(|c| {
            let m = c.mean();
            c.variance() + m * m
        }) - mean * mean
    }

    fn sample(&self, rng: &mut SeededRng) -> f64 {
        let mut u = u01(rng);
        for (w, c) in self.weights.iter().zip(&self.components) {
            if u < *w {
                return c.sample(rng);
            }
            u -= w;
        }
        // Floating-point residue: fall back to the last component.
        self.components
            .last()
            // vod-lint: allow(no-panic) — the constructor rejects empty component
            // lists, so the mixture always has a last component.
            .expect("mixture is non-empty by construction")
            .sample(rng)
    }

    fn support_hint(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for c in &self.components {
            let (l, h) = c.support_hint();
            lo = lo.min(l);
            hi = hi.max(h);
        }
        (lo.min(hi), hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::assert_integrals_consistent;
    use crate::kinds::{Deterministic, Exponential, Gamma, Uniform};
    use crate::rng::seeded;

    fn bimodal() -> Mixture {
        Mixture::new(vec![
            (
                0.7,
                Box::new(Exponential::with_mean(2.0).unwrap()) as Box<dyn DurationDist>,
            ),
            (0.3, Box::new(Gamma::new(9.0, 4.0).unwrap())),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(Mixture::new(vec![]).is_err());
        assert!(Mixture::new(vec![(
            -1.0,
            Box::new(Deterministic::new(1.0).unwrap()) as Box<dyn DurationDist>
        )])
        .is_err());
        assert!(Mixture::new(vec![(
            0.0,
            Box::new(Deterministic::new(1.0).unwrap()) as Box<dyn DurationDist>
        )])
        .is_err());
    }

    #[test]
    fn weights_are_normalized() {
        let m = Mixture::new(vec![
            (
                2.0,
                Box::new(Deterministic::new(1.0).unwrap()) as Box<dyn DurationDist>,
            ),
            (6.0, Box::new(Deterministic::new(5.0).unwrap())),
        ])
        .unwrap();
        assert!((m.weights()[0] - 0.25).abs() < 1e-15);
        assert!((m.weights()[1] - 0.75).abs() < 1e-15);
        assert!((m.mean() - (0.25 * 1.0 + 0.75 * 5.0)).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_convex_combination() {
        let m = bimodal();
        let e = Exponential::with_mean(2.0).unwrap();
        let g = Gamma::new(9.0, 4.0).unwrap();
        for &x in &[0.5, 2.0, 10.0, 40.0] {
            let want = 0.7 * e.cdf(x) + 0.3 * g.cdf(x);
            assert!((m.cdf(x) - want).abs() < 1e-14, "x={x}");
        }
    }

    #[test]
    fn cdf_integral_matches_numeric() {
        // An atom inside a bounded support.
        let m = Mixture::new(vec![
            (
                0.4,
                Box::new(Deterministic::new(3.0).unwrap()) as Box<dyn DurationDist>,
            ),
            (0.6, Box::new(Uniform::new(1.0, 9.0).unwrap())),
        ])
        .unwrap();
        assert_integrals_consistent(&m, &[1.0, 3.0, 5.0, 9.0, 20.0]);
    }

    #[test]
    fn cdf_integral2_matches_numeric() {
        // 1000 lies beyond both components' support hints.
        assert_integrals_consistent(&bimodal(), &[1.0, 8.0, 30.0, 80.0, 1000.0]);
    }

    #[test]
    fn sample_mean_matches_analytic() {
        let m = bimodal();
        let mut rng = seeded(11);
        let n = 200_000;
        let s: f64 = (0..n).map(|_| m.sample(&mut rng)).sum();
        let mean = s / n as f64;
        assert!(
            (mean - m.mean()).abs() < 0.03 * m.mean(),
            "mean {mean} want {}",
            m.mean()
        );
    }

    #[test]
    fn total_variance_law() {
        let m = bimodal();
        let mut rng = seeded(12);
        let n = 300_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = m.sample(&mut rng);
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(
            (var - m.variance()).abs() < 0.05 * m.variance(),
            "var {var} want {}",
            m.variance()
        );
    }
}
