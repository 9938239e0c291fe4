//! Empirical distribution fitted from observed VCR durations.
//!
//! The paper's model is explicitly designed for distributions "obtained by
//! statistics while the movie is displayed" (§2.1). This type closes that
//! loop: feed it measured durations (e.g. from `vod-sim` traces) and plug
//! it straight into the analytic model.
//!
//! Representation: a piecewise-*linear* cdf through the sample order
//! statistics (equivalently, a histogram density between consecutive order
//! statistics). The smoothing gives the law a density and makes the
//! running integrals of the survival function exactly integrable in closed
//! form piece by piece.

use crate::duration::{require_finite_constants, DurationDist};
use crate::rng::{u01, SeededRng};
use crate::DistError;

/// Piecewise-linear empirical distribution built from samples.
#[derive(Debug, Clone)]
pub struct Empirical {
    /// Sorted breakpoints x₀ < x₁ < … < x_k (deduplicated).
    xs: Vec<f64>,
    /// cdf values at the breakpoints, `F(x₀) = 0 … F(x_k) = 1`.
    fs: Vec<f64>,
    /// `A(xᵢ) = ∫₀^{xᵢ} (1 − F(u)) du`, precomputed per breakpoint.
    a_s: Vec<f64>,
    /// `AA(xᵢ) = ∫₀^{xᵢ} A(u) du`, precomputed per breakpoint.
    aas: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl Empirical {
    /// Fit from raw observations (need at least 2 distinct non-negative
    /// finite values).
    pub fn from_samples(samples: &[f64]) -> Result<Self, DistError> {
        if samples.is_empty() {
            return Err(DistError::Empty("empirical samples"));
        }
        let mut xs: Vec<f64> = Vec::with_capacity(samples.len());
        for &s in samples {
            if !s.is_finite() || s < 0.0 {
                return Err(DistError::InvalidParameter {
                    name: "sample".into(),
                    value: s,
                    requirement: "finite and >= 0",
                });
            }
            xs.push(s);
        }
        xs.sort_by(|a, b| a.total_cmp(b));
        let n = xs.len();

        // Breakpoints: distinct order statistics, with plotting positions
        // i/(n-1) so the cdf spans [0, 1] across the observed range.
        let mut bx: Vec<f64> = Vec::with_capacity(n);
        let mut bf: Vec<f64> = Vec::with_capacity(n);
        for (i, &x) in xs.iter().enumerate() {
            let f = if n == 1 {
                1.0
            } else {
                i as f64 / (n - 1) as f64
            };
            if let (Some(&last), Some(last_f)) = (bx.last(), bf.last_mut()) {
                if crate::approx::exact_eq(x, last) {
                    // Duplicate x: keep the larger cdf value (a jump).
                    *last_f = f;
                    continue;
                }
            }
            bx.push(x);
            bf.push(f);
        }
        if bx.len() < 2 {
            // All samples identical: degenerate to a tiny ramp around the
            // point so the cdf is still piecewise linear and proper.
            let x = bx[0];
            let eps = (x.abs() * 1e-9).max(1e-9);
            bx = vec![(x - eps).max(0.0), x];
            bf = vec![0.0, 1.0];
        } else {
            bf[0] = 0.0;
            let last = bf.len() - 1;
            bf[last] = 1.0;
        }

        // Precompute A and AA at breakpoints: before x₀ the survival
        // function is 1 (A = x, AA = x²/2); on [xᵢ, xᵢ₊₁] it is linear, so A
        // grows by the trapezoid area and AA by the cubic
        // A(xᵢ)Δ + S(xᵢ)Δ²/2 − ΔF·Δ²/6.
        // Simultaneously accumulate the moments of the *smoothed* law —
        // mean() and sample() must describe the same distribution as cdf(),
        // which is the piecewise-linear one, not the raw point masses.
        let mut a_s = Vec::with_capacity(bx.len());
        let mut aas = Vec::with_capacity(bx.len());
        let mut acc = bx[0];
        let mut acc2 = 0.5 * bx[0] * bx[0];
        let mut mean = 0.0;
        let mut ex2 = 0.0;
        a_s.push(acc);
        aas.push(acc2);
        for i in 1..bx.len() {
            let (x0, x1) = (bx[i - 1], bx[i]);
            let dx = x1 - x0;
            let df = bf[i] - bf[i - 1];
            acc2 += acc * dx + (0.5 * (1.0 - bf[i - 1]) - df / 6.0) * dx * dx;
            aas.push(acc2);
            acc += (1.0 - 0.5 * (bf[i] + bf[i - 1])) * dx;
            a_s.push(acc);
            // Uniform density df/(x1−x0) on the segment:
            mean += df * 0.5 * (x0 + x1);
            ex2 += df * (x0 * x0 + x0 * x1 + x1 * x1) / 3.0;
        }
        let variance = (ex2 - mean * mean).max(0.0);
        require_finite_constants(
            "sample",
            xs.last().copied().unwrap_or(0.0),
            &[acc2, ex2],
            "small enough that the second moment is finite",
        )?;

        Ok(Self {
            xs: bx,
            fs: bf,
            a_s,
            aas,
            mean,
            variance,
        })
    }

    /// Number of cdf breakpoints retained.
    pub fn breakpoints(&self) -> usize {
        self.xs.len()
    }

    /// Largest observed value (upper edge of the support).
    pub fn max_value(&self) -> f64 {
        // vod-lint: allow(no-panic) — the constructor rejects empty sample
        // sets, so `xs` always has at least one breakpoint.
        *self.xs.last().expect("non-empty by construction")
    }

    /// Index of the segment containing `x`: largest `i` with `xs[i] <= x`.
    fn segment(&self, x: f64) -> usize {
        match self.xs.binary_search_by(|probe| probe.total_cmp(&x)) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }

    /// `F(x)` on segment `i` (`xs[i] <= x < xs[i + 1]`): linear between the
    /// breakpoints.
    fn cdf_on(&self, i: usize, x: f64) -> f64 {
        let t = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i]);
        self.fs[i] + t * (self.fs[i + 1] - self.fs[i])
    }
}

impl DurationDist for Empirical {
    fn cdf(&self, x: f64) -> f64 {
        if x <= self.xs[0] {
            return 0.0;
        }
        if x >= self.max_value() {
            return 1.0;
        }
        self.cdf_on(self.segment(x), x)
    }

    /// Below `x₀` the survival function is 1 and above `x_k` it is 0; in
    /// between, one segment search serves all three: on a linear survival
    /// segment `A` grows by a trapezoid and `AA` by a cubic from the
    /// precomputed values at `xs[i]`.
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        if y <= self.xs[0] {
            let y = y.max(0.0);
            return (0.0, y, 0.5 * y * y);
        }
        let last = self.xs.len() - 1;
        if y >= self.max_value() {
            let aa = self.aas[last] + (y - self.max_value()) * self.a_s[last];
            return (1.0, self.a_s[last], aa);
        }
        let i = self.segment(y);
        let f = self.cdf_on(i, y);
        let d = y - self.xs[i];
        let df = f - self.fs[i];
        (
            f,
            self.a_s[i] + (1.0 - 0.5 * (self.fs[i] + f)) * d,
            self.aas[i] + d * self.a_s[i] + (0.5 * (1.0 - self.fs[i]) - df / 6.0) * d * d,
        )
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }

    fn sample(&self, rng: &mut SeededRng) -> f64 {
        // Inverse-transform on the piecewise-linear cdf.
        self.quantile(u01(rng))
    }

    fn support_hint(&self) -> (f64, f64) {
        (self.xs[0], self.max_value())
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile domain: p in [0,1]");
        if p <= 0.0 {
            return self.xs[0];
        }
        if p >= 1.0 {
            return self.max_value();
        }
        let i = match self.fs.binary_search_by(|probe| probe.total_cmp(&p)) {
            Ok(i) => return self.xs[i],
            Err(i) => i - 1, // fs[0] = 0 < p, so i >= 1 here.
        };
        let df = self.fs[i + 1] - self.fs[i];
        if df <= 0.0 {
            return self.xs[i];
        }
        self.xs[i] + (p - self.fs[i]) / df * (self.xs[i + 1] - self.xs[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::assert_integrals_consistent;
    use crate::kinds::Gamma;
    use crate::rng::seeded;

    #[test]
    fn rejects_empty_and_bad() {
        assert!(Empirical::from_samples(&[]).is_err());
        assert!(Empirical::from_samples(&[1.0, -2.0]).is_err());
        assert!(Empirical::from_samples(&[1.0, f64::NAN]).is_err());
        // Finite samples whose cached second moment overflows.
        assert!(Empirical::from_samples(&[1.0, 1e200]).is_err());
    }

    #[test]
    fn single_value_degenerates_gracefully() {
        let d = Empirical::from_samples(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(d.cdf(2.0), 0.0);
        assert_eq!(d.cdf(3.0), 1.0);
        assert!((d.mean() - 3.0).abs() < 1e-8);
    }

    #[test]
    fn cdf_monotone_and_proper() {
        let d = Empirical::from_samples(&[5.0, 1.0, 3.0, 9.0, 3.0, 7.0]).unwrap();
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.06;
            let f = d.cdf(x);
            assert!((0.0..=1.0).contains(&f));
            assert!(f >= prev);
            prev = f;
        }
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(9.0), 1.0);
    }

    #[test]
    fn cdf_integral_consistent_with_numeric() {
        let d = Empirical::from_samples(&[2.0, 4.0, 4.5, 8.0, 16.0]).unwrap();
        assert_integrals_consistent(&d, &[1.0, 3.0, 4.2, 9.0, 20.0]);
    }

    #[test]
    fn cdf_integral2_matches_numeric() {
        // The repeated sample 3 merges two breakpoints into one.
        let d = Empirical::from_samples(&[5.0, 1.0, 3.0, 9.0, 3.0, 7.0]).unwrap();
        assert_integrals_consistent(&d, &[0.5, 2.0, 3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn fitted_to_gamma_approximates_gamma() {
        // Fit to 50k gamma draws; the empirical cdf should track the true
        // cdf within ~1% everywhere (Dvoretzky–Kiefer–Wolfowitz scale).
        let g = Gamma::paper_fig7();
        let mut rng = seeded(4);
        let samples: Vec<f64> = (0..50_000).map(|_| g.sample(&mut rng)).collect();
        let d = Empirical::from_samples(&samples).unwrap();
        for &x in &[2.0, 5.0, 8.0, 15.0, 30.0] {
            assert!(
                (d.cdf(x) - g.cdf(x)).abs() < 0.02,
                "x={x}: emp {} vs true {}",
                d.cdf(x),
                g.cdf(x)
            );
        }
        assert!((d.mean() - 8.0).abs() < 0.2);
    }

    #[test]
    fn quantile_round_trip() {
        let d = Empirical::from_samples(&[1.0, 2.0, 5.0, 9.0]).unwrap();
        for &p in &[0.1, 0.4, 0.7, 0.95] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-12, "p={p} x={x}");
        }
    }

    #[test]
    fn sampling_reproduces_cdf() {
        let d = Empirical::from_samples(&[1.0, 2.0, 3.0, 4.0, 10.0]).unwrap();
        let mut rng = seeded(6);
        let n = 100_000;
        let below3 = (0..n).filter(|_| d.sample(&mut rng) <= 3.0).count();
        let frac = below3 as f64 / n as f64;
        assert!(
            (frac - d.cdf(3.0)).abs() < 0.01,
            "frac {frac} vs cdf {}",
            d.cdf(3.0)
        );
    }
}
