//! Cost curves — Figure 9: system cost versus the total number of I/O
//! streams dedicated to normal playback, for a sweep of cost ratios `φ`.
//!
//! Each point fixes a total stream count `N`, lets the allocator find the
//! minimum total buffer that still meets every movie's `(w_i, P_i*)`
//! targets ([`Catalog::min_buffer_split`]), and prices the
//! result with Eq. 23. The curve's minimum is the optimal system sizing
//! for that price regime.

use crate::{Catalog, ResourceCost};

/// One point on a cost curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPoint {
    /// Total streams `Σ n_i` at this point.
    pub total_streams: u32,
    /// Minimum feasible total buffer at this stream count (movie minutes).
    pub total_buffer: f64,
    /// System cost `C_n (φ Σ B + Σ n)`.
    pub cost: f64,
}

/// A full curve for one `φ`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostCurve {
    /// The price pair used.
    pub prices: ResourceCost,
    /// Points in increasing stream-count order.
    pub points: Vec<CostPoint>,
}

impl CostCurve {
    /// The minimum-cost point — the paper's "optimal system sizing choice".
    pub fn optimum(&self) -> Option<&CostPoint> {
        self.points.iter().min_by(|a, b| a.cost.total_cmp(&b.cost))
    }
}

/// Trace the cost curve of a prebuilt [`Catalog`] over total stream counts
/// `[n_lo, n_hi]` with the given stride; points where `n_total` is outside
/// the feasible range are skipped. A φ-sweep (Figure 9's six panels) pays
/// for the feasibility bisections once.
pub fn cost_curve_with_catalog(
    catalog: &Catalog<'_>,
    prices: ResourceCost,
    n_lo: u32,
    n_hi: u32,
    stride: u32,
) -> CostCurve {
    assert!(stride >= 1, "stride must be at least 1");
    let mut points = Vec::new();
    let mut n = n_lo;
    while n <= n_hi {
        if let Some(ns) = catalog.min_buffer_split(n) {
            let total_buffer = catalog.total_buffer_of(&ns);
            points.push(CostPoint {
                total_streams: n,
                total_buffer,
                cost: prices.total(total_buffer, n),
            });
        }
        n = n.saturating_add(stride);
    }
    CostCurve { prices, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MovieSpec;
    use std::sync::Arc;
    use vod_dist::kinds::Exponential;
    use vod_model::{ModelOptions, Rates, VcrMix};

    fn toy_movies() -> Vec<MovieSpec> {
        let mk = |name: &str, l: f64, w: f64, mean: f64| {
            MovieSpec::new(
                name,
                l,
                w,
                0.5,
                VcrMix::paper_fig7d(),
                Arc::new(Exponential::with_mean(mean).unwrap()),
                Rates::paper(),
            )
            .unwrap()
        };
        vec![mk("a", 30.0, 1.0, 4.0), mk("b", 45.0, 1.5, 6.0)]
    }

    #[test]
    fn curve_buffer_decreases_with_streams() {
        let movies = toy_movies();
        let prices = ResourceCost::from_phi(6.0).unwrap();
        let catalog = Catalog::new(&movies, &ModelOptions::default()).unwrap();
        let curve = cost_curve_with_catalog(&catalog, prices, 2, 60, 3);
        assert!(curve.points.len() > 3);
        for w in curve.points.windows(2) {
            assert!(w[1].total_buffer <= w[0].total_buffer + 1e-9);
        }
    }

    #[test]
    fn expensive_memory_pushes_optimum_to_many_streams() {
        // φ large ⇒ buffer dominates cost ⇒ optimum at max streams
        // (the paper's Example 2 observation for φ ≈ 11).
        let movies = toy_movies();
        let catalog = Catalog::new(&movies, &ModelOptions::default()).unwrap();
        let hi = cost_curve_with_catalog(&catalog, ResourceCost::from_phi(16.0).unwrap(), 2, 60, 1);
        let hi_opt = hi.optimum().unwrap().total_streams;
        let max_point = hi.points.last().unwrap().total_streams;
        assert_eq!(hi_opt, max_point, "φ=16 optimum should sit at max n");

        // φ small ⇒ streams dominate ⇒ optimum strictly inside the range.
        let lo = cost_curve_with_catalog(&catalog, ResourceCost::from_phi(0.3).unwrap(), 2, 60, 1);
        let lo_opt = lo.optimum().unwrap().total_streams;
        assert!(
            lo_opt < max_point,
            "φ=0.3 optimum {lo_opt} should move below {max_point}"
        );
    }

    #[test]
    fn cost_equals_eq23() {
        let movies = toy_movies();
        let prices = ResourceCost::new(750.0, 70.0).unwrap();
        let catalog = Catalog::new(&movies, &ModelOptions::default()).unwrap();
        let curve = cost_curve_with_catalog(&catalog, prices, 10, 10, 1);
        let p = curve.points[0];
        assert!((p.cost - (750.0 * p.total_buffer + 70.0 * p.total_streams as f64)).abs() < 1e-9);
    }
}
