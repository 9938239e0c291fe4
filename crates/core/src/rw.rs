//! Rewind hit probability `P(hit|RW)`.
//!
//! The paper derives `P(hit|FF)` in full and defers RW to technical report
//! CS-TR-96-03; this module reconstructs the derivation with the same
//! structure and assumptions (uniform `s = V_f − V_c` in `[0, B/n]`,
//! uniform `V_c` in `[0, l]`).
//!
//! Geometry: a rewind that sweeps `x` movie minutes takes `x/R_RW` real
//! minutes, during which every partition advances by `x·R_PB/R_RW`; the
//! viewer's displacement *relative to the co-moving partition pattern* is
//! therefore `x/γ` backwards, with `γ = R_RW/(R_PB + R_RW)` (Eq. 1).
//!
//! * **Within-partition** (`hit_w`): the viewer exits his window through
//!   the trailing edge after a relative displacement of `V_c − V_l =
//!   B/n − s`, i.e. stays inside iff `x ≤ γ(B/n − s)`.
//! * **Jump to the i-th partition behind** (`hit_j^i`): the window spans
//!   relative displacements `[γ(il/n − s), γ(il/n − s) + γB/n]`. Because
//!   restarts are perpetual, trailing partitions always exist.
//! * **Movie-start boundary**: the viewer cannot rewind below position 0;
//!   a sweep that would reach the start before the catch-up point is a
//!   *miss* (`x ≤ V_c` required). This is exactly the convention §4 of the
//!   paper attributes to its model ("we assume that a miss occurs in this
//!   case"), and is why the model slightly underestimates the simulated RW
//!   hit rate near the beginning of the movie. There is no analogue of the
//!   FF `P(end)` bonus term.

use vod_dist::quad::adaptive_simpson;
use vod_dist::DurationDist;

use crate::kernel::Kernel;
use crate::{ModelOptions, SystemParams};

/// Decomposed RW hit probability.
#[derive(Debug, Clone, PartialEq)]
pub struct RwHit {
    /// Resume within the partition that issued the RW.
    pub within: f64,
    /// Resume in the i-th partition *behind*, `i = 1, 2, …`.
    pub jumps: Vec<f64>,
}

impl RwHit {
    /// `P(hit|RW)`: within + Σ jumps.
    pub fn total(&self) -> f64 {
        self.within + self.jumps.iter().sum::<f64>()
    }
}

/// `P(hit|RW)` via the closed-form decomposition. RW has no boundary
/// policy (trailing partitions always exist), so `_opts` is unused; it is
/// taken for symmetry with [`crate::p_hit_ff`].
pub fn p_hit_rw(params: &SystemParams, dist: &dyn DurationDist, _opts: &ModelOptions) -> RwHit {
    let l = params.movie_len();
    let n = params.n();
    let b = params.partition_len();
    let gamma = params.rates().gamma();

    if params.is_pure_batching() {
        return RwHit {
            within: 0.0,
            jumps: Vec::new(),
        };
    }

    let k = Kernel::new(dist);

    // ---- Within-partition -----------------------------------------------
    // P(hit_w|RW, V_c, s) = F(min(γ(b − s), V_c)): the same double integral
    // as FF's, with r = b − s and the movie start (distance V_c) as the
    // boundary.
    let within = k.within(l, b, gamma);

    // ---- Jumps to partitions behind ---------------------------------------
    // For the i-th partition behind (phase c = il/n), conditional on s the
    // sweep must land in [lb, lb + γb] with lb = γ(c − s), and the movie
    // start clamps everything at V_c:
    //   ∫₀^l [F(min(lb+γb, V_c)) − F(min(lb, V_c))] dV_c = J(lb+γb) − J(lb),
    //   J(K) = H(min(K, l)) + (l − K)₊ F(K).
    // Averaging over s ~ U[0,b] integrates J over two adjacent windows of
    // width γb, i.e. a second difference of its antiderivative
    //   JJ(K) = 2HH(K) + (l − K)H(K)        for K ≤ l,
    //         = JJ(l) + (K − l)H(l)         beyond (J is constant there),
    // evaluated on the deficits `k` supplies (JJ is linear at F ≡ 1, so its
    // second difference is a combination of cdf differences).
    let jj = |kk: f64| {
        let u = kk.min(l);
        let (_, h, hh) = k.at(u);
        2.0 * hh + (l + kk - 2.0 * u) * h
    };
    let mut jumps = Vec::new();
    // The i-th partition contributes only while γ(il/n − b) < l, i.e.
    // i < n/γ + B/l. Unlike FF's α ≥ 1, γ = R_RW/(R_PB + R_RW) can be
    // arbitrarily close to 0 (slow rewind), so the cap must scale with
    // 1/γ rather than assume γ ≥ ½.
    let i_cap = ((n / gamma + (b * n) / l).ceil() + 4.0).min(u32::MAX as f64) as u32;
    let mut i = 1u32;
    loop {
        let c = i as f64 * l / n;
        // Smallest lb over s∈[0,b] is γ(c−b); once it reaches l no viewer
        // position allows the catch-up.
        if gamma * (c - b) >= l {
            break;
        }
        let second_diff = jj(gamma * (c + b)) - 2.0 * jj(gamma * c) + jj(gamma * (c - b));
        jumps.push(second_diff / (gamma * b * l));
        i += 1;
        if i > i_cap {
            debug_assert!(false, "RW jump summation failed to terminate");
            break;
        }
    }

    RwHit { within, jumps }
}

/// Brute-force 2-D oracle for `P(hit|RW)` at absolute quadrature tolerance
/// `tol`; converges onto [`p_hit_rw`] as `tol → 0`. Used by tests and the
/// ablation bench.
pub fn p_hit_rw_direct(params: &SystemParams, dist: &dyn DurationDist, tol: f64) -> f64 {
    let l = params.movie_len();
    let n = params.n();
    let b = params.partition_len();
    let gamma = params.rates().gamma();
    if params.is_pure_batching() {
        return 0.0;
    }
    let k = Kernel::new(dist);
    // Same 1/γ-scaled bound as in `p_hit_rw`: lb = γ(c − s) reaches vc ≤ l
    // no later than i = n/γ + B/l.
    let i_cap = ((n / gamma + (b * n) / l).ceil() + 4.0).min(u32::MAX as f64) as u32;

    let conditional = |vc: f64, s: f64| -> f64 {
        let mut total = k.cdf((gamma * (b - s)).min(vc));
        let mut i = 1u32;
        loop {
            let c = i as f64 * l / n;
            let lb = gamma * (c - s);
            if lb >= vc {
                break;
            }
            total += k.cdf((lb + gamma * b).min(vc)) - k.cdf(lb);
            i += 1;
            if i > i_cap {
                break;
            }
        }
        total
    };

    adaptive_simpson(
        |vc| adaptive_simpson(|s| conditional(vc, s), 0.0, b, tol * b / l) / b,
        0.0,
        l,
        tol,
    ) / l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rates;
    use vod_dist::kinds::{Deterministic, Exponential, Gamma, Uniform};

    fn params(l: f64, b: f64, n: u32) -> SystemParams {
        SystemParams::new(l, b, n, Rates::paper()).unwrap()
    }

    #[test]
    fn pure_batching_is_zero() {
        let p = params(120.0, 0.0, 10);
        let hit = p_hit_rw(&p, &Gamma::paper_fig7(), &ModelOptions::default());
        assert_eq!(hit.total(), 0.0);
    }

    #[test]
    fn total_is_probability() {
        for (l, b, n) in [
            (120.0, 30.0, 10),
            (120.0, 90.0, 30),
            (120.0, 119.0, 60),
            (60.0, 30.0, 2),
            (90.0, 45.0, 1),
        ] {
            let p = params(l, b, n);
            let t = p_hit_rw(&p, &Gamma::paper_fig7(), &ModelOptions::default()).total();
            assert!((0.0..=1.0 + 1e-7).contains(&t), "l={l} B={b} n={n}: {t}");
        }
    }

    #[test]
    fn decomposition_matches_direct_oracle() {
        let opts = ModelOptions::default();
        for (l, b, n) in [
            (120.0, 30.0, 10),
            (120.0, 60.0, 20),
            (75.0, 39.0, 25),
            (60.0, 30.0, 6),
        ] {
            let p = params(l, b, n);
            for d in [
                Box::new(Gamma::paper_fig7()) as Box<dyn DurationDist>,
                Box::new(Exponential::with_mean(5.0).unwrap()),
                Box::new(Uniform::new(0.0, 16.0).unwrap()),
            ] {
                let dec = p_hit_rw(&p, d.as_ref(), &opts).total();
                let dir = p_hit_rw_direct(&p, d.as_ref(), 1e-9);
                assert!(
                    (dec - dir).abs() < 5e-4,
                    "l={l} B={b} n={n} {d:?}: decomposed {dec} vs direct {dir}"
                );
            }
        }
    }

    #[test]
    fn more_buffer_means_more_hits() {
        let d = Exponential::with_mean(5.0).unwrap();
        let opts = ModelOptions::default();
        let mut prev = 0.0;
        for b in [0.0, 12.0, 30.0, 60.0, 90.0, 118.0] {
            let t = p_hit_rw(&params(120.0, b, 12), &d, &opts).total();
            assert!(t >= prev - 1e-7, "B={b}: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn full_buffer_rewind_hits_almost_surely() {
        // With w = 0 the windows tile the whole movie, so only the
        // movie-start boundary produces misses. Short deterministic
        // rewinds then hit unless V_c < x.
        let p = params(120.0, 120.0, 10);
        let d = Deterministic::new(1.0).unwrap();
        let t = p_hit_rw(&p, &d, &ModelOptions::default()).total();
        // Exact: miss iff V_c < 1 → P(hit) = 1 − 1/120 ≈ 0.99167.
        assert!((t - (1.0 - 1.0 / 120.0)).abs() < 1e-6, "total {t}");
    }

    #[test]
    fn short_rewinds_mostly_stay_within() {
        // Sweeping 1 minute with b = 12, γ = 0.75: stays within iff
        // s ≤ b − x/γ = 12 − 4/3, plus V_c ≥ 1.
        let p = params(120.0, 120.0, 10);
        let d = Deterministic::new(1.0).unwrap();
        let hit = p_hit_rw(&p, &d, &ModelOptions::default());
        // min(γ(b−s), V_c) ≥ 1 iff both factors are ≥ 1, and s, V_c are
        // independent: P[s ≤ 12 − 4/3] · P[V_c ≥ 1].
        let ideal = (1.0 - (4.0 / 3.0) / 12.0) * (119.0 / 120.0);
        assert!(
            (hit.within - ideal).abs() < 1e-6,
            "within {} vs {ideal}",
            hit.within
        );
        assert!(hit.total() <= 1.0 + 1e-9);
    }

    #[test]
    fn rewind_rate_direction() {
        // Faster rewind ⇒ γ closer to 1 ⇒ at fixed swept distance the
        // relative backwards drift x/γ is *smaller* ⇒ more within-hits.
        let d = Exponential::with_mean(8.0).unwrap();
        let opts = ModelOptions::default();
        let slow = SystemParams::new(120.0, 36.0, 12, Rates::new(1.0, 3.0, 1.0).unwrap()).unwrap();
        let fast = SystemParams::new(120.0, 36.0, 12, Rates::new(1.0, 3.0, 9.0).unwrap()).unwrap();
        let w_slow = p_hit_rw(&slow, &d, &opts).within;
        let w_fast = p_hit_rw(&fast, &d, &opts).within;
        assert!(w_fast > w_slow, "fast {w_fast} <= slow {w_slow}");
    }
}
