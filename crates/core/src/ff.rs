//! Fast-forward hit probability `P(hit|FF)` — paper §3.1.1–§3.1.3,
//! Eqs. (3)–(21).
//!
//! Two independent implementations are provided:
//!
//! * [`p_hit_ff`] — the paper's decomposition: within-partition hits
//!   (Eqs. 3–8), per-partition jump hits (Eqs. 9–18, summed over the range
//!   of Eq. 19 or its extension), and the FF-to-end term (Eq. 20). The
//!   inner integrals over the viewer offset `s = V_f − V_c` reduce to
//!   closed forms in `G(y) = ∫₀^y F(αs) ds = H(αy)/α`, and the outer
//!   integral over `V_c` has an exact antiderivative in `H` and
//!   `HH = ∫H` in every region (DESIGN.md §3), so one evaluation is a
//!   handful of points per partition, each one call for `(F, H, HH)`.
//! * [`p_hit_ff_direct`] — a brute-force 2-D integration of the exact
//!   conditional hit probability. Algebraically equal to the extended-mode
//!   decomposition; used by tests and the ablation bench as an oracle.
//!
//! Unit convention (DESIGN.md §3): the sampled duration `x ~ f` is the
//! *movie distance swept* by the operation; a viewer `Δ` minutes behind a
//! target needs `x = αΔ` to catch it (Eq. 1).

use vod_dist::quad::adaptive_simpson;
use vod_dist::DurationDist;

use crate::kernel::Kernel;
use crate::{BoundaryMode, ModelOptions, SystemParams};

/// Decomposed FF hit probability.
#[derive(Debug, Clone, PartialEq)]
pub struct FfHit {
    /// `P(hit_w|FF)`: resume within the partition that issued the FF.
    pub within: f64,
    /// `P(hit_j^i|FF)` for `i = 1, 2, …`: resume in the i-th partition
    /// ahead.
    pub jumps: Vec<f64>,
    /// `P(end)`: fast-forward reaches the end of the movie (Eq. 20); the
    /// dedicated stream is released because the viewing is over.
    pub end: f64,
}

impl FfHit {
    /// `P(hit|FF)` — Eq. (21): within + Σ jumps + end.
    pub fn total(&self) -> f64 {
        self.within + self.jumps.iter().sum::<f64>() + self.end
    }
}

/// `P(hit|FF)` via the paper's decomposition.
pub fn p_hit_ff(params: &SystemParams, dist: &dyn DurationDist, opts: &ModelOptions) -> FfHit {
    let l = params.movie_len();
    let n = params.n();
    let b = params.partition_len();
    let alpha = params.rates().alpha();
    let k = Kernel::new(dist);

    // Eq. (20): P(end) = ∫₀^l (1 − F(l − V_c)) (1/l) dV_c = 1 − H(l)/l,
    // and `k.at` gives the deficit H(l) − l.
    let end = -k.at(l).1 / l;

    if params.is_pure_batching() {
        // No partitions to resume into (paper §3.1: "the hit probability
        // will always equal zero"); only the end-of-movie release remains.
        return FfHit {
            within: 0.0,
            jumps: Vec::new(),
            end,
        };
    }

    // ---- Within-partition hits, Eqs. (4)–(8) ----------------------------
    // With u = l − V_c the viewer's distance to the movie end.
    let within = k.within(l, b, alpha);

    // ---- Jump hits, Eqs. (9)–(19) ---------------------------------------
    let mut jumps = Vec::new();
    let i_paper_max = {
        // Eq. (19): i ≤ ⌊(n(l + wα) − lα)/(lα)⌋, computed literally.
        let w = params.max_wait();
        let raw = (n * (l + w * alpha) - l * alpha) / (l * alpha);
        // Guard fp slop at exact-integer boundaries.
        (raw + 1e-9).floor()
    };
    let mut i = 1u32;
    loop {
        let c = i as f64 * l / n; // phase offset il/n of the i-th partition
        let e4 = (l - alpha * (c - b)).clamp(0.0, l); // last V_c with any hit
        match opts.boundary {
            BoundaryMode::PaperEq19 => {
                if (i as f64) > i_paper_max {
                    break;
                }
            }
            BoundaryMode::Extended => {
                if e4 <= 0.0 {
                    break;
                }
            }
        }
        jumps.push(jump_term(&k, alpha, l, b, c));
        i += 1;
        if i > params.n_streams() + 4 {
            // Defensive cap: i is geometrically bounded by n/α + B/l + 1 <
            // n + 2; reaching this means a logic error upstream.
            debug_assert!(false, "jump summation failed to terminate");
            break;
        }
    }

    FfHit { within, jumps, end }
}

/// `P(hit_j^i|FF)` for one partition ahead: Eqs. (15)–(18) with every
/// `V_c` range clamped to `[0, l]`, integrated over `V_c` in closed form.
///
/// Substituting `u = l − V_c` (distance to the movie end), the farthest
/// catchable viewer sits `u/α` ahead, so the region boundaries are the
/// catch-up sweeps `α(c−b)`, `αc`, `α(c+b)` to the three window edges,
/// clamped to `l`, and inside regions 2–4 the inner term is `G(u/α) =
/// H(u)/α` whatever the partition index. The whole term is a combination
/// of cdf differences, so `k` supplies the deficits (see [`Kernel`]).
fn jump_term(k: &Kernel<'_>, alpha: f64, l: f64, b: f64, c: f64) -> f64 {
    // At a window edge y minutes ahead: the catch-up sweep αy clamped to
    // the movie end, H and HH there, the antiderivative uH − HH of uF(u),
    // and G(y) = H(αy)/α. One point serves G too: below 0 both H are 0,
    // and past the movie end (u = l) every G is weighted by a region of
    // zero width (l − u₂, u₂ − u₁, u₁ − u₀), so H(u) standing in for
    // H(αy) changes at most the sign of a zero.
    let edge = |y: f64| {
        let u = (alpha * y).clamp(0.0, l);
        let (_, h, hh) = k.at(u);
        (u, h, hh, u * h - hh, h / alpha)
    };
    let (u0, h0, hh0, m0, g0) = edge(c - b);
    let (u1, h1, hh1, m1, g1) = edge(c);
    let (u2, h2, hh2, m2, g2) = edge(c + b);

    // Region 1 (Eq. 15), u ≥ α(c+b): complete hits for the full V_f range;
    // the inner integral telescopes to G(c+b) − 2G(c) + G(c−b), independent
    // of V_c.
    let p1 = (l - u2) * (g2 - 2.0 * g1 + g0);

    // Regions 2+3 (Eqs. 16, 17), u ∈ [αc, α(c+b)]: the farthest catchable
    // viewer V_t lies inside the V_f range, m = V_t − V_c = u/α − c ∈
    // [0, b]. The two inner integrals combine to
    //   G(c+m) − 2G(c) + G(c−b) + (b − m) F(u)
    // (the G(c−b+m) cross terms cancel), and c + m = u/α.
    let p23 =
        (hh2 - hh1) / alpha + (g0 - 2.0 * g1) * (u2 - u1) + (b + c) * (h2 - h1) - (m2 - m1) / alpha;

    // Region 4 (Eq. 18), u ∈ [α(c−b), αc]: only partial hits remain; with
    // m' = u/α − (c − b) ∈ [0, b]:
    //   inner = m' F(u) − (G(c−b+m') − G(c−b)),   c − b + m' = u/α.
    let p4 = (m1 - m0) / alpha - (c - b) * (h1 - h0) - (hh1 - hh0) / alpha + g0 * (u1 - u0);

    (p1 + p23 + p4) / (b * l)
}

/// Brute-force oracle: integrate the exact conditional hit probability
///
/// ```text
/// P(hit|FF, V_c, s) = F(min(αs, e)) + Σ_i [F(min(α(c_i+s), e)) − F(min(α(c_i+s−b), e))]
///                   + (1 − F(e)),            e = l − V_c,
/// ```
///
/// over `s ~ U[0, B/n]`, `V_c ~ U[0, l]` by 2-D adaptive quadrature at
/// absolute tolerance `tol`. Converges onto extended-mode [`p_hit_ff`] as
/// `tol → 0`.
pub fn p_hit_ff_direct(params: &SystemParams, dist: &dyn DurationDist, tol: f64) -> f64 {
    let l = params.movie_len();
    let n = params.n();
    let b = params.partition_len();
    let alpha = params.rates().alpha();
    let k = Kernel::new(dist);

    let conditional = |vc: f64, s: f64| -> f64 {
        let e = l - vc;
        let mut total = k.cdf((alpha * s).min(e)) + (1.0 - k.cdf(e));
        let mut i = 1u32;
        loop {
            let c = i as f64 * l / n;
            let lo = alpha * (c + s - b);
            if lo >= e {
                break;
            }
            let hi = (alpha * (c + s)).min(e);
            total += k.cdf(hi) - k.cdf(lo.max(0.0).min(e));
            i += 1;
            if i > params.n_streams() + 4 {
                break;
            }
        }
        total
    };

    if params.is_pure_batching() {
        return adaptive_simpson(|vc| 1.0 - k.cdf(l - vc), 0.0, l, tol) / l;
    }
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

    /// Absolute tolerance handed to the 2-D oracle.
    const ORACLE_TOL: f64 = 1e-9;

    fn params(l: f64, b: f64, n: u32) -> SystemParams {
        SystemParams::new(l, b, n, Rates::paper()).unwrap()
    }

    #[test]
    fn end_term_equals_mean_over_l_for_interior_dist() {
        // For a distribution with all mass inside [0, l]:
        // P(end) = 1 − H(l)/l = mean/l.
        let p = params(120.0, 30.0, 10);
        let d = Gamma::paper_fig7(); // mass above 120 ≈ 3e-12
        let hit = p_hit_ff(&p, &d, &ModelOptions::default());
        assert!((hit.end - 8.0 / 120.0).abs() < 1e-9, "end = {}", hit.end);
    }

    #[test]
    fn pure_batching_has_only_end_hits() {
        let p = params(120.0, 0.0, 10);
        let d = Gamma::paper_fig7();
        let hit = p_hit_ff(&p, &d, &ModelOptions::default());
        assert_eq!(hit.within, 0.0);
        assert!(hit.jumps.is_empty());
        assert!((hit.total() - hit.end).abs() < 1e-15);
    }

    #[test]
    fn total_is_probability() {
        for (l, b, n) in [
            (120.0, 30.0, 10),
            (120.0, 90.0, 30),
            (120.0, 119.0, 60),
            (60.0, 5.0, 3),
            (90.0, 45.0, 1),
        ] {
            for mode in [BoundaryMode::PaperEq19, BoundaryMode::Extended] {
                let p = params(l, b, n);
                let opts = ModelOptions { boundary: mode };
                let hit = p_hit_ff(&p, &Gamma::paper_fig7(), &opts);
                let t = hit.total();
                assert!(
                    (0.0..=1.0 + 1e-7).contains(&t),
                    "l={l} B={b} n={n} {mode:?}: total {t}"
                );
                assert!(hit.within >= -1e-12);
                assert!(hit.end >= -1e-12);
                for (i, j) in hit.jumps.iter().enumerate() {
                    assert!(*j >= -1e-9, "jump {i} = {j}");
                }
            }
        }
    }

    #[test]
    fn decomposition_matches_direct_oracle() {
        // Independent implementations must agree (Extended mode).
        let opts = ModelOptions::default();
        for (l, b, n) in [
            (120.0, 30.0, 10),
            (120.0, 60.0, 20),
            (120.0, 12.0, 40),
            (75.0, 39.0, 25),
            (60.0, 30.0, 6),
        ] {
            let p = params(l, b, n);
            for d in [
                Box::new(Gamma::paper_fig7()) as Box<dyn DurationDist>,
                Box::new(Exponential::with_mean(5.0).unwrap()),
                Box::new(Uniform::new(0.0, 16.0).unwrap()),
            ] {
                let dec = p_hit_ff(&p, d.as_ref(), &opts).total();
                let dir = p_hit_ff_direct(&p, d.as_ref(), ORACLE_TOL);
                assert!(
                    (dec - dir).abs() < 5e-4,
                    "l={l} B={b} n={n} {d:?}: decomposed {dec} vs direct {dir}"
                );
            }
        }
    }

    #[test]
    fn extended_mode_never_below_paper_mode() {
        // Extended mode adds non-negative partial-hit mass beyond Eq. 19.
        for (l, b, n) in [(120.0, 30.0, 10), (120.0, 80.0, 8), (90.0, 44.5, 13)] {
            let p = params(l, b, n);
            let d = Gamma::paper_fig7();
            let paper = p_hit_ff(&p, &d, &ModelOptions::paper()).total();
            let ext = p_hit_ff(&p, &d, &ModelOptions::default()).total();
            assert!(
                ext >= paper - 1e-9,
                "l={l} B={b} n={n}: ext {ext} < paper {paper}"
            );
        }
    }

    #[test]
    fn more_buffer_means_more_hits() {
        // At fixed n, increasing B grows every partition window.
        let d = Gamma::paper_fig7();
        let opts = ModelOptions::default();
        let mut prev = 0.0;
        for b in [0.0, 12.0, 30.0, 60.0, 90.0, 118.0] {
            let p = params(120.0, b, 12);
            let t = p_hit_ff(&p, &d, &opts).total();
            assert!(t >= prev - 1e-7, "B={b}: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn deterministic_short_ff_always_hits_within() {
        // If every FF sweeps exactly 1 movie minute and partitions are
        // 12 minutes long, almost every viewer resumes in his own
        // partition: hit_w ≈ P[x ≤ α s] = P[s ≥ x/α = 2/3] over s~U[0,12],
        // minus the end-of-movie boundary sliver.
        let p = params(120.0, 120.0, 10); // fully buffered: b = 12, w = 0
        let d = Deterministic::new(1.0).unwrap();
        let hit = p_hit_ff(&p, &d, &ModelOptions::default());
        // s ≥ x/α = 1/1.5 = 2/3 within a 12-minute window: 1 − (2/3)/12.
        let ideal = 1.0 - (2.0 / 3.0) / 12.0;
        assert!(
            (hit.within - ideal).abs() < 0.02,
            "within {} vs ideal {ideal}",
            hit.within
        );
        // Misses can only jump or end; total stays a probability.
        assert!(hit.total() <= 1.0 + 1e-9);
    }

    #[test]
    fn asymmetric_rates_respected() {
        // Sweeping x movie minutes at rate R displaces the viewer
        // x·(1 − 1/R) = x/α relative to the co-moving partitions: a faster
        // FF gives the partitions less time to follow, so at a fixed swept
        // distance the viewer drifts *further* and exits his window more
        // often. α = R/(R−1): slow FF (R=2) ⇒ α=2; fast FF (R=8) ⇒ α=8/7.
        let d = Exponential::with_mean(8.0).unwrap();
        let opts = ModelOptions::default();
        let slow = SystemParams::new(120.0, 36.0, 12, Rates::new(1.0, 2.0, 3.0).unwrap()).unwrap();
        let fast = SystemParams::new(120.0, 36.0, 12, Rates::new(1.0, 8.0, 3.0).unwrap()).unwrap();
        let hw_slow = p_hit_ff(&slow, &d, &opts).within;
        let hw_fast = p_hit_ff(&fast, &d, &opts).within;
        assert!(
            hw_slow > hw_fast,
            "within: slow {hw_slow} should exceed fast {hw_fast}"
        );
    }
}
