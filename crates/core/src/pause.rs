//! Pause hit probability `P(hit|PAU)`.
//!
//! Like RW, the paper defers the PAU derivation to its technical report;
//! this module reconstructs it under the paper's stated conventions.
//!
//! Geometry: a paused viewer keeps his absolute position `V_c` while every
//! stream (and hence the whole partition pattern) advances at `R_PB`. In
//! the co-moving frame the viewer drifts backwards by `R_PB·x` movie
//! minutes for a pause of `x` time units. Restarts are perpetual with
//! period `T = l/n`, so the pattern seen at a fixed position is periodic:
//! with `s = V_f − V_c` the viewer resumes inside the k-th trailing window
//! iff
//!
//! ```text
//! (s + R_PB·x) mod T ∈ [0, B/n]        (k = ⌊(s + R_PB·x)/T⌋ wraps)
//! ```
//!
//! **End-of-movie boundary**: the stream covering position `V_c` at resume
//! has its front at `V_c + r` (the viewer sits `r` behind the front); if
//! that front exceeds `l` the stream has already terminated and its
//! partition is gone — a miss. This clamps the usable window to
//! `r ≤ min(B/n, l − V_c)` and is the reason the model slightly
//! *underestimates* the simulated PAU hit rate (§4 of the paper notes the
//! same for its model).
//!
//! **Wrap rule (§2.1)**: "a pause of x time units, where x > l, is
//! equivalent to a pause of x mod l" — probabilities are computed for the
//! wrapped duration, so distributions with mass above `l` fold back.

use vod_dist::quad::adaptive_simpson;
use vod_dist::DurationDist;

use crate::kernel::Kernel;
use crate::{ModelOptions, SystemParams};

/// `P(hit|PAU)`. PAU has no boundary policy, so `_opts` is unused; it is
/// taken for symmetry with [`crate::p_hit_ff`].
///
/// The conditional depends on `V_c` only via the usable window
/// `β = min(b, l − V_c)`, so
///
/// ```text
/// P = ((l − b)/l)·I(b) + (1/l)·∫₀^b I(β) dβ,
/// ```
///
/// where `I(β)` is the `s`-averaged hit probability with usable window `β`.
/// Durations wrap mod `l` (§2.1), handled by folding the displacement law:
/// `F_j(x) = F(jl + x)` summed until the tail above `jl` vanishes. Per fold
/// (`base = jl`), `b·I(β)` is a sum of `H` differences:
///
/// * `k = 0` (own window): the displacement interval is `[0, β − s]`, giving
///   `∫₀^β F_j(β − s) ds = H(base + β) − H(base) − β·F(base)`.
/// * `1 ≤ k ≤ n` (k-th trailing window, `y = base + kT`): the interval is
///   `[kT − s, min(l, kT − s + β)]`. With `s* = clamp(kT + β − l, 0, b)` the
///   upper limit is clamped to `l` for `s < s*`; the two pieces sum to
///   `s*·F(base + l) − H(y) + H(y + β − s*) − H(y + β − b) + H(y − b)`.
///
/// Each term integrates over `β ∈ [0, b]` exactly: `s*` leaves 0 at
/// `β = gap = clamp(l − kT, 0, b)` (only the last window, `kT = l`, has
/// `gap < b`), beyond which `y + β − s*` is pinned at `top = y + gap`; the
/// `HH(y + gap − b)` terms of the two pieces cancel, leaving a second
/// difference of `HH`, an `H` difference and a quadratic in `w = b − gap`.
/// Every term is a combination of cdf differences, so it is evaluated on
/// the deficits `F − 1`, `H − y`, `HH − y²/2` (DESIGN.md §3, "Deficit form").
pub fn p_hit_pause(params: &SystemParams, dist: &dyn DurationDist, _opts: &ModelOptions) -> f64 {
    let l = params.movie_len();
    let b = params.partition_len();
    let t = params.restart_interval();
    let n = params.n_streams();
    if params.is_pure_batching() {
        return 0.0;
    }
    let k = Kernel::scaled(dist, params.rates().playback());

    let mut at_b = 0.0; // Σ folds of b·I(b)
    let mut swept = 0.0; // Σ folds of b·∫₀^b I(β) dβ
    let mut base = 0.0; // j·l of the current fold
    for _ in 0..64 {
        if 1.0 - k.cdf(base + 1e-12) <= 1e-14 && base > 0.0 {
            break;
        }
        // k = 0.
        let (f_base, h_base, hh_base) = k.at(base);
        let (_, h_end, hh_end) = k.at(base + b);
        at_b += h_end - h_base - b * f_base;
        swept += hh_end - hh_base - b * h_base - 0.5 * b * b * f_base;
        // k = 1..n.
        for kk in 1..=n {
            let kt = kk as f64 * t;
            let y = base + kt;
            let gap = (l - kt).clamp(0.0, b);
            let w = b - gap;
            let top = y + gap;
            let (_, h_lo, hh_lo) = k.at(y - b);
            let (_, h_y, hh_y) = k.at(y);
            let (f_top, h_top, hh_top) = k.at(top);
            at_b += w * f_top - 2.0 * h_y + h_top + h_lo;
            swept +=
                hh_top - 2.0 * hh_y + hh_lo - b * (h_y - h_lo) + w * h_top + 0.5 * w * w * f_top;
        }
        base += l;
    }
    ((l - b).max(0.0) * at_b + swept) / (b * l)
}

/// `P[(R_PB·x) mod l ∈ [lo, hi]]` for `0 ≤ lo ≤ hi ≤ l`: fold the
/// distribution of the *displacement* `R_PB·x` over periods of `l`.
fn wrapped_mass(params: &SystemParams, dist: &dyn DurationDist, lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let l = params.movie_len();
    let pb = params.rates().playback();
    let mut acc = 0.0;
    let mut base = 0.0;
    for _ in 0..64 {
        // Mass of displacement beyond `base`; stop once the tail is gone.
        if 1.0 - dist.cdf(base / pb) <= 1e-14 {
            break;
        }
        acc += dist.cdf((base + hi) / pb) - dist.cdf((base + lo) / pb);
        base += l;
    }
    acc
}

/// Brute-force oracle: 2-D quadrature over `(V_c, s)` at absolute tolerance
/// `tol`, without the `β`-factorization. Validates the closed form.
pub fn p_hit_pause_direct(params: &SystemParams, dist: &dyn DurationDist, tol: f64) -> f64 {
    let l = params.movie_len();
    let b = params.partition_len();
    let t = params.restart_interval();
    let n = params.n_streams();
    if params.is_pure_batching() {
        return 0.0;
    }
    adaptive_simpson(
        |vc| {
            let beta = b.min(l - vc);
            adaptive_simpson(
                |s| {
                    let mut acc = 0.0;
                    for k in 0..=n {
                        let lo = (k as f64 * t - s).max(0.0);
                        let hi = (k as f64 * t - s + beta).min(l);
                        acc += wrapped_mass(params, dist, lo, hi);
                    }
                    acc
                },
                0.0,
                b,
                tol * b / l,
            ) / b
        },
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
        assert_eq!(
            p_hit_pause(&p, &Gamma::paper_fig7(), &ModelOptions::default()),
            0.0
        );
    }

    #[test]
    fn total_is_probability() {
        for (l, b, n) in [
            (120.0, 30.0, 10),
            (120.0, 90.0, 30),
            (120.0, 120.0, 60),
            (60.0, 30.0, 2),
            (90.0, 45.0, 1),
        ] {
            let p = params(l, b, n);
            let t = p_hit_pause(&p, &Gamma::paper_fig7(), &ModelOptions::default());
            assert!((0.0..=1.0 + 1e-7).contains(&t), "l={l} B={b} n={n}: {t}");
        }
    }

    #[test]
    fn factorized_matches_direct_oracle() {
        let opts = ModelOptions::default();
        for (l, b, n) in [(120.0, 30.0, 10), (120.0, 60.0, 20), (75.0, 39.0, 25)] {
            let p = params(l, b, n);
            for d in [
                Box::new(Gamma::paper_fig7()) as Box<dyn DurationDist>,
                Box::new(Exponential::with_mean(5.0).unwrap()),
                Box::new(Uniform::new(0.0, 16.0).unwrap()),
            ] {
                let fast = p_hit_pause(&p, d.as_ref(), &opts);
                let slow = p_hit_pause_direct(&p, d.as_ref(), 1e-9);
                assert!(
                    (fast - slow).abs() < 5e-4,
                    "l={l} B={b} n={n} {d:?}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn deterministic_pause_hand_computed() {
        // l=120, n=10 (T=12), B=60 (b=6), pause exactly 2 minutes.
        // Hit iff s + 2 ≤ β. For V_c ≤ 114: β=6 ⇒ P = 4/6. For V_c > 114:
        // β = l − V_c ⇒ P = (β−2)₊/6. Average:
        //   (114·(2/3) + ∫₀⁶ (u−2)₊/6 du)/120 = (76 + 8/6)/120.
        let p = params(120.0, 60.0, 10);
        let d = Deterministic::new(2.0).unwrap();
        let want = (76.0 + 8.0 / 6.0) / 120.0;
        let got = p_hit_pause(&p, &d, &ModelOptions::default());
        assert!((got - want).abs() < 1e-6, "got {got} want {want}");
    }

    #[test]
    fn pause_wraps_modulo_movie_length() {
        // §2.1: pausing l+x is the same as pausing x (streams restart
        // periodically). Compare a point mass at 10 with one at 130.
        let p = params(120.0, 60.0, 10);
        let short = p_hit_pause(
            &p,
            &Deterministic::new(10.0).unwrap(),
            &ModelOptions::default(),
        );
        let long = p_hit_pause(
            &p,
            &Deterministic::new(130.0).unwrap(),
            &ModelOptions::default(),
        );
        assert!((short - long).abs() < 1e-9, "{short} vs {long}");
    }

    #[test]
    fn full_buffer_pause_hits_except_end_boundary() {
        // B = l ⇒ windows tile the pattern completely; misses only from
        // the end-of-movie clamp. For a 2-minute pause: miss iff the
        // required front V_c + (b − r) exceeds l — a ~O(b/l) sliver.
        let p = params(120.0, 120.0, 10);
        let d = Deterministic::new(2.0).unwrap();
        let t = p_hit_pause(&p, &d, &ModelOptions::default());
        assert!(t > 0.9 && t <= 1.0 + 1e-9, "total {t}");
    }

    #[test]
    fn more_buffer_means_more_hits() {
        let d = Exponential::with_mean(5.0).unwrap();
        let opts = ModelOptions::default();
        let mut prev = 0.0;
        for b in [0.0, 12.0, 30.0, 60.0, 90.0, 120.0] {
            let t = p_hit_pause(&params(120.0, b, 12), &d, &opts);
            assert!(t >= prev - 1e-7, "B={b}: {t} < {prev}");
            prev = t;
        }
    }
}
