//! Feasible `(B, n)` sets per movie — the paper's §5 Steps 1–2 and
//! Figure 8.
//!
//! For a movie with wait bound `w`, every stream count `n ∈ [1, l/w]`
//! implies a buffer `B = l − n·w` (Eq. 2); the pair is *feasible* when the
//! model's `P(hit) ≥ P*`. Because the buffered fraction `B/l = 1 − wn/l`
//! falls with `n`, `P(hit)` is decreasing in `n` along the wait-bound line
//! and the feasible set is a prefix `n ≤ n_max` (checked against a scan
//! of every `n` for nine of the ten duration kinds in tests);
//! [`max_feasible_streams`] finds the boundary by bisection. It never
//! opens at the costly top of the line: `⌊l/w⌋ + 1` stands in as the
//! first infeasible point, unevaluated. A Deterministic duration
//! resonates with the partition spacing, so its `P(hit)` is not monotone
//! and the bisection returns a feasible `n` whose successor is
//! infeasible, not necessarily the largest one.

use vod_model::{HitMemo, ModelError, ModelOptions, SweepExecutor};

use crate::MovieSpec;

/// One point of a feasible-set scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeasiblePoint {
    /// Stream count `n`.
    pub n_streams: u32,
    /// Buffer minutes `B = l − n·w`.
    pub buffer: f64,
    /// Modelled hit probability at this point.
    pub p_hit: f64,
    /// Whether `p_hit ≥ P*`.
    pub feasible: bool,
}

/// Scan the feasible frontier in steps of `buffer_step` minutes of buffer
/// (Figure 8 uses 5-minute steps). Points whose implied `n` is not a
/// positive integer are snapped to the nearest integer `n` (the paper's
/// `w` values are chosen so 5-minute steps give integral `n`). The
/// per-point model evaluations fan out across `exec`; results are bitwise
/// identical to the serial scan.
pub fn scan_by_buffer_step(
    movie: &MovieSpec,
    buffer_step: f64,
    opts: &ModelOptions,
    exec: &SweepExecutor,
) -> Result<Vec<FeasiblePoint>, ModelError> {
    assert!(buffer_step > 0.0, "buffer_step must be positive");
    // Generate the grid as k·step rather than by repeated addition:
    // accumulating `buffer += step` drifts (e.g. 0.1-minute steps reach
    // 59.999999999999f at k = 600, yielding a spurious extra point), and
    // the drifted values snap `n` inconsistently near grid boundaries.
    let mut grid: Vec<u32> = Vec::new();
    let mut k = 0u32;
    loop {
        let buffer = k as f64 * buffer_step;
        if buffer >= movie.length {
            break;
        }
        let n_exact = (movie.length - buffer) / movie.max_wait;
        let n = n_exact.round().max(1.0) as u32;
        // Coarse wait bounds can snap adjacent grid points to the same n;
        // keep the first occurrence only so the scan is strictly
        // decreasing in n.
        if grid.last() != Some(&n) {
            grid.push(n);
        }
        k += 1;
    }
    // Always include the n = 1 endpoint (maximum buffer).
    if grid.last() != Some(&1) {
        grid.push(1);
    }
    exec.try_map(&grid, |&n| evaluate(movie, n, opts))
}

fn evaluate(movie: &MovieSpec, n: u32, opts: &ModelOptions) -> Result<FeasiblePoint, ModelError> {
    let p = movie.hit_probability(n, opts)?;
    Ok(FeasiblePoint {
        n_streams: n,
        buffer: movie.buffer_for_streams(n),
        p_hit: p,
        feasible: p >= movie.target_hit,
    })
}

/// Largest `n` with `P(hit) ≥ P*` (the minimum-buffer feasible point),
/// found by bisection over the integer range `[1, ⌊l/w⌋]` — exact where
/// `P(hit)` falls along the line (see the module docs).
///
/// Returns `None` when even `n = 1` (maximum buffer) misses the target —
/// the movie's QoS pair `(w, P*)` is unsatisfiable with this behavior.
pub fn max_feasible_streams(
    movie: &MovieSpec,
    opts: &ModelOptions,
) -> Result<Option<u32>, ModelError> {
    max_feasible_streams_memo(movie, opts, &HitMemo::new())
}

/// [`max_feasible_streams`] drawing every `hit_probability(n)` evaluation
/// through `memo`, so later phases of an allocation (greedy water-fill,
/// plan building, repeated sweeps over the same catalog) never recompute
/// an `n` the bisection already visited. The memo must belong to this
/// `(movie, opts)` context.
///
/// The top of the line, `n = ⌊l/w⌋`, is the costliest point to evaluate
/// (one evaluation is O(n)) and almost never feasible: it is evaluated
/// only when `⌊l/w⌋ − 1` turned out feasible (see `last_true`).
pub fn max_feasible_streams_memo(
    movie: &MovieSpec,
    opts: &ModelOptions,
    memo: &HitMemo,
) -> Result<Option<u32>, ModelError> {
    last_true(movie.max_streams(), |n| {
        let p = memo.get_or_try_insert(n, || movie.hit_probability(n, opts))?;
        Ok(p >= movie.target_hit)
    })
}

/// The last `n` in `[1, hi]` where `holds` is true, for a predicate that
/// is true on a prefix of `[1, hi]` and false after it; `None` when it is
/// false at `n = 1`. `hi ≥ 1`: [`MovieSpec::max_streams`] is never 0.
///
/// Bisection with `hi + 1` as the first false point, a sentinel that is
/// never evaluated (nor computed: `hi` may be `u32::MAX`). Each `n` is
/// evaluated at most once, never outside `[1, hi]`, at most
/// `1 + ⌈log₂ hi⌉` times in all, and `hi` only when `hi − 1` held (or
/// `hi = 1`) — the one case where no other point can decide it.
fn last_true<E>(hi: u32, mut holds: impl FnMut(u32) -> Result<bool, E>) -> Result<Option<u32>, E> {
    if !holds(1)? {
        return Ok(None);
    }
    // Invariant: holds(lo), and every n past `hi` fails (hi + 1 by the
    // sentinel). The upper midpoint is in (lo, hi], so hi + 1 is never
    // formed.
    let (mut lo, mut hi) = (1u32, hi);
    while hi > lo {
        let mid = lo + (hi - lo).div_ceil(2);
        if holds(mid)? {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Ok(Some(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movie::example1_movies;
    use std::sync::Arc;
    use vod_dist::kinds::Exponential;
    use vod_model::{Rates, VcrMix};

    fn small_movie() -> MovieSpec {
        MovieSpec::new(
            "m",
            60.0,
            0.5,
            0.5,
            VcrMix::paper_fig7d(),
            Arc::new(Exponential::with_mean(5.0).unwrap()),
            Rates::paper(),
        )
        .unwrap()
    }

    /// Every integer `n` in `[1, l/w]`, evaluated one by one: what the
    /// bisection is checked against.
    fn scan_every_n(m: &MovieSpec, opts: &ModelOptions) -> Vec<FeasiblePoint> {
        (1..=m.max_streams())
            .map(|n| evaluate(m, n, opts).unwrap())
            .collect()
    }

    #[test]
    fn feasible_set_is_a_prefix_in_n() {
        // Validates the monotonicity the bisection relies on.
        let m = small_movie();
        let pts = scan_every_n(&m, &ModelOptions::default());
        let mut seen_infeasible = false;
        for p in &pts {
            if !p.feasible {
                seen_infeasible = true;
            } else {
                assert!(
                    !seen_infeasible,
                    "feasibility regained at n={} after losing it",
                    p.n_streams
                );
            }
        }
        assert!(seen_infeasible, "target never binds — test is vacuous");
    }

    #[test]
    fn bisection_matches_scan() {
        let m = small_movie();
        let opts = ModelOptions::default();
        let scan_max = scan_every_n(&m, &opts)
            .iter()
            .filter(|p| p.feasible)
            .map(|p| p.n_streams)
            .max()
            .unwrap();
        let bisect_max = max_feasible_streams(&m, &opts).unwrap().unwrap();
        assert_eq!(scan_max, bisect_max);
    }

    #[test]
    fn unsatisfiable_target_detected() {
        let mut m = small_movie();
        m.target_hit = 0.9999;
        assert_eq!(
            max_feasible_streams(&m, &ModelOptions::default()).unwrap(),
            None
        );
    }

    #[test]
    fn float_residue_buffer_is_not_a_feasible_point() {
        // l − n·w at n = ⌊l/w⌋ = 110 is 7e-15, not a buffer: the model must
        // see pure batching there (P(hit) ≈ 0.01), so the bisection has to
        // come down from max_streams to a point with a real partition.
        use vod_dist::kinds::Gamma;
        let m = MovieSpec::new(
            "m",
            62.7,
            0.57,
            0.5,
            VcrMix::paper_fig7d(),
            Arc::new(Gamma::with_shape_mean(2.0, 3.0).unwrap()),
            Rates::paper(),
        )
        .unwrap();
        let opts = ModelOptions::default();
        let top = m.max_streams();
        assert_eq!(top, 110);
        let residue = m.buffer_for_streams(top);
        assert!(residue > 0.0 && residue < 1e-9, "residue {residue}");
        let p_top = m.hit_probability(top, &opts).unwrap();
        assert!(p_top < 0.05, "P(hit) at the residue buffer = {p_top}");
        let n_max = max_feasible_streams(&m, &opts).unwrap().unwrap();
        assert!(n_max < top, "bisection stayed at max_streams = {top}");
        assert!(m.buffer_for_streams(n_max) > 1.0);
        assert!(m.hit_probability(n_max, &opts).unwrap() >= 0.5);
    }

    #[test]
    fn buffer_step_scan_covers_range() {
        let m = small_movie();
        let pts = scan_by_buffer_step(&m, 5.0, &ModelOptions::default(), &SweepExecutor::serial())
            .unwrap();
        // 60/5 = 12 steps plus the n=1 endpoint.
        assert!(pts.len() >= 12);
        assert_eq!(pts[0].buffer, 0.0);
        assert_eq!(pts.last().unwrap().n_streams, 1);
        // Buffer increases along the scan, n decreases.
        for w in pts.windows(2) {
            assert!(w[1].buffer >= w[0].buffer);
            assert!(w[1].n_streams <= w[0].n_streams);
        }
    }

    #[test]
    fn parallel_scans_match_serial_bitwise() {
        let m = small_movie();
        let o = ModelOptions::default();
        let exec = SweepExecutor::new(4);
        let s1 = scan_by_buffer_step(&m, 5.0, &o, &SweepExecutor::serial()).unwrap();
        let s4 = scan_by_buffer_step(&m, 5.0, &o, &exec).unwrap();
        assert_eq!(s1.len(), s4.len());
        for (a, b) in s1.iter().zip(&s4) {
            assert_eq!(a.p_hit.to_bits(), b.p_hit.to_bits());
        }
        // Determinism: two runs at the same thread count agree exactly.
        let again = scan_by_buffer_step(&m, 5.0, &o, &exec).unwrap();
        for (a, b) in s4.iter().zip(&again) {
            assert_eq!(a.p_hit.to_bits(), b.p_hit.to_bits());
        }
    }

    #[test]
    fn bisection_memo_absorbs_repeat_queries() {
        let m = small_movie();
        let o = ModelOptions::default();
        let memo = HitMemo::new();
        let first = max_feasible_streams_memo(&m, &o, &memo).unwrap();
        let evals = memo.stats().1;
        assert!(evals > 0);
        let second = max_feasible_streams_memo(&m, &o, &memo).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            memo.stats().1,
            evals,
            "repeat bisection must be served from the memo"
        );
        assert_eq!(first, max_feasible_streams(&m, &o).unwrap());
    }

    #[test]
    fn buffer_step_scan_dedups_snapped_points_and_resists_drift() {
        // A coarse wait bound (w = 10, so only n ∈ 1..=6) with a fine,
        // non-representable step: 0.1-minute increments snap hundreds of
        // grid points onto the same handful of integer n. The scan must
        // emit each n once, strictly decreasing, and repeated-addition
        // drift (0.1 × 600 ≈ 59.999…) must not smuggle in an extra
        // trailing point past the movie length.
        let m = MovieSpec::new(
            "coarse",
            60.0,
            10.0,
            0.5,
            VcrMix::paper_fig7d(),
            Arc::new(Exponential::with_mean(5.0).unwrap()),
            Rates::paper(),
        )
        .unwrap();
        let pts = scan_by_buffer_step(&m, 0.1, &ModelOptions::default(), &SweepExecutor::serial())
            .unwrap();
        assert!(
            pts.len() <= 7,
            "expected ≤ 7 deduped points, got {}",
            pts.len()
        );
        for w in pts.windows(2) {
            assert!(
                w[1].n_streams < w[0].n_streams,
                "duplicate or non-decreasing n: {} then {}",
                w[0].n_streams,
                w[1].n_streams
            );
        }
        assert_eq!(pts[0].n_streams, m.max_streams());
        assert_eq!(pts.last().unwrap().n_streams, 1);
    }

    #[test]
    fn example1_movie2_has_sizable_feasible_range() {
        // Movie 2 (l=60, w=0.5, exp mean 5): the paper reports (30, 60) as
        // its optimum, i.e. its feasible range should extend to dozens of
        // streams with P* = 0.5.
        let movies = example1_movies(VcrMix::paper_fig7d());
        let n_max = max_feasible_streams(&movies[1], &ModelOptions::default())
            .unwrap()
            .expect("movie 2 must be satisfiable");
        assert!(
            (20..=119).contains(&n_max),
            "movie-2 max feasible n = {n_max}"
        );
    }

    /// Runs `last_true` over `[1, hi]` with the prefix predicate `n ≤ k`,
    /// recording every point it evaluates.
    fn search_prefix(hi: u32, k: u32) -> (Option<u32>, Vec<u32>) {
        let mut seen = Vec::new();
        let found = last_true(hi, |n| {
            seen.push(n);
            Ok::<_, ()>(n <= k)
        })
        .unwrap();
        (found, seen)
    }

    #[test]
    fn search_finds_the_last_true_point_of_every_monotone_predicate() {
        // A monotone predicate on [1, hi] is true exactly on [1, k] for
        // some k in 0..=hi; k = 0 is "false everywhere".
        for hi in 1..=12u32 {
            for k in 0..=hi {
                let (found, seen) = search_prefix(hi, k);
                assert_eq!(found, (k > 0).then_some(k), "hi={hi} k={k}");
                let mut distinct = seen.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), seen.len(), "hi={hi} k={k}: {seen:?}");
                assert!(
                    seen.iter().all(|n| (1..=hi).contains(n)),
                    "hi={hi} k={k}: {seen:?}"
                );
                // hi can only be decided by evaluating it once hi − 1 held
                // (or when it is the only point).
                if seen.contains(&hi) {
                    assert!(hi == 1 || k + 1 >= hi, "hi={hi} k={k}: {seen:?}");
                }
            }
        }
    }

    #[test]
    fn search_reaches_u32_max_without_overflow() {
        for k in [0, 1, 2, 1 << 31, u32::MAX - 2, u32::MAX - 1, u32::MAX] {
            let (found, seen) = search_prefix(u32::MAX, k);
            assert_eq!(found, (k > 0).then_some(k), "k={k}");
            assert!(seen.len() <= 33, "k={k}: {} evaluations", seen.len());
        }
    }

    /// One movie per `DurationDist` kind with `l/w ≤ 60` (the scan below
    /// evaluates every `n` in a debug build).
    fn one_movie_per_kind() -> Vec<MovieSpec> {
        use vod_dist::kinds::{
            Deterministic, Empirical, Gamma, LogNormal, Mixture, Pareto, Truncated, Uniform,
            Weibull,
        };
        use vod_dist::DurationDist;
        let samples: Vec<f64> = (1..=40).map(|i| 0.25 * f64::from(i)).collect();
        let dists: Vec<(&str, Arc<dyn DurationDist>)> = vec![
            ("exp", Arc::new(Exponential::with_mean(4.0).unwrap())),
            ("gamma", Arc::new(Gamma::with_shape_mean(2.0, 3.0).unwrap())),
            ("weibull", Arc::new(Weibull::new(1.5, 3.0).unwrap())),
            (
                "lognormal",
                Arc::new(LogNormal::with_mean_cv(3.0, 0.7).unwrap()),
            ),
            (
                "pareto",
                Arc::new(Pareto::with_shape_mean(3.0, 3.0).unwrap()),
            ),
            ("uniform", Arc::new(Uniform::new(0.5, 6.0).unwrap())),
            ("deterministic", Arc::new(Deterministic::new(3.0).unwrap())),
            (
                "empirical",
                Arc::new(Empirical::from_samples(&samples).unwrap()),
            ),
            (
                "mixture",
                Arc::new(
                    Mixture::new(vec![
                        (0.6, Box::new(Exponential::with_mean(2.0).unwrap())),
                        (0.4, Box::new(Gamma::with_shape_mean(3.0, 6.0).unwrap())),
                    ])
                    .unwrap(),
                ),
            ),
            (
                "truncated",
                Arc::new(Truncated::new(Exponential::with_mean(4.0).unwrap(), 0.1, 12.0).unwrap()),
            ),
        ];
        dists
            .into_iter()
            .enumerate()
            .map(|(i, (name, dist))| {
                let (l, w) = (24.0 + 2.0 * i as f64, 0.5 + 0.05 * i as f64);
                let mix = VcrMix::paper_fig7d();
                MovieSpec::new(name, l, w, 0.5, mix, dist, Rates::paper()).unwrap()
            })
            .collect()
    }

    #[test]
    fn search_matches_the_scan_for_every_kind() {
        let opts = ModelOptions::default();
        let mut movies = one_movie_per_kind();
        let mut any_target = movies[0].clone();
        any_target.target_hit = 0.0;
        let mut unsatisfiable = movies[0].clone();
        unsatisfiable.target_hit = 0.9999;
        movies.extend([any_target, unsatisfiable]);
        let mut interior = 0;
        for m in &movies {
            assert!(
                m.max_streams() <= 60,
                "{}: l/w = {}",
                m.name,
                m.max_streams()
            );
            let scan = scan_every_n(m, &opts);
            let found = max_feasible_streams(m, &opts).unwrap();
            if m.name == "deterministic" {
                // A fixed duration resonates with the partition spacing, so
                // P(hit) is not monotone along the line and the feasible set
                // is no prefix: bisection lands on *a* feasible point whose
                // successor is infeasible, not on the largest one. Which
                // point depends on the probes; 26 is also what the search
                // that opened at ⌊l/w⌋ and took lower midpoints answered.
                assert_eq!(found, Some(26), "{}", m.name);
                let n = found.unwrap() as usize;
                assert!(scan[n - 1].feasible && !scan[n].feasible, "{}", m.name);
                let last = scan.iter().rposition(|p| p.feasible).unwrap() + 1;
                assert!(last > n, "{}: the scan's last feasible n is {last}", m.name);
                continue;
            }
            let expect = scan
                .iter()
                .filter(|p| p.feasible)
                .map(|p| p.n_streams)
                .max();
            assert_eq!(found, expect, "{}", m.name);
            interior += usize::from(expect.is_some_and(|n| n < m.max_streams()));
        }
        let [.., any_target, unsatisfiable] = &movies[..] else {
            unreachable!()
        };
        let top = any_target.max_streams();
        assert_eq!(max_feasible_streams(any_target, &opts).unwrap(), Some(top));
        assert_eq!(max_feasible_streams(unsatisfiable, &opts).unwrap(), None);
        assert_eq!(interior, 9, "the target binds inside the line");
    }

    #[test]
    fn the_plan_catalog_search_never_evaluates_the_top_of_the_line() {
        // The four movies of the benchmark's plan-catalog workload, built
        // as `vodplan` builds them from the argv.
        let specs = [
            (60.0, 0.5, "exp:mean=2"),
            (61.2, 0.52, "gamma:shape=2,mean=2.25"),
            (62.4, 0.54, "weibull:shape=1.5,scale=2.5"),
            (63.6, 0.56, "lognormal:mean=2.75,cv=0.7"),
        ];
        let opts = ModelOptions::default();
        for (l, w, dist) in specs {
            let dist = Arc::from(vod_dist::parse_spec(dist).unwrap());
            let mix = VcrMix::paper_fig7d();
            let m = MovieSpec::new("m", l, w, 0.5, mix, dist, Rates::paper()).unwrap();
            let memo = HitMemo::new();
            let n_max = max_feasible_streams_memo(&m, &opts, &memo)
                .unwrap()
                .unwrap();
            let top = m.max_streams();
            assert!(n_max < top, "l={l}: n_max {n_max} = ⌊l/w⌋");
            // A miss that fails to compute leaves the memo as it was: Err
            // means ⌊l/w⌋ was never stored.
            let held = memo.get_or_try_insert(top, || Err(())).is_ok();
            assert!(!held, "l={l}: the memo holds P(hit) at ⌊l/w⌋ = {top}");
            assert!(memo.len() <= 8, "l={l}: {} evaluations", memo.len());
        }
    }
}
