//! Feasible `(B, n)` sets per movie — the paper's §5 Steps 1–2 and
//! Figure 8.
//!
//! For a movie with wait bound `w`, every stream count `n ∈ [1, l/w]`
//! implies a buffer `B = l − n·w` (Eq. 2); the pair is *feasible* when the
//! model's `P(hit) ≥ P*`. Because the buffered fraction `B/l = 1 − wn/l`
//! falls with `n`, `P(hit)` is decreasing in `n` along the wait-bound line
//! and the feasible set is (numerically verified in tests) a prefix
//! `n ≤ n_max`; [`max_feasible_streams`] finds the boundary by bisection.

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
/// found by bisection over the integer range `[1, l/w]`.
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
pub fn max_feasible_streams_memo(
    movie: &MovieSpec,
    opts: &ModelOptions,
    memo: &HitMemo,
) -> Result<Option<u32>, ModelError> {
    let p_at = |n: u32| memo.get_or_try_insert(n, || movie.hit_probability(n, opts));
    let mut lo = 1u32;
    let mut hi = movie.max_streams();
    if p_at(lo)? < movie.target_hit {
        return Ok(None);
    }
    if p_at(hi)? >= movie.target_hit {
        return Ok(Some(hi));
    }
    // Invariant: P(lo) ≥ P*, P(hi) < P*.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if p_at(mid)? >= movie.target_hit {
            lo = mid;
        } else {
            hi = mid;
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
}
