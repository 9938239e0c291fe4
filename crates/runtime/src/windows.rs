//! Continuous-time partition-window geometry.

use vod_model::SystemParams;

/// The periodic restart schedule of one movie and the buffer windows it
/// drags along, in continuous movie-minutes.
///
/// Streams restart every `T` minutes forever, so the window pattern never
/// needs explicit stream objects: the stream started at `kT` has age
/// `a = t − kT` at time `t` and buffers positions `[a − b, a]` (clipped
/// to `[0, l]`, and the window freezes once the stream finishes
/// displaying at `a = l`). Position `p` is buffered at time `t` iff some
/// integer `k ≥ 0` satisfies `t − kT ∈ [p, min(p + b, l)]` — an O(1)
/// membership test ([`PartitionWindows::covers`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindows {
    movie_len: f64,
    restart_interval: f64,
    window_len: f64,
}

impl PartitionWindows {
    /// Geometry from explicit `(l, T, b)`. `l` and `T` must be positive,
    /// `b` non-negative (`b = 0` is pure batching: nothing is buffered).
    pub fn new(movie_len: f64, restart_interval: f64, window_len: f64) -> Self {
        assert!(
            movie_len > 0.0 && restart_interval > 0.0 && window_len >= 0.0,
            "invalid window geometry (l {movie_len}, T {restart_interval}, b {window_len})"
        );
        Self {
            movie_len,
            restart_interval,
            window_len,
        }
    }

    /// Geometry from the paper's `(l, B, n)` system parameters:
    /// `T = l/n`, `b = B/n`.
    pub fn from_params(params: &SystemParams) -> Self {
        Self::new(
            params.movie_len(),
            params.restart_interval(),
            params.partition_len(),
        )
    }

    /// Movie length `l` in minutes.
    pub fn movie_len(&self) -> f64 {
        self.movie_len
    }

    /// Restart interval `T = l/n` in minutes.
    pub fn restart_interval(&self) -> f64 {
        self.restart_interval
    }

    /// Window length `b = B/n` in movie-minutes.
    pub fn window_len(&self) -> f64 {
        self.window_len
    }

    /// Is position `p` inside some live partition window at time `t`?
    /// A resume at `p` is a hit iff it is: **the** hit/miss decision the
    /// simulator applies and the server applies in quantized form
    /// ([`crate::QuantizedGeometry::stream_join_covers`] over its streams).
    ///
    /// O(1): a window covers `p` iff an integer `k ≥ 0` has stream age
    /// `a = t − kT` in `[p, min(p + b, l)]`, so the candidate `k` range
    /// is solved directly instead of scanning streams. The `1e-9` nudges
    /// keep positions exactly on a window boundary inside it despite
    /// floating-point division error.
    pub fn covers(&self, t: f64, p: f64) -> bool {
        let b = self.window_len;
        if b <= 0.0 {
            return false;
        }
        let l = self.movie_len;
        let tt = self.restart_interval;
        let hi_a = (p + b).min(l);
        if hi_a < p {
            return false;
        }
        // vod-lint: allow(quantize-cast) — continuous-time candidate-k bound, not
        // (l,B,n) quantization; the epsilon nudge is documented above.
        let k_min = ((t - hi_a) / tt - 1e-9).ceil().max(0.0);
        // vod-lint: allow(quantize-cast) — same closed-form k-range bound as k_min.
        let k_max = ((t - p) / tt + 1e-9).floor();
        k_min <= k_max
    }

    /// Same restart schedule with a different window length `b` (clamped
    /// non-negative): the geometry after a buffer shrink or restore fault
    /// changes the per-partition allocation. Pure-batching `b = 0` is a
    /// legal result — every resume then misses.
    pub fn with_window_len(&self, window_len: f64) -> Self {
        Self::new(self.movie_len, self.restart_interval, window_len.max(0.0))
    }

    /// Reference oracle for [`PartitionWindows::covers`]: scan every live
    /// stream window explicitly. O(t/T); exists so property tests can
    /// check the closed-form candidate-`k` range against brute force.
    pub fn covers_brute_force(&self, t: f64, p: f64) -> bool {
        if self.window_len <= 0.0 {
            return false;
        }
        let hi = (p + self.window_len).min(self.movie_len);
        let mut k = 0.0f64;
        loop {
            let age = t - k * self.restart_interval;
            if age < p - 1e-9 {
                return false;
            }
            if age <= hi + 1e-9 {
                return true;
            }
            k += 1.0;
        }
    }

    /// Age of the most recent restart at time `t` (in `[0, T)`).
    pub fn latest_age(&self, t: f64) -> f64 {
        let tt = self.restart_interval;
        // vod-lint: allow(quantize-cast) — continuous-time modulo (latest restart
        // age), not geometry quantization; stays in f64 throughout.
        t - (t / tt).floor() * tt
    }

    /// The next restart instant at or after... strictly after the latest
    /// restart: `t − latest_age(t) + T`.
    pub fn next_restart_at(&self, t: f64) -> f64 {
        t - self.latest_age(t) + self.restart_interval
    }

    /// Is the newest stream's enrollment window still open at `t` — can
    /// an arriving viewer start at position 0 from its buffer? Open while
    /// the stream age is at most `b` (boundary included, with the same
    /// nudge the membership test uses).
    pub fn enrollment_open(&self, t: f64) -> bool {
        self.latest_age(t) <= self.window_len + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::Rates;

    fn windows() -> PartitionWindows {
        // l = 120, n = 10 → T = 12, b = 6 (w = 6).
        let params = SystemParams::new(120.0, 60.0, 10, Rates::paper()).unwrap();
        PartitionWindows::from_params(&params)
    }

    #[test]
    fn from_params_matches_paper_quantities() {
        let w = windows();
        assert_eq!(w.restart_interval(), 12.0);
        assert_eq!(w.window_len(), 6.0);
        assert_eq!(w.movie_len(), 120.0);
    }

    #[test]
    fn covers_tracks_stream_ages() {
        let w = windows();
        // At t = 100 the live streams have ages 100, 88, 76, … 4; each
        // buffers [age − 6, age].
        assert!(w.covers(100.0, 100.0));
        assert!(w.covers(100.0, 95.0));
        assert!(!w.covers(100.0, 93.0)); // gap between ages 88 and 94
        assert!(w.covers(100.0, 88.0));
        assert!(w.covers(100.0, 0.0)); // age-4 stream still enrolling
        assert!(!w.covers(100.0, 119.0)); // no stream that old
    }

    #[test]
    fn boundaries_count_as_covered() {
        let w = windows();
        // Exactly on the leading and trailing window edges.
        assert!(w.covers(100.0, 94.0));
        assert!(w.covers(100.0, 82.0));
    }

    #[test]
    fn pure_batching_never_covers() {
        let w = PartitionWindows::new(120.0, 12.0, 0.0);
        assert!(!w.covers(100.0, 96.0));
        // At the exact restart instant the age-0 stream is momentarily
        // enrollable even with b = 0; any later it is not.
        assert!(w.enrollment_open(24.0));
        assert!(!w.enrollment_open(24.5));
    }

    #[test]
    fn brute_force_agrees_on_a_grid() {
        let w = windows();
        let mut hits = 0;
        for ti in 0..400 {
            let t = ti as f64 * 0.7;
            for pi in 0..120 {
                let p = pi as f64;
                assert_eq!(
                    w.covers(t, p),
                    w.covers_brute_force(t, p),
                    "disagreement at t={t} p={p}"
                );
                hits += w.covers(t, p) as u32;
            }
        }
        assert!(hits > 0);
    }

    #[test]
    fn restart_clock() {
        let w = windows();
        assert_eq!(w.latest_age(25.0), 1.0);
        assert_eq!(w.next_restart_at(25.0), 36.0);
        assert!(w.enrollment_open(25.0));
        assert!(!w.enrollment_open(31.0)); // age 7 > b = 6
    }

    #[test]
    fn with_window_len_rebuilds_geometry() {
        let w = windows().with_window_len(0.0);
        assert_eq!(w.window_len(), 0.0);
        assert!(!w.covers(100.0, 100.0), "pure batching after full shrink");
        assert_eq!(w.restart_interval(), 12.0, "schedule unchanged");
        let back = w.with_window_len(6.0);
        assert_eq!(back, windows(), "restore round-trips");
        assert_eq!(windows().with_window_len(-3.0).window_len(), 0.0, "clamped");
    }
}
