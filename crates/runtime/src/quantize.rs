//! Integer-minute quantization of the paper's `(l, B, n)` geometry.

use std::ops::RangeInclusive;

/// The tick server's integer-minute view of one movie's schedule:
/// restart interval `T`, partition capacity `b` (segments), movie length
/// `l` (segments).
///
/// # Rounding rule
///
/// The continuous design point gives `T = l/n` and a maximum batching
/// wait `w = (l − B)/n` (the paper's Eq. 2), with `b = T − w`. Quantizing
/// `T` and `b` independently (each with its own `.round()`) lets the
/// effective wait `T − b` disagree with the rounded model wait — e.g.
/// `l = 120, n = 50, B = 95` would yield `T = 2, b = 2`, an effective
/// wait of 0 where the model promises 0.5. This type therefore rounds
/// **once**, on the quantity the paper actually promises the viewer:
///
/// 1. `T = round(l/n)`, clamped to `[1, l]`;
/// 2. `w = round((l − B)/n)`, clamped to `[0, T − 1]`;
/// 3. `b = T − w`.
///
/// `b ≥ 1` always holds (the final segment doubles as the paper's `δ`
/// hand-off reserve for batched viewers), and the effective wait `T − b`
/// equals the quantized model wait by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantizedGeometry {
    /// Movie length in minutes (== segments).
    pub length: u32,
    /// Restart interval `T` in minutes.
    pub restart_interval: u32,
    /// Partition window `b` in segments, at least 1.
    pub partition_capacity: u32,
}

impl QuantizedGeometry {
    /// Quantize the paper's `(l, B, n)` triple per the rounding rule
    /// above. `buffer_minutes` above `l` is treated as `l` (a window can
    /// never buffer more than the whole movie).
    pub fn from_allocation(length: u32, n_streams: u32, buffer_minutes: f64) -> Self {
        assert!(n_streams >= 1, "need at least one stream");
        assert!(length >= 1, "empty movie");
        let n = n_streams as f64;
        // vod-lint: allow(quantize-cast) — this IS the single blessed rounding
        // site the rule exists to protect; see the rounding rule above.
        let t = ((length as f64 / n).round() as u32).clamp(1, length);
        // vod-lint: allow(quantize-cast) — second half of the same single-rounding
        // rule: w is the one other quantity rounded, b = T − w is derived.
        let wait = ((length as f64 - buffer_minutes).max(0.0) / n).round() as u32;
        let wait = wait.min(t - 1);
        Self {
            length,
            restart_interval: t,
            partition_capacity: t - wait,
        }
    }

    /// Maximum batching wait in minutes: `w = T − b`, equal to the
    /// quantized model wait by construction.
    pub fn max_wait(&self) -> u32 {
        debug_assert!(self.partition_capacity <= self.restart_interval);
        self.restart_interval - self.partition_capacity
    }

    /// Upper bound on simultaneously live streams (including partitions
    /// lingering for trailing readers).
    pub fn max_live_streams(&self) -> u32 {
        (self.length + self.partition_capacity) / self.restart_interval + 2
    }

    /// The positions at which a session can join a live stream whose
    /// window is currently `[front + 1 − filled, front]`; `None` for an
    /// empty partition.
    ///
    /// Joining means the session consumes its position *after the
    /// stream's next advance*, so the range is the window one advance
    /// ahead: a still-displaying stream's window shifts forward by one
    /// (evicting its tail once the partition is full); a finished
    /// stream's window is frozen. Using the current window instead would
    /// let a session join exactly at the trailing edge and underrun one
    /// tick later.
    pub fn stream_join_range(&self, front: u32, filled: u32) -> Option<RangeInclusive<u32>> {
        if filled == 0 {
            return None;
        }
        let tail = front + 1 - filled;
        let will_advance = front + 1 < self.length;
        Some(if will_advance {
            let evicts = filled == self.partition_capacity;
            tail + u32::from(evicts)..=front + 1
        } else {
            tail..=front
        })
    }

    /// Is `position` inside [`Self::stream_join_range`]?
    pub fn stream_join_covers(&self, front: u32, filled: u32, position: u32) -> bool {
        self.stream_join_range(front, filled)
            .is_some_and(|joinable| joinable.contains(&position))
    }

    /// Is `position` joinable at tick `t` under the *ideal* schedule
    /// (every restart on time, streams retiring as they finish)? The
    /// integer-minute analogue of [`crate::PartitionWindows::covers`],
    /// applying [`QuantizedGeometry::stream_join_covers`] to each live
    /// stream age `a = t − kT ∈ [0, l)` with `filled = min(a + 1, b)`.
    /// O(number of live streams); a cross-check helper, not a hot path.
    pub fn ideal_join_covers(&self, t: u64, position: u32) -> bool {
        let tt = self.restart_interval as u64;
        let mut start = (t / tt) * tt;
        loop {
            let age = (t - start) as u32;
            if age < self.length {
                let filled = (age + 1).min(self.partition_capacity);
                if self.stream_join_covers(age, filled, position) {
                    return true;
                }
            }
            if start < tt {
                return false;
            }
            start -= tt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: pin the `(l, B, n) → (T, b, w)` mapping for the
    /// paper-style configurations the repo's examples and tests use.
    #[test]
    fn quantization_pins_paper_configs() {
        // (l, n, B) → (T, b, w)
        let cases = [
            ((120, 10, 60.0), (12, 6, 6)),  // Example 1 shape, w = 6
            ((120, 10, 30.0), (12, 3, 9)),  // admission-plan movie "a"
            ((60, 5, 20.0), (12, 4, 8)),    // admission-plan movie "b"
            ((120, 20, 100.0), (6, 5, 1)),  // w = 1 column of Figure 7
            ((120, 40, 80.0), (3, 2, 1)),   // n = 40, w = 1
            ((120, 60, 60.0), (2, 1, 1)),   // n = 60, w = 1
            ((120, 50, 95.0), (2, 1, 1)),   // w = 0.5 rounds up, not away
            ((120, 1, 0.0), (120, 1, 119)), // single stream, pure batching
            ((90, 7, 45.0), (13, 7, 6)),    // non-dividing n
        ];
        for ((l, n, buf), (t, b, w)) in cases {
            let g = QuantizedGeometry::from_allocation(l, n, buf);
            assert_eq!(
                (g.restart_interval, g.partition_capacity, g.max_wait()),
                (t, b, w),
                "(l={l}, n={n}, B={buf})"
            );
        }
    }

    #[test]
    fn effective_wait_equals_quantized_model_wait() {
        // The property the single-rounding rule exists for: for any
        // config, T − b == clamp(round((l − B)/n)).
        for l in [60u32, 90, 120, 200] {
            for n in [1u32, 3, 10, 17, 50, 100] {
                for frac in [0.0, 0.25, 0.5, 0.79, 1.0] {
                    let buf = l as f64 * frac;
                    let g = QuantizedGeometry::from_allocation(l, n, buf);
                    let w_model = ((l as f64 - buf) / n as f64).round() as u32;
                    let w_model = w_model.min(g.restart_interval - 1);
                    assert_eq!(g.max_wait(), w_model, "l={l} n={n} B={buf}");
                    assert!(g.partition_capacity >= 1);
                    assert!(g.restart_interval >= 1 && g.restart_interval <= l);
                }
            }
        }
    }

    #[test]
    fn oversized_buffer_saturates() {
        let g = QuantizedGeometry::from_allocation(100, 10, 500.0);
        assert_eq!(g.max_wait(), 0);
        assert_eq!(g.partition_capacity, g.restart_interval);
    }

    #[test]
    fn join_rule_one_advance_ahead() {
        let g = QuantizedGeometry::from_allocation(120, 10, 60.0); // T=12, b=6
                                                                   // Mid-movie, full partition [20, 25]: next advance evicts 20.
        assert!(!g.stream_join_covers(25, 6, 20));
        assert!(g.stream_join_covers(25, 6, 21));
        assert!(g.stream_join_covers(25, 6, 26)); // front + 1 arrives next tick
        assert!(!g.stream_join_covers(25, 6, 27));
        // Still-filling partition [0, 3]: tail stays put.
        assert!(g.stream_join_covers(3, 4, 0));
        assert!(g.stream_join_covers(3, 4, 4));
        assert!(!g.stream_join_covers(3, 4, 5));
        // Finished stream: window frozen at [114, 119].
        assert!(g.stream_join_covers(119, 6, 114));
        assert!(g.stream_join_covers(119, 6, 119));
        assert!(!g.stream_join_covers(119, 6, 113));
        // Empty partition joins nothing.
        assert!(!g.stream_join_covers(0, 0, 0));
    }

    #[test]
    fn ideal_schedule_membership() {
        let g = QuantizedGeometry::from_allocation(120, 10, 60.0); // T=12, b=6
                                                                   // t = 100: stream ages 100, 88, …, 4; full windows one-advance-
                                                                   // ahead are [a − 4, a + 1].
        assert!(g.ideal_join_covers(100, 101));
        assert!(g.ideal_join_covers(100, 96));
        assert!(!g.ideal_join_covers(100, 95));
        assert!(g.ideal_join_covers(100, 0)); // age-4 stream still filling
        assert!(!g.ideal_join_covers(100, 110));
    }
}
