//! Streaming statistics: Welford accumulators, time-weighted averages,
//! fixed-width histograms, and normal-approximation confidence intervals.
//!
//! Used by the simulator and the benchmark harness to summarize
//! replications without storing raw samples.

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Normal-approximation confidence half-width at the given z value
    /// (1.96 ≈ 95%). Exact for large replication counts, which is how the
    /// harness uses it.
    pub fn ci_half_width(&self, z: f64) -> f64 {
        z * self.std_error()
    }

    /// Merge another accumulator (parallel Welford combination).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
    }
}

/// Binary ratio tracker (hits out of trials) with a Wald interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ratio {
    hits: u64,
    trials: u64,
}

impl Ratio {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one trial.
    pub fn push(&mut self, hit: bool) {
        self.trials += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Successes so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Trials so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Success fraction (0 when empty).
    pub fn value(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.hits as f64 / self.trials as f64
        }
    }

    /// Wald half-width `z·√(p(1−p)/n)`.
    pub fn ci_half_width(&self, z: f64) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        let p = self.value();
        z * (p * (1.0 - p) / self.trials as f64).sqrt()
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. "streams in
/// use"), advanced by `observe(now, value_until_now)` semantics: call
/// [`TimeWeighted::set`] whenever the value changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    last_t: f64,
    value: f64,
    weighted_sum: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Start tracking at time `t0` with initial `value`.
    pub fn new(t0: f64, value: f64) -> Self {
        Self {
            last_t: t0,
            value,
            weighted_sum: 0.0,
            peak: value,
        }
    }

    /// Record that the signal changed to `value` at time `now`.
    pub fn set(&mut self, now: f64, value: f64) {
        debug_assert!(now >= self.last_t, "time went backwards");
        self.weighted_sum += self.value * (now - self.last_t);
        self.last_t = now;
        self.value = value;
        self.peak = self.peak.max(value);
    }

    /// Adjust the signal by `delta` at time `now`.
    pub fn add(&mut self, now: f64, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Current value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Maximum value seen.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-average over `[t0, now]` (flushes the running segment).
    pub fn average(&self, now: f64, t0: f64) -> f64 {
        let total = self.weighted_sum + self.value * (now - self.last_t);
        let span = now - t0;
        if span <= 0.0 {
            self.value
        } else {
            total / span
        }
    }
}

/// Fixed-width histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Histogram with `bins` equal-width buckets over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram domain");
        Self {
            lo,
            width: (hi - lo) / bins as f64,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Total observations (including out-of-range).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bucket counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below the domain.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the domain end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// `(bucket_midpoint, fraction)` pairs, for report rendering.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let total = self.count.max(1) as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * self.width, c as f64 / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut all = Welford::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn ratio_ci() {
        let mut r = Ratio::new();
        for i in 0..1000 {
            r.push(i % 4 == 0);
        }
        assert!((r.value() - 0.25).abs() < 1e-12);
        let hw = r.ci_half_width(1.96);
        assert!(hw > 0.02 && hw < 0.035, "half width {hw}");
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(10.0, 5.0); // 0 for 10 min
        tw.set(20.0, 1.0); // 5 for 10 min
                           // 1 for 10 more min
        let avg = tw.average(30.0, 0.0);
        assert!((avg - (0.0 * 10.0 + 5.0 * 10.0 + 1.0 * 10.0) / 30.0).abs() < 1e-12);
        assert_eq!(tw.peak(), 5.0);
        assert_eq!(tw.current(), 1.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new(0.0, 2.0);
        tw.add(5.0, 3.0);
        assert_eq!(tw.current(), 5.0);
        tw.add(10.0, -4.0);
        assert_eq!(tw.current(), 1.0);
        assert!((tw.average(10.0, 0.0) - (2.0 * 5.0 + 5.0 * 5.0) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9, -1.0, 10.0, 25.0] {
            h.push(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[1], 2);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        let norm = h.normalized();
        assert!((norm[1].0 - 1.5).abs() < 1e-12);
        assert!((norm[1].1 - 2.0 / 7.0).abs() < 1e-12);
    }
}
