//! Order statistics, the tail-percentile rule, and the output digest.

/// Five-number summary of a sample, with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (the run-to-run
    /// spread the acceptance rule compares against a metric's bound).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile of an ascending sample by the exclusive method — position
/// `q·(n+1)`, clamped to the ends — which is what Python's
/// `statistics.quantiles` (the acceptance rule's yardstick) computes.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let n = v.len();
    let pos = (q * (n as f64 + 1.0) - 1.0).clamp(0.0, (n - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Summarise a non-empty sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of an empty sample");
    let v = sorted(samples);
    Summary {
        n: v.len(),
        min: v[0],
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        max: v[v.len() - 1],
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Samples that must lie beyond a reported tail percentile.
const BEYOND: usize = 10;

/// The tail of a timing sample: the highest percentile that still has
/// ten samples beyond it. Here that is p99 from 1 000 samples up; below
/// that nothing past the median is resolved and the maximum is reported
/// instead. Returns `(percentile, value)`, with percentile 100 for "max".
pub fn tail(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail of an empty sample");
    let v = sorted(samples);
    let n = v.len();
    if n >= 100 * BEYOND {
        // Exactly ⌊n/100⌋ ≥ 10 samples lie strictly beyond this one.
        (99.0, v[n - n / 100 - 1])
    } else {
        (100.0, v[n - 1])
    }
}

/// FNV-1a, 64 bit: the digest that lets two commits' outputs be compared
/// exactly. Deliberately not `vod_server::checksum` (the same function
/// today): the yardstick must not change when the program under test does.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // Small samples clamp to the ends instead of extrapolating.
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(p, 99.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        // One sample short: nothing past the median is resolved.
        let (p, x) = tail(&v[..999]);
        assert_eq!((p, x), (100.0, 998.0));
        let v: Vec<f64> = (0..3600).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(p, 99.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 36);
    }

    #[test]
    fn digest_is_stable() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a64(b"{\"hits\":1}"), fnv1a64(b"{\"hits\":2}"));
    }
}
