//! Randomness helpers.
//!
//! Every sampler in the workspace draws on the one generator, [`SeededRng`],
//! and takes it as `&mut SeededRng`: each `next_u64` is then a direct call
//! the compiler can inline, not a virtual one. [`crate::DurationDist`] stays
//! object-safe — its `sample` names the concrete generator, not a type
//! parameter. These helpers derive uniform, normal and exponential variates
//! from the raw 64-bit stream.

use rand::RngCore;
use rand::SeedableRng;

/// Deterministic RNG used across the workspace for reproducible
/// experiments. A thin re-export keeps callers independent of the exact
/// generator choice.
pub type SeededRng = rand::rngs::StdRng;

/// Construct the workspace's deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> SeededRng {
    SeededRng::seed_from_u64(seed)
}

/// Uniform variate on `[0, 1)` with 53 bits of precision.
#[inline]
pub fn u01(rng: &mut SeededRng) -> f64 {
    // Take the top 53 bits; this yields every representable multiple of
    // 2^-53 in [0, 1) with equal probability.
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform variate on the *open* interval `(0, 1)`; safe to pass to `ln`.
#[inline]
pub fn u01_open(rng: &mut SeededRng) -> f64 {
    loop {
        let u = u01(rng);
        if u > 0.0 {
            return u;
        }
    }
}

/// Standard normal variate via the Marsaglia polar method.
pub fn std_normal(rng: &mut SeededRng) -> f64 {
    loop {
        let u = 2.0 * u01(rng) - 1.0;
        let v = 2.0 * u01(rng) - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Exponential variate with the given mean, by inversion.
#[inline]
pub fn exponential(rng: &mut SeededRng, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    -mean * u01_open(rng).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u01_in_range_and_varied() {
        let mut rng = seeded(7);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..10_000 {
            let u = u01(&mut rng);
            assert!((0.0..1.0).contains(&u));
            min = min.min(u);
            max = max.max(u);
        }
        assert!(min < 0.01 && max > 0.99, "poor spread: [{min}, {max}]");
    }

    #[test]
    fn std_normal_moments() {
        let mut rng = seeded(42);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let z = std_normal(&mut rng);
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = seeded(1);
        let n = 200_000;
        let mean_target = 8.0;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, mean_target)).sum();
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn seeded_is_reproducible() {
        let mut a = seeded(123);
        let mut b = seeded(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
