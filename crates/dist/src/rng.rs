//! Randomness helpers.
//!
//! Every sampler in the workspace draws on the one generator, [`SeededRng`],
//! and takes it as `&mut SeededRng`: each `next_u64` is then a direct call
//! the compiler can inline, not a virtual one. [`crate::DurationDist`] stays
//! object-safe — its `sample` names the concrete generator, not a type
//! parameter. These helpers derive uniform, normal and exponential variates
//! from the raw 64-bit stream; [`exponential`] is the one exponential
//! sampler every caller, `Exponential` and the Erlang path of `Gamma`
//! included, goes through.

use std::sync::OnceLock;

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
    top53(rng.next_u64())
}

/// The top 53 bits of `bits` as a uniform variate on `[0, 1)`: every
/// representable multiple of 2⁻⁵³ there, with equal probability.
#[inline]
fn top53(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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

/// Layers of the exponential ziggurat.
const LAYERS: usize = 256;

/// Right edge of the ziggurat's first layer for `e^{−x}` in 256 layers
/// (Marsaglia & Tsang, "The Ziggurat Method for Generating Random
/// Variables", 2000): every layer, the base with its tail included,
/// has area `(r + 1)·e^{−r}`.
const ZIGGURAT_R: f64 = 7.697_117_470_131_487;

/// The layers of `e^{−x}`: layer `i` is the box `[0, x[i]] × [f[i],
/// f[i + 1]]`, with `f = e^{−x}`. `x[0] = r + 1` stands for the base
/// layer (the box below `f(r)` plus the tail past `r`) as one box of the
/// common area; `x[1] = r`, and `x` falls to `x[256] = 0`.
struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

impl Ziggurat {
    /// The layer edges, each the one above the last at the common area.
    fn build() -> Self {
        let r = ZIGGURAT_R;
        let area = (r + 1.0) * (-r).exp();
        let mut x = [0.0; LAYERS + 1];
        x[0] = r + 1.0;
        x[1] = r;
        for i in 2..LAYERS {
            x[i] = -((-x[i - 1]).exp() + area / x[i - 1]).ln();
        }
        Self {
            x,
            f: x.map(|x| (-x).exp()),
        }
    }

    /// The tables, built on first use and shared from then on.
    fn get() -> &'static Self {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(Self::build)
    }
}

/// Exponential variate with the given mean, from the 256-layer ziggurat.
///
/// One 64-bit draw picks a layer (its low 8 bits) and a point across it
/// (its top 53): inside the next layer's width — ≈ 99 % of draws — the
/// point is the variate. Otherwise it is the base layer's tail, `r`
/// plus a fresh exponential (memorylessness), or a point in a layer's
/// wedge, kept if a uniform height falls under `e^{−x}`.
#[inline]
pub fn exponential(rng: &mut SeededRng, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    let z = Ziggurat::get();
    loop {
        let bits = rng.next_u64();
        let layer = (bits & 0xff) as usize;
        let x = top53(bits) * z.x[layer];
        if x < z.x[layer + 1] {
            return mean * x;
        }
        if layer == 0 {
            return mean * (ZIGGURAT_R - u01_open(rng).ln());
        }
        let height = z.f[layer] + (z.f[layer + 1] - z.f[layer]) * u01(rng);
        if height < (-x).exp() {
            return mean * x;
        }
    }
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

    /// Every draw past `r` comes from the base layer's tail, which must
    /// be hit as often as `e^{−x}` puts mass there: `e^{−r}` ≈ 4.5·10⁻⁴,
    /// 454 of 10⁶ draws, inside the 99 % binomial interval `np ± 2.576σ`
    /// with `σ = √(np(1 − p))` ≈ 21.3. Past `r + 3` the tail must still
    /// follow `e^{−x}`: 23 ± 12 draws, where a tail twice as steep
    /// leaves one.
    #[test]
    fn the_base_strip_is_hit_at_its_mass() {
        let mut rng = seeded(41);
        let n = 1_000_000;
        let draws: Vec<f64> = (0..n).map(|_| exponential(&mut rng, 1.0)).collect();
        for edge in [ZIGGURAT_R, ZIGGURAT_R + 3.0] {
            let past = draws.iter().filter(|&&x| x > edge).count() as f64;
            let p = (-edge).exp();
            let (mean, sigma) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
            assert!(
                (past - mean).abs() <= 2.576 * sigma,
                "{past} draws past {edge}, {mean:.1} ± {:.1} expected",
                2.576 * sigma
            );
        }
    }

    /// The layers stack to the top: the last box's upper edge, had the
    /// recurrence gone one step further, is `f = 1` at `x = 0`.
    #[test]
    fn the_layers_close_at_the_top() {
        let z = Ziggurat::build();
        let area = (ZIGGURAT_R + 1.0) * (-ZIGGURAT_R).exp();
        let top = z.x[LAYERS - 1];
        assert!(top > 0.0 && top < z.x[LAYERS - 2]);
        assert!(((-top).exp() + area / top - 1.0).abs() < 1e-9);
        assert_eq!((z.x[LAYERS], z.f[LAYERS]), (0.0, 1.0));
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
