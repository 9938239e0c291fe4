//! The samplers against their laws: for each, 2·10⁵ draws on a fixed seed
//! and the Kolmogorov–Smirnov distance `D = sup |F_n(x) − F(x)|` of their
//! empirical cdf from the law's, which must stay under the 1 % critical
//! value `1.6276/√n` (the asymptotic Kolmogorov quantile; at this `n` the
//! finite-sample correction is below 10⁻⁵ of it). The integer shapes up to
//! 8 are drawn as sums of exponentials, the others by Marsaglia–Tsang, so
//! both paths are here.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use vod_dist::kinds::{Exponential, Gamma};
use vod_dist::rng::{exponential, seeded};
use vod_dist::DurationDist;

const N: usize = 200_000;

/// `D` of `draws` from the law whose cdf is `cdf`.
fn ks_distance(mut draws: Vec<f64>, cdf: impl Fn(f64) -> f64) -> f64 {
    draws.sort_by(f64::total_cmp);
    let n = draws.len() as f64;
    draws
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = cdf(x);
            (f - i as f64 / n).max((i + 1) as f64 / n - f)
        })
        .fold(0.0, f64::max)
}

fn critical() -> f64 {
    1.6276 / (N as f64).sqrt()
}

fn assert_fits(what: &str, draws: Vec<f64>, cdf: impl Fn(f64) -> f64) {
    let d = ks_distance(draws, cdf);
    assert!(
        d < critical(),
        "{what}: D = {d:.5} ≥ {:.5}, the 1 % critical value",
        critical()
    );
}

/// `Gamma::sample` at shape `k`, scale 4.
fn gamma_fits(k: f64, seed: u64) {
    let law = Gamma::new(k, 4.0).unwrap();
    let mut rng = seeded(seed);
    let draws = (0..N).map(|_| law.sample(&mut rng)).collect();
    assert_fits(&format!("Gamma({k}, 4)"), draws, |x| law.cdf(x));
}

#[test]
fn the_erlang_path_draws_its_law() {
    for (k, seed) in [(1.0, 11), (2.0, 12), (3.0, 13)] {
        gamma_fits(k, seed);
    }
}

#[test]
fn marsaglia_tsang_draws_its_law() {
    for (k, seed) in [(0.5, 21), (2.5, 22)] {
        gamma_fits(k, seed);
    }
}

#[test]
fn the_exponential_draws_its_law() {
    let mut rng = seeded(31);
    let draws = (0..N).map(|_| exponential(&mut rng, 1.0)).collect();
    assert_fits("exponential", draws, |x| 1.0 - (-x).exp());
    // `Exponential::sample` goes through the same function.
    let law = Exponential::with_mean(5.0).unwrap();
    let mut rng = seeded(32);
    let draws = (0..N).map(|_| law.sample(&mut rng)).collect();
    assert_fits("Exponential(mean 5)", draws, |x| law.cdf(x));
}
