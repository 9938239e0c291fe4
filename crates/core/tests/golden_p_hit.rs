//! Pins the numbers of the closed-form model, not just their shape.
//!
//! `golden_p_hit.txt` holds `P(hit|FF)` (both boundary modes), `P(hit|RW)`
//! and `P(hit|PAU)` as computed by the adaptive-quadrature implementation
//! this model replaced (commit 9157071, quadrature tolerance 1e-9), over
//! every distribution kind × six `(l, n)` geometries × eight buffers × two
//! rate sets. Rows are in the order of the loops below.

#![allow(clippy::unwrap_used)]
use vod_dist::kinds::{
    Deterministic, Empirical, Exponential, Gamma, LogNormal, Mixture, Pareto, Truncated, Uniform,
    Weibull,
};
use vod_dist::DurationDist;
use vod_model::{p_hit_ff, p_hit_pause, p_hit_rw, ModelOptions, Rates, SystemParams};

const TABLE: &str = include_str!("golden_p_hit.txt");

fn kinds() -> Vec<(&'static str, Box<dyn DurationDist>)> {
    let g = Gamma::paper_fig7();
    let samples: Vec<f64> = (0..64)
        .map(|i| g.quantile((i as f64 + 0.5) / 64.0))
        .collect();
    vec![
        ("exp", Box::new(Exponential::with_mean(5.0).unwrap())),
        ("gamma", Box::new(Gamma::paper_fig7())),
        ("weibull", Box::new(Weibull::new(1.5, 6.0).unwrap())),
        (
            "lognormal",
            Box::new(LogNormal::with_mean_cv(4.0, 0.7).unwrap()),
        ),
        ("uniform", Box::new(Uniform::new(0.0, 16.0).unwrap())),
        ("deterministic", Box::new(Deterministic::new(7.0).unwrap())),
        ("pareto", Box::new(Pareto::new(3.0, 10.0).unwrap())),
        (
            "mixture",
            Box::new(
                Mixture::new(vec![
                    (
                        0.7,
                        Box::new(Exponential::with_mean(2.0).unwrap()) as Box<dyn DurationDist>,
                    ),
                    (0.3, Box::new(Gamma::new(9.0, 4.0).unwrap())),
                ])
                .unwrap(),
            ),
        ),
        (
            "truncated",
            Box::new(Truncated::new(Exponential::with_mean(6.0).unwrap(), 1.0, 25.0).unwrap()),
        ),
        (
            "empirical",
            Box::new(Empirical::from_samples(&samples).unwrap()),
        ),
    ]
}

const GEOMETRIES: [(f64, u32); 6] = [
    (60.0, 1),
    (60.0, 7),
    (60.0, 20),
    (60.0, 120),
    (120.0, 240),
    (97.3, 53),
];

fn buffers(l: f64) -> [f64; 8] {
    [1e-3, 1e-2, 0.2, 1.0, l / 4.0, l / 2.0, 0.9 * l, l]
}

fn rate_sets() -> [(&'static str, Rates); 2] {
    [
        ("paper", Rates::paper()),
        // γ = 0.2: the slow-rewind regime where the RW sum runs to 5n terms.
        ("slow-rw", Rates::new(1.0, 8.0, 0.25).unwrap()),
    ]
}

#[test]
fn closed_form_reproduces_the_quadrature_table() {
    let mut rows = TABLE.lines().filter(|r| !r.starts_with('#'));
    let mut worst = [0.0f64; 8]; // per buffer column
    let mut checked = 0usize;
    for (name, d) in kinds() {
        for (l, n) in GEOMETRIES {
            for (column, b) in buffers(l).into_iter().enumerate() {
                for (rname, rates) in rate_sets() {
                    let row = rows.next().expect("table shorter than the grid");
                    let key = format!("{name} {l:?} {n} {b:?} {rname} ");
                    let values: Vec<f64> = row
                        .strip_prefix(&key)
                        .unwrap_or_else(|| panic!("row {row:?} is not the {key:?} cell"))
                        .split(' ')
                        .map(|v| v.parse().unwrap())
                        .collect();
                    let p = SystemParams::new(l, b, n, rates).unwrap();
                    let got = [
                        p_hit_ff(&p, d.as_ref(), &ModelOptions::paper()).total(),
                        p_hit_ff(&p, d.as_ref(), &ModelOptions::default()).total(),
                        p_hit_rw(&p, d.as_ref(), &ModelOptions::default()).total(),
                        p_hit_pause(&p, d.as_ref(), &ModelOptions::default()),
                    ];
                    for (component, (g, want)) in ["ff_paper", "ff_extended", "rw", "pause"]
                        .iter()
                        .zip(got.iter().zip(&values))
                    {
                        let diff = (g - want).abs();
                        let tol = tolerance(name, component, b);
                        assert!(
                            diff <= tol,
                            "{key}{component}: closed form {g} vs table {want} (|Δ| = {diff:.2e} > {tol:.0e})"
                        );
                        if (name, *component) != ("pareto", "pause") {
                            worst[column] = worst[column].max(diff);
                        }
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(rows.next().is_none(), "table longer than the grid");
    assert_eq!(checked, 10 * 6 * 8 * 2 * 4);
    // `--nocapture` shows the conditioning profile DESIGN.md §3 quotes.
    let profile: Vec<String> = worst.iter().map(|w| format!("{w:.1e}")).collect();
    println!("worst |Δ| per buffer column (Pareto pause aside): {profile:?}");
}

/// `1e-8` for `B ≥ 0.1`, `1e-5` below (where both sides divide rounding
/// error by `b·l`). One exception: Pareto(3, 10) never meets the pause fold
/// loop's `1e-14` tail cut-off, so its sum runs all 64 folds, and the old
/// implementation differenced `H` values of order `64·l` there — the table
/// itself is off by `7e-8` at `(l, n, B) = (120, 240, 0.2)`, where the
/// closed form agrees with the 2-D oracle at `tol = 1e-12` to `1.5e-10`.
fn tolerance(kind: &str, component: &str, b: f64) -> f64 {
    match (kind, component) {
        ("pareto", "pause") if b >= 0.1 => 1e-7,
        _ if b >= 0.1 => 1e-8,
        _ => 1e-5,
    }
}
