//! `(F, A, AA)` at one point, pinned to the bit.
//!
//! [`DurationDist::cdf_and_survival_integrals`] is what the model asks at
//! every point, and the one way a kind supplies `A` and `AA`
//! (`survival_integral{,2}` are its projections); its `F` is bitwise the
//! separate `cdf`. [`PINNED`] holds the three as they were before any kind
//! shared work between them, for the kinds that share special functions
//! or a segment search in the triple (and the mixture that folds it) at
//! points on both sides of every branch: below and at 0, a
//! subnormal-scale point, both sides of the incomplete gamma's `x < a + 1`
//! switch, far out, and `+∞` (there the triple is `(1, mean, +∞)`, the
//! one row that is not the separate calls' old value where they gave
//! NaN). [`CLOSED_FORMS`] does the same for the kinds that write their
//! closed forms out. A NaN pin matches any NaN (its payload is the platform's,
//! not the formula's).
//!
//! Gamma(k, 4) at `y` evaluates `P(a, y/4)` for `a = k, k + 1, k + 2`:
//! Gamma(2, 4) takes the series at `y = 0.3, 3, 8` and the continued
//! fraction at `y = 40, 10⁶`; Gamma(9, 4) at `y = 40` (`x = 10`) takes the
//! continued fraction for `a = 9` and the series for `a = 10, 11`. The
//! empirical law (64 Gamma(2, 4) quantiles, support ≈ [0.52, 27.7]) has
//! `y = 0.3` below its first breakpoint, `3` and `8` inside a segment and
//! `40` beyond its last.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use vod_dist::kinds::{
    Deterministic, Empirical, Exponential, Gamma, LogNormal, Mixture, Pareto, Truncated, Uniform,
    Weibull,
};
use vod_dist::special::{gamma_p, gamma_pq, gamma_q, ln_gamma};
use vod_dist::DurationDist;

const POINTS: [f64; 9] = [-1.0, 0.0, 1e-300, 0.3, 3.0, 8.0, 40.0, 1e6, f64::INFINITY];

/// `[F, A, AA]` bits per kind, one row per point of [`POINTS`].
#[rustfmt::skip]
const PINNED: [(&str, [[u64; 3]; 9]); 7] = [
    ("exp", [
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // -1e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // 0e0: 0e0 0e0 0e0
        [0x018124e63593f5e1, 0x01a56e1fc2f8f359, 0x0000000000000000], // 1e-300: 2e-301 1e-300 0e0
        [0x3fadd109ff722791, 0x3fd2a2a63fa758ba, 0x3fa696060dda22e8], // 3e-1: 5.823546641575129e-2 2.911773320787564e-1 4.411333960621794e-2
        [0x3fdce04528d3f63a, 0x40020c2b398479e4, 0x400dc327e0699e8c], // 3e0: 4.511883639059736e-1 2.255941819529868e0 3.7202909023506603e0
        [0x3fe98a1050412c7b, 0x400fec9464517799, 0x40340c23414d1541], // 8e0: 7.981034820053446e-1 3.990517410026723e0 2.0047412949866388e1
        [0x3feffd407bdf7dfb, 0x4013fe484d6baebd, 0x4065e044b3e72cb2], // 4e1: 9.996645373720975e-1 4.9983226868604875e0 1.7500838656569755e2
        [0x3ff0000000000000, 0x4014000000000000, 0x415312c9c0000000], // 1e6: 1e0 5e0 4.999975e6
        [0x3ff0000000000000, 0x4014000000000000, 0x7ff0000000000000], // inf: 1e0 5e0 inf
    ]),
    ("gamma(2, 4)", [
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // -1e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // 0e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x01a56e1fc2f8f359, 0x0000000000000000], // 1e-300: 0e0 1e-300 0e0
        [0x3f65eb7585adeb53, 0x3fd32ec2cf51bf21, 0x3fa7078e7e0af015], // 3e-1: 2.675752196805639e-3 2.9972906347301104e-1 4.49795273648023e-2
        [0x3fc6309cc638b0c6, 0x40066e86bb964571, 0x40115e3374c34298], // 3e0: 1.7335853270322427e-1 2.8039679198488376e0 4.341993164460881e0
        [0x3fe3020005305ea5, 0x401756aaae203f1a, 0x403ad3aaa657b11c], // 8e0: 5.939941502901617e-1 5.834635468214197e0 2.6826822658929004e1
        [0x3feffbe8af14d2bb, 0x401ffdc4bc96fe94, 0x40710026ade5c6c3], // 4e1: 9.995006007726127e-1 7.9978208033714004e0 2.720094431853906e2
        [0x3ff0000000000000, 0x4020000000000000, 0x415e847400000000], // 1e6: 1e0 8e0 7.999952e6
        [0x3ff0000000000000, 0x4020000000000000, 0x7ff0000000000000], // inf: 1e0 8e0 inf
    ]),
    ("gamma(9, 4)", [
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // -1e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // 0e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x01a56e1fc2f8f359, 0x0000000000000000], // 1e-300: 0e0 1e-300 0e0
        [0x3cabdfa4fe23dc00, 0x3fd3333333333333, 0x3fa70a3d70a3d70a], // 3e-1: 1.934120318023923e-16 3e-1 4.5e-2
        [0x3e7c58eebb062c9e, 0x4007fffffb79308c, 0x4011ffffff5998e2], // 3e0: 1.0560226715841521e-7 2.9999999662741796e0 4.499999990314082e0
        [0x3f2f1f6904d0a2bd, 0x401fffc4d90628a9, 0x403ffff3a09f36d9], // 8e0: 2.3744732826116123e-4 7.999774352074533e0 3.1999811209555308e1
        [0x3fe5598a8b899d2a, 0x404069e5899a92c0, 0x408755012d193fb5], // 4e1: 6.671803212492808e-1 3.282731742904207e1 7.466255743000571e2
        [0x3ff0000000000000, 0x4042000000000000, 0x41812a7180000000], // 1e6: 1e0 3.6e1 3.599928e7
        [0x3ff0000000000000, 0x4042000000000000, 0x7ff0000000000000], // inf: 1e0 3.6e1 inf
    ]),
    ("weibull(1.5, 6)", [
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // -1e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // 0e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // 1e-300: 0e0 0e0 0e0
        [0x3f86c51262a190a1, 0x3fd31d4b8eed79b8, 0x3fa6fb342c1baa92], // 3e-1: 1.1118072161658001e-2 2.986630340364189e-1 4.488528288296324e-2
        [0x3fd30f57f5cb360d, 0x4004f36b357b94b8, 0x4010a69ee42fc683], // 3e0: 2.978114986734404e-1 2.618856828531161e0 4.162715497413617e0
        [0x3fe92316b203a3fc, 0x401315897c9b117e, 0x4037a98978106546], // 8e0: 7.855332829323056e-1 4.771032282795543e0 2.3662253860476334e1
        [0x3fefffffee0ae007, 0x4015aa778f220a3a, 0x406867468ce58ecc], // 4e1: 9.999999665515141e-1 5.416471706822046e0 1.9522736210666187e2
        [0x3ff0000000000000, 0x4015aa77928c3675, 0x4154a98094e06ac4], // 1e6: 1e0 5.416471757705598e0 5.41645032619733e6
        [0x3ff0000000000000, 0x4015aa77928c3675, 0x7ff0000000000000], // inf: 1e0 5.416471757705598e0 inf
    ]),
    ("lognormal(4, 0.7)", [
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // -1e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // 0e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x01a56e1fc2f8f359, 0x0000000000000000], // 1e-300: 0e0 1e-300 0e0
        [0x3f140eaa332efb24, 0x3fd33326a5c03c6e, 0x3fa70a3a10458f48], // 3e-1: 7.651246850935413e-5 2.9999700724233136e-1 4.499989937428822e-2
        [0x3fdc7112bac24d55, 0x400461fd4894576e, 0x4010be28c538d48f], // 3e0: 4.4440143812353955e-1 2.547846381213211e0 4.185702401727339e0
        [0x3fed7ab4fbb64a03, 0x400e17ccb36b50e2, 0x4034e65398ed8a9d], // 8e0: 9.212288776637368e-1 3.7616209046483258e0 2.0899713094705124e1
        [0x3fefffb21367a169, 0x400fff7e60f51ff0, 0x4062829e5696e0d8], // 4e1: 9.999628428459292e-1 3.999752767067541e0 1.4808182839840333e2
        [0x3ff0000000000000, 0x4010000000000000, 0x414e847a0a3d70a4], // 1e6: 1e0 4e0 3.99998808e6
        [0x3ff0000000000000, 0x4010000000000000, 0x7ff0000000000000], // inf: 1e0 4e0 inf
    ]),
    ("mixture", [
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // -1e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // 0e0: 0e0 0e0 0e0
        [0x018e0092ddc2ee49, 0x01a56e1fc2f8f359, 0x0000000000000000], // 1e-300: 3.5e-301 1e-300 0e0
        [0x3fb8f60ca817f7ea, 0x3fd23d95b034f1b6, 0x3fa6435104e20b8b], // 3e-1: 9.750441650245958e-2 2.850088330049191e-1 4.3482333990161846e-2
        [0x3fe166e1f69b5f1f, 0x3fffcd4849485368, 0x400aff84806958a6], // 3e0: 5.438089195767793e-1 1.987617765674452e0 3.374764445509828e0
        [0x3fe5fdf450575cfa, 0x400e31bf2bccee87, 0x40320d1d38fd7485], // 8e0: 6.872502869763644e-1 3.7742904111781317e0 1.8051227151755047e1
        [0x3fecce0ff5e2fc78, 0x40267f1371d3e691, 0x40715300b4aa4c6b], // 4e1: 9.001540949319766e-1 1.1248195225827006e1 2.7718767229578833e2
        [0x3ff0000000000000, 0x4028666666666666, 0x416744eca6666666], // 1e6: 1e0 1.22e1 1.21997812e7
        [0x3ff0000000000000, 0x4028666666666666, 0x7ff0000000000000], // inf: 1e0 1.22e1 inf
    ]),
    ("empirical", [
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // -1e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x0000000000000000, 0x0000000000000000], // 0e0: 0e0 0e0 0e0
        [0x0000000000000000, 0x01a56e1fc2f8f359, 0x0000000000000000], // 1e-300: 0e0 1e-300 0e0
        [0x0000000000000000, 0x3fd3333333333333, 0x3fa70a3d70a3d70a], // 3e-1: 0e0 3e-1 4.5e-2
        [0x3fc587a76157c163, 0x4006925d63fe8e62, 0x40117771b18002d2], // 3e0: 1.6820232632700102e-1 2.8214671909388906e0 4.366644643247769e0
        [0x3fe30dc0f81073a0, 0x40177149129bf1a8, 0x403af9654ad13942], // 8e0: 5.954289288525736e-1 5.860630312698426e0 2.6974201847152706e1
        [0x3ff0000000000000, 0x401f8456c0dc2643, 0x4070e5a085212535], // 4e1: 1e0 7.879237187802178e0 2.703516894621601e2
        [0x3ff0000000000000, 0x401f8456c0dc2643, 0x415e0e8617ae25cb], // 1e6: 1e0 7.879237187802178e0 7.879192370004128e6
        [0x3ff0000000000000, 0x401f8456c0dc2643, 0x7ff0000000000000], // inf: 1e0 7.879237187802178e0 inf
    ]),
];

fn mixture() -> Mixture {
    Mixture::new(vec![
        (
            0.7,
            Box::new(Exponential::with_mean(2.0).unwrap()) as Box<dyn DurationDist>,
        ),
        (0.3, Box::new(Gamma::new(9.0, 4.0).unwrap())),
    ])
    .unwrap()
}

/// An empirical law fitted to 64 quantiles of Gamma(2, 4).
fn empirical() -> Empirical {
    let g = Gamma::new(2.0, 4.0).unwrap();
    let samples: Vec<f64> = (0..64)
        .map(|i| g.quantile((i as f64 + 0.5) / 64.0))
        .collect();
    Empirical::from_samples(&samples).unwrap()
}

/// The kinds of [`PINNED`], in its order.
fn pinned_kinds() -> Vec<Box<dyn DurationDist>> {
    vec![
        Box::new(Exponential::with_mean(5.0).unwrap()),
        Box::new(Gamma::new(2.0, 4.0).unwrap()),
        Box::new(Gamma::new(9.0, 4.0).unwrap()),
        Box::new(Weibull::new(1.5, 6.0).unwrap()),
        Box::new(LogNormal::with_mean_cv(4.0, 0.7).unwrap()),
        Box::new(mixture()),
        Box::new(empirical()),
    ]
}

/// `v` is the pinned value: the same bits, or both NaN.
fn is_pinned(v: f64, bits: u64) -> bool {
    v.to_bits() == bits || (v.is_nan() && f64::from_bits(bits).is_nan())
}

#[test]
fn the_triple_and_the_three_calls_are_the_pinned_bits() {
    for ((name, rows), d) in PINNED.iter().zip(pinned_kinds()) {
        for (&y, pins) in POINTS.iter().zip(rows) {
            let (f, a, aa) = d.cdf_and_survival_integrals(y);
            let separate = [d.cdf(y), d.survival_integral(y), d.survival_integral2(y)];
            for (i, what) in ["F", "A", "AA"].iter().enumerate() {
                let pin = f64::from_bits(pins[i]);
                assert!(
                    is_pinned([f, a, aa][i], pins[i]),
                    "{name} at {y:e}: triple {what} = {:e}, pinned {pin:e}",
                    [f, a, aa][i]
                );
                assert!(
                    is_pinned(separate[i], pins[i]),
                    "{name} at {y:e}: {what} alone = {:e}, pinned {pin:e}",
                    separate[i]
                );
            }
        }
    }
}

/// `[F, A, AA]` bits of [`empirical`] at `y = 0.6 + 1.7·k`, `k = 0 … 15`:
/// every point inside a segment, where the triple shares one segment
/// search and one interpolated `F` between all three.
#[rustfmt::skip]
const EMPIRICAL_INTERIOR: [[u64; 3]; 16] = [
    [0x3f687fab6f757963, 0x3fe3323ef39581b1, 0x3fc70a2412fbb2a2], // 6e-1: 2.990565142382427e-3 5.998835332393836e-1 1.799969761554126e-1
    [0x3fbb8f92f3badba7, 0x4001bdd6e487354e, 0x4004cdbf8b24751f], // 2.3e0: 1.0765951586186749e-1 2.217695031524875e0 2.600462996530623e0
    [0x3fd0ac02cd794ba1, 0x400cdbf75b7128de, 0x401e5aea10ce1ee1], // 4e0: 2.604987150745562e-1 3.607405390158518e0 7.5887835145765346e0
    [0x3fda96681d91beba, 0x4012ecd6c740c0f0, 0x402d6d99345149e7], // 5.699999999999999e0: 4.1543009650829854e-1 4.7312880643150805e0 1.4714059481547293e1
    [0x3fe1af76907d633e, 0x40166bbe7c80c7e0, 0x4037887d6d21792e], // 7.3999999999999995e0: 5.526688406053848e-1 5.605218835220484e0 2.3533163853332717e1
    [0x3fe54f37379774ff, 0x4019105679b9fce0, 0x4040d35183c9e264], // 9.1e0: 6.659198842786792e-1 6.265954877831263e0 3.365092513425478e1
    [0x3fe82acd89ec84d4, 0x401b04e404c5fd03, 0x40465eba2d22439f], // 1.0799999999999999e1: 7.552249616457183e-1 6.754776072105645e0 4.4740056649904766e1
    [0x3fea5c49d115ee56, 0x401c7095fe4a8d0e, 0x404c45513061b426], // 1.25e1: 8.23765667314954e-1 7.10994717912696e0 5.6541540191370856e1
    [0x3fec007f44fa0055, 0x401d749485b9bc7e, 0x405136d2b4cfa0c8], // 1.42e1: 8.750606867979608e-1 7.363847817861027e0 6.885661049152543e1
    [0x3fed34f8abee8297, 0x401e2b8b3fc4ad3e, 0x4054624fc35760c7], // 1.5899999999999999e1: 9.127162321129444e-1 7.542523380641169e0 8.153611835034381e1
    [0x3fee167124983dae, 0x401eaa11591199f4, 0x40579e157f9d6575], // 1.76e1: 9.402394976368009e-1 7.666081802081397e0 9.447006216402754e1
    [0x3feeb6b4250c963d, 0x401effec98ba62ce, 0x405ae504bc6a5393], // 1.93e1: 9.598026965729286e-1 7.7499259818802795e0 1.075784140623421e2
    [0x3fef28b45314cc79, 0x401f3897b9b8281d, 0x405e336f91f0469d], // 2.1e1: 9.737187979393546e-1 7.8052662867212605e0 1.2080368469681203e2
    [0x3fef80c1909d0c20, 0x401f5caeb640586b, 0x4060c35e43acad80], // 2.27e1: 9.844672989351047e-1 7.84051022308095e0 1.3410525687910194e2
    [0x3fefac22d72e2f60, 0x401f731cd805f3b3, 0x40626e87519301ae], // 2.4400000000000002e1: 9.897627070181265e-1 7.8624147180207045e0 1.4745401838981837e2
    [0x3fefd7841dbf529f, 0x401f80531accb77c, 0x40641aa2bd584394], // 2.61e1: 9.950581151011483e-1 7.87531701921932e0 1.6083236567725237e2
];

#[test]
fn the_empirical_triple_is_the_pinned_bits_inside_its_segments() {
    let d = empirical();
    for (k, pins) in EMPIRICAL_INTERIOR.iter().enumerate() {
        let y = 0.6 + 1.7 * k as f64;
        let (f, a, aa) = d.cdf_and_survival_integrals(y);
        for (i, v) in [f, a, aa].into_iter().enumerate() {
            assert_eq!(v.to_bits(), pins[i], "at {y:e}: component {i} {v:e}");
        }
        assert_eq!(d.cdf(y).to_bits(), pins[0], "cdf at {y:e}");
    }
}

#[test]
fn gamma_pq_is_gamma_p_and_gamma_q_bit_for_bit() {
    for a in [
        0.05, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 9.0, 10.0, 11.0, 40.0, 200.0,
    ] {
        for i in 0..=400 {
            // 0, then 1e-12 … ~3e5 geometrically: both sides of x = a + 1.
            let x = if i == 0 { 0.0 } else { 1e-12 * 1.1f64.powi(i) };
            let (p, q) = gamma_pq(a, x, x.ln(), ln_gamma(a));
            assert_eq!(p.to_bits(), gamma_p(a, x).to_bits(), "P({a}, {x:e})");
            assert_eq!(q.to_bits(), gamma_q(a, x).to_bits(), "Q({a}, {x:e})");
        }
        let (p, q) = gamma_pq(a, f64::INFINITY, f64::INFINITY, ln_gamma(a));
        assert_eq!(
            (p, q),
            (gamma_p(a, f64::INFINITY), gamma_q(a, f64::INFINITY))
        );
    }
}

/// `(y, [F, A, AA] bits)` rows of one kind.
type Rows = &'static [(f64, [u64; 3])];

/// The [`Rows`] of the kinds that write their closed forms out
/// in the triple, as their separate `cdf`, `survival_integral` and
/// `survival_integral2` gave them (`AA(+∞)` of Pareto at α = 1 and 2
/// aside, as above): [`POINTS`], then the points beside their own
/// branches. Deterministic(7) below, at and above 7; Pareto at
/// α = 1 and 2 (their own forms) and 3; Uniform(2, 16) below `lo`
/// (`0.3`), at `lo` and `hi`, inside and above; the truncated gamma below
/// `lo = 0.1` (`1e-300`, `0.05`), at `lo` and `hi`, inside and beyond.
/// Its `0.407` and `0.41` are points where `lo + (y − lo) ≠ y`, and the
/// base's `A` there differs in the last bit from its `A` at `y`.
#[rustfmt::skip]
const CLOSED_FORMS: [(&str, Rows); 6] = [
    ("deterministic(7)", &[
        (-1.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (0.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (1e-300, [0x0000000000000000, 0x01a56e1fc2f8f359, 0x0000000000000000]), // 0e0 1e-300 0e0
        (0.3, [0x0000000000000000, 0x3fd3333333333333, 0x3fa70a3d70a3d70a]), // 0e0 3e-1 4.5e-2
        (3.0, [0x0000000000000000, 0x4008000000000000, 0x4012000000000000]), // 0e0 3e0 4.5e0
        (8.0, [0x3ff0000000000000, 0x401c000000000000, 0x403f800000000000]), // 1e0 7e0 3.15e1
        (40.0, [0x3ff0000000000000, 0x401c000000000000, 0x406ff00000000000]), // 1e0 7e0 2.555e2
        (1e6, [0x3ff0000000000000, 0x401c000000000000, 0x415ab3e9e0000000]), // 1e0 7e0 6.9999755e6
        (f64::INFINITY, [0x3ff0000000000000, 0x401c000000000000, 0x7ff0000000000000]), // 1e0 7e0 inf
        (6.5, [0x0000000000000000, 0x401a000000000000, 0x4035200000000000]), // 0e0 6.5e0 2.1125e1
        (7.0, [0x3ff0000000000000, 0x401c000000000000, 0x4038800000000000]), // 1e0 7e0 2.45e1
        (7.5, [0x3ff0000000000000, 0x401c000000000000, 0x403c000000000000]), // 1e0 7e0 2.8e1
    ]),
    ("pareto(1, 10)", &[
        (-1.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (0.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (1e-300, [0x0000000000000000, 0x0000000000000000, 0x81dac9a7b3b7302f]), // 0e0 0e0 -1e-299
        (0.3, [0x3f9dd3431b56fd80, 0x3fd2eaea06574603, 0x3fa6d02070e42290]), // 2.9126213592232997e-2 2.955880224154443e-1 4.455663087907624e-2
        (3.0, [0x3fcd89d89d89d8a0, 0x4004fd385ada2853, 0x40106dee4e8a061e]), // 2.3076923076923084e-1 2.6236426446749106e0 4.10735438077384e0
        (8.0, [0x3fdc71c71c71c71c, 0x401782ef798f2e35, 0x4039cd35a3044fec]), // 4.444444444444444e-1 5.877866649021191e0 2.5801599682381422e1
        (40.0, [0x3fe999999999999a, 0x403018293af47840, 0x40794b80d83bf7c8]), // 8e-1 1.6094379124341003e1 4.0471895621705016e2
        (1e6, [0x3fefffeb07583584, 0x405cc84758b8fa34, 0x419910a827c55ff0]), // 9.99990000099999e-1 1.151293546492023e2 1.0513050594274879e8
        (f64::INFINITY, [0x3ff0000000000000, 0x7ff0000000000000, 0x7ff0000000000000]), // 1e0 inf inf
    ]),
    ("pareto(2, 10)", &[
        (-1.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (0.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (1e-300, [0x0000000000000000, 0x8000000000000000, 0x01dac9a7b3b7302f]), // 0e0 -0e0 1e-299
        (0.3, [0x3fad6411a9dab1c0, 0x3fd2a409f1165e70, 0x3fa696de04ba1f00]), // 5.740409086624565e-2 2.9126213592232997e-1 4.411977584555693e-2
        (3.0, [0x3fda21535048b5c8, 0x4002762762762764, 0x400e1bcc737a6cc2]), // 4.0828402366863914e-1 2.3076923076923084e0 3.763573553250894e0
        (8.0, [0x3fe61f9add3c0ca4, 0x4011c71c71c71c72, 0x403538a9501a0c7c]), // 6.91358024691358e-1 4.444444444444445e0 2.1221333509788096e1
        (40.0, [0x3feeb851eb851eb8, 0x4020000000000000, 0x406de1cc764e69b0]), // 9.6e-1 8e0 2.3905620875658997e2
        (1e6, [0x3feffffffff241a2, 0x4023fff2e4972172, 0x41631240169b4463]), // 9.99999999900002e-1 9.99990000099999e0 9.998848706453508e6
        (f64::INFINITY, [0x3ff0000000000000, 0x4024000000000000, 0x7ff0000000000000]), // 1e0 1e1 inf
    ]),
    ("pareto(3, 10)", &[
        (-1.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (0.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (1e-300, [0x0000000000000000, 0x8000000000000000, 0x01cac9a7b3b7302f]), // 0e0 -0e0 5e-300
        (0.3, [0x3fb5b946b5defa58, 0x3fd25e8b0a28af18, 0x3fa65e7254813e78]), // 8.48583406468405e-2 2.8702045433122825e-1 4.3689320388350106e-2
        (3.0, [0x3fe16f476da5cfc3, 0x400054d4122d719d, 0x400bb13b13b13b0c]), // 5.448338643604916e-1 2.0414201183431957e0 3.461538461538458e0
        (8.0, [0x3fea835609215c5c, 0x400ba781948b0fcd, 0x4031c71c71c71c72]), // 8.285322359396434e-1 3.45679012345679e0 1.777777777777778e1
        (40.0, [0x3fefbe76c8b43958, 0x4013333333333333, 0x4064000000000000]), // 9.92e-1 4.8e0 1.6e2
        (1e6, [0x3feffffffffffff7, 0x4013fffffff76905, 0x415312c380083122]), // 9.99999999999999e-1 4.99999999950001e0 4.999950000499995e6
        (f64::INFINITY, [0x3ff0000000000000, 0x4014000000000000, 0x7ff0000000000000]), // 1e0 5e0 inf
    ]),
    ("uniform(2, 16)", &[
        (-1.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (0.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (1e-300, [0x0000000000000000, 0x01a56e1fc2f8f359, 0x0000000000000000]), // 0e0 1e-300 0e0
        (0.3, [0x0000000000000000, 0x3fd3333333333333, 0x3fa70a3d70a3d70a]), // 0e0 3e-1 4.5e-2
        (3.0, [0x3fb2492492492492, 0x4007b6db6db6db6e, 0x4011f3cf3cf3cf3d]), // 7.142857142857142e-2 2.9642857142857144e0 4.488095238095238e0
        (8.0, [0x3fdb6db6db6db6db, 0x401adb6db6db6db7, 0x403d6db6db6db6db]), // 4.2857142857142855e-1 6.714285714285714e0 2.9428571428571427e1
        (40.0, [0x3ff0000000000000, 0x4022000000000000, 0x4073755555555556]), // 1e0 9e0 3.1133333333333337e2
        (1e6, [0x3ff0000000000000, 0x4022000000000000, 0x41612a81eaaaaaab]), // 1e0 9e0 8.999951333333334e6
        (f64::INFINITY, [0x3ff0000000000000, 0x4022000000000000, 0x7ff0000000000000]), // 1e0 9e0 inf
        (2.0, [0x0000000000000000, 0x4000000000000000, 0x4000000000000000]), // 0e0 2e0 2e0
        (16.0, [0x3ff0000000000000, 0x4022000000000000, 0x4057d55555555556]), // 1e0 9e0 9.533333333333334e1
    ]),
    ("truncated(gamma(2, 4), 0.1, 30)", &[
        (-1.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (0.0, [0x0000000000000000, 0x0000000000000000, 0x0000000000000000]), // 0e0 0e0 0e0
        (1e-300, [0x0000000000000000, 0x01a56e1fc2f8f359, 0x0000000000000000]), // 0e0 1e-300 0e0
        (0.3, [0x3f637fec1ede6dac, 0x3fd32feb91982a70, 0x3fa708a867c0527f]), // 2.3803340654475393e-3 2.9979981630518804e-1 4.4987929024647315e-2
        (3.0, [0x3fc64315eebdc0de, 0x40066e5c7082658d, 0x40115ebf5fb3b386]), // 1.7392229230200135e-1 2.8038872518342886e0 4.342526908248038e0
        (8.0, [0x3fe317f6c876c35c, 0x40174e03b8b33036, 0x403acf7d1d464681]), // 5.966752925215633e-1 5.82618607133559e0 2.681050284352978e1
        (40.0, [0x3ff0000000000000, 0x401f826ff0afe874, 0x4070db4f4ac50c7a]), // 1e0 7.877380142914365e0 2.6970685841533816e2
        (1e6, [0x3ff0000000000000, 0x401f826ff0afe874, 0x415e0cb5b04ad3a7]), // 1e0 7.877380142914365e0 7.877334754567063e6
        (f64::INFINITY, [0x3ff0000000000000, 0x401f826ff0afe874, 0x7ff0000000000000]), // 1e0 7.877380142914365e0 inf
        (0.05, [0x0000000000000000, 0x3fa999999999999a, 0x3f547ae147ae147c]), // 0e0 5e-2 1.2500000000000002e-3
        (0.1, [0x0000000000000000, 0x3fb999999999999a, 0x3f747ae147ae147c]), // 0e0 1e-1 5.000000000000001e-3
        (0.407, [0x3f72a71c58466e3c, 0x3fda030488b1af00, 0x3fb530a543fca1ac]), // 4.553900453540257e-3 4.064341864493457e-1 8.27735224708081e-2
        (0.41, [0x3f72effe2f2fa474, 0x3fda33f1b533b1b6, 0x3fb580d8eb7e7e21]), // 4.623406322005075e-3 4.094204206037618e-1 8.399730443351718e-2
        (30.0, [0x3ff0000000000000, 0x401f826ff0afe874, 0x4067dddb9a53204f]), // 1e0 7.877380142914365e0 1.909330569861945e2
    ]),
];

/// The kinds of [`CLOSED_FORMS`], in its order.
fn closed_form_kinds() -> Vec<Box<dyn DurationDist>> {
    vec![
        Box::new(Deterministic::new(7.0).unwrap()),
        Box::new(Pareto::new(1.0, 10.0).unwrap()),
        Box::new(Pareto::new(2.0, 10.0).unwrap()),
        Box::new(Pareto::new(3.0, 10.0).unwrap()),
        Box::new(Uniform::new(2.0, 16.0).unwrap()),
        Box::new(Truncated::new(Gamma::new(2.0, 4.0).unwrap(), 0.1, 30.0).unwrap()),
    ]
}

#[test]
fn the_closed_form_triples_are_the_pinned_bits() {
    for ((name, rows), d) in CLOSED_FORMS.iter().zip(closed_form_kinds()) {
        for &(y, pins) in rows.iter() {
            let (f, a, aa) = d.cdf_and_survival_integrals(y);
            assert!(is_pinned(d.cdf(y), pins[0]), "{name} at {y:e}: cdf");
            for (i, v) in [f, a, aa].into_iter().enumerate() {
                assert!(
                    is_pinned(v, pins[i]),
                    "{name} at {y:e}: component {i} {v:e}, pinned {:e}",
                    f64::from_bits(pins[i])
                );
            }
        }
    }
}
