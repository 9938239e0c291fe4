//! The plan `plan-catalog` computes, pinned to the bit. Movie `i` of the
//! four-movie catalog has `l = 60 + 1.2i`, `w = 0.5 + 0.02i`, `p = 0.5`,
//! mean `2 + 0.25i` and the `i`-th distribution kind of exp / gamma /
//! weibull / lognormal; it is planned with `allocate_min_buffer` under the
//! stream budget `vodplan` derives and default `ModelOptions`. A numerics
//! change that moves a stream count or a buffer bit fails here and must
//! say so by updating the table.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use vod_prealloc::cli;
use vod_prealloc::model::ModelOptions;
use vod_prealloc::sizing::{allocate_min_buffer, Budgets};

/// `--movie` spec of movie `i` of the catalog.
fn movie_spec(i: usize) -> String {
    let l = 60.0 + 1.2 * i as f64;
    let w = 0.5 + 0.02 * i as f64;
    let m = 2.0 + 0.25 * i as f64;
    let dist = match i {
        0 => format!("exp:mean={m}"),
        1 => format!("gamma:shape=2,mean={m}"),
        2 => format!("weibull:shape=1.5,scale={m}"),
        _ => format!("lognormal:mean={m},cv=0.7"),
    };
    format!("m{i:02};l={l:.1};w={w:.2};p=0.5;dist={dist}")
}

/// `(movie, n_streams, buffer.to_bits(), P(hit))` per movie, as planned
/// when `erf` was still the incomplete-gamma identity; Cody's rational
/// `erf` moves the lognormal movie's `P(hit)` by 3e-14 and nothing else.
const PLAN: [(&str, u32, u64, f64); 4] = [
    ("m00", 60, 0x403e_0000_0000_0000, 0.501_739_251_160_837_8),
    ("m01", 57, 0x403f_8f5c_28f5_c290, 0.504_407_073_268_601_7),
    ("m02", 56, 0x4040_147a_e147_ae14, 0.505_947_748_529_094_4),
    ("m03", 56, 0x4040_1eb8_51eb_851e, 0.506_310_282_586_912_4),
];

#[test]
fn four_movie_catalog_plan_is_pinned() {
    let argv: Vec<String> = (0..4)
        .flat_map(|i| ["--movie".to_string(), movie_spec(i)])
        .collect();
    let opts = cli::parse_args(&argv).unwrap();
    let plan = allocate_min_buffer(
        &opts.movies,
        Budgets {
            streams: opts.streams,
            buffer: opts.buffer,
        },
        &ModelOptions::default(),
    )
    .unwrap();
    assert_eq!(plan.allocations.len(), PLAN.len());
    for (a, &(movie, n_streams, buffer_bits, p_hit)) in plan.allocations.iter().zip(&PLAN) {
        assert_eq!(a.movie, movie);
        assert_eq!(a.n_streams, n_streams, "{movie}: n_streams");
        assert_eq!(
            a.buffer.to_bits(),
            buffer_bits,
            "{movie}: buffer {} is not {}",
            a.buffer,
            f64::from_bits(buffer_bits)
        );
        assert!(
            (a.p_hit - p_hit).abs() <= 1e-13,
            "{movie}: P(hit) {} is not {p_hit}",
            a.p_hit
        );
    }
}
