//! VCR reserve sizing — an extension the paper motivates but leaves to
//! its reference [8] (Dey-Sircar et al., "Providing VCR Capabilities in
//! Large-Scale Video Servers"): how many I/O streams must be *reserved*
//! for VCR service so that interactive requests are rarely denied?
//!
//! Dedicated-stream holds form an Erlang loss system: requests arrive at
//! rate `λ_vcr`, hold a stream for phase 1 plus — after a miss — the
//! residual playback, and are denied when all `c` reserved streams are
//! busy. The hit probability from the analytic model enters through the
//! expected hold time:
//!
//! ```text
//! E[hold] = E[phase1] + (1 − P(hit)) · E[residual]
//! offered load a = λ_vcr · E[hold]        (Erlangs)
//! P[deny] = ErlangB(c, a)
//! ```
//!
//! This closes the paper's resource loop quantitatively: raising `P(hit)`
//! (more buffer) directly shrinks the reserve needed for a given denial
//! target — the mechanism behind §5's cost-effectiveness argument.

use crate::SizingError;

/// Erlang-B blocking probability for `servers` servers at `offered_load`
/// Erlangs, via the numerically stable recurrence
/// `B(0) = 1`, `B(k) = a·B(k−1) / (k + a·B(k−1))`.
pub fn erlang_b(servers: u32, offered_load: f64) -> f64 {
    assert!(
        offered_load.is_finite() && offered_load >= 0.0,
        "offered load must be non-negative"
    );
    if vod_dist::exact_zero(offered_load) {
        return if servers == 0 { 1.0 } else { 0.0 };
    }
    let mut b = 1.0;
    for k in 1..=servers {
        b = offered_load * b / (k as f64 + offered_load * b);
    }
    b
}

/// Ingredients of the VCR offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcrLoad {
    /// VCR operations per minute across the movie's viewers (`λ_vcr`).
    pub ops_per_minute: f64,
    /// Mean dedicated-stream minutes during the operation itself
    /// (phase 1; pauses contribute 0).
    pub mean_phase1: f64,
    /// Mean minutes a *missed* resume holds its stream afterwards (until
    /// movie end or a later hit/piggyback merge).
    pub mean_miss_hold: f64,
    /// The modelled resume hit probability.
    pub p_hit: f64,
}

impl VcrLoad {
    /// Offered load in Erlangs.
    pub fn offered_erlangs(&self) -> f64 {
        self.ops_per_minute * (self.mean_phase1 + (1.0 - self.p_hit) * self.mean_miss_hold)
    }
}

/// The largest reserve [`size_vcr_reserve`] tries before giving up.
pub(crate) const MAX_RESERVE: u32 = 1_000_000;

/// Smallest reserve size whose Erlang-B blocking is at most
/// `target_denial`. Errors on a non-probability target, on an offered
/// load that is not finite and non-negative, and when no reserve of at
/// most 10⁶ streams meets the target.
///
/// One pass of the [`erlang_b`] recurrence, keeping `B(c − 1)`: the same
/// floating-point sequence as calling `erlang_b(c, a)` for each `c`, so
/// the same `c`, in linear rather than quadratic time.
pub fn size_vcr_reserve(load: &VcrLoad, target_denial: f64) -> Result<u32, SizingError> {
    if !(target_denial.is_finite() && 0.0 < target_denial && target_denial < 1.0) {
        return Err(SizingError::InvalidCost {
            name: "target_denial",
            value: target_denial,
        });
    }
    let a = load.offered_erlangs();
    let out_of_range = SizingError::VcrLoadOutOfRange { erlangs: a };
    if !(a.is_finite() && a >= 0.0) {
        return Err(out_of_range);
    }
    // B(0) = 1; Erlang-B decreases monotonically in c and → 0, near
    // c = a + O(√a) for any sane target.
    let mut b = 1.0;
    for c in 0..=MAX_RESERVE {
        if b <= target_denial {
            return Ok(c);
        }
        b = a * b / (f64::from(c + 1) + a * b);
    }
    Err(out_of_range)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_b_known_values() {
        // Classic table entries.
        assert!((erlang_b(1, 1.0) - 0.5).abs() < 1e-12);
        assert!((erlang_b(2, 1.0) - 0.2).abs() < 1e-12);
        assert!((erlang_b(3, 1.0) - 1.0 / 16.0).abs() < 1e-12);
        // B(c, a) for c = 0 is 1 (no servers: always blocked).
        assert_eq!(erlang_b(0, 5.0), 1.0);
        assert_eq!(erlang_b(0, 0.0), 1.0);
        assert_eq!(erlang_b(4, 0.0), 0.0);
    }

    #[test]
    fn erlang_b_monotone() {
        // Decreasing in servers, increasing in load.
        for &a in &[0.5, 2.0, 10.0] {
            let mut prev = 1.0;
            for c in 0..40 {
                let b = erlang_b(c, a);
                assert!(b <= prev + 1e-15, "a={a} c={c}");
                assert!((0.0..=1.0).contains(&b));
                prev = b;
            }
        }
        assert!(erlang_b(5, 2.0) < erlang_b(5, 4.0));
    }

    #[test]
    fn offered_load_shrinks_with_hit_probability() {
        let lo_hit = VcrLoad {
            ops_per_minute: 2.0,
            mean_phase1: 2.0,
            mean_miss_hold: 30.0,
            p_hit: 0.2,
        };
        let hi_hit = VcrLoad {
            p_hit: 0.9,
            ..lo_hit
        };
        assert!(hi_hit.offered_erlangs() < lo_hit.offered_erlangs());
        // Exact: 2·(2 + 0.8·30) = 52 vs 2·(2 + 0.1·30) = 10.
        assert!((lo_hit.offered_erlangs() - 52.0).abs() < 1e-12);
        assert!((hi_hit.offered_erlangs() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn reserve_sizing_meets_target() {
        let load = VcrLoad {
            ops_per_minute: 1.0,
            mean_phase1: 3.0,
            mean_miss_hold: 40.0,
            p_hit: 0.6,
        };
        let c = size_vcr_reserve(&load, 0.01).unwrap();
        assert!(erlang_b(c, load.offered_erlangs()) <= 0.01);
        if c > 0 {
            assert!(
                erlang_b(c - 1, load.offered_erlangs()) > 0.01,
                "not minimal"
            );
        }
        // Better hit probability ⇒ smaller reserve.
        let better = VcrLoad { p_hit: 0.9, ..load };
        assert!(size_vcr_reserve(&better, 0.01).unwrap() < c);
    }

    #[test]
    fn bad_targets_rejected() {
        let load = VcrLoad {
            ops_per_minute: 1.0,
            mean_phase1: 1.0,
            mean_miss_hold: 1.0,
            p_hit: 0.5,
        };
        assert!(size_vcr_reserve(&load, 0.0).is_err());
        assert!(size_vcr_reserve(&load, 1.0).is_err());
        assert!(size_vcr_reserve(&load, f64::NAN).is_err());
    }

    /// A load of exactly `a` Erlangs.
    fn erlangs(a: f64) -> VcrLoad {
        VcrLoad {
            ops_per_minute: a,
            mean_phase1: 1.0,
            mean_miss_hold: 0.0,
            p_hit: 0.0,
        }
    }

    #[test]
    fn bad_loads_rejected() {
        for a in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-300] {
            assert_eq!(
                size_vcr_reserve(&erlangs(a), 0.01).map_err(|e| e.to_string()),
                Err(format!(
                    "VCR offered load {a} Erlangs out of range (need a finite load ≥ 0 that \
                     at most 1000000 reserved streams can carry)"
                ))
            );
        }
    }

    #[test]
    fn one_pass_matches_the_from_scratch_loop() {
        for a in [0.0, 1e-3, 0.5, 1.0, 2.5, 10.0, 15.2, 99.9, 1e3] {
            for target in [1e-9, 1e-4, 0.01, 0.05, 0.5, 0.999] {
                let mut c = 0;
                while erlang_b(c, a) > target {
                    c += 1;
                }
                assert_eq!(
                    size_vcr_reserve(&erlangs(a), target),
                    Ok(c),
                    "a {a} target {target}"
                );
            }
        }
    }

    #[test]
    fn a_load_past_the_largest_reserve_is_an_error() {
        // 2·10⁶ Erlangs need about 2·10⁶ streams, past the 10⁶ guard.
        let refused = size_vcr_reserve(&erlangs(2e6), 0.01);
        assert!(
            matches!(refused, Err(SizingError::VcrLoadOutOfRange { .. })),
            "{refused:?}"
        );
    }
}
