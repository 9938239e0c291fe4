//! Property tests pinning the pyramid broadcast schedule's
//! channel-transition invariance: for any geometry and any
//! boundary-aligned join, a client recording every channel can play the
//! movie straight through — each minute is broadcast (by exactly one
//! channel) no later than the client needs it, and the startup wait
//! never exceeds one segment-1 period.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use proptest::prelude::*;

use vod_runtime::{PyramidGeometry, ReceptionFront};

fn any_geometry() -> impl Strategy<Value = PyramidGeometry> {
    (1u32..400, 1u32..12).prop_map(|(l, k)| PyramidGeometry::new(l, k))
}

/// Brute-force reception front: the set of minutes a client joining at
/// tick `join` has fully received after `elapsed` whole ticks, computed
/// by replaying the broadcast schedule minute by minute.
fn brute_received(g: &PyramidGeometry, join: u64, elapsed: u64) -> Vec<bool> {
    let mut got = vec![false; g.length() as usize];
    for t in join..join + elapsed {
        for c in 0..g.channels() {
            if let Some(m) = g.broadcast_minute(c, t) {
                got[m as usize] = true;
            }
        }
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The channels partition the virtual movie `[0, d(2^k − 1))`
    /// exactly: every real minute belongs to exactly one channel, and
    /// segment boundaries tile with no gap or overlap.
    #[test]
    fn channels_tile_the_movie_exactly_once(g in any_geometry()) {
        let mut cursor = 0u32;
        for c in 0..g.channels() {
            prop_assert_eq!(g.segment_start(c), cursor, "gap/overlap before channel {}", c);
            cursor += g.segment_len(c);
        }
        prop_assert_eq!(cursor, g.virtual_length());
        prop_assert!(cursor >= g.length(), "virtual movie must cover the real one");
        for minute in 0..g.length() {
            let owners = (0..g.channels())
                .filter(|&c| {
                    let s = g.segment_start(c);
                    minute >= s && minute < s + g.segment_len(c)
                })
                .count();
            prop_assert_eq!(owners, 1, "minute {} owned by {} channels", minute, owners);
            prop_assert!(g.channel_of(minute) < g.channels());
        }
    }

    /// Startup wait is < one segment-1 period for every arrival tick,
    /// and the promised start is the next multiple of `d`.
    #[test]
    fn startup_wait_bounded_by_one_unit(g in any_geometry(), t in 0u64..100_000) {
        let wait = g.startup_wait(t);
        prop_assert!(wait < u64::from(g.unit()));
        let start = g.next_boundary(t);
        prop_assert_eq!(start, t + wait);
        prop_assert_eq!(start % u64::from(g.unit()), 0);
    }

    /// Channel-transition invariance (the scheme's correctness theorem):
    /// a client joining at any segment-1 boundary and playing minute `p`
    /// during relative tick `p` has always fully received that minute
    /// first — `received_by(elapsed + 1, position)` holds along the whole
    /// straight-through playback path. Checked against the brute-force
    /// schedule replay, not the closed form.
    #[test]
    fn boundary_join_always_consumable(
        g in any_geometry(),
        boundary_idx in 0u64..64,
    ) {
        let join = boundary_idx * u64::from(g.unit());
        for p in 0..g.length() {
            let got = brute_received(&g, join, u64::from(p) + 1);
            prop_assert!(
                got[p as usize],
                "minute {} not on air by relative tick {} after join {}",
                p, p + 1, join
            );
        }
    }

    /// The closed-form front `received_by` never claims more than the
    /// brute-force schedule delivers (soundness), and both grow to cover
    /// the whole movie exactly once by `virtual_length` ticks.
    #[test]
    fn closed_form_front_is_sound(
        g in any_geometry(),
        boundary_idx in 0u64..32,
        elapsed in 0u64..512,
    ) {
        let join = boundary_idx * u64::from(g.unit());
        let got = brute_received(&g, join, elapsed);
        for p in 0..g.length() {
            if g.received_by(elapsed, p) {
                prop_assert!(
                    got[p as usize],
                    "closed form claims minute {} by elapsed {}, schedule disagrees",
                    p, elapsed
                );
            }
        }
        let full = u64::from(g.virtual_length());
        let all = brute_received(&g, join, full);
        prop_assert!(all.iter().all(|&m| m), "full cycle must deliver every minute");
        prop_assert!(
            (0..g.length()).all(|p| g.received_by(full, p)),
            "closed form must agree the whole movie is in by one full cycle"
        );
    }

    /// Per-channel loss ⇒ prefix-coverage monotonicity and
    /// stall-conservation: under an arbitrary per-tick channel up/down
    /// schedule, a client's [`ReceptionFront`] (fed only from the up
    /// channels) never retreats, always equals the exact contiguous
    /// prefix of the minutes actually delivered, and a greedy player
    /// that consumes one minute per tick inside the front accounts every
    /// active tick as exactly one of {consumed, stalled}.
    #[test]
    fn lossy_channels_keep_front_monotone_and_conserve_stalls(
        g in any_geometry(),
        boundary_idx in 0u64..16,
        // Per-tick channel-down bitmasks, cycled over the run: bit `c`
        // set means channel `c` delivers nothing that tick.
        down_masks in proptest::collection::vec(0u16..(1 << 12), 512),
    ) {
        let join = boundary_idx * u64::from(g.unit());
        // Two full broadcast cycles: long enough for recovery to refill
        // any hole the loss schedule punched.
        let ticks = 2 * u64::from(g.virtual_length().max(2));
        let mut rx = ReceptionFront::new(g.length());
        let mut got = vec![false; g.length() as usize];
        let mut pos = 0u32;
        let mut stalls = 0u64;
        let mut active_ticks = 0u64;
        let mut prev_front = 0u32;
        for rel in 0..ticks {
            let t = join + rel;
            let mask = down_masks[(rel % down_masks.len() as u64) as usize];
            for c in 0..g.channels() {
                if mask & (1 << c) != 0 {
                    continue; // channel down this tick: nothing received
                }
                if let Some(m) = g.broadcast_minute(c, t) {
                    rx.record(m);
                    got[m as usize] = true;
                }
            }
            let front = rx.front();
            prop_assert!(front >= prev_front, "front retreated: {} -> {}", prev_front, front);
            prev_front = front;
            prop_assert_eq!(rx.audit_front(), front, "front out of sync with bitmap");
            let brute_prefix =
                got.iter().position(|&m| !m).unwrap_or(g.length() as usize) as u32;
            prop_assert_eq!(front, brute_prefix, "front != contiguous delivered prefix");
            if pos < g.length() {
                active_ticks += 1;
                if rx.received(pos) {
                    pos += 1;
                } else {
                    stalls += 1;
                }
            }
        }
        prop_assert_eq!(
            u64::from(pos) + stalls, active_ticks,
            "every active tick is exactly one of consumed/stalled"
        );
    }

    /// The from-scratch recount at and around the 64-bit word seams:
    /// any length (multiples of 64 or not), every minute received except
    /// one hole placed on, just before, or just after a word boundary.
    /// `audit_front` must stop at the hole, agree with the incremental
    /// front, and reach `length` exactly once the hole fills — trailing
    /// bits of the last word never count.
    #[test]
    fn audit_front_is_exact_across_word_boundaries(
        length in 1u32..400,
        seam in 0u32..6,
        offset in 0u32..3,
    ) {
        // Holes at 63/64/65, 127/128/129, ... clamped into the movie.
        let hole = (seam * 64 + 63 + offset).min(length - 1);
        let mut rx = ReceptionFront::new(length);
        for m in (0..length).rev().filter(|&m| m != hole) {
            rx.record(m);
        }
        prop_assert_eq!(rx.front(), hole);
        prop_assert_eq!(rx.audit_front(), hole);
        rx.record(hole);
        prop_assert_eq!(rx.front(), length, "all bits set");
        prop_assert_eq!(rx.audit_front(), length);
    }

    /// `record_mask` ≡ the same minutes fed one by one to `record`, for
    /// any sequence of ticks: equal bitmap, `front` and `audit_front`.
    /// Lengths include non-multiples of 64; masks are a word longer than
    /// the bitmap and set bits at and past `length`; each case ends by
    /// closing a hole at a word seam so the front jumps across words.
    #[test]
    fn record_mask_equals_minute_by_minute_record(
        length in 1u32..=300,
        ticks in proptest::collection::vec(proptest::collection::vec(0u32..384, 8), 16),
        seam in 0u32..5,
    ) {
        let words = (length as usize).div_ceil(64) + 1;
        let mask_of = |minutes: &[u32]| {
            let mut mask = vec![0u64; words];
            for &m in minutes.iter().filter(|&&m| (m as usize) < words * 64) {
                mask[(m / 64) as usize] |= 1 << (m % 64);
            }
            mask
        };
        let mut by_mask = ReceptionFront::new(length);
        let mut by_minute = ReceptionFront::new(length);
        // Everything but one minute next to a word seam, then that minute.
        let hole = (seam * 64 + 63).min(length - 1);
        let rest: Vec<u32> = (0..length + 70).filter(|&m| m != hole).collect();
        let tail = [rest, vec![hole]];
        for minutes in ticks.iter().chain(&tail) {
            by_mask.record_mask(&mask_of(minutes));
            for &m in minutes {
                by_minute.record(m);
            }
            prop_assert_eq!(&by_mask, &by_minute);
            prop_assert_eq!(by_mask.audit_front(), by_mask.front());
        }
        prop_assert_eq!(by_mask.front(), length);
    }
}
