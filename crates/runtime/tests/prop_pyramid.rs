//! Property tests pinning the pyramid broadcast schedule's
//! channel-transition invariance: for any geometry and any
//! boundary-aligned join, a client recording every channel can play the
//! movie straight through — each minute is broadcast (by exactly one
//! channel) no later than the client needs it, and the startup wait
//! never exceeds one segment-1 period.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use proptest::prelude::*;

use vod_runtime::{AirLog, PyramidGeometry};

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
    /// first: minute `p` has been on the air by relative tick `p + 1`
    /// along the whole straight-through playback path. Checked against the
    /// brute-force schedule replay, not the closed form.
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

    /// The closed-form front `received_by_continuous`, the event
    /// simulator's, never claims more than the brute-force schedule
    /// delivers at whole-minute times (soundness), and both grow to cover
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
            if g.received_by_continuous(elapsed as f64, f64::from(p)) {
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
            (0..g.length()).all(|p| g.received_by_continuous(full as f64, f64::from(p))),
            "closed form must agree the whole movie is in by one full cycle"
        );
    }

    /// Per-channel loss ⇒ prefix-coverage monotonicity and
    /// stall-conservation: under an arbitrary per-tick channel up/down
    /// schedule, a movie's [`AirLog`] (fed only from the up channels)
    /// gives every client, at a segment-1 boundary or at any later tick,
    /// a front that never retreats and always equals the exact contiguous
    /// prefix of the minutes delivered since it joined; and a greedy
    /// player that joined at the boundary and consumes one minute per
    /// tick inside its front accounts every active tick as exactly one of
    /// {consumed, stalled}.
    #[test]
    fn lossy_channels_keep_front_monotone_and_conserve_stalls(
        g in any_geometry(),
        boundary_idx in 0u64..16,
        late_joins in proptest::collection::vec(0u64..1024, 4),
        // Per-tick channel-down bitmasks, cycled over the run: bit `c`
        // set means channel `c` delivers nothing that tick.
        down_masks in proptest::collection::vec(0u16..(1 << 12), 512),
    ) {
        let join = boundary_idx * u64::from(g.unit());
        // Two full broadcast cycles: long enough for recovery to refill
        // any hole the loss schedule punched.
        let ticks = 2 * u64::from(g.virtual_length().max(2));
        let joins: Vec<u64> = std::iter::once(join)
            .chain(late_joins.iter().map(|&late| join + late % ticks))
            .collect();
        let mut air = AirLog::new(g.length());
        let mut got = vec![vec![false; g.length() as usize]; joins.len()];
        let mut prev_front = vec![0u32; joins.len()];
        let mut pos = 0u32;
        let mut stalls = 0u64;
        let mut active_ticks = 0u64;
        for rel in 0..ticks {
            let t = join + rel;
            let mask = down_masks[(rel % down_masks.len() as u64) as usize];
            // A channel down this tick delivers nothing.
            let on_air: Vec<u32> = (0..g.channels())
                .filter(|&c| mask & (1 << c) == 0)
                .filter_map(|c| g.broadcast_minute(c, t))
                .collect();
            air.log(t, on_air.iter().copied());
            prop_assert_eq!(air.drift(), None, "prefix minimum out of sync with the log");
            for (k, &since) in joins.iter().enumerate() {
                if t >= since {
                    for &m in &on_air {
                        got[k][m as usize] = true;
                    }
                }
                let front = air.front(since);
                prop_assert!(
                    front >= prev_front[k],
                    "front retreated: {} -> {}", prev_front[k], front
                );
                prev_front[k] = front;
                let brute_prefix =
                    got[k].iter().position(|&m| !m).unwrap_or(g.length() as usize) as u32;
                prop_assert_eq!(front, brute_prefix, "front != contiguous delivered prefix");
                prop_assert!(front == 0 || air.received(since, front - 1));
                prop_assert!(!air.received(since, front), "received past the front");
            }
            if pos < g.length() {
                active_ticks += 1;
                if air.received(join, pos) {
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
}
