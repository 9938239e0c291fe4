//! Property tests for the million-session engine substrate: the
//! scheduler's drain order against a `BTreeMap<u64, Vec<T>>` reference
//! model — items filed straight into the 256-tick ring, items
//! that wait in the far map and reach their bucket laps later, drains
//! that stay inside one lap and drains that cross many — and the arena's
//! generational-id liveness (no stale id ever resolves after
//! evict/reuse).

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::collections::BTreeMap;

use proptest::prelude::*;
use vod_runtime::{Arena, ArenaId, TimerWheel};

/// One step of a randomized schedule: either file an item some ticks
/// ahead of the cursor, or drain up to some tick ahead of the cursor.
#[derive(Debug, Clone)]
enum WheelOp {
    Schedule { ahead: u64 },
    Drain { ahead: u64 },
}

fn wheel_ops() -> impl Strategy<Value = Vec<WheelOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..200_000).prop_map(|ahead| WheelOp::Schedule { ahead }),
            (0u64..64).prop_map(|ahead| WheelOp::Schedule { ahead }),
            // Either side of the ring's edge: the window or the far map.
            (0u64..512).prop_map(|ahead| WheelOp::Schedule { ahead }),
            // Small hops (tick-by-tick server style), drains across a few
            // ring laps, and long jumps (sim style).
            (0u64..100).prop_map(|ahead| WheelOp::Drain { ahead }),
            (256u64..1_024).prop_map(|ahead| WheelOp::Drain { ahead }),
            (0u64..300_000).prop_map(|ahead| WheelOp::Drain { ahead }),
        ],
        100,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tentpole pin: under arbitrary schedules the wheel drains exactly
    /// what a due-keyed `BTreeMap` with FIFO buckets would — ascending
    /// due tick, schedule order within a tick — including items that
    /// move from the far map into a bucket that held an earlier lap.
    #[test]
    fn wheel_matches_btreemap_model(ops in wheel_ops()) {
        let mut wheel = TimerWheel::new();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut next_item = 0u32;
        for op in ops {
            match op {
                WheelOp::Schedule { ahead } => {
                    let due = wheel.now() + ahead;
                    wheel.schedule(due, next_item);
                    model.entry(due).or_default().push(next_item);
                    next_item += 1;
                }
                WheelOp::Drain { ahead } => {
                    let t = wheel.now() + ahead;
                    let got = wheel.drain_tick(t);
                    let mut want = Vec::new();
                    let later = model.split_off(&(t + 1));
                    for (_, mut bucket) in std::mem::replace(&mut model, later) {
                        want.append(&mut bucket);
                    }
                    prop_assert_eq!(&got, &want, "drain to {} diverged", t);
                }
            }
        }
        // Drain everything left; the tails must agree too.
        let t = wheel.next_due().unwrap_or(wheel.now());
        let got = wheel.drain_tick(t.max(wheel.now()));
        let want: Vec<u32> = model
            .range(..=t.max(wheel.now()))
            .flat_map(|(_, b)| b.iter().copied())
            .collect();
        prop_assert_eq!(got, want);
        let remaining: usize = model.range(t.max(wheel.now()) + 1..).map(|(_, b)| b.len()).sum();
        prop_assert_eq!(wheel.len(), remaining, "undrained population diverged");
    }

    /// `next_due` always names the model's first key at or past the
    /// cursor, and draining exactly there yields a non-empty batch.
    #[test]
    fn next_due_is_sharp(ops in wheel_ops()) {
        let mut wheel = TimerWheel::new();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                WheelOp::Schedule { ahead } => {
                    let due = wheel.now() + ahead;
                    wheel.schedule(due, i as u32);
                    model.entry(due).or_default().push(i as u32);
                }
                WheelOp::Drain { ahead } => {
                    let t = wheel.now() + ahead;
                    wheel.drain_tick(t);
                    model = model.split_off(&(t + 1));
                }
            }
            prop_assert_eq!(wheel.next_due(), model.keys().next().copied());
        }
        if let Some(due) = wheel.next_due() {
            prop_assert!(!wheel.drain_tick(due).is_empty());
        }
    }

    /// Generational liveness: after any interleaving of inserts and
    /// removes, exactly the live ids resolve — a removed id never reads
    /// the slot again (even once reused), double-remove is a no-op, and
    /// reuse is lowest-index-first.
    #[test]
    fn arena_ids_never_dangle(script in proptest::collection::vec(0u16..u16::MAX, 150)) {
        let mut arena: Arena<u64> = Arena::new();
        let mut live: Vec<(ArenaId, u64)> = Vec::new();
        let mut dead: Vec<ArenaId> = Vec::new();
        let mut stamp = 0u64;
        for step in script {
            let remove = !live.is_empty() && step % 3 == 0;
            if remove {
                let (id, val) = live.remove(step as usize % live.len());
                prop_assert_eq!(arena.remove(id), Some(val));
                prop_assert_eq!(arena.remove(id), None, "double remove must miss");
                dead.push(id);
            } else {
                stamp += 1;
                let expected_index = (0..arena.slot_count())
                    .find(|&i| arena.at(i).is_none())
                    .unwrap_or(arena.slot_count());
                let id = arena.insert(stamp);
                prop_assert_eq!(
                    id.index(),
                    expected_index,
                    "reuse must be lowest-index-first"
                );
                live.push((id, stamp));
            }
            prop_assert_eq!(arena.len(), live.len());
            for (id, val) in &live {
                prop_assert_eq!(arena.get(*id), Some(val));
            }
            for id in &dead {
                prop_assert!(arena.get(*id).is_none(), "stale id resolved after evict");
                prop_assert!(!arena.contains(*id));
            }
        }
    }
}
