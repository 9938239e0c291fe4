//! Property tests for [`SessionStore`] against the obvious model, a
//! `BTreeMap` keyed by the ids it issued: same contents, same (id) order,
//! retired ids told apart from never-issued ones, an id tally that counts
//! what a brute-force count does — and the one thing the model cannot
//! say: memory is held for the live sessions (a whole chunk where at
//! least half its ids are live, plus the one under the cursor), never for
//! the sessions that have passed through.

#![allow(clippy::unwrap_used)]
use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vod_runtime::{SessionStore, SESSION_CHUNK};

const CHUNK: u32 = SESSION_CHUNK as u32;

/// Slots the store holds, fewest and most: a whole chunk for the one the
/// issue cursor stands inside and for each other with at least half its
/// ids live, one to two per live id in the rest.
fn slots_needed(model: &BTreeMap<u32, u64>, issued: u32) -> (usize, usize) {
    let mut live: BTreeMap<u32, usize> = BTreeMap::new();
    for id in model.keys() {
        *live.entry(id / CHUNK).or_default() += 1;
    }
    let open = (!issued.is_multiple_of(CHUNK)).then_some(issued / CHUNK);
    if let Some(open) = open {
        live.entry(open).or_default();
    }
    live.into_iter()
        .map(|(chunk, live)| {
            if Some(chunk) == open || live >= SESSION_CHUNK / 2 {
                (SESSION_CHUNK, SESSION_CHUNK)
            } else {
                (live, 2 * live)
            }
        })
        .fold((0, 0), |(few, most), (f, m)| (few + f, most + m))
}

/// Random inserts, retirements (of the oldest, so chunks really empty,
/// or of anybody) and look-ups of arbitrary ids, each step checked against
/// the model. Returns the store and the model.
fn play(script: Vec<u32>) -> Result<(SessionStore<u64>, BTreeMap<u32, u64>), TestCaseError> {
    let mut store: SessionStore<u64> = SessionStore::new();
    let mut model: BTreeMap<u32, u64> = BTreeMap::new();
    let mut issued = 0u32;
    for step in script {
        let pick = step / 8;
        match step % 8 {
            // Admissions outnumber any one kind of departure, so the
            // population climbs through several chunks.
            0..=3 => {
                let value = u64::from(step) << 8;
                prop_assert_eq!(store.insert(value), Some(issued), "ids are 0, 1, 2, …");
                model.insert(issued, value);
                issued += 1;
            }
            4 | 5 => {
                // The oldest live session leaves, as most viewers do.
                if let Some((&id, &value)) = model.iter().next() {
                    prop_assert_eq!(store.retire(id), Some(value));
                    model.remove(&id);
                }
            }
            6 => {
                // Somebody in the middle leaves early.
                if !model.is_empty() {
                    let (&id, &value) = model.iter().nth(pick as usize % model.len()).unwrap();
                    prop_assert_eq!(store.retire(id), Some(value));
                    prop_assert_eq!(store.retire(id), None, "double retire must miss");
                    model.remove(&id);
                }
            }
            _ => {
                // Any id at all: live, retired, or never issued.
                let id = pick % (issued + 2 * CHUNK);
                prop_assert_eq!(store.get(id), model.get(&id));
                prop_assert_eq!(store.was_issued(id), id < issued);
                if let Some(value) = store.get_mut(id) {
                    *value += 1;
                    *model.get_mut(&id).unwrap() += 1;
                }
            }
        }
        prop_assert_eq!(store.len(), model.len());
        prop_assert_eq!(store.issued(), u64::from(issued));
        let (fewest, most) = slots_needed(&model, issued);
        prop_assert!(
            (fewest..=most).contains(&store.resident_slots()),
            "memory is held for live sessions and the open chunk, nothing else: {} slots, {}..={}",
            store.resident_slots(),
            fewest,
            most
        );
        prop_assert!(store.resident_slots() <= 2 * store.len() + SESSION_CHUNK);
    }
    Ok((store, model))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// [`play`]'s script, then the finished store read back whole.
    #[test]
    fn store_matches_btreemap_model(script in proptest::collection::vec(0u32..u32::MAX, 600)) {
        let (mut store, model) = play(script)?;
        let issued = u32::try_from(store.issued()).unwrap();
        // The walk is the model's: every live session, once, in id order.
        let walked: Vec<(u32, u64)> = store.iter().map(|(id, v)| (id, *v)).collect();
        let expected: Vec<(u32, u64)> = model.iter().map(|(&id, &v)| (id, v)).collect();
        prop_assert_eq!(&walked, &expected);
        let walked_mut: Vec<u32> = store.iter_mut().map(|(id, _)| id).collect();
        prop_assert_eq!(walked_mut, model.keys().copied().collect::<Vec<_>>());
        // Every id ever issued is live or retired; nothing else is known.
        for id in 0..issued + CHUNK {
            prop_assert_eq!(store.get(id).is_some(), model.contains_key(&id));
            prop_assert_eq!(store.was_issued(id), id < issued);
        }
    }

    /// [`play`]'s script, then a tally of a list that mixes live ids,
    /// retired ones (freed chunks below the directory included),
    /// never-issued ones and repeats: taking each live id once reads its
    /// brute-force count, and the strays are the brute-force counts of
    /// the entries that name nobody live, ascending.
    #[test]
    fn tally_matches_a_brute_force_count(
        script in proptest::collection::vec(0u32..u32::MAX, 600),
        entries in proptest::collection::vec((0u32..4, 0u32..u32::MAX, 1u32..4), 120),
    ) {
        let (store, model) = play(script)?;
        let issued = u32::try_from(store.issued()).unwrap();
        let live: Vec<u32> = model.keys().copied().collect();
        let mut list = Vec::new();
        for (kind, pick, repeats) in entries {
            let id = match kind {
                0 if !live.is_empty() => live[pick as usize % live.len()],
                // Below the cursor: retired unless it happens to be live.
                1 if issued > 0 => pick % issued,
                2 => issued + pick % (2 * CHUNK),
                _ => u32::MAX - pick % 2,
            };
            list.extend(std::iter::repeat_n(id, repeats as usize));
        }
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for &id in &list {
            *counts.entry(id).or_default() += 1;
        }
        let mut tally = store.tally(&list);
        for &id in &live {
            prop_assert_eq!(tally.take(id), counts.remove(&id).unwrap_or(0), "live id {}", id);
        }
        let expected: Vec<(u32, u32)> = counts.into_iter().collect();
        prop_assert_eq!(tally.strays(), expected);
    }

    /// A few viewers pause for ever while everybody else comes and goes:
    /// each pins at most its own chunk (one slot once the chunk is
    /// thinned), not the window of ids behind it, and the
    /// store stays within `live / CHUNK + pinned + 1` chunks however many
    /// sessions pass through.
    #[test]
    fn a_pinned_session_pins_one_chunk(pins in proptest::collection::vec(0u32..40 * CHUNK, 5), waves in 3u32..12) {
        let mut store: SessionStore<u32> = SessionStore::new();
        let pinned: BTreeSet<u32> = pins.into_iter().collect();
        let mut next_to_leave = 0u32;
        for wave in 0..waves {
            // A wave of arrivals, then everyone from the waves before the
            // last leaves — except the pinned.
            for _ in 0..10 * CHUNK {
                store.insert(wave).unwrap();
            }
            let issued = u32::try_from(store.issued()).unwrap();
            while next_to_leave + 10 * CHUNK < issued {
                if !pinned.contains(&next_to_leave) {
                    prop_assert!(store.retire(next_to_leave).is_some());
                }
                next_to_leave += 1;
            }
            let pinned_live = pinned.iter().filter(|&&id| id < next_to_leave).count();
            prop_assert!(
                store.resident_slots() / SESSION_CHUNK
                    <= store.len() / SESSION_CHUNK + pinned_live + 2,
                "{} chunks resident for {} live sessions, {} of them pinned",
                store.resident_slots() / SESSION_CHUNK,
                store.len(),
                pinned_live
            );
        }
        for &id in &pinned {
            prop_assert_eq!(store.get(id).is_some(), u64::from(id) < store.issued());
        }
    }
}
