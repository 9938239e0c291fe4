//! Property-based tests of the fault-injection semantics: arbitrary
//! fault/op sequences on [`StreamReserve`] never violate stream
//! conservation, and generated fault plans are well-formed.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use proptest::prelude::*;

use vod_runtime::{FaultPlan, StreamReserve};

/// One step of an arbitrary reserve workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Acquire,
    Release,
    Fail(u32),
    Recover(u32),
    RecordDenial(bool),
    Rebaseline,
}

/// Decode one op from two random words (the offline proptest stand-in
/// has no `any::<enum>()`, so ops are mapped from integer draws).
fn any_op() -> impl Strategy<Value = Op> {
    ((0u32..6), (0u32..6)).prop_map(|(tag, n)| match tag {
        0 => Op::Acquire,
        1 => Op::Release,
        2 => Op::Fail(n),
        3 => Op::Recover(n),
        4 => Op::RecordDenial(n % 2 == 0),
        _ => Op::Rebaseline,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Stream conservation `in_use + free + failed == capacity` holds
    /// after every step of an arbitrary acquire/release/fail/recover
    /// interleaving, and failed streams never exceed the capacity.
    #[test]
    fn reserve_conserves_streams(
        cap in 1u32..12,
        len in 1usize..120,
        ops in proptest::collection::vec(any_op(), 120),
    ) {
        let mut r = StreamReserve::with_capacity(cap);
        let mut t = 0.0f64;
        for op in &ops[..len] {
            t += 1.0;
            match *op {
                Op::Acquire => { let _ = r.try_acquire(t); }
                Op::Release => {
                    if r.in_use() > 0 {
                        r.release(t);
                    }
                }
                Op::Fail(n) => { let _ = r.fail_streams(n); }
                Op::Recover(n) => { let _ = r.recover_streams(n); }
                Op::RecordDenial(transient) => r.record_denials(1, transient),
                Op::Rebaseline => r.rebaseline(t),
            }
            prop_assert_eq!(
                r.in_use() + r.free().unwrap() + r.failed(), cap,
                "conservation after {:?}", op
            );
            prop_assert!(r.failed() <= cap);
            prop_assert_eq!(
                r.denied_total(), r.denied_transient() + r.denied_permanent()
            );
        }
    }

    /// An unbounded reserve never fails streams and never runs out.
    #[test]
    fn unbounded_reserve_never_fails(
        fails in proptest::collection::vec(0u32..8, 40),
    ) {
        let mut r = StreamReserve::unbounded();
        for (i, n) in fails.iter().enumerate() {
            prop_assert!(r.try_acquire(i as f64));
            prop_assert_eq!(r.fail_streams(*n), 0);
            prop_assert_eq!(r.failed(), 0);
        }
    }

    /// Generated fault plans are well-formed: time-sorted, sized as
    /// requested, every event inside the horizon, and `events_at`
    /// returns exactly the events scheduled at that tick. Generation is
    /// a pure function of `(seed, horizon, count)`.
    #[test]
    fn generated_plans_are_sorted_and_bounded(
        seed in 0u64..u64::MAX,
        horizon in 16u64..2000,
        count in 0u32..12,
    ) {
        let plan = FaultPlan::generate(seed, horizon, count);
        prop_assert_eq!(plan.len(), count as usize);
        let events = plan.events();
        for pair in events.windows(2) {
            prop_assert!(pair[0].at <= pair[1].at, "events time-sorted");
        }
        for ev in events {
            prop_assert!(ev.at < horizon);
            prop_assert!(plan.events_at(ev.at).iter().any(|e| e == ev));
        }
        // Per-tick slices partition the plan: summing over distinct
        // ticks recovers every event exactly once.
        let mut ticks: Vec<u64> = events.iter().map(|e| e.at).collect();
        ticks.dedup();
        let exact: usize = ticks.iter().map(|&t| plan.events_at(t).len()).sum();
        prop_assert_eq!(exact, count as usize);
        // Determinism: same inputs, same plan.
        prop_assert_eq!(plan.clone(), FaultPlan::generate(seed, horizon, count));
        // Off-plan ticks yield empty slices.
        prop_assert!(plan.events_at(horizon + 1).is_empty());
    }
}
