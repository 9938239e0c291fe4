//! Property-based test of [`RetryLedger`]: under either policy and an
//! arbitrary pattern of grants and recoveries the ledger honours the
//! re-wait bound, backs off monotonically up to the cap, and hands every
//! refusal out for classification exactly once.

#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

use vod_runtime::{
    DegradePolicy, RetryLedger, RetryStep, RETRY_BACKOFF_CAP, RETRY_TIMEOUT, REWAIT_BOUND,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ledger_bounds_backoff_and_resolves_each_refusal_once(
        since in 0u64..50,
        recovery_wins in 0u32..2,
        pending in 0u64..2,
        // Bit `i`: the `i`-th attempt is granted / tick `since + i` sees a recovery.
        grants in 0u64..u64::MAX,
        recoveries in 0u64..u64::MAX,
    ) {
        let policy = DegradePolicy {
            recovery_wins: recovery_wins == 1,
        };
        let mut ledger = RetryLedger::enter(since, pending);
        let (mut refusals, mut resolved, mut attempts) = (0u64, 0u64, 0u32);
        let mut finished = false;
        for now in since..since + 200 {
            let age = now - since;
            let recovered_at = (age < 64 && recoveries >> age & 1 == 1).then_some(now);
            let step = ledger.step(now, &policy, recovered_at);
            if finished {
                prop_assert_eq!(step, RetryStep::Wait, "a finished ledger attempts nothing");
                continue;
            }
            match step {
                RetryStep::Wait => {}
                RetryStep::TimedOut => {
                    prop_assert!(age >= RETRY_TIMEOUT);
                    resolved += ledger.time_out();
                    finished = true;
                }
                RetryStep::Attempt { last_chance } => {
                    prop_assert!(age >= REWAIT_BOUND, "attempt inside the re-wait bound");
                    prop_assert_eq!(last_chance, age >= RETRY_TIMEOUT);
                    if last_chance {
                        prop_assert!(policy.recovery_wins && recovered_at == Some(now));
                    }
                    let granted = attempts < 64 && grants >> attempts & 1 == 1;
                    attempts += 1;
                    if granted {
                        // The driver replaces a granted session's state:
                        // the ledger's life ends here.
                        resolved += ledger.resolve();
                        break;
                    }
                    let (before, next_before) = (ledger.backoff(), ledger.next_retry());
                    ledger.refuse(now);
                    refusals += 1;
                    prop_assert_eq!(ledger.backoff(), (before * 2).min(RETRY_BACKOFF_CAP));
                    prop_assert!(ledger.next_retry() > next_before, "next_retry not increasing");
                    prop_assert_eq!(ledger.next_retry(), now + ledger.backoff());
                    prop_assert_eq!(ledger.pending_denials(), pending + refusals);
                    if last_chance {
                        resolved += ledger.time_out();
                        finished = true;
                    }
                }
            }
        }
        // Un-granted and un-timed-out only if the timeout lies beyond the
        // horizon; whatever is still pending resolves when the session ends.
        resolved += ledger.resolve();
        prop_assert_eq!(resolved, pending + refusals, "each refusal resolves exactly once");
        prop_assert_eq!(ledger.resolve(), 0);
    }
}
