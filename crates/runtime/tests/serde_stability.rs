//! Serde-stability armor for the chaos-report wire formats: golden
//! strings pin the exact JSON every fault kind and metrics struct emits
//! (so report consumers can diff byte-for-byte across releases), and
//! round-trip properties pin `FaultPlan::from_json` as the exact
//! inverse of `to_json` — including rejection of malformed input.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use vod_runtime::{FaultEvent, FaultKind, FaultPlan, FederationMetrics, RuntimeMetrics};

/// One event of each of the seven fault kinds, at distinct ticks.
fn one_of_each() -> Vec<FaultEvent> {
    vec![
        FaultEvent {
            at: 5,
            kind: FaultKind::DiskStreamLoss { count: 3 },
        },
        FaultEvent {
            at: 7,
            kind: FaultKind::DiskOutage {
                count: 2,
                recover_after: 30,
            },
        },
        FaultEvent {
            at: 9,
            kind: FaultKind::DiskSlowdown {
                period: 2,
                duration: 40,
            },
        },
        FaultEvent {
            at: 11,
            kind: FaultKind::BufferShrink { segments: 8 },
        },
        FaultEvent {
            at: 13,
            kind: FaultKind::BufferRestore { segments: 8 },
        },
        FaultEvent {
            at: 15,
            kind: FaultKind::ShardOutage { shard: 1 },
        },
        FaultEvent {
            at: 17,
            kind: FaultKind::ShardRecovery { shard: 1 },
        },
    ]
}

#[test]
fn fault_event_json_is_golden_for_every_kind() {
    let golden = [
        r#"{"at":5,"kind":"disk_stream_loss","count":3}"#,
        r#"{"at":7,"kind":"disk_outage","count":2,"recover_after":30}"#,
        r#"{"at":9,"kind":"disk_slowdown","period":2,"duration":40}"#,
        r#"{"at":11,"kind":"buffer_shrink","segments":8}"#,
        r#"{"at":13,"kind":"buffer_restore","segments":8}"#,
        r#"{"at":15,"kind":"shard_outage","shard":1}"#,
        r#"{"at":17,"kind":"shard_recovery","shard":1}"#,
    ];
    for (event, want) in one_of_each().iter().zip(golden) {
        assert_eq!(event.to_json(), want, "frozen shape of {:?}", event.kind);
    }
}

#[test]
fn fault_plan_round_trips_through_json() {
    let plan = FaultPlan::new(one_of_each());
    let json = plan.to_json();
    assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
    // Whitespace tolerance on the way back in.
    let spaced = json.replace(',', " , ").replace('{', " { ");
    assert_eq!(FaultPlan::from_json(&spaced).unwrap(), plan);
    // An escaped spelling of a known kind is that kind.
    let escaped = json.replace("disk_stream_loss", r"disk\u005fstream_loss");
    assert_ne!(escaped, json);
    assert_eq!(FaultPlan::from_json(&escaped).unwrap(), plan);
    // The empty plan is `[]` both ways.
    assert_eq!(FaultPlan::empty().to_json(), "[]");
    assert_eq!(FaultPlan::from_json("[]").unwrap(), FaultPlan::empty());
}

#[test]
fn generated_plans_round_trip_bitwise() {
    for seed in [0u64, 9, 41, u64::MAX] {
        let single = FaultPlan::generate(seed, 1440, 12);
        assert_eq!(FaultPlan::from_json(&single.to_json()).unwrap(), single);
        for shards in [1, 2, 4] {
            let fed = FaultPlan::generate_federation(seed, 1440, 12, shards);
            assert_eq!(FaultPlan::from_json(&fed.to_json()).unwrap(), fed);
        }
    }
}

#[test]
fn malformed_plans_are_errors_not_silent_drops() {
    for bad in [
        "",                                                                    // no array
        "[",                                                                   // unterminated
        r#"[{"at":5,"kind":"disk_stream_loss","count":3}"#,                    // missing ]
        r#"[{"at":5,"kind":"warp_core_breach","count":3}]"#,                   // unknown kind
        r#"[{"kind":"disk_stream_loss","count":3}]"#,                          // missing at
        r#"[{"at":5,"kind":"disk_stream_loss"}]"#,                             // missing params
        r#"[{"at":5,"kind":"shard_outage","shard":1}] []"#,                    // trailing input
        r#"[{"at":-5,"kind":"shard_outage","shard":1}]"#,                      // negative tick
        r#"[{"at":5,"kind":"disk_stream_loss","count":4,"bogus":7}]"#,         // unknown key
        r#"[{"at":5,"kind":"disk_stream_loss","count":4,"recover_after":3}]"#, // another kind's key
        r#"[{"at":5,"at":9,"kind":"disk_stream_loss","count":4}]"#,            // repeated key
        r#"[{"at":5,"kind":"disk_stream_loss","count":4,"count":1}]"#,         // repeated parameter
    ] {
        assert!(FaultPlan::from_json(bad).is_err(), "must reject: {bad:?}");
    }
}

#[test]
fn runtime_metrics_json_schema_and_key_order_are_frozen() {
    assert_eq!(RuntimeMetrics::SCHEMA_VERSION, 2);
    let json = RuntimeMetrics::new().to_json();
    // Keys appear in exactly this order — consumers diff reports by
    // byte, so reordering is a breaking change even when values match.
    let keys = [
        "schema_version",
        "hit_ratio",
        "resume_hits",
        "resume_trials",
        "per_kind",
        "ff_end",
        "rw_truncated",
        "vcr_denied",
        "resume_starved",
        "acquisition_attempts",
        "restart_failures",
        "buffer_minutes",
        "disk_minutes",
        "dedicated_avg",
        "dedicated_peak",
        "denied_transient",
        "denied_permanent",
        "faults_injected",
        "degraded_entries",
        "degraded_rejoined",
        "degraded_dedicated",
        "rewait_minutes",
        "stall_minutes",
    ];
    let read = vod_runtime::json::parse(&json).unwrap();
    let written: Vec<&str> = read.fields().unwrap().iter().map(|(k, _)| &**k).collect();
    assert_eq!(written, keys);
    assert!(json.starts_with("{\"schema_version\":2,"));
}

#[test]
fn federation_metrics_json_is_golden() {
    assert_eq!(FederationMetrics::SCHEMA_VERSION, 1);
    assert_eq!(
        FederationMetrics::new().to_json(),
        concat!(
            "{\"schema_version\":1,",
            "\"admissions_routed\":0,\"admissions_rerouted\":0,",
            "\"admissions_denied\":0,\"shard_outages\":0,",
            "\"shard_recoveries\":0,\"displaced_total\":0,",
            "\"readmitted_cohort\":0,\"readmitted_dedicated\":0,",
            "\"denied_transient\":0,\"denied_permanent\":0,",
            "\"readmit_refusals\":0,\"rewait_ticks\":0}"
        )
    );
}
