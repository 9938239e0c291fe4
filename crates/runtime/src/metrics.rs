//! The unified measurement vocabulary shared by the tick server and the
//! event simulator.

use vod_workload::{Ratio, VcrKind};

use crate::json::{Json, Layout};

/// Index of a [`VcrKind`] in per-kind arrays: `[FF, RW, PAU]`.
pub fn kind_index(kind: VcrKind) -> usize {
    match kind {
        VcrKind::FastForward => 0,
        VcrKind::Rewind => 1,
        VcrKind::Pause => 2,
    }
}

/// Names of the numbers in the report `before` that are smaller in the
/// same-shaped report `after` (nested ones dotted): every `u64` and `f64`
/// field except the `windowed` names.
fn backwards(before: &Json, after: &Json, windowed: &[&str], prefix: &str, bad: &mut Vec<String>) {
    let (Some(before), Some(after)) = (before.fields(), after.fields()) else {
        return;
    };
    for ((key, old), (_, new)) in before.iter().zip(after) {
        let went_back = match (old, new) {
            (Json::U64(old), Json::U64(new)) => new < old,
            (Json::F64(old), Json::F64(new)) => new < old,
            _ => false,
        };
        if went_back && !windowed.contains(&key.as_ref()) {
            bad.push(format!("{prefix}{key}"));
        } else if old.fields().is_some() {
            backwards(old, new, windowed, &format!("{prefix}{key}."), bad);
        }
    }
}

/// Mechanism-level counters with **one meaning each**, measured
/// identically by `vod-server` and `vod-sim` so their reports can be
/// diffed field by field (and against the analytic model's `P(hit)`).
///
/// Where the drivers' *recovery policies* legitimately differ, the
/// difference is documented on the field; the event being counted is the
/// same on both sides.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeMetrics {
    /// VCR resume classifications across all kinds: a trial per resume,
    /// a hit iff a live window covered the resume position. An FF that
    /// runs off the movie end counts as a hit (the model's `P(end)`
    /// release path; the simulator can opt out for experiments).
    pub resumes: Ratio,
    /// Resume classifications split by operation kind, `[FF, RW, PAU]`.
    pub resumes_by_kind: [Ratio; 3],
    /// Fast-forwards that ran off the end of the movie.
    pub ff_end: u64,
    /// Rewinds truncated at the movie start.
    pub rw_truncated: u64,
    /// FF/RW requests **denied at issue time** because the dedicated
    /// reserve was exhausted. The viewer stays in their batch (Erlang
    /// loss); nothing is swept and no resume trial is recorded.
    pub vcr_denied: u64,
    /// Missed resumes that found the reserve empty — the viewer needed a
    /// phase-2 stream and none was free. Recovery differs by driver and
    /// is a policy, not a semantic: the simulator clears the viewer
    /// (blocked customers cleared), the server keeps the session paused
    /// and retries next tick.
    pub resume_starved: u64,
    /// Dedicated-stream acquisition attempts (grants + refusals), the
    /// denominator for Erlang-loss comparisons.
    pub acquisition_attempts: u64,
    /// Scheduled restarts that could not acquire a disk stream. Always 0
    /// on a correctly sized server; structurally 0 in the simulator,
    /// whose restart schedule is implicit (it cannot fail).
    pub restart_failures: u64,
    /// Playback minutes served from buffer partitions (batched service).
    /// The server counts delivered segments exactly; the simulator
    /// accumulates playback intervals, so fractional minutes appear.
    pub buffer_minutes: f64,
    /// Playback minutes served through dedicated streams (phase-1 sweeps
    /// plus phase-2 holds).
    pub disk_minutes: f64,
    /// Time-averaged dedicated streams in use over the measured window.
    pub dedicated_avg: f64,
    /// Peak dedicated streams in use over the measured window.
    pub dedicated_peak: f64,
    /// Dedicated-stream denials whose retry later succeeded (classified at
    /// resolution time by [`StreamReserve`](crate::StreamReserve)
    /// accounting). Counted at issue-time denials and at the server's
    /// degraded-session retries; the pre-existing pause-starvation retry
    /// loop keeps its own `resume_starved` counter and is not reclassified.
    pub denied_transient: u64,
    /// Dedicated-stream denials refused for good: issue-time Erlang loss,
    /// or a degraded session whose retry sequence timed out.
    pub denied_permanent: u64,
    /// Fault events actually applied by the driver (a sim run ignores
    /// tick-grid-only kinds such as disk slowdown and does not count them).
    pub faults_injected: u64,
    /// Sessions that entered the degraded re-wait state after losing their
    /// stream or partition (server-only; the sim has no session objects to
    /// degrade — capacity faults surface there as denials/starvation).
    pub degraded_entries: u64,
    /// Degraded sessions recovered by a partition window sweeping back
    /// over their position (batch rejoin — the free path).
    pub degraded_rejoined: u64,
    /// Degraded sessions recovered by a successful dedicated-stream retry.
    pub degraded_dedicated: u64,
    /// Viewer-minutes spent in the degraded re-wait state.
    pub rewait_minutes: f64,
    /// Viewer-minutes in which delivery stalled because the disk was in a
    /// slowdown fault and the session's segment was not yet produced.
    pub stall_minutes: f64,
}

impl RuntimeMetrics {
    /// Version of the JSON shape emitted by [`RuntimeMetrics::to_json`];
    /// bumped whenever fields are added or renamed so `results/*.json`
    /// consumers can detect shape changes. Version 2 added the fault /
    /// degradation fields and this marker itself (version 1 had neither).
    pub const SCHEMA_VERSION: u32 = 2;

    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one resume classification (overall and per-kind).
    pub fn record_resume(&mut self, kind: VcrKind, hit: bool) {
        self.resumes.push(hit);
        self.resumes_by_kind[kind_index(kind)].push(hit);
    }

    /// Resume classifications for one kind.
    pub fn resume_ratio(&self, kind: VcrKind) -> &Ratio {
        &self.resumes_by_kind[kind_index(kind)]
    }

    /// Overall resume hit ratio (0 when no resumes were observed).
    pub fn hit_ratio(&self) -> f64 {
        self.resumes.value()
    }

    /// Fraction of all delivered playback minutes served from memory.
    pub fn buffer_service_fraction(&self) -> f64 {
        let total = self.buffer_minutes + self.disk_minutes;
        if total <= 0.0 {
            0.0
        } else {
            self.buffer_minutes / total
        }
    }

    /// Counters in `later` that went *backwards* relative to `self`
    /// (field names, nested ones dotted: `per_kind.pau.trials`). Every
    /// cumulative number [`Self::json`] reports must be non-decreasing
    /// tick over tick; the chaos harness checks this each tick. The
    /// ratios are derived and the occupancy statistics
    /// (`dedicated_avg`/`dedicated_peak`) are time-averaged/windowed, not
    /// cumulative, and are excluded.
    pub fn monotone_violations(&self, later: &RuntimeMetrics) -> Vec<String> {
        let windowed = ["hit_ratio", "ratio", "dedicated_avg", "dedicated_peak"];
        let mut bad = Vec::new();
        backwards(&self.json(), &later.json(), &windowed, "", &mut bad);
        bad
    }

    /// The report object: every counter named once, in the frozen key
    /// order (`schema_version` first so consumers can sniff the shape).
    pub fn json(&self) -> Json {
        let ratio = |r: &Ratio| {
            let (hits, trials) = (r.hits().into(), r.trials().into());
            let fields = [
                ("hits", hits),
                ("trials", trials),
                ("ratio", r.value().into()),
            ];
            Json::object(Layout::Compact, fields)
        };
        let [ff, rw, pau] = &self.resumes_by_kind;
        let per_kind = [("ff", ratio(ff)), ("rw", ratio(rw)), ("pau", ratio(pau))];
        Json::object(
            Layout::Compact,
            [
                ("schema_version", Self::SCHEMA_VERSION.into()),
                ("hit_ratio", self.hit_ratio().into()),
                ("resume_hits", self.resumes.hits().into()),
                ("resume_trials", self.resumes.trials().into()),
                ("per_kind", Json::object(Layout::Compact, per_kind)),
                ("ff_end", self.ff_end.into()),
                ("rw_truncated", self.rw_truncated.into()),
                ("vcr_denied", self.vcr_denied.into()),
                ("resume_starved", self.resume_starved.into()),
                ("acquisition_attempts", self.acquisition_attempts.into()),
                ("restart_failures", self.restart_failures.into()),
                ("buffer_minutes", self.buffer_minutes.into()),
                ("disk_minutes", self.disk_minutes.into()),
                ("dedicated_avg", self.dedicated_avg.into()),
                ("dedicated_peak", self.dedicated_peak.into()),
                ("denied_transient", self.denied_transient.into()),
                ("denied_permanent", self.denied_permanent.into()),
                ("faults_injected", self.faults_injected.into()),
                ("degraded_entries", self.degraded_entries.into()),
                ("degraded_rejoined", self.degraded_rejoined.into()),
                ("degraded_dedicated", self.degraded_dedicated.into()),
                ("rewait_minutes", self.rewait_minutes.into()),
                ("stall_minutes", self.stall_minutes.into()),
            ],
        )
    }

    /// [`Self::json`] as text (one line, stable key order) for bench bins
    /// that diff server-vs-sim-vs-model runs.
    pub fn to_json(&self) -> String {
        self.json().render()
    }
}

/// Front-tier counters of a shard federation: admission routing and the
/// displaced-session ledger whole-shard outages feed. Kept separate from
/// [`RuntimeMetrics`] (whose JSON shape is frozen at schema 2) — per-shard
/// runtime metrics still use that vocabulary; this struct only measures
/// what the federation layer itself does between the shards.
///
/// The conservation contract: every session displaced by a
/// [`ShardOutage`](crate::FaultKind::ShardOutage) resolves in exactly one
/// of {re-admitted into a batch cohort, re-admitted on a dedicated
/// stream, denied-transient, denied-permanent} or is still in flight, so
///
/// ```text
/// displaced_total == readmitted_cohort + readmitted_dedicated
///                  + denied_transient + denied_permanent + in flight
/// ```
///
/// holds on every tick ([`FederationMetrics::conserved`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederationMetrics {
    /// Admissions routed to a shard by the placement map's first live
    /// replica.
    pub admissions_routed: u64,
    /// Admissions that skipped one or more dead replicas before landing
    /// (a strict subset of `admissions_routed`).
    pub admissions_rerouted: u64,
    /// Admissions refused because every replica of the movie was dark.
    pub admissions_denied: u64,
    /// Whole-shard outage events applied by the front tier.
    pub shard_outages: u64,
    /// Whole-shard recovery events applied by the front tier.
    pub shard_recoveries: u64,
    /// Live sessions displaced from shards taken down (ledger entries
    /// ever created).
    pub displaced_total: u64,
    /// Displaced sessions re-admitted into an in-window batch cohort on
    /// a surviving replica.
    pub readmitted_cohort: u64,
    /// Displaced sessions re-admitted by borrowing a surviving shard's
    /// dedicated-stream reserve.
    pub readmitted_dedicated: u64,
    /// Displaced sessions that timed out while their movie was still
    /// recoverable (a replica up, or a scheduled shard recovery ahead).
    pub denied_transient: u64,
    /// Displaced sessions denied for good: every hosting replica dark
    /// with no recovery scheduled.
    pub denied_permanent: u64,
    /// Re-admission attempts refused by a surviving shard (backoff
    /// retries keep the session in the ledger).
    pub readmit_refusals: u64,
    /// Ticks displaced sessions spent waiting in the ledger.
    pub rewait_ticks: u64,
}

impl FederationMetrics {
    /// Version of the JSON shape emitted by
    /// [`FederationMetrics::to_json`]; bumped on any field addition or
    /// rename so `results/FEDERATION_REPORT.json` consumers can detect
    /// drift.
    pub const SCHEMA_VERSION: u32 = 1;

    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Does the displaced-session ledger balance, given `in_flight`
    /// entries still unresolved? See the type docs for the identity.
    pub fn conserved(&self, in_flight: u64) -> bool {
        let resolved = self
            .readmitted_cohort
            .checked_add(self.readmitted_dedicated)
            .and_then(|s| s.checked_add(self.denied_transient))
            .and_then(|s| s.checked_add(self.denied_permanent))
            .and_then(|s| s.checked_add(in_flight));
        resolved == Some(self.displaced_total)
    }

    /// Counters in `later` that went backwards relative to `self` (every
    /// federation counter is cumulative; there are no windowed fields).
    pub fn monotone_violations(&self, later: &FederationMetrics) -> Vec<String> {
        let mut bad = Vec::new();
        backwards(&self.json(), &later.json(), &[], "", &mut bad);
        bad
    }

    /// The report object: every counter named once, in the frozen key
    /// order.
    pub fn json(&self) -> Json {
        Json::object(
            Layout::Compact,
            [
                ("schema_version", Self::SCHEMA_VERSION.into()),
                ("admissions_routed", self.admissions_routed.into()),
                ("admissions_rerouted", self.admissions_rerouted.into()),
                ("admissions_denied", self.admissions_denied.into()),
                ("shard_outages", self.shard_outages.into()),
                ("shard_recoveries", self.shard_recoveries.into()),
                ("displaced_total", self.displaced_total.into()),
                ("readmitted_cohort", self.readmitted_cohort.into()),
                ("readmitted_dedicated", self.readmitted_dedicated.into()),
                ("denied_transient", self.denied_transient.into()),
                ("denied_permanent", self.denied_permanent.into()),
                ("readmit_refusals", self.readmit_refusals.into()),
                ("rewait_ticks", self.rewait_ticks.into()),
            ],
        )
    }

    /// [`Self::json`] as text (one line, stable key order) for the
    /// federation bench.
    pub fn to_json(&self) -> String {
        self.json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Every character a violation message can carry leaves the report
    /// valid JSON — quote, backslash, newline and a raw control byte — in
    /// exactly the bytes the gated reports have always had.
    #[test]
    fn escaper_handles_quote_backslash_newline_and_control_bytes() {
        let nasty = "lease \"drift\" at C:\\pool\nnext\u{1}line\ttab\r";
        let text = Json::strings(&[nasty.to_string(), "ok".to_string()]).render();
        assert_eq!(
            text,
            "[\"lease \\\"drift\\\" at C:\\\\pool\\nnext\\u0001line\\ttab\\r\",\"ok\"]"
        );
        assert!(!text.chars().any(|c| (c as u32) < 0x20));
        assert_eq!(
            json::parse(&text).unwrap().items().unwrap()[0].as_str(),
            Some(nasty)
        );
        assert_eq!(Json::strings(&[]).render(), "[]");
    }

    #[test]
    fn federation_ledger_conservation() {
        let mut m = FederationMetrics::new();
        assert!(m.conserved(0));
        m.displaced_total = 10;
        m.readmitted_cohort = 4;
        m.readmitted_dedicated = 2;
        m.denied_transient = 1;
        m.denied_permanent = 1;
        assert!(m.conserved(2));
        assert!(!m.conserved(3));
        assert!(!m.conserved(0));
    }

    #[test]
    fn federation_monotone_flags_regressions() {
        let mut before = FederationMetrics::new();
        before.displaced_total = 5;
        before.rewait_ticks = 7;
        let mut after = before;
        after.displaced_total = 6;
        assert!(before.monotone_violations(&after).is_empty());
        after.rewait_ticks = 3;
        after.readmit_refusals = 0;
        let bad = before.monotone_violations(&after);
        assert_eq!(bad, vec!["rewait_ticks"]);
    }

    #[test]
    fn federation_json_shape_is_pinned() {
        let mut m = FederationMetrics::new();
        m.displaced_total = 3;
        m.readmitted_cohort = 2;
        m.rewait_ticks = 9;
        let j = m.to_json();
        assert_eq!(
            j,
            "{\"schema_version\":1,\"admissions_routed\":0,\
             \"admissions_rerouted\":0,\"admissions_denied\":0,\
             \"shard_outages\":0,\"shard_recoveries\":0,\
             \"displaced_total\":3,\"readmitted_cohort\":2,\
             \"readmitted_dedicated\":0,\"denied_transient\":0,\
             \"denied_permanent\":0,\"readmit_refusals\":0,\
             \"rewait_ticks\":9}"
        );
    }

    #[test]
    fn record_updates_overall_and_kind() {
        let mut m = RuntimeMetrics::new();
        m.record_resume(VcrKind::FastForward, true);
        m.record_resume(VcrKind::Pause, false);
        assert_eq!(m.resumes.trials(), 2);
        assert_eq!(m.resumes.hits(), 1);
        assert_eq!(m.resume_ratio(VcrKind::FastForward).hits(), 1);
        assert_eq!(m.resume_ratio(VcrKind::Pause).trials(), 1);
        assert_eq!(m.resume_ratio(VcrKind::Rewind).trials(), 0);
        assert!((m.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn buffer_fraction() {
        let mut m = RuntimeMetrics::new();
        assert_eq!(m.buffer_service_fraction(), 0.0);
        m.buffer_minutes = 30.0;
        m.disk_minutes = 10.0;
        assert!((m.buffer_service_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn monotone_violations_flags_regressions_only() {
        let mut before = RuntimeMetrics::new();
        before.vcr_denied = 3;
        before.buffer_minutes = 10.0;
        before.dedicated_avg = 2.0;
        let mut after = before.clone();
        after.vcr_denied = 4;
        after.buffer_minutes = 12.0;
        after.dedicated_avg = 1.0; // windowed stat, allowed to fall
        assert!(before.monotone_violations(&after).is_empty());
        after.vcr_denied = 2;
        after.stall_minutes = -1.0;
        let bad = before.monotone_violations(&after);
        assert_eq!(bad, ["vcr_denied", "stall_minutes"]);
        // The list is the report's own, so no counter can be forgotten
        // (the hand-kept one had lost the pause trials).
        before.record_resume(VcrKind::Pause, true);
        let bad = before.monotone_violations(&RuntimeMetrics::new());
        let pau = ["per_kind.pau.hits", "per_kind.pau.trials"];
        assert_eq!(bad[..2], ["resume_hits", "resume_trials"]);
        assert_eq!(bad[2..4], pau);
    }

    #[test]
    fn json_is_parseable_shape() {
        let mut m = RuntimeMetrics::new();
        m.record_resume(VcrKind::FastForward, true);
        m.buffer_minutes = 12.5;
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(
            j.starts_with("{\"schema_version\":2,"),
            "schema marker must lead so consumers can sniff the shape: {j}"
        );
        let read = json::parse(&j).unwrap();
        assert_eq!(read, m.json(), "the reader gives back what was written");
        assert_eq!(read.get("denied_transient").unwrap().as_u64(), Some(0));
        assert_eq!(read.get("stall_minutes").unwrap().as_f64(), Some(0.0));
        assert_eq!(read.get("hit_ratio").unwrap().as_f64(), Some(1.0));
        assert_eq!(read.get("buffer_minutes").unwrap().as_f64(), Some(12.5));
        let ff = read.get("per_kind").unwrap().get("ff").unwrap();
        assert_eq!(ff.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(ff.get("trials").unwrap().as_u64(), Some(1));
        // Identical metrics serialize identically (the determinism check
        // the cross-validation harness relies on).
        let mut m2 = RuntimeMetrics::new();
        m2.record_resume(VcrKind::FastForward, true);
        m2.buffer_minutes = 12.5;
        assert_eq!(m, m2);
        assert_eq!(j, m2.to_json());
    }
}
