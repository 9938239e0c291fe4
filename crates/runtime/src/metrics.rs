//! The unified measurement vocabulary shared by the tick server and the
//! event simulator.

use vod_workload::{Ratio, VcrKind};

/// Index of a [`VcrKind`] in per-kind arrays: `[FF, RW, PAU]`.
pub fn kind_index(kind: VcrKind) -> usize {
    match kind {
        VcrKind::FastForward => 0,
        VcrKind::Rewind => 1,
        VcrKind::Pause => 2,
    }
}

/// Escape `s` for embedding in a JSON string literal — the one escaper
/// every report writer uses for violation and failure text.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// `items` as a one-line JSON array of escaped string literals.
pub fn json_string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", escape_json(s)))
        .collect();
    format!("[{}]", quoted.join(","))
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

    /// Merge another run's counters into this one (occupancy statistics
    /// are not mergeable without their time bases; the incoming
    /// `dedicated_avg`/`dedicated_peak` are combined as max).
    pub fn merge(&mut self, other: &RuntimeMetrics) {
        self.resumes.merge(&other.resumes);
        for k in 0..3 {
            self.resumes_by_kind[k].merge(&other.resumes_by_kind[k]);
        }
        self.ff_end += other.ff_end;
        self.rw_truncated += other.rw_truncated;
        self.vcr_denied += other.vcr_denied;
        self.resume_starved += other.resume_starved;
        self.acquisition_attempts += other.acquisition_attempts;
        self.restart_failures += other.restart_failures;
        self.buffer_minutes += other.buffer_minutes;
        self.disk_minutes += other.disk_minutes;
        self.dedicated_avg = self.dedicated_avg.max(other.dedicated_avg);
        self.dedicated_peak = self.dedicated_peak.max(other.dedicated_peak);
        self.denied_transient += other.denied_transient;
        self.denied_permanent += other.denied_permanent;
        self.faults_injected += other.faults_injected;
        self.degraded_entries += other.degraded_entries;
        self.degraded_rejoined += other.degraded_rejoined;
        self.degraded_dedicated += other.degraded_dedicated;
        self.rewait_minutes += other.rewait_minutes;
        self.stall_minutes += other.stall_minutes;
    }

    /// Counters in `later` that went *backwards* relative to `self`
    /// (field names). Every cumulative counter must be non-decreasing
    /// tick over tick; the chaos harness checks this each tick.
    /// Occupancy statistics (`dedicated_avg`/`dedicated_peak`) are
    /// time-averaged/windowed, not cumulative, and are excluded.
    pub fn monotone_violations(&self, later: &RuntimeMetrics) -> Vec<&'static str> {
        let mut bad = Vec::new();
        let u64_fields: [(&'static str, u64, u64); 16] = [
            ("resume_hits", self.resumes.hits(), later.resumes.hits()),
            (
                "resume_trials",
                self.resumes.trials(),
                later.resumes.trials(),
            ),
            ("ff_end", self.ff_end, later.ff_end),
            ("rw_truncated", self.rw_truncated, later.rw_truncated),
            ("vcr_denied", self.vcr_denied, later.vcr_denied),
            ("resume_starved", self.resume_starved, later.resume_starved),
            (
                "acquisition_attempts",
                self.acquisition_attempts,
                later.acquisition_attempts,
            ),
            (
                "restart_failures",
                self.restart_failures,
                later.restart_failures,
            ),
            (
                "denied_transient",
                self.denied_transient,
                later.denied_transient,
            ),
            (
                "denied_permanent",
                self.denied_permanent,
                later.denied_permanent,
            ),
            (
                "faults_injected",
                self.faults_injected,
                later.faults_injected,
            ),
            (
                "degraded_entries",
                self.degraded_entries,
                later.degraded_entries,
            ),
            (
                "degraded_rejoined",
                self.degraded_rejoined,
                later.degraded_rejoined,
            ),
            (
                "degraded_dedicated",
                self.degraded_dedicated,
                later.degraded_dedicated,
            ),
            (
                "ff_trials",
                self.resumes_by_kind[0].trials(),
                later.resumes_by_kind[0].trials(),
            ),
            (
                "rw_trials",
                self.resumes_by_kind[1].trials(),
                later.resumes_by_kind[1].trials(),
            ),
        ];
        for (name, before, after) in u64_fields {
            if after < before {
                bad.push(name);
            }
        }
        let f64_fields: [(&'static str, f64, f64); 4] = [
            ("buffer_minutes", self.buffer_minutes, later.buffer_minutes),
            ("disk_minutes", self.disk_minutes, later.disk_minutes),
            ("rewait_minutes", self.rewait_minutes, later.rewait_minutes),
            ("stall_minutes", self.stall_minutes, later.stall_minutes),
        ];
        for (name, before, after) in f64_fields {
            if after < before {
                bad.push(name);
            }
        }
        bad
    }

    /// JSON object (one line, stable key order) for bench bins that diff
    /// server-vs-sim-vs-model runs.
    pub fn to_json(&self) -> String {
        let kinds = ["ff", "rw", "pau"];
        let per_kind = kinds
            .iter()
            .zip(&self.resumes_by_kind)
            .map(|(label, r)| {
                format!(
                    "\"{label}\":{{\"hits\":{},\"trials\":{},\"ratio\":{}}}",
                    r.hits(),
                    r.trials(),
                    r.value()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"hit_ratio\":{},\"resume_hits\":{},\"resume_trials\":{},",
                "\"per_kind\":{{{}}},\"ff_end\":{},\"rw_truncated\":{},",
                "\"vcr_denied\":{},\"resume_starved\":{},",
                "\"acquisition_attempts\":{},\"restart_failures\":{},",
                "\"buffer_minutes\":{},\"disk_minutes\":{},",
                "\"dedicated_avg\":{},\"dedicated_peak\":{},",
                "\"denied_transient\":{},\"denied_permanent\":{},",
                "\"faults_injected\":{},\"degraded_entries\":{},",
                "\"degraded_rejoined\":{},\"degraded_dedicated\":{},",
                "\"rewait_minutes\":{},\"stall_minutes\":{}}}"
            ),
            Self::SCHEMA_VERSION,
            self.hit_ratio(),
            self.resumes.hits(),
            self.resumes.trials(),
            per_kind,
            self.ff_end,
            self.rw_truncated,
            self.vcr_denied,
            self.resume_starved,
            self.acquisition_attempts,
            self.restart_failures,
            self.buffer_minutes,
            self.disk_minutes,
            self.dedicated_avg,
            self.dedicated_peak,
            self.denied_transient,
            self.denied_permanent,
            self.faults_injected,
            self.degraded_entries,
            self.degraded_rejoined,
            self.degraded_dedicated,
            self.rewait_minutes,
            self.stall_minutes,
        )
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
    pub fn monotone_violations(&self, later: &FederationMetrics) -> Vec<&'static str> {
        let fields: [(&'static str, u64, u64); 12] = [
            (
                "admissions_routed",
                self.admissions_routed,
                later.admissions_routed,
            ),
            (
                "admissions_rerouted",
                self.admissions_rerouted,
                later.admissions_rerouted,
            ),
            (
                "admissions_denied",
                self.admissions_denied,
                later.admissions_denied,
            ),
            ("shard_outages", self.shard_outages, later.shard_outages),
            (
                "shard_recoveries",
                self.shard_recoveries,
                later.shard_recoveries,
            ),
            (
                "displaced_total",
                self.displaced_total,
                later.displaced_total,
            ),
            (
                "readmitted_cohort",
                self.readmitted_cohort,
                later.readmitted_cohort,
            ),
            (
                "readmitted_dedicated",
                self.readmitted_dedicated,
                later.readmitted_dedicated,
            ),
            (
                "denied_transient",
                self.denied_transient,
                later.denied_transient,
            ),
            (
                "denied_permanent",
                self.denied_permanent,
                later.denied_permanent,
            ),
            (
                "readmit_refusals",
                self.readmit_refusals,
                later.readmit_refusals,
            ),
            ("rewait_ticks", self.rewait_ticks, later.rewait_ticks),
        ];
        let mut bad = Vec::new();
        for (name, before, after) in fields {
            if after < before {
                bad.push(name);
            }
        }
        bad
    }

    /// JSON object (one line, stable key order) for the federation bench.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"admissions_routed\":{},\"admissions_rerouted\":{},",
                "\"admissions_denied\":{},\"shard_outages\":{},",
                "\"shard_recoveries\":{},\"displaced_total\":{},",
                "\"readmitted_cohort\":{},\"readmitted_dedicated\":{},",
                "\"denied_transient\":{},\"denied_permanent\":{},",
                "\"readmit_refusals\":{},\"rewait_ticks\":{}}}"
            ),
            Self::SCHEMA_VERSION,
            self.admissions_routed,
            self.admissions_rerouted,
            self.admissions_denied,
            self.shard_outages,
            self.shard_recoveries,
            self.displaced_total,
            self.readmitted_cohort,
            self.readmitted_dedicated,
            self.denied_transient,
            self.denied_permanent,
            self.readmit_refusals,
            self.rewait_ticks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every character a violation message can carry leaves the report
    /// valid JSON: quote, backslash, newline and a raw control byte.
    #[test]
    fn escaper_handles_quote_backslash_newline_and_control_bytes() {
        let nasty = "lease \"drift\" at C:\\pool\nnext\u{1}line\ttab\r";
        assert_eq!(
            escape_json(nasty),
            "lease \\\"drift\\\" at C:\\\\pool\\nnext\\u0001line\\ttab\\r"
        );
        assert_eq!(escape_json("plain text"), "plain text");
        assert_eq!(
            json_string_array(&[nasty.to_string(), "ok".to_string()]),
            format!("[\"{}\",\"ok\"]", escape_json(nasty))
        );
        assert_eq!(json_string_array(&[]), "[]");
        assert!(!escape_json(nasty).chars().any(|c| (c as u32) < 0x20));
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
    fn merge_sums_counters() {
        let mut a = RuntimeMetrics::new();
        a.record_resume(VcrKind::Rewind, true);
        a.vcr_denied = 2;
        a.dedicated_avg = 1.5;
        let mut b = RuntimeMetrics::new();
        b.record_resume(VcrKind::Rewind, false);
        b.vcr_denied = 3;
        b.dedicated_avg = 0.5;
        a.merge(&b);
        assert_eq!(a.resumes.trials(), 2);
        assert_eq!(a.vcr_denied, 5);
        assert_eq!(a.dedicated_avg, 1.5);
    }

    #[test]
    fn merge_sums_fault_fields() {
        let mut a = RuntimeMetrics::new();
        a.denied_transient = 1;
        a.faults_injected = 2;
        a.rewait_minutes = 3.0;
        let mut b = RuntimeMetrics::new();
        b.denied_transient = 4;
        b.denied_permanent = 5;
        b.degraded_entries = 6;
        b.rewait_minutes = 1.5;
        a.merge(&b);
        assert_eq!(a.denied_transient, 5);
        assert_eq!(a.denied_permanent, 5);
        assert_eq!(a.faults_injected, 2);
        assert_eq!(a.degraded_entries, 6);
        assert_eq!(a.rewait_minutes, 4.5);
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
        assert!(bad.contains(&"vcr_denied"));
        assert!(bad.contains(&"stall_minutes"));
        assert_eq!(bad.len(), 2);
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
        assert!(j.contains("\"denied_transient\":0"));
        assert!(j.contains("\"stall_minutes\":0"));
        assert!(j.contains("\"hit_ratio\":1"));
        assert!(j.contains("\"buffer_minutes\":12.5"));
        assert!(j.contains("\"ff\":{\"hits\":1,\"trials\":1"));
        // Identical metrics serialize identically (the determinism check
        // the cross-validation harness relies on).
        let mut m2 = RuntimeMetrics::new();
        m2.record_resume(VcrKind::FastForward, true);
        m2.buffer_minutes = 12.5;
        assert_eq!(m, m2);
        assert_eq!(j, m2.to_json());
    }
}
