//! Deterministic fault injection and graceful-degradation policy knobs.
//!
//! The paper's sizing model assumes pre-allocated disk streams and buffer
//! partitions always deliver; the only failure it prices is a resume miss
//! costing a dedicated stream. This module supplies the vocabulary for the
//! failures the model omits: a [`FaultPlan`] schedules faults at virtual-time
//! tick boundaries (so every run is reproducible from `(seed, plan)` alone),
//! and a [`DegradePolicy`] parameterizes how a driver responds — bounded
//! re-wait for batch viewers, deterministic retry backoff for dedicated
//! streams, and a timeout that falls back to batch admission. The types are
//! driver-agnostic: `vod-server` applies them on its integer tick grid, and
//! `vod-sim` mirrors the capacity effects in continuous time.

use crate::json::{self, Json, Layout};
use crate::{splitmix64, GOLDEN_GAMMA};

/// One kind of injected fault. All parameters are integers on the virtual
/// tick grid, so a plan has a single meaning on every driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Permanently remove `count` disk streams from service. Free streams
    /// fail first; if the free pool is short, in-use streams are revoked
    /// (the server picks victims deterministically).
    DiskStreamLoss {
        /// Streams removed.
        count: u32,
    },
    /// Transient outage: remove `count` disk streams now, restore however
    /// many were actually removed `recover_after` ticks later.
    DiskOutage {
        /// Streams removed at the fault instant.
        count: u32,
        /// Ticks until the removed streams return to service.
        recover_after: u64,
    },
    /// Disk slowdown: for `duration` ticks, streams serve a segment only
    /// on ticks divisible by `period` (so `period = 1` is a no-op and
    /// `period = 2` halves throughput).
    DiskSlowdown {
        /// Serve only every `period`-th tick.
        period: u32,
        /// Ticks the slowdown lasts.
        duration: u64,
    },
    /// Shrink the shared buffer budget by `segments` segments. A driver
    /// that is overcommitted afterwards must evict partitions (degrading
    /// their enrolled viewers) until accounting is conserved again.
    BufferShrink {
        /// Segments removed from the budget.
        segments: u32,
    },
    /// Return `segments` segments to the buffer budget (recovery from an
    /// earlier [`FaultKind::BufferShrink`]).
    BufferRestore {
        /// Segments returned to the budget.
        segments: u32,
    },
    /// Whole-shard outage: federation shard `shard` goes dark at the
    /// fault instant. The front tier drains its live sessions through
    /// the displaced-session ledger; single-server drivers treat the
    /// event as inert (the front tier, not the shard, interprets it).
    ShardOutage {
        /// Federation shard index taken down.
        shard: u32,
    },
    /// Whole-shard recovery: shard `shard` cold-restarts from its
    /// provisioning config (sessions do not survive — the ledger either
    /// re-admitted them elsewhere or resolves them as denials).
    ShardRecovery {
        /// Federation shard index brought back.
        shard: u32,
    },
}

impl FaultKind {
    /// Stable machine-readable tag used in JSON reports.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::DiskStreamLoss { .. } => "disk_stream_loss",
            FaultKind::DiskOutage { .. } => "disk_outage",
            FaultKind::DiskSlowdown { .. } => "disk_slowdown",
            FaultKind::BufferShrink { .. } => "buffer_shrink",
            FaultKind::BufferRestore { .. } => "buffer_restore",
            FaultKind::ShardOutage { .. } => "shard_outage",
            FaultKind::ShardRecovery { .. } => "shard_recovery",
        }
    }

    /// The kind's own parameters, named, in the order the JSON carries
    /// them: what the writer emits and all the reader accepts.
    fn params(&self) -> Vec<(&'static str, u64)> {
        match *self {
            FaultKind::DiskStreamLoss { count } => vec![("count", count.into())],
            FaultKind::DiskOutage {
                count,
                recover_after,
            } => vec![("count", count.into()), ("recover_after", recover_after)],
            FaultKind::DiskSlowdown { period, duration } => {
                vec![("period", period.into()), ("duration", duration)]
            }
            FaultKind::BufferShrink { segments } | FaultKind::BufferRestore { segments } => {
                vec![("segments", segments.into())]
            }
            FaultKind::ShardOutage { shard } | FaultKind::ShardRecovery { shard } => {
                vec![("shard", shard.into())]
            }
        }
    }
}

/// A fault scheduled at a virtual-time tick boundary: applied at the top
/// of tick `at`, before any stream advances or session acts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Tick at which the fault is applied.
    pub at: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The report object: `at`, `kind`, then the kind's parameters.
    pub fn json(&self) -> Json {
        let head = [("at", self.at.into()), ("kind", self.kind.tag().into())];
        let params = self.kind.params().into_iter();
        Json::object(
            Layout::Compact,
            head.into_iter().chain(params.map(|(k, v)| (k, v.into()))),
        )
    }

    /// [`Self::json`] as text (stable key order) for chaos reports.
    pub fn to_json(&self) -> String {
        self.json().render()
    }

    /// Read one event back. Each kind accepts exactly `at`, `kind` and
    /// its own parameters (the reader has already refused a repeated key).
    fn from_json(event: &Json) -> Result<Self, String> {
        let fields = event.fields().ok_or("event is not an object")?;
        let tag = event.get("kind").and_then(Json::as_str);
        let tag = tag.ok_or("event missing string `kind`")?;
        let wide = |name: &str| {
            let value = event.get(name).and_then(Json::as_u64);
            value.ok_or_else(|| format!("`{tag}` event missing unsigned integer `{name}`"))
        };
        let narrow = |name: &str| {
            u32::try_from(wide(name)?).map_err(|_| format!("`{name}` out of u32 range"))
        };
        let kind = match tag {
            "disk_stream_loss" => FaultKind::DiskStreamLoss {
                count: narrow("count")?,
            },
            "disk_outage" => FaultKind::DiskOutage {
                count: narrow("count")?,
                recover_after: wide("recover_after")?,
            },
            "disk_slowdown" => FaultKind::DiskSlowdown {
                period: narrow("period")?,
                duration: wide("duration")?,
            },
            "buffer_shrink" => FaultKind::BufferShrink {
                segments: narrow("segments")?,
            },
            "buffer_restore" => FaultKind::BufferRestore {
                segments: narrow("segments")?,
            },
            "shard_outage" => FaultKind::ShardOutage {
                shard: narrow("shard")?,
            },
            "shard_recovery" => FaultKind::ShardRecovery {
                shard: narrow("shard")?,
            },
            other => return Err(format!("unknown fault kind `{other}`")),
        };
        let at = wide("at")?;
        let own = kind.params();
        let known = |key: &str| key == "at" || key == "kind" || own.iter().any(|(k, _)| *k == key);
        match fields.iter().find(|(key, _)| !known(key)) {
            Some((key, _)) => Err(format!("`{tag}` event has no field `{key}`")),
            None => Ok(FaultEvent { at, kind }),
        }
    }
}

/// A deterministic, serializable schedule of faults. Events are kept
/// sorted by tick (stable for equal ticks, preserving push order), so a
/// driver consumes them with a single forward cursor and two runs with the
/// same `(seed, plan)` see bitwise-identical fault sequences.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, leaving driver behavior bitwise
    /// identical to a run without fault injection.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A plan from explicit events (sorted by tick, stably).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Self { events }
    }

    /// Add one event, keeping the schedule sorted.
    pub fn push(&mut self, event: FaultEvent) {
        let idx = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(idx, event);
    }

    /// No events scheduled?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All events in schedule order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events scheduled exactly at tick `t`.
    pub fn events_at(&self, t: u64) -> &[FaultEvent] {
        let lo = self.events.partition_point(|e| e.at < t);
        let hi = self.events.partition_point(|e| e.at <= t);
        &self.events[lo..hi]
    }

    /// Generate a random plan of `events` faults over `[horizon/8, horizon)`
    /// from `seed`, using a [`splitmix64`] generator (integer-only, so
    /// the plan is identical on every platform). The mix cycles through all
    /// five fault kinds with small, recoverable magnitudes; `BufferRestore`
    /// events are paired after shrinks so the budget trends back up.
    pub fn generate(seed: u64, horizon: u64, events: u32) -> Self {
        let mut state = seed ^ 0x5DEECE66D;
        let lo = horizon / 8;
        let span = horizon.saturating_sub(lo).max(1);
        let mut plan = Vec::new();
        let mut shrunk: u32 = 0;
        for i in 0..events {
            let at = lo + draw(&mut state) % span;
            let roll = draw(&mut state);
            let kind = capacity_fault(i % 5, roll, &mut shrunk);
            plan.push(FaultEvent { at, kind });
        }
        Self::new(plan)
    }

    /// Generate a federation chaos plan: the single-server mix of
    /// [`FaultPlan::generate`] widened with whole-shard outages over a
    /// front tier of `shards` shards. The generator cycles all seven
    /// fault kinds; every [`FaultKind::ShardOutage`] is paired with a
    /// later [`FaultKind::ShardRecovery`] of the same shard, so the
    /// federation trends back to full strength and displaced sessions
    /// have somewhere to resolve. Seeded with the same integer-only
    /// SplitMix64 stream as `generate` (salted by `shards`), so plans
    /// are identical on every platform.
    pub fn generate_federation(seed: u64, horizon: u64, events: u32, shards: u32) -> Self {
        let shards = shards.max(1);
        let mut state = seed ^ 0x5DEECE66D ^ (u64::from(shards) << 32);
        let lo = horizon / 8;
        let span = horizon.saturating_sub(lo).max(1);
        let mut plan = Vec::new();
        let mut shrunk: u32 = 0;
        let mut last_outage: Option<(u64, u32)> = None;
        for i in 0..events {
            let at = lo + draw(&mut state) % span;
            let roll = draw(&mut state);
            let (at, kind) = match i % 7 {
                5 => {
                    let shard = (roll % u64::from(shards)) as u32;
                    last_outage = Some((at, shard));
                    (at, FaultKind::ShardOutage { shard })
                }
                6 => {
                    // Recovery of the most recent outage, strictly after
                    // it; with no outage yet the event is a harmless
                    // recovery of an already-up shard.
                    let (outage_at, shard) = last_outage
                        .take()
                        .unwrap_or((at, (roll % u64::from(shards)) as u32));
                    (
                        outage_at + 1 + roll % 60,
                        FaultKind::ShardRecovery { shard },
                    )
                }
                arm => (at, capacity_fault(arm, roll, &mut shrunk)),
            };
            plan.push(FaultEvent { at, kind });
        }
        Self::new(plan)
    }

    /// The report array of events, in schedule order.
    pub fn json(&self) -> Json {
        let events = self.events.iter().map(FaultEvent::json);
        Json::Array(Layout::Compact, events.collect())
    }

    /// [`Self::json`] as text (one line, stable key order) so chaos
    /// reports embed the exact plan they ran.
    pub fn to_json(&self) -> String {
        self.json().render()
    }

    /// Parse a plan back from the JSON [`FaultPlan::to_json`] emits
    /// (whitespace-tolerant), through [`json::parse`]. Round-tripping is
    /// the serde-stability contract of the chaos reports:
    /// `from_json(to_json(p)) == p` for every plan, and unknown kinds,
    /// unknown or repeated fields and malformed values are errors rather
    /// than silent drops.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let document = json::parse(input).map_err(|e| e.to_string())?;
        let events = document.items().ok_or("expected an array of events")?;
        let events: Result<Vec<_>, _> = events.iter().map(FaultEvent::from_json).collect();
        events.map(Self::new)
    }
}

/// The generators' draw: [`splitmix64`] of the state, which then
/// advances by the golden-ratio step.
fn draw(state: &mut u64) -> u64 {
    let drawn = splitmix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    drawn
}

/// The generators' capacity fault number `arm` of five — stream loss,
/// outage, slowdown, buffer shrink, buffer restore — at small, recoverable
/// magnitudes drawn from `roll`. A restore gives back what the shrinks
/// since the last one took (`shrunk`), so the budget trends back up.
fn capacity_fault(arm: u32, roll: u64, shrunk: &mut u32) -> FaultKind {
    match arm {
        0 => FaultKind::DiskStreamLoss {
            count: 1 + (roll % 2) as u32,
        },
        1 => FaultKind::DiskOutage {
            count: 1 + (roll % 2) as u32,
            recover_after: 5 + roll % 40,
        },
        2 => FaultKind::DiskSlowdown {
            period: 2 + (roll % 2) as u32,
            duration: 10 + roll % 50,
        },
        3 => {
            let segments = 1 + (roll % 8) as u32;
            *shrunk += segments;
            FaultKind::BufferShrink { segments }
        }
        _ => {
            let segments = (*shrunk).max(1);
            *shrunk = 0;
            FaultKind::BufferRestore { segments }
        }
    }
}

/// Knobs for a driver's graceful-degradation state machine. All delays are
/// virtual-time ticks, so the policy is deterministic by construction.
///
/// The server applies it to sessions whose stream or partition was lost:
///
/// 1. For the first [`DegradePolicy::rewait_bound`] ticks the session only
///    waits for a live partition window to sweep back over its position
///    (batch rejoin — free, and structurally bounded by one restart
///    interval `T` when restarts keep succeeding).
/// 2. After the bound, the session additionally retries dedicated-stream
///    acquisition with exponential backoff from
///    [`DegradePolicy::retry_backoff`] up to
///    [`DegradePolicy::retry_backoff_cap`].
/// 3. After [`DegradePolicy::retry_timeout`] ticks degraded, retries stop
///    (their denials resolve as permanent) and the session falls back to
///    pure batch admission: it keeps waiting for a window rejoin and is
///    never dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Ticks a degraded session waits batch-only before dedicated retries.
    pub rewait_bound: u64,
    /// Initial backoff (ticks) between dedicated-stream retries.
    pub retry_backoff: u64,
    /// Backoff cap (ticks); doubling stops here.
    pub retry_backoff_cap: u64,
    /// Ticks after degradation entry when dedicated retries stop for good.
    pub retry_timeout: u64,
    /// Resolution order when a capacity recovery lands on the very tick a
    /// session's retry timeout expires: with `recovery_wins` the session
    /// gets one last lease attempt against the just-recovered capacity
    /// before its ledger resolves (recovery wins the race); without it
    /// the timeout resolves first (the historical order, kept as the
    /// default so frozen chaos baselines stay byte-identical). The
    /// federation front tier arms this for the shards it owns — after a
    /// whole-shard recovery the race is the norm, not the edge.
    pub recovery_wins: bool,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        Self {
            rewait_bound: 2,
            retry_backoff: 1,
            retry_backoff_cap: 8,
            retry_timeout: 32,
            recovery_wins: false,
        }
    }
}

/// What a degraded session's [`RetryLedger`] allows on one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryStep {
    /// Nothing is due: the session is inside its re-wait bound or a
    /// back-off interval, or its retries stopped for good.
    Wait,
    /// A dedicated-stream attempt is due. With `last_chance` the retry
    /// timeout has already expired, but a capacity recovery landed on this
    /// very tick and [`DegradePolicy::recovery_wins`]: the attempt is the
    /// last one, and a refusal times the sequence out.
    Attempt {
        /// A refusal ends the retry sequence.
        last_chance: bool,
    },
    /// The retry timeout expired: the sequence resolves as permanent.
    TimedOut,
}

/// The retry ledger of one degraded session under a [`DegradePolicy`]:
/// bounded re-wait, then dedicated-stream attempts under a back-off that
/// doubles up to the cap, until the timeout. Refused attempts stay
/// *pending* until the sequence resolves — transient when an attempt is
/// finally granted, permanent when the session rejoins for free, quits or
/// times out — and [`RetryLedger::resolve`] hands each of them out exactly
/// once. Pure state: the driver owns the stream pool and the denial
/// counters, the ledger only says what is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryLedger {
    /// Tick the degradation began (timeout anchor).
    since: u64,
    /// Next tick an attempt is allowed.
    next_retry: u64,
    /// Current back-off interval in ticks.
    backoff: u64,
    /// Refused attempts awaiting resolution-time classification.
    pending_denials: u64,
    /// Past the timeout: no more attempts.
    retries_exhausted: bool,
}

impl RetryLedger {
    /// A session degraded at tick `now`, carrying `pending` refusals
    /// already awaiting classification (1 when a refused acquisition
    /// caused the degradation, 0 when a fault took the resource outright).
    pub fn enter(now: u64, policy: &DegradePolicy, pending: u64) -> Self {
        Self {
            since: now,
            next_retry: now + policy.rewait_bound.max(1),
            backoff: policy.retry_backoff.max(1),
            pending_denials: pending,
            retries_exhausted: false,
        }
    }

    /// What is due at tick `now`; `recovered_at` is the tick of the
    /// driver's most recent capacity recovery.
    pub fn step(&self, now: u64, policy: &DegradePolicy, recovered_at: Option<u64>) -> RetryStep {
        if self.retries_exhausted || now < self.next_retry {
            RetryStep::Wait
        } else if now.saturating_sub(self.since) < policy.retry_timeout {
            RetryStep::Attempt { last_chance: false }
        } else if policy.recovery_wins && recovered_at == Some(now) {
            RetryStep::Attempt { last_chance: true }
        } else {
            RetryStep::TimedOut
        }
    }

    /// The attempt made at tick `now` was refused: one more pending
    /// denial, and the back-off doubles (up to the cap) before the next.
    pub fn refuse(&mut self, now: u64, policy: &DegradePolicy) {
        self.backoff = (self.backoff * 2).min(policy.retry_backoff_cap.max(1));
        self.next_retry = now + self.backoff;
        self.pending_denials += 1;
    }

    /// The sequence resolved (granted, free rejoin, or the session quit):
    /// the pending denials, for the caller to classify. They leave the
    /// ledger, so none is ever counted twice.
    pub fn resolve(&mut self) -> u64 {
        std::mem::take(&mut self.pending_denials)
    }

    /// The sequence timed out: no attempt is due ever again. Returns the
    /// pending denials like [`Self::resolve`].
    pub fn time_out(&mut self) -> u64 {
        self.retries_exhausted = true;
        self.resolve()
    }

    /// Next tick an attempt is allowed.
    pub fn next_retry(&self) -> u64 {
        self.next_retry
    }

    /// Current back-off interval in ticks.
    pub fn backoff(&self) -> u64 {
        self.backoff
    }

    /// Refused attempts awaiting classification.
    pub fn pending_denials(&self) -> u64 {
        self.pending_denials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_and_indexes_by_tick() {
        let mut plan = FaultPlan::new(vec![
            FaultEvent {
                at: 9,
                kind: FaultKind::DiskStreamLoss { count: 1 },
            },
            FaultEvent {
                at: 3,
                kind: FaultKind::BufferShrink { segments: 2 },
            },
        ]);
        plan.push(FaultEvent {
            at: 3,
            kind: FaultKind::DiskSlowdown {
                period: 2,
                duration: 5,
            },
        });
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.events()[0].at, 3);
        assert_eq!(plan.events_at(3).len(), 2);
        // Stable for equal ticks: the pushed slowdown lands after the shrink.
        assert_eq!(
            plan.events_at(3)[0].kind,
            FaultKind::BufferShrink { segments: 2 }
        );
        assert_eq!(plan.events_at(9).len(), 1);
        assert!(plan.events_at(4).is_empty());
        assert!(!plan.is_empty());
        assert!(FaultPlan::empty().is_empty());
    }

    #[test]
    fn generate_is_deterministic_and_bounded() {
        let a = FaultPlan::generate(42, 1000, 10);
        let b = FaultPlan::generate(42, 1000, 10);
        assert_eq!(a, b, "same seed must give the same plan");
        assert_ne!(a, FaultPlan::generate(43, 1000, 10));
        assert_eq!(a.len(), 10);
        for e in a.events() {
            assert!(e.at >= 125 && e.at < 1000, "event at {} out of range", e.at);
        }
        // All five kinds appear with a 10-event cycle.
        let tags: Vec<_> = a.events().iter().map(|e| e.kind.tag()).collect();
        for tag in [
            "disk_stream_loss",
            "disk_outage",
            "disk_slowdown",
            "buffer_shrink",
            "buffer_restore",
        ] {
            assert!(tags.contains(&tag), "missing kind {tag}");
        }
    }

    #[test]
    fn json_embeds_kind_and_params() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 7,
            kind: FaultKind::DiskOutage {
                count: 2,
                recover_after: 11,
            },
        }]);
        let j = plan.to_json();
        assert_eq!(
            j,
            "[{\"at\":7,\"kind\":\"disk_outage\",\"count\":2,\"recover_after\":11}]"
        );
        assert_eq!(FaultPlan::empty().to_json(), "[]");
    }

    #[test]
    fn generate_federation_pairs_outage_with_later_recovery() {
        let plan = FaultPlan::generate_federation(7, 1440, 14, 4);
        assert_eq!(plan, FaultPlan::generate_federation(7, 1440, 14, 4));
        assert_ne!(plan, FaultPlan::generate_federation(8, 1440, 14, 4));
        assert_ne!(plan, FaultPlan::generate_federation(7, 1440, 14, 2));
        assert_eq!(plan.len(), 14);
        // All seven kinds appear with a 14-event cycle.
        let tags: Vec<_> = plan.events().iter().map(|e| e.kind.tag()).collect();
        for tag in [
            "disk_stream_loss",
            "disk_outage",
            "disk_slowdown",
            "buffer_shrink",
            "buffer_restore",
            "shard_outage",
            "shard_recovery",
        ] {
            assert!(tags.contains(&tag), "missing kind {tag}");
        }
        // Shard indices stay inside the federation, and each recovery
        // lands strictly after the outage it pairs with.
        let mut outage_at: Option<(u64, u32)> = None;
        for e in plan.events() {
            match e.kind {
                FaultKind::ShardOutage { shard } => {
                    assert!(shard < 4);
                    outage_at = Some((e.at, shard));
                }
                FaultKind::ShardRecovery { shard } => {
                    assert!(shard < 4);
                    if let Some((at, s)) = outage_at.take() {
                        assert_eq!(shard, s, "recovery pairs with the last outage");
                        assert!(e.at > at, "recovery strictly after its outage");
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn json_round_trips_every_kind() {
        // All seven kinds (see the generator's own test above).
        let plan = FaultPlan::generate_federation(7, 1440, 14, 4);
        let parsed = FaultPlan::from_json(&plan.to_json());
        assert_eq!(parsed, Ok(plan));
        assert_eq!(FaultPlan::from_json("[]"), Ok(FaultPlan::empty()));
        // Whitespace-tolerant.
        let spaced = FaultPlan::from_json(
            " [ { \"at\" : 13 , \"kind\" : \"shard_outage\" , \"shard\" : 1 } ] ",
        );
        assert_eq!(
            spaced,
            Ok(FaultPlan::new(vec![FaultEvent {
                at: 13,
                kind: FaultKind::ShardOutage { shard: 1 },
            }]))
        );
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        for (bad, why) in [
            ("", "no array"),
            ("[{\"at\":1}]", "missing kind"),
            (
                "[{\"kind\":\"disk_stream_loss\",\"count\":1}]",
                "missing at",
            ),
            ("[{\"at\":1,\"kind\":\"warp_core_breach\"}]", "unknown kind"),
            ("[{\"at\":1,\"kind\":\"shard_outage\"}]", "missing param"),
            (
                "[{\"at\":1,\"kind\":\"shard_outage\",\"shard\":4294967296}]",
                "u32 overflow",
            ),
            ("[] trailing", "trailing"),
        ] {
            assert!(FaultPlan::from_json(bad).is_err(), "{why}");
        }
    }

    #[test]
    fn default_policy_orders_its_phases() {
        let p = DegradePolicy::default();
        assert!(p.rewait_bound < p.retry_timeout);
        assert!(p.retry_backoff <= p.retry_backoff_cap);
    }

    /// The retry ledger's whole timeline under the default policy
    /// (re-wait 2, back-off 1 doubling to 8, timeout 32), hand-worked:
    /// what is due on every tick, with every attempt refused.
    #[test]
    fn retry_ledger_timeline() {
        let policy = DegradePolicy::default();
        let mut ledger = RetryLedger::enter(10, &policy, 0);
        // (tick an attempt is due, back-off after its refusal)
        let attempts = [(12, 2), (14, 4), (18, 8), (26, 8), (34, 8)];
        let mut due = attempts.iter().copied().peekable();
        for now in 10..42 {
            match due.peek() {
                Some(&(at, backoff)) if at == now => {
                    let step = ledger.step(now, &policy, None);
                    assert_eq!(step, RetryStep::Attempt { last_chance: false });
                    ledger.refuse(now, &policy);
                    assert_eq!(ledger.backoff(), backoff);
                    assert_eq!(ledger.next_retry(), now + backoff);
                    due.next();
                }
                _ => assert_eq!(
                    ledger.step(now, &policy, None),
                    RetryStep::Wait,
                    "tick {now}"
                ),
            }
        }
        assert_eq!(ledger.pending_denials(), 5);
        // Tick 42 = since + 32: the timeout, whatever recovered earlier.
        assert_eq!(ledger.step(42, &policy, Some(41)), RetryStep::TimedOut);
        assert_eq!(ledger.time_out(), 5, "every refusal resolves, once");
        assert_eq!(ledger.resolve(), 0);
        for now in 42..120 {
            assert_eq!(ledger.step(now, &policy, Some(now)), RetryStep::Wait);
        }
    }

    /// A recovery and the retry timeout on the same tick: the timeout
    /// resolves first unless the policy says recovery wins, and then only
    /// a recovery on that very tick buys the last chance.
    #[test]
    fn retry_ledger_same_tick_race() {
        // (recovery_wins, recovered_at, what tick 34 = since + 32 allows)
        let cases = [
            (false, None, RetryStep::TimedOut),
            (false, Some(34), RetryStep::TimedOut),
            (true, None, RetryStep::TimedOut),
            (true, Some(33), RetryStep::TimedOut),
            (true, Some(34), RetryStep::Attempt { last_chance: true }),
        ];
        for (recovery_wins, recovered_at, expected) in cases {
            let policy = DegradePolicy {
                recovery_wins,
                ..DegradePolicy::default()
            };
            // Entered with the refusal that caused the degradation pending.
            let ledger = RetryLedger::enter(2, &policy, 1);
            assert_eq!(ledger.pending_denials(), 1);
            assert_eq!(
                ledger.step(33, &policy, recovered_at),
                RetryStep::Attempt { last_chance: false },
                "one tick short of the timeout"
            );
            assert_eq!(ledger.step(34, &policy, recovered_at), expected);
        }
    }
}
