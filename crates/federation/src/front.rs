//! The federation front tier: N independent delivery shards behind one
//! admission door.
//!
//! [`Federation`] owns a vector of [`DeliveryBackend`] shards (any
//! [`BackendKind`] per shard), routes admissions by a model-driven
//! placement map, and drives every shard on the shared integer-minute
//! tick grid. Whole-shard faults ([`FaultKind::ShardOutage`] /
//! [`FaultKind::ShardRecovery`]) are applied *here* — below the front
//! tier they are inert by contract — while every other fault kind is
//! distributed into per-shard local plans at construction (and again,
//! time-shifted, when a shard is cold-restarted after recovery).
//!
//! # Failover
//!
//! Taking a shard down drains its live sessions through a displaced
//! ledger that reads the same retry constants the in-shard
//! [`RetryLedger`](vod_runtime::RetryLedger) does: each displaced session
//! retries re-admission on the surviving replicas of its movie (in
//! placement order) at once, then under exponential backoff — joining an
//! in-window batch cohort where one covers its position
//! ([`Adoption::CohortJoin`]), falling back to borrowing a surviving
//! shard's dedicated-stream reserve ([`Adoption::DedicatedStream`]) —
//! until the retry timeout resolves it
//! to a transient denial (the movie is still recoverable: a replica up,
//! or a shard recovery still scheduled) or a permanent one. The front
//! tier arms [`DegradePolicy::recovery_wins`] for itself and its shards:
//! after a whole-shard recovery the recovery-vs-timeout race is the
//! norm, and recovery wins it.
//!
//! # Session lifetime
//!
//! The front tier keeps a row per session it still answers for — live on
//! a shard, or waiting in the displaced ledger — in the same
//! [`SessionStore`] the shards keep theirs in: ids are issued in
//! admission order and never reused, and a row is retired (its memory
//! given back) the tick its viewer finishes, which the front learns from
//! each shard's [`DeliveryBackend::finished_this_tick`], or the tick its
//! displacement resolves to a denial. A retired [`FedSessionId`] answers
//! [`SessionStatus::Done`]; so does one the front never issued, and
//! neither can alias a later admission. The audit, a shard outage and the
//! ledger therefore cost `O(sessions in flight)`, not `O(sessions ever
//! admitted)`.
//!
//! # Conservation
//!
//! Every displaced session ends in exactly one of {re-admitted,
//! re-waiting, denied-transient, denied-permanent};
//! [`Federation::check_invariants`] audits
//! [`FederationMetrics::conserved`] against the in-flight ledger after
//! every tick, alongside each live shard's own conservation laws.
//!
//! # One thread
//!
//! The front ticks and audits every up shard itself, in shard order.
//! The shards share nothing but the tick grid. Ticking half of them on a
//! helper thread doubled the CPU time for 0–17 % more throughput on two
//! cores, so there is no helper (DESIGN.md §15).

use vod_runtime::{
    BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan, FederationMetrics,
    RuntimeMetrics, SessionStore, RETRY_BACKOFF, RETRY_BACKOFF_CAP, RETRY_TIMEOUT,
};
use vod_server::{
    config_from_plan, make_backend, Adoption, DeliveryBackend, DeliveryStats, MovieId,
    ServerConfig, ServerError, SessionId, SessionStatus,
};
use vod_sizing::ShardPlan;
use vod_workload::VcrKind;

/// One shard's construction recipe: the delivery scheme and the server
/// configuration (catalog slice, stream pool, buffer budget) it runs.
#[derive(Clone)]
pub struct ShardSpec {
    /// Delivery scheme this shard runs.
    pub backend: BackendKind,
    /// The shard's provisioning (its slice of the global budget).
    pub server: ServerConfig,
}

/// Federation construction parameters.
#[derive(Clone)]
pub struct FederationConfig {
    /// The shards, index = shard id.
    pub shards: Vec<ShardSpec>,
    /// Placement map: global movie index → `(shard, local movie id)`
    /// replicas in failover-preference order (first entry is the
    /// primary). Every movie needs at least one replica.
    pub placement: Vec<Vec<(usize, MovieId)>>,
    /// Inert: the displaced ledger and the shards follow `vod_runtime`'s
    /// retry constants, and the front arms every shard with
    /// [`DegradePolicy::recovery_wins`] on, whatever this says. Struct
    /// literals that name it still compile.
    pub policy: DegradePolicy,
}

/// The policy the front arms every shard with: after a whole-shard
/// recovery the recovery-vs-timeout race is the norm, and recovery wins
/// it.
const SHARD_POLICY: DegradePolicy = DegradePolicy {
    recovery_wins: true,
};

/// Handle to a federated session (stable across displacement and
/// re-admission — the shard-local [`SessionId`] behind it changes).
/// Issued in admission order and never reused; see the module docs for
/// what a finished or never-issued id answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FedSessionId(pub u32);

/// Where a federated session the front still answers for lives. One
/// that finished, or whose displacement resolved to a denial, has no
/// state: its row is retired.
#[derive(Debug, Clone, Copy)]
enum FedState {
    /// Playing (or queued) on an up shard.
    Live { shard: usize, local: SessionId },
    /// In the displaced ledger, waiting for re-admission.
    Displaced {
        /// Playback position snapshotted when the shard went dark.
        position: u32,
        /// Tick the session entered the ledger.
        since: u64,
        /// Next tick a re-admission attempt is due.
        next_retry: u64,
        /// Current backoff (doubles per refused round, capped).
        backoff: u64,
    },
}

#[derive(Clone, Copy)]
struct FedSession {
    /// Global movie index (into the placement map).
    movie: usize,
    state: FedState,
}

/// The front tier itself. See the module docs for the failover story.
pub struct Federation {
    specs: Vec<ShardSpec>,
    placement: Vec<Vec<(usize, MovieId)>>,
    /// The shards, `None` while dark.
    shards: Vec<Option<Box<dyn DeliveryBackend>>>,
    /// Global tick each live shard incarnation was constructed at (local
    /// shard time = global − this).
    started_at: Vec<u64>,
    plan: FaultPlan,
    sessions: SessionStore<FedSession>,
    /// Per shard incarnation, shard-local session index → fed id: how a
    /// finish the shard publishes finds its row. The shard admits
    /// sessions only through the front, so this store and the shard's own
    /// issue the same indices in the same order (audited).
    routes: Vec<SessionStore<u32>>,
    /// Final records the shards published this tick, under the fed ids.
    finished: Vec<(FedSessionId, DeliveryStats)>,
    /// Fed ids currently displaced, in ledger (insertion) order.
    displaced: Vec<u32>,
    /// Finished-session counts retired from dead shard incarnations.
    retired_done: u64,
    /// Down shards at the last metrics reset (baseline for the
    /// outage/recovery population invariant).
    baseline_down: u64,
    metrics: FederationMetrics,
    now: u64,
}

impl Federation {
    /// Build the front tier: construct every shard via
    /// [`make_backend`] and arm it with its slice of `plan` (non-shard
    /// events routed by `at % shards`) under `SHARD_POLICY`.
    ///
    /// # Panics
    ///
    /// Panics when the config is malformed: no shards, an empty or
    /// out-of-range placement entry, or a placement pointing at a movie
    /// its shard does not host.
    pub fn new(config: FederationConfig, plan: FaultPlan) -> Self {
        // vod-lint: allow(no-panic) — construction-time config validation;
        // a malformed federation is a harness bug, not a runtime state.
        assert!(!config.shards.is_empty(), "federation needs shards");
        for (m, replicas) in config.placement.iter().enumerate() {
            assert!(!replicas.is_empty(), "movie {m} has no replica");
            for &(s, local) in replicas {
                let spec = config
                    .shards
                    .get(s)
                    // vod-lint: allow(no-panic) — construction-time validation
                    .unwrap_or_else(|| panic!("movie {m} placed on missing shard {s}"));
                assert!(
                    spec.server.movies.iter().any(|hm| hm.movie == local),
                    "movie {m}: shard {s} does not host local id {}",
                    local.0
                );
            }
        }
        let n = config.shards.len();
        let mut fed = Self {
            shards: Vec::with_capacity(n),
            started_at: vec![0; n],
            specs: config.shards,
            placement: config.placement,
            plan,
            sessions: SessionStore::new(),
            routes: (0..n).map(|_| SessionStore::new()).collect(),
            finished: Vec::new(),
            displaced: Vec::new(),
            retired_done: 0,
            baseline_down: 0,
            metrics: FederationMetrics::new(),
            now: 0,
        };
        for s in 0..n {
            let mut shard = make_backend(fed.specs[s].backend, &fed.specs[s].server);
            shard.inject_faults(fed.local_plan(s, 0), SHARD_POLICY);
            fed.shards.push(Some(shard));
        }
        fed
    }

    /// The shard-local fault plan for shard `s` rebuilt at global tick
    /// `from`: every non-shard event with `at % shards == s` and
    /// `at ≥ from`, shifted onto the incarnation's local clock.
    fn local_plan(&self, s: usize, from: u64) -> FaultPlan {
        let n = self.specs.len() as u64;
        FaultPlan::new(
            self.plan
                .events()
                .iter()
                .filter(|e| e.lands_on(s as u64, n) && e.at >= from)
                .map(|e| FaultEvent {
                    at: e.at - from,
                    kind: e.kind,
                })
                .collect(),
        )
    }

    /// Number of shards (up or down).
    pub fn shard_count(&self) -> usize {
        self.specs.len()
    }

    /// Current global tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Route an admission for global movie `movie` through the placement
    /// map: the first up replica takes it. `None` means every replica is
    /// dark and the admission was denied (counted, no session tracked),
    /// or that the map has no such movie (not counted: a backend answers
    /// an unhosted movie with an error, not a denial).
    pub fn open_session(&mut self, movie: usize) -> Option<FedSessionId> {
        let replicas = self.placement.get(movie)?;
        if self.sessions.is_full() {
            // Fed ids are never reused; admission ends rather than wrap.
            self.metrics.admissions_denied += 1;
            return None;
        }
        let mut skipped_dead = false;
        for &(s, local) in replicas {
            let Some(shard) = self.shards[s].as_mut() else {
                skipped_dead = true;
                continue;
            };
            // vod-lint: allow(no-panic) — placement was validated against
            // the shard's hosted catalog at construction.
            let id = shard.open_session(local).expect("placement hosts movie");
            self.metrics.admissions_routed += 1;
            if skipped_dead {
                self.metrics.admissions_rerouted += 1;
            }
            let state = FedState::Live {
                shard: s,
                local: id,
            };
            let fed = self.sessions.insert(FedSession { movie, state })?;
            self.route(s, id, fed);
            return Some(FedSessionId(fed));
        }
        self.metrics.admissions_denied += 1;
        None
    }

    /// Shard `s` admitted fed session `fed` as `local`: file it in the
    /// shard's route table.
    fn route(&mut self, s: usize, local: SessionId, fed: u32) {
        let filed = self.routes[s].insert(fed);
        debug_assert_eq!(
            filed,
            Some(local.0),
            "shard {s} and its route table drifted"
        );
    }

    /// Session status in the shared vocabulary: live sessions report
    /// their shard's status, displaced sessions report
    /// [`SessionStatus::Degraded`], and everything else — resolved
    /// (finished or denied) sessions, whose rows are retired, and ids the
    /// front never issued — reports [`SessionStatus::Done`].
    pub fn session_status(&self, id: FedSessionId) -> SessionStatus {
        match self.sessions.get(id.0).map(|sess| sess.state) {
            Some(FedState::Live { shard, local }) => {
                // vod-lint: allow(no-panic) — a Live state always points at
                // an up shard (audited by check_invariants every tick).
                self.shards[shard]
                    .as_ref()
                    // vod-lint: allow(no-panic) — Live ⇒ shard up, audited
                    .expect("live session on up shard")
                    .session_status(local)
                    // vod-lint: allow(no-panic) — Live ⇒ shard owns the id
                    .expect("shard knows its session")
            }
            Some(FedState::Displaced { .. }) => SessionStatus::Degraded,
            None => SessionStatus::Done,
        }
    }

    /// Forward a VCR request to the session's shard. Displaced or
    /// resolved sessions refuse with [`ServerError::VcrDenied`] (the
    /// front tier has no stream to serve it from); an id the front never
    /// issued is [`ServerError::UnknownSession`].
    pub fn request_vcr(
        &mut self,
        id: FedSessionId,
        kind: VcrKind,
        magnitude: u32,
    ) -> Result<(), ServerError> {
        match self.sessions.get(id.0).map(|sess| sess.state) {
            Some(FedState::Live { shard, local }) => {
                // vod-lint: allow(no-panic) — Live ⇒ shard up (see above).
                self.shards[shard]
                    .as_mut()
                    // vod-lint: allow(no-panic) — Live ⇒ shard up, audited
                    .expect("live session on up shard")
                    .request_vcr(local, kind, magnitude)
            }
            None if !self.sessions.was_issued(id.0) => {
                Err(ServerError::UnknownSession(SessionId(id.0)))
            }
            Some(FedState::Displaced { .. }) | None => Err(ServerError::VcrDenied),
        }
    }

    /// Advance one virtual minute: apply whole-shard fault events due at
    /// the current tick (recoveries restart shards *before* the ledger
    /// runs, so a same-tick timeout loses the race to recovery), process
    /// the displaced ledger, then tick every up shard and retire the rows
    /// of the sessions it reports finished.
    pub fn tick(&mut self) {
        self.finished.clear();
        if !self.plan.is_empty() {
            let events: Vec<FaultKind> = self
                .plan
                .events_at(self.now)
                .iter()
                .map(|e| e.kind)
                .collect();
            for kind in events {
                match kind {
                    FaultKind::ShardOutage { shard } => self.shard_outage(shard as usize),
                    FaultKind::ShardRecovery { shard } => self.shard_recovery(shard as usize),
                    // Capacity faults were distributed into per-shard
                    // local plans at construction/rebuild.
                    FaultKind::DiskStreamLoss { .. }
                    | FaultKind::DiskOutage { .. }
                    | FaultKind::DiskSlowdown { .. }
                    | FaultKind::BufferShrink { .. }
                    | FaultKind::BufferRestore { .. } => {}
                }
            }
        }
        self.drain_ledger();
        for (shard, routes) in self.shards.iter_mut().zip(&mut self.routes) {
            let Some(shard) = shard else { continue };
            shard.tick();
            for &(local, stats) in shard.finished_this_tick() {
                if let Some(fed) = routes.retire(local.0) {
                    self.sessions.retire(fed);
                    self.finished.push((FedSessionId(fed), stats));
                }
            }
        }
        self.now += 1;
    }

    /// The sessions that finished during the last [`tick`](Self::tick),
    /// each with the final delivery record of the shard it finished on (a
    /// viewer displaced on the way left the earlier part of its viewing
    /// on the shard that went dark). Cleared by the next tick, like
    /// [`DeliveryBackend::finished_this_tick`], which it relays.
    pub fn finished_this_tick(&self) -> &[(FedSessionId, DeliveryStats)] {
        &self.finished
    }

    /// Sessions the front tier still answers for: live on a shard or in
    /// the displaced ledger.
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Rows of the front tier's session table resident in memory; see
    /// [`DeliveryBackend::session_slots`].
    pub fn session_slots(&self) -> usize {
        self.sessions.resident_slots()
    }

    /// Take shard `s` down: retire its finished-session count, displace
    /// every session living on it into the ledger, in fed-id order, and
    /// drop the backend. A second outage on an already-dark shard, or one
    /// of a shard the federation does not have (the plan is outside
    /// input), is a no-op (uncounted).
    fn shard_outage(&mut self, s: usize) {
        let Some(shard) = self.shards.get_mut(s).and_then(Option::take) else {
            return;
        };
        self.metrics.shard_outages += 1;
        self.retired_done += shard.sessions_finished();
        self.routes[s] = SessionStore::new();
        let now = self.now;
        for (fed, sess) in self.sessions.iter_mut() {
            let FedState::Live { shard: home, local } = sess.state else {
                continue;
            };
            if home != s {
                continue;
            }
            // Every finish was relayed the tick it happened, so a row still
            // pointing here has a position to resume from. Were one not to,
            // it stays as it is and the audit reports it live on a dark
            // shard.
            let Ok(position) = shard.session_position(local) else {
                continue;
            };
            sess.state = FedState::Displaced {
                position,
                since: now,
                next_retry: now,
                backoff: RETRY_BACKOFF,
            };
            self.displaced.push(fed);
            self.metrics.displaced_total += 1;
        }
    }

    /// Cold-restart shard `s` after an outage: a fresh backend armed
    /// with the remaining slice of the global plan, time-shifted onto
    /// the new incarnation's local clock. Recovery of an up shard, or of
    /// one the federation does not have, is a no-op (uncounted).
    fn shard_recovery(&mut self, s: usize) {
        if !matches!(self.shards.get(s), Some(None)) {
            return;
        }
        let mut shard = make_backend(self.specs[s].backend, &self.specs[s].server);
        shard.inject_faults(self.local_plan(s, self.now), SHARD_POLICY);
        self.shards[s] = Some(shard);
        self.started_at[s] = self.now;
        self.metrics.shard_recoveries += 1;
    }

    /// One ledger pass: due sessions attempt re-admission on the up
    /// replicas of their movie in placement order; refused rounds back
    /// off exponentially; the retry timeout resolves survivors into
    /// transient or permanent denials (with the recovery-wins last
    /// chance on a same-tick shard recovery).
    fn drain_ledger(&mut self) {
        let now = self.now;
        let mut keep: Vec<u32> = Vec::with_capacity(self.displaced.len());
        for k in 0..self.displaced.len() {
            let i = self.displaced[k];
            let FedSession { movie, state } = *self.sessions.live(i);
            let FedState::Displaced {
                position,
                since,
                next_retry,
                backoff,
            } = state
            else {
                // vod-lint: allow(no-panic) — the ledger only lists
                // Displaced sessions (audited by check_invariants).
                unreachable!("ledger entry not displaced");
            };
            let timed_out = now.saturating_sub(since) >= RETRY_TIMEOUT;
            // Recovery wins a same-tick race, as on the shards
            // (`SHARD_POLICY`): a recovery applied this tick re-opens the
            // attempt even past the timeout.
            let last_chance = timed_out
                && self.placement[movie]
                    .iter()
                    .any(|&(s, _)| self.started_at[s] == now && self.shards[s].is_some());
            if now >= next_retry || last_chance {
                let mut adopted = false;
                for r in 0..self.placement[movie].len() {
                    let (s, local) = self.placement[movie][r];
                    let Some(shard) = self.shards[s].as_mut() else {
                        continue;
                    };
                    match shard.adopt_session(local, position) {
                        Ok((sid, how)) => {
                            self.sessions.live_mut(i).state = FedState::Live {
                                shard: s,
                                local: sid,
                            };
                            self.route(s, sid, i);
                            match how {
                                Adoption::CohortJoin => self.metrics.readmitted_cohort += 1,
                                Adoption::DedicatedStream => self.metrics.readmitted_dedicated += 1,
                            }
                            adopted = true;
                            break;
                        }
                        Err(_) => self.metrics.readmit_refusals += 1,
                    }
                }
                if adopted {
                    continue;
                }
            }
            if timed_out {
                // Resolved: transient while the movie could still be
                // served later, permanent otherwise. Either way the front
                // has nothing more to say about the session.
                if self.movie_recoverable(movie) {
                    self.metrics.denied_transient += 1;
                } else {
                    self.metrics.denied_permanent += 1;
                }
                self.sessions.retire(i);
                continue;
            }
            self.metrics.rewait_ticks += 1;
            if now >= next_retry {
                self.sessions.live_mut(i).state = FedState::Displaced {
                    position,
                    since,
                    next_retry: now.saturating_add(backoff),
                    backoff: backoff.saturating_mul(2).min(RETRY_BACKOFF_CAP),
                };
            }
            keep.push(i);
        }
        self.displaced = keep;
    }

    /// Whether a timed-out displaced session's movie could still be
    /// served later: some hosting replica is up, or a shard recovery for
    /// one is still ahead in the plan.
    fn movie_recoverable(&self, movie: usize) -> bool {
        let hosted_up = self.placement[movie]
            .iter()
            .any(|&(s, _)| self.shards[s].is_some());
        if hosted_up {
            return true;
        }
        self.plan.events().iter().any(|e| {
            e.at > self.now
                && matches!(
                    e.kind,
                    FaultKind::ShardRecovery { shard }
                        if self.placement[movie].iter().any(|&(s, _)| s == shard as usize)
                )
        })
    }

    /// Reset every up shard's counters and re-baseline the federation
    /// ledger metrics (end of warm-up). In-flight displaced sessions
    /// carry over as the new `displaced_total` baseline so conservation
    /// keeps holding.
    pub fn reset_metrics(&mut self) {
        for shard in self.shards.iter_mut().flatten() {
            shard.reset_metrics();
        }
        self.retired_done = 0;
        self.baseline_down = self.shards.iter().filter(|s| s.is_none()).count() as u64;
        self.metrics = FederationMetrics {
            displaced_total: self.displaced.len() as u64,
            ..FederationMetrics::new()
        };
    }

    /// Snapshot of the federation-level ledger counters.
    pub fn federation_metrics(&self) -> FederationMetrics {
        self.metrics
    }

    /// Per-shard [`RuntimeMetrics`] snapshots (`None` for dark shards).
    pub fn per_shard_metrics(&self) -> Vec<Option<RuntimeMetrics>> {
        self.shards
            .iter()
            .map(|s| s.as_ref().map(|b| b.runtime_metrics()))
            .collect()
    }

    /// Sessions in a degraded state anywhere: in-shard degraded plus the
    /// displaced ledger population.
    pub fn degraded_sessions(&self) -> u64 {
        let in_shard: u64 = self
            .shards
            .iter()
            .flatten()
            .map(|s| u64::from(s.degraded_sessions()))
            .sum();
        in_shard + self.displaced.len() as u64
    }

    /// Sessions finished federation-wide: live shards' counts plus the
    /// totals retired from dead incarnations.
    pub fn sessions_finished(&self) -> u64 {
        let live: u64 = self
            .shards
            .iter()
            .flatten()
            .map(|s| s.sessions_finished())
            .sum();
        live + self.retired_done
    }

    /// Displaced sessions currently in the ledger.
    pub fn displaced_in_flight(&self) -> u64 {
        self.displaced.len() as u64
    }

    /// Conservation audit, run by the driver after every tick:
    ///
    /// 1. every live shard's own invariants (tagged `shard <s>:`, in shard
    ///    order),
    /// 2. the displaced-session ledger balances
    ///    ([`FederationMetrics::conserved`] against in-flight),
    /// 3. every `Live` session points at an up shard whose route table
    ///    leads back to it, the route tables hold nobody else, and the
    ///    ledger lists exactly the `Displaced` sessions,
    /// 4. the outage/recovery counters explain the dark-shard population.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let Some(shard) = shard else { continue };
            v.extend(
                shard
                    .check_invariants()
                    .into_iter()
                    .map(|what| format!("shard {s}: {what}")),
            );
        }
        if !self.metrics.conserved(self.displaced.len() as u64) {
            v.push(format!(
                "displaced ledger out of balance: {} displaced vs {} resolved + {} in flight",
                self.metrics.displaced_total,
                self.metrics.readmitted_cohort
                    + self.metrics.readmitted_dedicated
                    + self.metrics.denied_transient
                    + self.metrics.denied_permanent,
                self.displaced.len()
            ));
        }
        let mut ledger = self.sessions.tally(&self.displaced);
        let (mut displaced_states, mut live_states) = (0u64, 0usize);
        for (i, sess) in self.sessions.iter() {
            match sess.state {
                FedState::Live { shard, local } => {
                    live_states += 1;
                    if self.shards[shard].is_none() {
                        v.push(format!("session {i} live on dark shard {shard}"));
                    } else if self.routes[shard].get(local.0) != Some(&i) {
                        v.push(format!(
                            "session {i} missing from shard {shard}'s route table"
                        ));
                    }
                }
                FedState::Displaced { .. } => {
                    displaced_states += 1;
                    if ledger.take(i) == 0 {
                        v.push(format!("displaced session {i} missing from ledger"));
                    }
                }
            }
        }
        let routed: usize = self.routes.iter().map(SessionStore::len).sum();
        if routed != live_states {
            v.push(format!(
                "route tables hold {routed} sessions but {live_states} are live"
            ));
        }
        if displaced_states != self.displaced.len() as u64 {
            v.push(format!(
                "ledger lists {} sessions but {} are displaced",
                self.displaced.len(),
                displaced_states
            ));
        }
        let down = self.shards.iter().filter(|s| s.is_none()).count() as u64;
        if self.metrics.shard_outages + self.baseline_down != self.metrics.shard_recoveries + down {
            v.push(format!(
                "outage accounting: {} outages + {} baseline ≠ {} recoveries + {} down",
                self.metrics.shard_outages, self.baseline_down, self.metrics.shard_recoveries, down
            ));
        }
        v
    }
}

/// Build shard specs and a placement map from a [`split_budget`]
/// result: shard `s` hosts the movies [`ShardPlan`] assigned it (local
/// ids in shard-local order, matching [`config_from_plan`]), each with a
/// single replica. `lengths[i]` is global movie `i`'s length in minutes
/// and `vcr_reserve` the per-shard dedicated-stream reserve.
///
/// [`split_budget`]: vod_sizing::split_budget
pub fn shards_from_split(
    split: &ShardPlan,
    lengths: &[u32],
    vcr_reserve: u32,
    backend: BackendKind,
) -> (Vec<ShardSpec>, Vec<Vec<(usize, MovieId)>>) {
    let mut placement: Vec<Vec<(usize, MovieId)>> = vec![Vec::new(); split.plan.allocations.len()];
    let specs = (0..split.shards())
        .map(|s| {
            let local = split.shard_plan(s);
            let local_lengths: Vec<u32> =
                split.shard_movies[s].iter().map(|&i| lengths[i]).collect();
            for (pos, &i) in split.shard_movies[s].iter().enumerate() {
                placement[i].push((s, MovieId(pos as u32)));
            }
            ShardSpec {
                backend,
                server: config_from_plan(&local, &local_lengths, vcr_reserve),
            }
        })
        .collect();
    (specs, placement)
}

/// Audit-sensitivity tests: every string `check_invariants` can emit,
/// provoked by corrupting exactly the state it certifies.
#[cfg(test)]
mod tests {
    use vod_server::{Driver, HostedMovie, ServerCore, Workload};
    use vod_workload::BehaviorModel;

    use super::*;
    use crate::WorkloadShape;

    /// Two 2-stream unicast shards. Movie 0 lives on both (shard 0
    /// first), movie 1 on shard 1 only. Two movie-1 viewers fill shard
    /// 1, then shard 0 goes dark at `t = 2` under two movie-0 viewers:
    /// both are displaced and nothing can adopt them.
    fn dark_shard_with_two_displaced() -> Federation {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        let spec = ShardSpec {
            backend: BackendKind::DedicatedStream,
            server: ServerConfig {
                disk_streams: 2,
                piggyback: None,
                ..ServerConfig::provisioned(vec![movie], 0)
            },
        };
        let config = FederationConfig {
            shards: vec![spec.clone(), spec],
            placement: vec![
                vec![(0, MovieId(0)), (1, MovieId(0))],
                vec![(1, MovieId(0))],
            ],
            policy: DegradePolicy::default(),
        };
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 2,
            kind: FaultKind::ShardOutage { shard: 0 },
        }]);
        let mut fed = Federation::new(config, plan);
        for movie in [1, 1, 0, 0] {
            fed.open_session(movie).unwrap();
        }
        for _ in 0..3 {
            fed.tick();
        }
        assert_eq!(fed.displaced, [2, 3]);
        assert_eq!(fed.check_invariants(), Vec::<String>::new());
        fed
    }

    /// A shard whose own audit reports one violation; the front tier's
    /// audit calls nothing else on it.
    struct BrokenShard;

    impl DeliveryBackend for BrokenShard {
        fn check_invariants(&self) -> Vec<String> {
            vec!["lease accounting broken".to_string()]
        }
        fn kind(&self) -> BackendKind {
            unreachable!()
        }
        fn core(&self) -> &ServerCore {
            unreachable!()
        }
        fn core_mut(&mut self) -> &mut ServerCore {
            unreachable!()
        }
        fn open_session(&mut self, _: MovieId) -> Result<SessionId, ServerError> {
            unreachable!()
        }
        fn request_vcr(&mut self, _: SessionId, _: VcrKind, _: u32) -> Result<(), ServerError> {
            unreachable!()
        }
        fn session_status(&self, _: SessionId) -> Result<SessionStatus, ServerError> {
            unreachable!()
        }
        fn session_position(&self, _: SessionId) -> Result<u32, ServerError> {
            unreachable!()
        }
        fn adopt_session(
            &mut self,
            _: MovieId,
            _: u32,
        ) -> Result<(SessionId, Adoption), ServerError> {
            unreachable!()
        }
        fn tick(&mut self) {
            unreachable!()
        }
        fn buffer_segments(&self) -> u64 {
            unreachable!()
        }
        fn live_sessions(&self) -> usize {
            unreachable!()
        }
        fn session_slots(&self) -> usize {
            unreachable!()
        }
    }

    #[test]
    fn audit_sees_ledger_drift() {
        let mut fed = dark_shard_with_two_displaced();
        // A displaced session left out of the ledger.
        fed.displaced.pop();
        assert_eq!(
            fed.check_invariants(),
            [
                "displaced ledger out of balance: 2 displaced vs 0 resolved + 1 in flight",
                "displaced session 3 missing from ledger",
                "ledger lists 1 sessions but 2 are displaced",
            ]
        );
        // ... and the other one listed twice: the ledger's length is
        // right again, its contents are not.
        fed.displaced.push(2);
        assert_eq!(
            fed.check_invariants(),
            ["displaced session 3 missing from ledger"]
        );
        fed.displaced.push(3);
        assert_eq!(
            fed.check_invariants(),
            [
                "displaced ledger out of balance: 2 displaced vs 0 resolved + 3 in flight",
                "ledger lists 3 sessions but 2 are displaced",
            ]
        );
    }

    #[test]
    fn audit_sees_shard_and_outage_drift() {
        let mut fed = dark_shard_with_two_displaced();
        fed.shards[1] = Some(Box::new(BrokenShard));
        assert_eq!(fed.check_invariants(), ["shard 1: lease accounting broken"]);
        let mut fed = dark_shard_with_two_displaced();
        let FedState::Live { local, .. } = fed.sessions.live(0).state else {
            panic!("session 0 plays on shard 1");
        };
        fed.sessions.live_mut(0).state = FedState::Live { shard: 0, local };
        assert_eq!(fed.check_invariants(), ["session 0 live on dark shard 0"]);
        // A finish the shard publishes could no longer find session 0.
        let mut fed = dark_shard_with_two_displaced();
        assert_eq!(fed.routes[1].retire(0), Some(0));
        assert_eq!(
            fed.check_invariants(),
            [
                "session 0 missing from shard 1's route table",
                "route tables hold 1 sessions but 2 are live",
            ]
        );
        let mut fed = dark_shard_with_two_displaced();
        fed.metrics.shard_recoveries += 1;
        assert_eq!(
            fed.check_invariants(),
            ["outage accounting: 1 outages + 0 baseline ≠ 1 recoveries + 1 down"]
        );
    }

    /// `FedSessionId`'s field is public: an id the front never issued, and
    /// one whose session is long gone, get an answer, not an abort — and
    /// neither can come to mean somebody else.
    #[test]
    fn fabricated_and_resolved_ids_answer_done_and_refuse_vcr() {
        let mut fed = dark_shard_with_two_displaced();
        for raw in [4, 1 << 20, u32::MAX] {
            let id = FedSessionId(raw);
            assert_eq!(fed.session_status(id), SessionStatus::Done);
            assert!(matches!(
                fed.request_vcr(id, VcrKind::Pause, 3),
                Err(ServerError::UnknownSession(_))
            ));
        }
        // The two displaced viewers time out; the two on shard 1 play to
        // the end. Every row is retired, every id still answers.
        for _ in 0..200 {
            fed.tick();
            assert_eq!(fed.check_invariants(), Vec::<String>::new());
        }
        assert_eq!((fed.live_sessions(), fed.session_slots()), (0, 64));
        assert_eq!(fed.sessions_finished(), 2);
        for raw in 0..4 {
            let id = FedSessionId(raw);
            assert_eq!(fed.session_status(id), SessionStatus::Done);
            assert!(matches!(
                fed.request_vcr(id, VcrKind::Pause, 3),
                Err(ServerError::VcrDenied)
            ));
        }
        // Shard 0 never comes back; movie 1 still plays on shard 1, under
        // an id of its own.
        assert_eq!(fed.open_session(1), Some(FedSessionId(4)));
        assert_eq!(
            fed.session_status(FedSessionId(4)),
            SessionStatus::Dedicated
        );
        assert_eq!(fed.session_status(FedSessionId(0)), SessionStatus::Done);
    }

    /// The displaced ledger's schedule, tick by tick: a round at once on
    /// the outage tick, then the back-off doubling from 1 to the cap of 8
    /// *after* each round is scheduled, until the timeout 32 ticks after
    /// the outage resolves both viewers. Shard 1 is full throughout and
    /// still hosts movie 0, so each round refuses both and both resolve
    /// transient.
    #[test]
    fn the_displaced_ledger_retries_on_its_schedule_until_the_timeout() {
        let mut fed = dark_shard_with_two_displaced();
        let rounds = [2, 3, 5, 9, 17, 25, 33];
        // The t = 2 round ran inside the fixture.
        let mut refusals = 2;
        while fed.now() <= 34 {
            let now = fed.now();
            fed.tick();
            assert_eq!(fed.check_invariants(), Vec::<String>::new());
            if rounds.contains(&now) {
                refusals += 2;
            }
            let metrics = fed.federation_metrics();
            assert_eq!(metrics.readmit_refusals, refusals, "t={now}");
            let resolved = if now < 34 { 0 } else { 2 };
            assert_eq!(metrics.denied_transient, resolved, "t={now}");
        }
        assert_eq!(fed.federation_metrics().denied_permanent, 0);
        assert!(fed.displaced.is_empty());
    }

    /// A movie the placement map does not know is refused as a backend
    /// refuses an unhosted one: no session, no panic, no counter moved.
    #[test]
    fn an_unknown_movie_is_refused_without_a_count() {
        let mut fed = dark_shard_with_two_displaced();
        let before = fed.federation_metrics();
        for movie in [2, usize::MAX] {
            assert_eq!(fed.open_session(movie), None);
        }
        assert_eq!(fed.federation_metrics(), before);
        assert_eq!(fed.live_sessions(), 4);
        assert_eq!(fed.check_invariants(), Vec::<String>::new());
    }

    /// A 4-shard mixed-backend federation under a whole-shard fault plan,
    /// audited after every tick by the driver: no violation, and the
    /// outages really displaced and the shards really finished viewers.
    #[test]
    fn a_mixed_federation_fails_over_with_a_clean_audit() {
        let movies: Vec<HostedMovie> = (0..4)
            .map(|m| HostedMovie::from_allocation(MovieId(m), 120, 20, 100.0))
            .collect();
        let kinds = [
            BackendKind::BatchingBuffering,
            BackendKind::PyramidBroadcast,
            BackendKind::DedicatedStream,
            BackendKind::BatchingBuffering,
        ];
        let config = FederationConfig {
            shards: kinds
                .map(|backend| ShardSpec {
                    backend,
                    server: ServerConfig::provisioned(movies.clone(), 8),
                })
                .to_vec(),
            placement: (0..4)
                .map(|m| vec![(m % 4, MovieId(m as u32)), ((m + 1) % 4, MovieId(m as u32))])
                .collect(),
            policy: DegradePolicy::default(),
        };
        let workload = Workload {
            behavior: BehaviorModel::paper_fig7d(),
            mean_interarrival: 0.25,
            warmup: 60,
            measure: 300,
            movies: vec![0, 1, 2, 3],
        };
        let plan = FaultPlan::generate_federation(31, workload.horizon(), 24, 4);
        let mut fed = Federation::new(config, plan);
        let tally = Driver::new(&workload, &WorkloadShape::RoundRobin, 2026).run(&mut fed);
        assert_eq!(tally.violation_count, 0, "{:?}", tally.violations);
        let metrics = fed.federation_metrics();
        assert!(metrics.shard_outages > 0 && metrics.displaced_total > 0);
        assert!(fed.sessions_finished() > 0);
    }
}
