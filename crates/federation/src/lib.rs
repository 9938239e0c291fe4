//! # vod-federation — sharded catalog federation front tier
//!
//! Scales the single-server batching/buffering design of the paper out
//! to N independent catalog shards behind one admission door, without
//! changing any per-shard machinery: each shard is a stock
//! [`DeliveryBackend`](vod_server::DeliveryBackend) (any
//! [`BackendKind`](vod_runtime::BackendKind)), provisioned with its
//! slice of the global `(B_s, n_s)` budget by
//! [`split_budget`](vod_sizing::split_budget), and driven on the shared
//! integer-minute tick grid.
//!
//! What the front tier adds:
//!
//! * **Placement routing** — admissions go to the first live replica of
//!   the requested movie ([`Federation::open_session`]).
//! * **Whole-shard chaos** — `ShardOutage`/`ShardRecovery` fault events
//!   (inert below the front tier) take entire shards dark and
//!   cold-restart them mid-run.
//! * **Failover with conserved accounting** — live sessions displaced
//!   by an outage drain through a ledger on the retry constants of
//!   [`RetryLedger`]:
//!   cohort re-join on a surviving replica, dedicated-stream borrowing,
//!   bounded backoff-and-retry, and timeout into transient/permanent
//!   denial. Every displaced session ends in exactly one bucket;
//!   [`Federation::check_invariants`] audits the balance each tick.
//!
//! [`run_federation`] steps the single-server harness's own
//! [`Driver`](vod_server::Driver) against the [`Federation`], so a
//! one-shard federation with an empty plan is bitwise-identical to
//! `run_harness` — the federation layer provably adds zero behavior
//! until shards or faults are added.
//!
//! [`RetryLedger`]: vod_runtime::RetryLedger

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

mod driver;
mod front;

pub use driver::{run_federation, FederationHarnessConfig, FederationOutcome, WorkloadShape};
pub use front::{shards_from_split, FedSessionId, Federation, FederationConfig, ShardSpec};
