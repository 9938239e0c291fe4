//! # vod-server — virtual-time VOD server data path
//!
//! A functioning (virtual-time, byte-exact) implementation of the system
//! the paper analyzes: batching via periodic stream restarts (the paper's ref. \[5\]), static
//! partitioned buffering (ref. \[12\]), VCR service on dedicated streams, and
//! piggyback merge-back (ref. \[7\]) as the phase-2 fallback. Content is
//! deterministic synthetic video (see `content`), so every delivered
//! segment is verifiable — the data path checks itself.
//!
//! ```
//! use vod_server::{DeliveryBackend, HostedMovie, MovieId, ServerConfig, VodServer};
//!
//! let movie = HostedMovie::from_allocation(MovieId(0), 120, 10, 60.0);
//! let mut server = VodServer::new(ServerConfig::provisioned(vec![movie], 4));
//! let session = server.open_session(MovieId(0)).unwrap();
//! // A session is retired the tick it finishes: its memory goes back and
//! // its final record is published once, on that tick.
//! let mut published = Vec::new();
//! for _ in 0..130 {
//!     server.tick();
//!     published.extend_from_slice(server.finished_this_tick());
//! }
//! let [(finished, stats)] = published[..] else { panic!("one viewer, one record") };
//! assert_eq!(finished, session);
//! assert_eq!(stats.verify_failures, 0);
//! assert_eq!(stats.total(), 120); // every segment delivered exactly once
//! assert_eq!(server.live_sessions(), 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

mod admission;
mod backend;
mod buffer;
mod content;
mod core;
mod dedicated;
mod disk;
mod harness;
mod metrics;
mod pyramid;
mod server;
mod session;

pub use admission::config_from_plan;
pub use backend::{make_backend, Adoption, DeliveryBackend};
pub use buffer::{BufferPool, Partition};
pub use content::{generate_segment, verify_segment, MovieId, Segment, SEGMENT_BYTES};
pub use core::ServerCore;
pub use dedicated::DedicatedServer;
pub use disk::{DiskSubsystem, StreamLease};
#[doc(hidden)]
pub use harness::run_reference_scan;
pub use harness::{
    run_backend, run_harness, run_scale, run_scale_on, storm_plan, ArrivalShape, BackendRun,
    ChaosOutcome, Driver, HarnessConfig, RoundRobin, ScaleConfig, ScaleOutcome, Tally, Target,
    Workload,
};
pub use metrics::ServerMetrics;
pub use pyramid::PyramidServer;
pub use server::{HostedMovie, PiggybackConfig, ServerConfig, ServerError, VodServer, VCR_RATE};
pub use session::{DeliveryStats, SessionId, SessionState, SessionStatus, StreamId};
