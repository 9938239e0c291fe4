//! The semantic rule family.
//!
//! Unlike the token rules in [`crate::rules`], a semantic rule sees
//! structure: fn bodies from [`crate::parse`], struct-field and
//! return-type facts from [`crate::index`], and per-fn use-def/guard
//! facts from [`crate::dataflow`]. One family lives here:
//!
//! | rule | bug class | what it alone catches |
//! |------|-----------|-----------------------|
//! | `unchecked-sub` | PR 6 — unsigned subtraction underflow in the session hot path | `length - position` in `truncate_sweep` (`crates/runtime/src/vcr.rs`) compiles, passes clippy and passes every other test — none issues a fast-forward from beyond the movie's end — and wraps in a release build the day a caller does |
//!
//! The three other semantic families this module once held were deleted
//! when `rustc`'s match exhaustiveness and the `vod-server` unit tests
//! were shown to reject the same edits; DESIGN.md §9 names them and
//! records the probe for each.

pub mod unchecked_sub;
