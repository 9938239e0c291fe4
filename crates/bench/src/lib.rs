//! # vod-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation, each
//! binary the `results/` text it is named after. The figure bins,
//! `catalog_sim` and `ablations` take `[--threads N] [--out PATH]` and
//! print to stdout without `--out`; `example1` and `example2` take
//! `[--out PATH]` and write the committed file without it.
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `fig7` | Figure 7(a–d): model vs simulation hit probability |
//! | `fig8` | Figure 8: feasible (B, n) pairs per movie, 5-minute buffer steps |
//! | `fig9` | Figure 9(a–f): system cost vs streams for φ sweeps |
//! | `example1` | §5 Example 1: minimum-buffer allocation |
//! | `example2` | §5 Example 2: hardware-derived C_b, C_n, φ |
//! | `catalog_sim` | §5 loop at catalog scale: planned vs simulated hits |
//! | `ablations` | design-choice ablations from DESIGN.md |
//!
//! The library half hosts the data-generation routines so the
//! integration tests can assert on the numbers that the binaries print,
//! and what the report-writing bins share ([`report`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

pub mod ex1;
pub mod ex2;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod report;
pub mod table;
