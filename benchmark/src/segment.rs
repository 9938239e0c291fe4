//! One timed segment of a repetition, and what the gate needs from it.

use crate::alloc::AllocStats;
use crate::json::{obj, Json};

/// Cost ratio φ of Example 2 (memory ÷ stream price), which `vodplan`
/// prices plans at.
pub const PHI: f64 = 750.0 / 70.0;

/// The paper's objective `C / C_n = φ ΣB + Σn`, in stream-equivalents.
pub fn stream_equivalents(buffer_minutes: f64, streams: u32) -> f64 {
    PHI * buffer_minutes + f64::from(streams)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    pub name: &'static str,
    /// What `work` counts: `movies`, `sessions` or `viewers`.
    pub work_unit: &'static str,
    pub wall_s: f64,
    pub work: u64,
    /// Operations submitted: sessions or viewers, plus VCR operations.
    pub attempted: u64,
    /// Operations the program refused (see README: refused share).
    pub refused: u64,
    /// Operations with a wrong outcome: byte-verification failures,
    /// invariant violations, planned movies below their target.
    pub wrong: u64,
    pub hit_ratio: f64,
    /// Stream-equivalents this segment provisions (0 for a mirror).
    pub cost: f64,
    /// FNV-1a-64 over the program's own metrics JSON and the counts the
    /// generator observed: equal digests ⇔ the same outputs.
    pub digest: u64,
    /// Exact counts the per-layer metrics and the report quote.
    pub counts: Vec<(&'static str, f64)>,
    pub allocs: AllocStats,
    /// Gate failures, in words.
    pub problems: Vec<String>,
}

impl Segment {
    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn rate(&self) -> f64 {
        self.work as f64 / self.wall_s
    }

    pub fn counts_json(&self) -> Json {
        obj(self.counts.iter().map(|&(k, v)| (k, Json::from(v))))
    }
}

pub fn digest_hex(digest: u64) -> String {
    format!("{digest:#018x}")
}
