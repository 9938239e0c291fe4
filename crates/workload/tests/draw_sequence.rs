//! The §4 viewer's draw sequence, pinned bit for bit.
//!
//! The sim mirror's committed results (`CROSS_VALIDATION.json`, fig7's sim
//! columns, `catalog_sim.txt`, `reserve_check.txt`) and the serve load are
//! functions of this sequence. A sampler edit meant to be faster but not
//! different must leave both digests below as they are; an edit that moves
//! them moves those results too, and is made once, on purpose.

#![allow(clippy::unwrap_used)]

use vod_dist::rng::seeded;
use vod_workload::{BehaviorModel, Zipf};

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of the first 10⁴ rounds of the viewer's three draws — an
/// interaction (kind and magnitude bits), a playback gap and a Zipf rank —
/// taken from one `seeded(seed)` stream in that order.
fn digest(seed: u64) -> u64 {
    let viewer = BehaviorModel::paper_fig7d();
    let ranks = Zipf::new(16, 0.73);
    let mut rng = seeded(seed);
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for _ in 0..10_000 {
        let request = viewer.sample_request(&mut rng);
        hash.word(request.kind as u64);
        hash.word(request.magnitude.to_bits());
        hash.word(viewer.next_interaction_gap(&mut rng).to_bits());
        hash.word(ranks.sample(&mut rng) as u64);
    }
    hash.0
}

#[test]
fn paper_viewer_draw_sequence_is_pinned() {
    assert_eq!(digest(42), 0x65c1_9bd7_e97f_d3e7, "seed 42");
    assert_eq!(digest(2026), 0x2abb_2554_8d6e_b8dd, "seed 2026");
}
