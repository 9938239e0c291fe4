//! Synthetic movie content.
//!
//! The paper's testbed serves MPEG-2 video from SCSI disks; neither the
//! videos nor the disks matter to any result (everything depends on
//! stream counts, rates, and buffer minutes), so the data path serves
//! *deterministic synthetic segments*: one segment per movie minute whose
//! bytes are generated by a seeded mixing function of
//! `(movie_id, segment_index)`. Determinism lets every consumer verify it
//! received exactly the right bytes — turning the data path into its own
//! checker.

use vod_runtime::splitmix64;

/// Bytes of synthetic payload per movie minute. Small enough to keep
/// experiments cheap, large enough that corruption or misindexing cannot
/// collide by accident.
pub const SEGMENT_BYTES: usize = 64;

/// Identifier of a hosted movie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MovieId(pub u32);

/// A one-minute content segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Owning movie.
    pub movie: MovieId,
    /// Zero-based minute index.
    pub index: u32,
    /// Payload bytes, inline: staging, verifying or dropping a segment
    /// never touches the allocator.
    pub data: [u8; SEGMENT_BYTES],
}

/// Payload words per segment.
const WORDS: usize = SEGMENT_BYTES / 8;

/// The integrity kernel: the canonical payload of `(movie, index)` as
/// little-endian words, a 9-step SplitMix chain — one step mixes the
/// coordinates into a seed, each further step's output is the next word.
/// [`generate_segment`] writes the words down; [`verify_segment`] runs
/// the chain again and compares.
#[inline(always)]
fn canonical_words(movie: MovieId, index: u32) -> [u64; WORDS] {
    let mut state = splitmix64(((movie.0 as u64) << 32) | index as u64);
    std::array::from_fn(|_| {
        state = splitmix64(state);
        state
    })
}

/// Generate the canonical bytes of `(movie, index)`.
#[inline(always)]
pub fn generate_segment(movie: MovieId, index: u32) -> Segment {
    let mut data = [0u8; SEGMENT_BYTES];
    for (bytes, word) in data.chunks_exact_mut(8).zip(canonical_words(movie, index)) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    Segment { movie, index, data }
}

/// Verify that a segment carries exactly the canonical bytes for its
/// coordinates: each of the eight payload words against the chain's,
/// the 512 differences folded into one word. No second payload is built
/// and nothing is handed to `memcmp`.
///
/// `#[inline(always)]`, like the generator: a caller is optimized with
/// the chain in plain view. A site that verifies stored bytes (a ring
/// entry, a staging slot) then runs one straight-line chain and no call.
/// A site that verifies what the generator has just handed it (a lease
/// read, a channel's staging read, a client's replay of its own prefix)
/// is seen to compare one computation with itself and pays for neither
/// chain — until the disk model can return anything but canonical bytes,
/// and then the comparison is back without an edit here.
#[inline(always)]
pub fn verify_segment(seg: &Segment) -> bool {
    let want = canonical_words(seg.movie, seg.index);
    let mut diff = 0u64;
    for (bytes, word) in seg.data.chunks_exact(8).zip(want) {
        let mut stored = [0u8; 8];
        stored.copy_from_slice(bytes);
        diff |= word ^ u64::from_le_bytes(stored);
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = generate_segment(MovieId(3), 17);
        let b = generate_segment(MovieId(3), 17);
        assert_eq!(a, b);
        assert_eq!(a.data.len(), SEGMENT_BYTES);
    }

    /// The inline payload carries byte for byte what the growable buffer
    /// it replaced did.
    #[test]
    fn inline_payload_matches_the_growable_buffer_it_replaced() {
        for (movie, index) in [(0, 0), (3, 17), (u32::MAX, u32::MAX)] {
            let mut old = Vec::with_capacity(SEGMENT_BYTES);
            let mut state = splitmix64(((movie as u64) << 32) | index as u64);
            while old.len() < SEGMENT_BYTES {
                state = splitmix64(state);
                old.extend_from_slice(&state.to_le_bytes());
            }
            old.truncate(SEGMENT_BYTES);
            assert_eq!(generate_segment(MovieId(movie), index).data[..], old[..]);
        }
    }

    #[test]
    fn distinct_coordinates_distinct_bytes() {
        let a = generate_segment(MovieId(3), 17);
        let b = generate_segment(MovieId(3), 18);
        let c = generate_segment(MovieId(4), 17);
        assert_ne!(a.data, b.data);
        assert_ne!(a.data, c.data);
        assert_ne!(b.data, c.data);
    }

    #[test]
    fn verification_catches_corruption() {
        let mut s = generate_segment(MovieId(0), 0);
        assert!(verify_segment(&s));
        s.data[5] ^= 0xFF;
        assert!(!verify_segment(&s));
        s.data[5] ^= 0xFF;
        s.index = 1;
        assert!(!verify_segment(&s));
    }

    /// The fold of 512 differences into one word loses none of them:
    /// every single flipped payload bit fails, as does a payload filed
    /// under a neighbouring movie or index, and the untouched segment
    /// passes — at the corners of the coordinate space too.
    #[test]
    fn every_payload_bit_and_both_coordinates_are_checked() {
        let corners = [0, 1, 119, 0x8000_0000, u32::MAX];
        for movie in corners {
            for index in corners {
                // `black_box`: the segment under test is stored bytes, not
                // a value the optimizer can trace back to the generator.
                let mut seg = std::hint::black_box(generate_segment(MovieId(movie), index));
                assert!(verify_segment(&seg), "({movie}, {index}) as generated");
                for bit in 0..8 * SEGMENT_BYTES {
                    seg.data[bit / 8] ^= 1 << (bit % 8);
                    assert!(!verify_segment(&seg), "({movie}, {index}) bit {bit}");
                    seg.data[bit / 8] ^= 1 << (bit % 8);
                }
                assert!(verify_segment(&seg), "({movie}, {index}) restored");
                for (wrong_movie, wrong_index) in [
                    (movie.wrapping_add(1), index),
                    (movie, index.wrapping_add(1)),
                    (index, movie),
                ] {
                    let misfiled = Segment {
                        movie: MovieId(wrong_movie),
                        index: wrong_index,
                        ..seg.clone()
                    };
                    assert_eq!(
                        verify_segment(&misfiled),
                        (wrong_movie, wrong_index) == (movie, index),
                        "({movie}, {index}) filed as ({wrong_movie}, {wrong_index})"
                    );
                }
            }
        }
    }
}
