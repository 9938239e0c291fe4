//! VCR operation semantics: sweep rates and truncation at the movie
//! boundaries.

use vod_model::Rates;
use vod_workload::VcrKind;

/// A planned VCR sweep in continuous time: how long phase 1 lasts, where
/// the viewer ends up, and whether a movie boundary truncated it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPlan {
    /// Wall-clock minutes the operation takes.
    pub duration: f64,
    /// Resume position in movie-minutes.
    pub end_pos: f64,
    /// Movie-minutes actually swept past the display (0 for a pause).
    pub swept: f64,
    /// FF ran off the end of the movie (the model's `P(end)` release).
    pub reached_end: bool,
    /// RW was truncated at the movie start.
    pub truncated_start: bool,
}

/// Plan a VCR operation issued at position `position` of a movie of
/// length `movie_len` minutes.
///
/// The paper's sweep rules:
/// * **FF** sweeps forward at `R_FF`, truncated at the movie end; a
///   request reaching the end finishes the viewing.
/// * **RW** sweeps backward at `R_RW`, truncated at the movie start (a
///   truncated rewind may still *hit* — the latest stream's enrollment
///   window can cover position 0).
/// * **Pause** holds position; its duration is the pause length itself,
///   converted by the playback rate so duration distributions stay in
///   movie-minute units. A paused viewer consumes no display bandwidth.
pub fn plan_vcr(
    kind: VcrKind,
    magnitude: f64,
    position: f64,
    movie_len: f64,
    rates: &Rates,
) -> SweepPlan {
    match kind {
        VcrKind::FastForward => {
            let sweep = magnitude.min(movie_len - position);
            SweepPlan {
                duration: sweep / rates.fast_forward(),
                end_pos: position + sweep,
                swept: sweep,
                reached_end: magnitude >= movie_len - position,
                truncated_start: false,
            }
        }
        VcrKind::Rewind => {
            let sweep = magnitude.min(position);
            SweepPlan {
                duration: sweep / rates.rewind(),
                end_pos: position - sweep,
                swept: sweep,
                reached_end: false,
                truncated_start: magnitude >= position,
            }
        }
        VcrKind::Pause => SweepPlan {
            duration: magnitude / rates.playback(),
            end_pos: position,
            swept: 0.0,
            reached_end: false,
            truncated_start: false,
        },
    }
}

/// The integer-minute form of the same truncation rules: how many
/// segments a sweep of `magnitude` issued at `position` actually covers
/// before hitting a movie boundary (pauses are not truncated — the
/// magnitude is a duration, not a distance).
pub fn truncate_sweep(kind: VcrKind, magnitude: u32, position: u32, length: u32) -> u32 {
    match kind {
        VcrKind::FastForward => magnitude.min(length.saturating_sub(position)),
        VcrKind::Rewind => magnitude.min(position),
        VcrKind::Pause => magnitude,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ff_truncates_at_end() {
        let r = Rates::paper();
        let p = plan_vcr(VcrKind::FastForward, 50.0, 100.0, 120.0, &r);
        assert_eq!(p.end_pos, 120.0);
        assert_eq!(p.swept, 20.0);
        assert!(p.reached_end);
        assert!(!p.truncated_start);
        assert!((p.duration - 20.0 / r.fast_forward()).abs() < 1e-12);
    }

    #[test]
    fn ff_short_of_end() {
        let r = Rates::paper();
        let p = plan_vcr(VcrKind::FastForward, 10.0, 100.0, 120.0, &r);
        assert_eq!(p.end_pos, 110.0);
        assert!(!p.reached_end);
    }

    #[test]
    fn rw_truncates_at_start() {
        let r = Rates::paper();
        let p = plan_vcr(VcrKind::Rewind, 30.0, 12.0, 120.0, &r);
        assert_eq!(p.end_pos, 0.0);
        assert_eq!(p.swept, 12.0);
        assert!(p.truncated_start);
        assert!(!p.reached_end);
    }

    #[test]
    fn pause_holds_position_and_sweeps_nothing() {
        let r = Rates::paper();
        let p = plan_vcr(VcrKind::Pause, 7.0, 42.0, 120.0, &r);
        assert_eq!(p.end_pos, 42.0);
        assert_eq!(p.swept, 0.0);
        assert_eq!(p.duration, 7.0 / r.playback());
        assert!(!p.reached_end && !p.truncated_start);
    }

    #[test]
    fn quantized_truncation_matches_continuous() {
        assert_eq!(truncate_sweep(VcrKind::FastForward, 50, 100, 120), 20);
        assert_eq!(truncate_sweep(VcrKind::Rewind, 30, 12, 120), 12);
        assert_eq!(truncate_sweep(VcrKind::Pause, 30, 12, 120), 30);
    }
}
