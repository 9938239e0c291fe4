//! Error type for sizing and allocation.

use vod_model::ModelError;

/// Errors produced by the sizing machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum SizingError {
    /// An underlying model-parameter error.
    Model(ModelError),
    /// The allocation problem contains no movies.
    NoMovies,
    /// A movie cannot reach its target hit probability even with maximum
    /// buffer (`n = 1`).
    UnsatisfiableMovie {
        /// Name of the offending movie.
        movie: String,
    },
    /// Fewer streams than the movies need: every movie needs at least one
    /// stream, and more where one stream misses its hit-probability target.
    StreamBudgetTooSmall {
        /// Minimum streams needed (`Σ n_min`, the movie count unless one
        /// stream misses a target).
        needed: u32,
        /// Streams available.
        available: u32,
    },
    /// The minimum feasible total buffer exceeds the buffer budget.
    BufferBudgetTooSmall {
        /// Minimum buffer minutes needed.
        needed: f64,
        /// Buffer minutes available.
        available: f64,
    },
    /// A cost parameter violated its domain.
    InvalidCost {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A VCR offered load is not a finite, non-negative number of
    /// Erlangs, or no reserve of at most 10⁶ streams meets the denial
    /// target under it.
    VcrLoadOutOfRange {
        /// The offered load in Erlangs.
        erlangs: f64,
    },
    /// A federation split asked for zero shards, or more shards than
    /// movies (every shard must host at least one movie).
    ShardCountInvalid {
        /// Requested shard count.
        shards: u32,
        /// Movies available to place.
        movies: u32,
    },
}

impl std::fmt::Display for SizingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SizingError::Model(e) => write!(f, "model error: {e}"),
            SizingError::NoMovies => write!(f, "allocation problem has no movies"),
            SizingError::UnsatisfiableMovie { movie } => write!(
                f,
                "movie `{movie}` cannot meet its hit-probability target at any stream count"
            ),
            SizingError::StreamBudgetTooSmall { needed, available } => write!(
                f,
                "stream budget {available} below minimum {needed} (one per movie, more where one stream misses its target)"
            ),
            SizingError::BufferBudgetTooSmall { needed, available } => write!(
                f,
                "buffer budget {available} min below minimum feasible {needed} min"
            ),
            SizingError::InvalidCost { name, value } => {
                write!(
                    f,
                    "cost parameter `{name}` = {value:?} must be finite and > 0"
                )
            }
            SizingError::VcrLoadOutOfRange { erlangs } => write!(
                f,
                "VCR offered load {erlangs} Erlangs out of range (need a finite load ≥ 0 \
                 that at most {} reserved streams can carry)",
                crate::reserve::MAX_RESERVE
            ),
            SizingError::ShardCountInvalid { shards, movies } => write!(
                f,
                "shard count {shards} invalid for {movies} movies (need 1 ≤ shards ≤ movies)"
            ),
        }
    }
}

impl std::error::Error for SizingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SizingError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SizingError {
    fn from(e: ModelError) -> Self {
        SizingError::Model(e)
    }
}
