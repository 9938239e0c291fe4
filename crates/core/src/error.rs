//! Error type for model construction.

/// Errors produced when building model parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A numeric parameter violated its domain requirement.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
        /// Human-readable requirement.
        requirement: &'static str,
    },
    /// The buffer size exceeds what the movie length and stream count
    /// admit (`B > l`), or equivalently the requested maximum wait is
    /// negative.
    BufferExceedsMovie {
        /// Requested buffer size in movie minutes.
        buffer: f64,
        /// Movie length in minutes.
        movie_len: f64,
    },
    /// The VCR-type probabilities do not form a distribution.
    BadMix {
        /// Sum of the supplied probabilities.
        sum: f64,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(f, "parameter `{name}` = {value:?} must be {requirement}"),
            ModelError::BufferExceedsMovie { buffer, movie_len } => write!(
                f,
                "buffer B = {buffer} min exceeds movie length l = {movie_len} min"
            ),
            ModelError::BadMix { sum } => {
                write!(f, "VCR mix probabilities sum to {sum}, expected 1")
            }
        }
    }
}

impl std::error::Error for ModelError {}
