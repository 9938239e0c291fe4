//! Error type for distribution construction and spec parsing.

/// Errors produced when constructing or parsing a distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A numeric parameter violated its domain requirement.
    InvalidParameter {
        /// Parameter name as it appears in the constructor/spec.
        name: String,
        /// The offending value.
        value: f64,
        /// Human-readable domain requirement, e.g. `"finite and > 0"`.
        requirement: &'static str,
    },
    /// A mixture or empirical distribution was given no components/samples.
    Empty(&'static str),
    /// Mixture weights do not form a usable probability vector.
    BadWeights(String),
    /// A textual distribution spec could not be parsed.
    ParseError(String),
    /// Truncation bounds are inverted or capture no probability mass.
    BadTruncation {
        /// Requested lower bound.
        lo: f64,
        /// Requested upper bound.
        hi: f64,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(f, "parameter `{name}` = {value:?} must be {requirement}"),
            DistError::Empty(what) => write!(f, "{what} must not be empty"),
            DistError::BadWeights(msg) => write!(f, "bad mixture weights: {msg}"),
            DistError::ParseError(msg) => write!(f, "cannot parse distribution spec: {msg}"),
            DistError::BadTruncation { lo, hi } => {
                write!(f, "bad truncation bounds [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for DistError {}
