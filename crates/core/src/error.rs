//! Error type for rule optimization and mining.

use optrules_bucketing::BucketingError;
use optrules_relation::RelationError;
use std::fmt;

/// Errors produced by rule optimization and the miner.
#[derive(Debug)]
pub enum CoreError {
    /// Bucketing failed.
    Bucketing(BucketingError),
    /// Storage failed.
    Relation(RelationError),
    /// `u` and `v` series have different lengths.
    LengthMismatch {
        /// Length of the `u` series.
        u: usize,
        /// Length of the `v` series.
        v: usize,
    },
    /// A bucket has `u_i = 0`; compact the counts first.
    EmptyBucket {
        /// Index of the offending bucket.
        index: usize,
    },
    /// A threshold was outside its valid domain.
    BadThreshold(String),
    /// A request asked for more resources than one request may claim
    /// (see the `MAX_*` limits in [`crate::json`]).
    BadRequest(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bucketing(e) => write!(f, "bucketing error: {e}"),
            Self::Relation(e) => write!(f, "storage error: {e}"),
            Self::LengthMismatch { u, v } => {
                write!(f, "u has {u} buckets but v has {v}")
            }
            Self::EmptyBucket { index } => {
                write!(f, "bucket {index} is empty (u = 0); compact counts first")
            }
            Self::BadThreshold(msg) => write!(f, "bad threshold: {msg}"),
            Self::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Bucketing(e) => Some(e),
            Self::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BucketingError> for CoreError {
    fn from(e: BucketingError) -> Self {
        Self::Bucketing(e)
    }
}

impl From<RelationError> for CoreError {
    fn from(e: RelationError) -> Self {
        Self::Relation(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Validates a `(u, v)` bucket-series pair: equal lengths and no empty
/// buckets. Returns the shared length.
pub(crate) fn validate_series(u: &[u64], v_len: usize) -> Result<usize> {
    if u.len() != v_len {
        return Err(CoreError::LengthMismatch {
            u: u.len(),
            v: v_len,
        });
    }
    if let Some(index) = u.iter().position(|&x| x == 0) {
        return Err(CoreError::EmptyBucket { index });
    }
    Ok(u.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert_eq!(validate_series(&[1, 2], 2).unwrap(), 2);
        assert!(matches!(
            validate_series(&[1, 2], 3),
            Err(CoreError::LengthMismatch { u: 2, v: 3 })
        ));
        assert!(matches!(
            validate_series(&[1, 0, 2], 3),
            Err(CoreError::EmptyBucket { index: 1 })
        ));
    }

    #[test]
    fn display() {
        let e = CoreError::EmptyBucket { index: 4 };
        assert!(e.to_string().contains("bucket 4"));
        let e = CoreError::BadThreshold("p > 1".into());
        assert!(e.to_string().contains("p > 1"));
    }
}
