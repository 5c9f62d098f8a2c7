//! Error type of the page store.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type KvResult<T> = Result<T, KvError>;

/// Errors surfaced by the key-value store.
#[derive(Debug)]
pub enum KvError {
    /// The store has been closed and can no longer serve requests.
    Closed,
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Closed => write!(f, "store is closed"),
        }
    }
}

impl std::error::Error for KvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(KvError::Closed.to_string(), "store is closed");
    }
}
