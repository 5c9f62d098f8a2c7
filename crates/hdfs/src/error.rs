//! Error type for the HDFS-like baseline file system.

use simcluster::fs::NamespaceError;
use std::fmt;

/// Result alias for HDFS operations.
pub type HdfsResult<T> = Result<T, HdfsError>;

/// Errors surfaced by the HDFS baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdfsError {
    /// A namespace operation failed: missing or existing path, file where a
    /// directory was expected, invalid path, ...
    Namespace(NamespaceError),
    /// HDFS files are write-once: the file is still being written (not yet
    /// closed) and cannot be read, or it is closed and cannot be written.
    WrongFileState {
        path: String,
        expected: &'static str,
    },
    /// A read past the end of a file.
    OutOfBounds {
        path: String,
        requested_end: u64,
        size: u64,
    },
    /// No datanode is available to hold a chunk replica.
    NoDatanodes,
    /// A chunk could not be read from any replica.
    ChunkUnavailable { path: String, chunk_index: usize },
    /// The writer was already closed.
    WriterClosed,
}

impl fmt::Display for HdfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdfsError::Namespace(e) => fmt::Display::fmt(e, f),
            HdfsError::WrongFileState { path, expected } => {
                write!(f, "file {path} is not in the required state ({expected})")
            }
            HdfsError::OutOfBounds {
                path,
                requested_end,
                size,
            } => {
                write!(
                    f,
                    "read past end of {path}: requested byte {requested_end}, size {size}"
                )
            }
            HdfsError::NoDatanodes => write!(f, "no datanodes available"),
            HdfsError::ChunkUnavailable { path, chunk_index } => {
                write!(
                    f,
                    "chunk {chunk_index} of {path} unavailable from any replica"
                )
            }
            HdfsError::WriterClosed => write!(f, "writer already closed"),
        }
    }
}

impl std::error::Error for HdfsError {}

impl From<NamespaceError> for HdfsError {
    fn from(e: NamespaceError) -> Self {
        HdfsError::Namespace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e: HdfsError = NamespaceError::FileNotFound("/x".into()).into();
        assert_eq!(e.to_string(), "file not found: /x");
        assert!(HdfsError::NoDatanodes.to_string().contains("datanodes"));
        assert!(HdfsError::WrongFileState {
            path: "/f".into(),
            expected: "closed"
        }
        .to_string()
        .contains("closed"));
        assert!(HdfsError::ChunkUnavailable {
            path: "/f".into(),
            chunk_index: 3
        }
        .to_string()
        .contains("chunk 3"));
        let e = HdfsError::OutOfBounds {
            path: "/f".into(),
            requested_end: 9,
            size: 4,
        };
        assert!(e.to_string().contains('9'));
    }
}
