//! Error type for BSFS file-system operations.

use simcluster::fs::NamespaceError;
use std::fmt;

/// Result alias for BSFS operations.
pub type FsResult<T> = Result<T, FsError>;

/// Errors surfaced by the BSFS layer.
#[derive(Debug)]
pub enum FsError {
    /// A namespace operation failed: missing or existing path, file where a
    /// directory was expected, invalid path, ...
    Namespace(NamespaceError),
    /// A read past the end of a file.
    OutOfBounds {
        path: String,
        requested_end: u64,
        size: u64,
    },
    /// The writer was already closed.
    WriterClosed,
    /// An error bubbled up from the BlobSeer storage layer.
    Storage(blobseer::BlobSeerError),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Namespace(e) => fmt::Display::fmt(e, f),
            FsError::OutOfBounds {
                path,
                requested_end,
                size,
            } => {
                write!(
                    f,
                    "read past end of {path}: requested byte {requested_end}, size {size}"
                )
            }
            FsError::WriterClosed => write!(f, "writer already closed"),
            FsError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for FsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FsError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NamespaceError> for FsError {
    fn from(e: NamespaceError) -> Self {
        FsError::Namespace(e)
    }
}

impl From<blobseer::BlobSeerError> for FsError {
    fn from(e: blobseer::BlobSeerError) -> Self {
        FsError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e: FsError = NamespaceError::FileNotFound("/a".into()).into();
        assert_eq!(e.to_string(), "file not found: /a");
        assert!(FsError::WriterClosed.to_string().contains("closed"));
        let e = FsError::OutOfBounds {
            path: "/f".into(),
            requested_end: 10,
            size: 5,
        };
        assert!(e.to_string().contains("10"));
        let e: FsError = blobseer::BlobSeerError::NoProviders.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
