//! The centralized namespace manager.
//!
//! "This layer consists in a centralized namespace manager, which is
//! responsible for maintaining a file system namespace, and for mapping files
//! to BLOBs" (paper §III-B). The manager is the shared namespace tree
//! ([`simcluster::fs::Namespace`]) over [`FileEntry`]: files map to the
//! [`blobseer::BlobId`] holding their contents, directories are pure
//! namespace entries. All operations are thread-safe and serialized on a
//! single lock — exactly the centralization the paper describes, and the same
//! tree HDFS's namenode keeps.

use blobseer::BlobId;
use simcluster::fs::Namespace;

/// Metadata kept for every file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileEntry {
    /// Blob storing the file contents.
    pub blob: BlobId,
}

/// The centralized namespace manager: the namespace tree over BSFS files.
pub type NamespaceManager = Namespace<FileEntry>;

/// Status returned by [`NamespaceManager::status`].
pub type PathStatus = simcluster::fs::PathStatus<FileEntry>;

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::fs::{normalize, parent_of, NamespaceError};

    fn file(id: u64) -> FileEntry {
        FileEntry { blob: BlobId(id) }
    }

    #[test]
    fn normalize_paths() {
        assert_eq!(normalize("/a/b").unwrap(), "/a/b");
        assert_eq!(normalize("/a//b/").unwrap(), "/a/b");
        assert_eq!(normalize("/").unwrap(), "/");
        assert_eq!(normalize("/./a").unwrap(), "/a");
        assert!(normalize("relative/path").is_err());
        assert!(normalize("").is_err());
        assert!(normalize("/a/../b").is_err());
    }

    #[test]
    fn parent_computation() {
        assert_eq!(parent_of("/a/b/c"), "/a/b");
        assert_eq!(parent_of("/a"), "/");
        assert_eq!(parent_of("/"), "/");
    }

    #[test]
    fn create_lookup_remove_file() {
        let ns = NamespaceManager::new();
        ns.create_file("/data.txt", file(1)).unwrap();
        let entry = ns.lookup("/data.txt").unwrap();
        assert_eq!(entry.blob, BlobId(1));
        assert!(ns.exists("/data.txt"));
        assert_eq!(ns.file_count(), 1);
        let removed = ns.remove_file("/data.txt").unwrap();
        assert_eq!(removed.blob, BlobId(1));
        assert!(!ns.exists("/data.txt"));
        assert!(matches!(
            ns.lookup("/data.txt"),
            Err(NamespaceError::FileNotFound(_))
        ));
    }

    #[test]
    fn duplicate_creation_fails() {
        let ns = NamespaceManager::new();
        ns.create_file("/f", file(0)).unwrap();
        assert!(matches!(
            ns.create_file("/f", file(1)),
            Err(NamespaceError::AlreadyExists(_))
        ));
        ns.mkdirs("/d").unwrap();
        assert!(matches!(
            ns.create_file("/d", file(1)),
            Err(NamespaceError::AlreadyExists(_))
        ));
    }

    #[test]
    fn parent_must_exist() {
        let ns = NamespaceManager::new();
        // A create makes its missing ancestors, as Hadoop's `create` does...
        ns.create_file("/missing/file", file(0)).unwrap();
        assert_eq!(ns.status("/missing").unwrap(), PathStatus::Directory);
        // ...but never through a file, and a rename needs its parent.
        assert!(matches!(
            ns.create_file("/missing/file/below", file(1)),
            Err(NamespaceError::NotADirectory(_))
        ));
        assert!(matches!(
            ns.rename("/missing/file", "/absent/file"),
            Err(NamespaceError::ParentMissing(_))
        ));
    }

    #[test]
    fn mkdirs_creates_ancestors_and_listing_works() {
        let ns = NamespaceManager::new();
        ns.mkdirs("/a/b/c").unwrap();
        assert!(ns.exists("/a"));
        assert!(ns.exists("/a/b"));
        assert!(ns.exists("/a/b/c"));
        ns.create_file("/a/b/file1", file(1)).unwrap();
        ns.create_file("/a/b/file2", file(2)).unwrap();
        let children = ns.list("/a/b").unwrap();
        assert_eq!(children, vec!["/a/b/c", "/a/b/file1", "/a/b/file2"]);
        let top = ns.list("/").unwrap();
        assert_eq!(top, vec!["/a"]);
        assert!(matches!(
            ns.list("/a/b/file1"),
            Err(NamespaceError::NotADirectory(_))
        ));
        assert!(matches!(
            ns.list("/nope"),
            Err(NamespaceError::FileNotFound(_))
        ));
    }

    #[test]
    fn status_variants() {
        let ns = NamespaceManager::new();
        ns.mkdirs("/dir").unwrap();
        ns.create_file("/dir/f", file(3)).unwrap();
        assert_eq!(ns.status("/dir").unwrap(), PathStatus::Directory);
        assert!(matches!(ns.status("/dir/f").unwrap(), PathStatus::File(_)));
        assert_eq!(ns.status("/other").unwrap(), PathStatus::Missing);
        assert!(matches!(
            ns.lookup("/dir"),
            Err(NamespaceError::IsADirectory(_))
        ));
    }

    #[test]
    fn remove_dir_requires_empty_unless_recursive() {
        let ns = NamespaceManager::new();
        ns.mkdirs("/out/logs").unwrap();
        ns.create_file("/out/part-0", file(1)).unwrap();
        ns.create_file("/out/logs/l0", file(2)).unwrap();
        assert!(matches!(
            ns.remove_dir("/out", false),
            Err(NamespaceError::DirectoryNotEmpty(_))
        ));
        let removed = ns.remove_dir("/out", true).unwrap();
        assert_eq!(removed.len(), 2);
        assert!(!ns.exists("/out"));
        assert!(!ns.exists("/out/logs"));
        assert_eq!(ns.file_count(), 0);
        assert!(matches!(
            ns.remove_dir("/", true),
            Err(NamespaceError::InvalidPath(_))
        ));
    }

    #[test]
    fn rename_file_and_directory() {
        let ns = NamespaceManager::new();
        ns.mkdirs("/a").unwrap();
        ns.mkdirs("/b").unwrap();
        ns.create_file("/a/f", file(1)).unwrap();
        ns.rename("/a/f", "/b/g").unwrap();
        assert!(!ns.exists("/a/f"));
        assert_eq!(ns.lookup("/b/g").unwrap().blob, BlobId(1));

        // Directory rename moves everything under it.
        ns.create_file("/a/nested", file(2)).unwrap();
        ns.rename("/a", "/c").unwrap();
        assert!(!ns.exists("/a"));
        assert!(ns.exists("/c"));
        assert_eq!(ns.lookup("/c/nested").unwrap().blob, BlobId(2));

        // Destination collisions and missing parents are rejected.
        assert!(matches!(
            ns.rename("/c/nested", "/b/g"),
            Err(NamespaceError::AlreadyExists(_))
        ));
        assert!(matches!(
            ns.rename("/c/nested", "/zz/x"),
            Err(NamespaceError::ParentMissing(_))
        ));
        assert!(matches!(
            ns.rename("/ghost", "/b/h"),
            Err(NamespaceError::FileNotFound(_))
        ));
        // A directory cannot move below itself: the subtree would be cut
        // off from the root.
        assert!(matches!(
            ns.rename("/c", "/c/d"),
            Err(NamespaceError::InvalidPath(_))
        ));
        assert_eq!(ns.list("/c").unwrap(), ["/c/nested"]);
    }
}
