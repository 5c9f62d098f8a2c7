//! The file-system layer's shared mechanisms: one namespace tree and one
//! block write buffer.
//!
//! The paper swaps only the storage layer under an unchanged Hadoop (§IV),
//! and BSFS's namespace manager is the same design point as HDFS's namenode:
//! a centralized, in-memory table of absolute paths, every operation
//! serialized on one lock. Both file systems therefore keep their namespace
//! in a [`Namespace`], generic over what a file is — a BlobSeer blob for
//! BSFS, a chunk list with a write-once state for HDFS — and both commit
//! sequential writes one block at a time through a [`WriteBuffer`]. The
//! BSFS-versus-HDFS comparison then differs only in storage.

use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Result alias for namespace operations.
pub type NamespaceResult<T> = Result<T, NamespaceError>;

/// Errors of the namespace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamespaceError {
    /// The path does not name an existing file.
    FileNotFound(String),
    /// The path already names a file or directory.
    AlreadyExists(String),
    /// The path names a file where a directory was expected.
    NotADirectory(String),
    /// The path names a directory where a file was expected.
    IsADirectory(String),
    /// The parent directory of the path does not exist.
    ParentMissing(String),
    /// A path was syntactically invalid (empty, not absolute, ...).
    InvalidPath(String),
    /// The directory is not empty and recursive deletion was not requested.
    DirectoryNotEmpty(String),
}

impl fmt::Display for NamespaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NamespaceError::FileNotFound(p) => write!(f, "file not found: {p}"),
            NamespaceError::AlreadyExists(p) => write!(f, "path already exists: {p}"),
            NamespaceError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            NamespaceError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            NamespaceError::ParentMissing(p) => {
                write!(f, "parent directory does not exist: {p}")
            }
            NamespaceError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            NamespaceError::DirectoryNotEmpty(p) => write!(f, "directory not empty: {p}"),
        }
    }
}

impl std::error::Error for NamespaceError {}

/// Status returned by [`Namespace::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathStatus<F> {
    /// The path is a file with the given payload.
    File(F),
    /// The path is a directory.
    Directory,
    /// The path does not exist.
    Missing,
}

/// Normalise an absolute path: require a leading '/', collapse duplicate
/// slashes, strip a trailing slash (except for the root itself).
pub fn normalize(path: &str) -> NamespaceResult<String> {
    if path.is_empty() || !path.starts_with('/') {
        return Err(NamespaceError::InvalidPath(path.to_string()));
    }
    let mut parts: Vec<&str> = Vec::new();
    for part in path.split('/') {
        match part {
            "" | "." => continue,
            ".." => return Err(NamespaceError::InvalidPath(path.to_string())),
            p => parts.push(p),
        }
    }
    if parts.is_empty() {
        Ok("/".to_string())
    } else {
        Ok(format!("/{}", parts.join("/")))
    }
}

/// The parent directory of a normalised path ("/" for top-level entries).
pub fn parent_of(path: &str) -> String {
    match path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(idx) => path[..idx].to_string(),
    }
}

struct Tree<F> {
    files: BTreeMap<String, F>,
    directories: BTreeSet<String>,
}

impl<F> Tree<F> {
    /// Create every directory on the way down to `path`, `path` included.
    fn add_dirs(&mut self, path: &str) -> NamespaceResult<()> {
        let mut current = String::new();
        for part in path.split('/').filter(|p| !p.is_empty()) {
            current.push('/');
            current.push_str(part);
            if self.files.contains_key(&current) {
                return Err(NamespaceError::NotADirectory(current));
            }
            self.directories.insert(current.clone());
        }
        Ok(())
    }
}

/// A hierarchical namespace of absolute paths whose files carry a payload
/// `F`; directories are pure namespace entries. All operations are
/// thread-safe and serialized on a single lock.
pub struct Namespace<F> {
    inner: Mutex<Tree<F>>,
}

impl<F> Default for Namespace<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F> Namespace<F> {
    /// Create a namespace containing only the root directory.
    pub fn new() -> Self {
        Namespace {
            inner: Mutex::new(Tree {
                files: BTreeMap::new(),
                directories: BTreeSet::from(["/".to_string()]),
            }),
        }
    }

    /// Register a new file at `path` carrying `file`, creating any missing
    /// ancestor directories under the same lock hold (Hadoop's `create`
    /// behaviour). Returns the normalised path.
    pub fn create_file(&self, path: &str, file: F) -> NamespaceResult<String> {
        let path = normalize(path)?;
        if path == "/" {
            return Err(NamespaceError::IsADirectory(path));
        }
        let mut inner = self.inner.lock();
        if inner.files.contains_key(&path) || inner.directories.contains(&path) {
            return Err(NamespaceError::AlreadyExists(path));
        }
        inner.add_dirs(&parent_of(&path))?;
        inner.files.insert(path.clone(), file);
        Ok(path)
    }

    /// Create a directory and any missing ancestors.
    pub fn mkdirs(&self, path: &str) -> NamespaceResult<()> {
        let path = normalize(path)?;
        let mut inner = self.inner.lock();
        if inner.files.contains_key(&path) {
            return Err(NamespaceError::AlreadyExists(path));
        }
        inner.add_dirs(&path)
    }

    /// Does the path exist (as a file or a directory)?
    pub fn exists(&self, path: &str) -> bool {
        let Ok(path) = normalize(path) else {
            return false;
        };
        let inner = self.inner.lock();
        inner.files.contains_key(&path) || inner.directories.contains(&path)
    }

    /// Run `update` on the payload of the file at `path`, under the lock.
    pub fn update_file<R, E: From<NamespaceError>>(
        &self,
        path: &str,
        update: impl FnOnce(&mut F) -> Result<R, E>,
    ) -> Result<R, E> {
        let path = normalize(path)?;
        let mut inner = self.inner.lock();
        match inner.files.get_mut(&path) {
            Some(file) => update(file),
            None => Err(NamespaceError::FileNotFound(path).into()),
        }
    }

    /// List the immediate children of a directory (file and directory names,
    /// sorted).
    pub fn list(&self, path: &str) -> NamespaceResult<Vec<String>> {
        let path = normalize(path)?;
        let inner = self.inner.lock();
        if inner.files.contains_key(&path) {
            return Err(NamespaceError::NotADirectory(path));
        }
        if !inner.directories.contains(&path) {
            return Err(NamespaceError::FileNotFound(path));
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let mut children = BTreeSet::new();
        for candidate in inner.files.keys().chain(inner.directories.iter()) {
            if candidate == &path {
                continue;
            }
            if let Some(rest) = candidate.strip_prefix(&prefix) {
                if let Some(first) = rest.split('/').next() {
                    if !first.is_empty() {
                        children.insert(format!("{prefix}{first}"));
                    }
                }
            }
        }
        Ok(children.into_iter().collect())
    }

    /// Remove a file, returning its payload (the caller frees the storage
    /// behind it).
    pub fn remove_file(&self, path: &str) -> NamespaceResult<F> {
        let path = normalize(path)?;
        let mut inner = self.inner.lock();
        if inner.directories.contains(&path) {
            return Err(NamespaceError::IsADirectory(path));
        }
        inner
            .files
            .remove(&path)
            .ok_or(NamespaceError::FileNotFound(path))
    }

    /// Remove a directory. When `recursive` is false the directory must be
    /// empty. Returns the payloads of the files that were removed.
    pub fn remove_dir(&self, path: &str, recursive: bool) -> NamespaceResult<Vec<F>> {
        let path = normalize(path)?;
        if path == "/" {
            return Err(NamespaceError::InvalidPath(
                "cannot remove the root directory".into(),
            ));
        }
        let mut inner = self.inner.lock();
        if inner.files.contains_key(&path) {
            return Err(NamespaceError::NotADirectory(path));
        }
        if !inner.directories.contains(&path) {
            return Err(NamespaceError::FileNotFound(path));
        }
        let prefix = format!("{path}/");
        let child_files: Vec<String> = inner
            .files
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        let child_dirs: Vec<String> = inner
            .directories
            .iter()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        if !recursive && (!child_files.is_empty() || !child_dirs.is_empty()) {
            return Err(NamespaceError::DirectoryNotEmpty(path));
        }
        let mut removed = Vec::with_capacity(child_files.len());
        for f in child_files {
            if let Some(file) = inner.files.remove(&f) {
                removed.push(file);
            }
        }
        for d in child_dirs {
            inner.directories.remove(&d);
        }
        inner.directories.remove(&path);
        Ok(removed)
    }

    /// Rename a file or directory (and, for directories, everything under it).
    pub fn rename(&self, from: &str, to: &str) -> NamespaceResult<()> {
        let from = normalize(from)?;
        let to = normalize(to)?;
        if from == "/" || to == "/" {
            return Err(NamespaceError::InvalidPath(
                "cannot rename the root directory".into(),
            ));
        }
        if to.starts_with(&format!("{from}/")) {
            // The subtree would be cut off from the root.
            return Err(NamespaceError::InvalidPath(format!(
                "cannot move {from} into itself"
            )));
        }
        let mut inner = self.inner.lock();
        if inner.files.contains_key(&to) || inner.directories.contains(&to) {
            return Err(NamespaceError::AlreadyExists(to));
        }
        let to_parent = parent_of(&to);
        if !inner.directories.contains(&to_parent) {
            return Err(NamespaceError::ParentMissing(to_parent));
        }
        if let Some(file) = inner.files.remove(&from) {
            inner.files.insert(to, file);
            return Ok(());
        }
        if inner.directories.contains(&from) {
            let prefix = format!("{from}/");
            let moved_files: Vec<String> = inner
                .files
                .keys()
                .filter(|k| k.starts_with(&prefix))
                .cloned()
                .collect();
            for k in moved_files {
                if let Some(file) = inner.files.remove(&k) {
                    inner
                        .files
                        .insert(format!("{to}/{}", &k[prefix.len()..]), file);
                }
            }
            let moved_dirs: Vec<String> = inner
                .directories
                .iter()
                .filter(|k| k.starts_with(&prefix) || **k == from)
                .cloned()
                .collect();
            for d in moved_dirs {
                inner.directories.remove(&d);
                let new_key = if d == from {
                    to.clone()
                } else {
                    format!("{to}/{}", &d[prefix.len()..])
                };
                inner.directories.insert(new_key);
            }
            return Ok(());
        }
        Err(NamespaceError::FileNotFound(from))
    }

    /// Number of files in the namespace.
    pub fn file_count(&self) -> usize {
        self.inner.lock().files.len()
    }
}

impl<F: Clone> Namespace<F> {
    /// The payload of a file.
    pub fn lookup(&self, path: &str) -> NamespaceResult<F> {
        let path = normalize(path)?;
        let inner = self.inner.lock();
        if inner.directories.contains(&path) {
            return Err(NamespaceError::IsADirectory(path));
        }
        inner
            .files
            .get(&path)
            .cloned()
            .ok_or(NamespaceError::FileNotFound(path))
    }

    /// Status of a path.
    pub fn status(&self, path: &str) -> NamespaceResult<PathStatus<F>> {
        let path = normalize(path)?;
        let inner = self.inner.lock();
        if let Some(file) = inner.files.get(&path) {
            Ok(PathStatus::File(file.clone()))
        } else if inner.directories.contains(&path) {
            Ok(PathStatus::Directory)
        } else {
            Ok(PathStatus::Missing)
        }
    }
}

/// A full block handed to a [`WriteBuffer::push`] commit; either way it
/// reads as the block's bytes.
#[derive(Debug)]
pub enum Block<'a> {
    /// The block lies whole in the data passed to `push`.
    Borrowed(&'a [u8]),
    /// The block was assembled in the buffer. A commit that stores the
    /// bytes owned takes them (`std::mem::take`) rather than copying them;
    /// if it then fails, the bytes are its to lose.
    Buffered(&'a mut Vec<u8>),
}

impl std::ops::Deref for Block<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Block::Borrowed(block) => block,
            Block::Buffered(block) => block,
        }
    }
}

/// A write-back buffer that releases full blocks, so that a stream of small
/// writes reaches storage as one write per block. Not thread-safe: each
/// writer owns its buffer, as in the Hadoop client library.
#[derive(Debug)]
pub struct WriteBuffer {
    block_size: usize,
    buffer: Vec<u8>,
    /// Total bytes accepted (buffered + already released).
    total: u64,
}

impl WriteBuffer {
    /// Create a buffer that releases blocks of `block_size` bytes.
    pub fn new(block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        let block_size = block_size as usize;
        WriteBuffer {
            block_size,
            buffer: Vec::with_capacity(block_size),
            total: 0,
        }
    }

    /// Append `data`, handing every block it fills to `commit`, in order —
    /// one storage write each. Full blocks go to `commit` straight out of
    /// `data`, uncopied; only a partial block is buffered, the head that
    /// tops up an earlier partial block included, and only the tail shorter
    /// than a block stays behind.
    ///
    /// Stops at the first failed commit and returns its error. The bytes of
    /// that block and everything after it are not accepted, and a failed
    /// top-up that left the buffer in place leaves the partial block as it
    /// was: no buffered byte is lost.
    pub fn push<E>(
        &mut self,
        data: &[u8],
        mut commit: impl FnMut(Block<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut rest = data;
        // Top up a partial block first; it is committed once it fills.
        if !self.buffer.is_empty() {
            let room = self.block_size - self.buffer.len();
            if rest.len() < room {
                self.accept(rest);
                return Ok(());
            }
            let (fill, tail) = rest.split_at(room);
            self.buffer.extend_from_slice(fill);
            if let Err(e) = commit(Block::Buffered(&mut self.buffer)) {
                self.buffer.truncate(self.block_size - room);
                return Err(e);
            }
            self.buffer.clear();
            self.buffer.reserve_exact(self.block_size);
            self.total += room as u64;
            rest = tail;
        }
        let mut blocks = rest.chunks_exact(self.block_size);
        for block in blocks.by_ref() {
            commit(Block::Borrowed(block))?;
            self.total += block.len() as u64;
        }
        self.accept(blocks.remainder());
        Ok(())
    }

    /// Buffer bytes that do not fill a block.
    fn accept(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
        self.total += bytes.len() as u64;
    }

    /// Take whatever partial block remains (used on close/flush). Returns
    /// `None` when nothing is buffered.
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        if self.buffer.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.buffer))
        }
    }

    /// Bytes currently sitting in the buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Total bytes pushed through the buffer so far.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_the_file_systems_own() {
        let p = || "/p".to_string();
        let shown: Vec<String> = [
            NamespaceError::FileNotFound(p()),
            NamespaceError::AlreadyExists(p()),
            NamespaceError::NotADirectory(p()),
            NamespaceError::IsADirectory(p()),
            NamespaceError::ParentMissing(p()),
            NamespaceError::InvalidPath(p()),
            NamespaceError::DirectoryNotEmpty(p()),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            shown,
            [
                "file not found: /p",
                "path already exists: /p",
                "not a directory: /p",
                "is a directory: /p",
                "parent directory does not exist: /p",
                "invalid path: /p",
                "directory not empty: /p",
            ]
        );
    }

    #[test]
    fn create_file_makes_ancestors_but_not_through_a_file() {
        let ns = Namespace::new();
        assert_eq!(ns.create_file("/a//b/f/", 1).unwrap(), "/a/b/f");
        assert_eq!(ns.list("/a").unwrap(), ["/a/b"]);
        assert_eq!(
            ns.create_file("/a/b/f/g", 2),
            Err(NamespaceError::NotADirectory("/a/b/f".into()))
        );
        assert_eq!(
            ns.create_file("/", 3),
            Err(NamespaceError::IsADirectory("/".into()))
        );
        assert_eq!(ns.file_count(), 1);
    }

    #[test]
    fn update_file_changes_a_payload_in_place() {
        let ns = Namespace::new();
        ns.create_file("/f", vec![1]).unwrap();
        let len = ns
            .update_file("/f", |chunks: &mut Vec<u32>| -> NamespaceResult<usize> {
                chunks.push(2);
                Ok(chunks.len())
            })
            .unwrap();
        assert_eq!(len, 2);
        assert_eq!(ns.lookup("/f").unwrap(), [1, 2]);
        assert_eq!(
            ns.update_file("/ghost", |_| Ok(())),
            Err(NamespaceError::FileNotFound("/ghost".into()))
        );
    }
}
