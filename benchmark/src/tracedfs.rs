//! A `DistFs` that records a span around every call it forwards: the
//! file-system boundary of BSFS and of the MapReduce shuffle, seen from
//! outside. The traced binary passes it in; the untraced binary does not.
//!
//! Data calls are named by what the path says the bytes are for:
//!
//! | call                          | path                      | span              |
//! |-------------------------------|---------------------------|-------------------|
//! | `read_at`                     | under `_shuffle-*`        | `mr.fetch`        |
//! | `read_at`                     | anything else             | `bsfs.read_at`    |
//! | `write`/`close`               | `attempt-map-*`, `attempt-compact-*` | `mr.spill_write` |
//! | `write`/`close`               | `attempt-reduce-*`        | `mr.output_write` |
//! | `write`/`close`               | anything else             | `bsfs.write`      |
//! | every other `DistFs` method   |                           | `mr.fs_meta`      |
//!
//! Time inside the calls is also summed per class ([`FsStats`]), because
//! the shortest write calls are too many to keep as spans.

use crate::spans;
use bytes::Bytes;
use mapreduce::{BlockHint, DistFs, FileReader, FileWriter, MrResult};
use simcluster::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const READ_AT: &str = "bsfs.read_at";
pub const WRITE: &str = "bsfs.write";
pub const FETCH: &str = "mr.fetch";
pub const SPILL_WRITE: &str = "mr.spill_write";
pub const OUTPUT_WRITE: &str = "mr.output_write";
pub const FS_META: &str = "mr.fs_meta";
const CLASSES: [&str; 6] = [READ_AT, WRITE, FETCH, SPILL_WRITE, OUTPUT_WRITE, FS_META];

/// A reduce task writes its output a record at a time, and almost every
/// such call only copies into the writer's buffer. Write calls shorter than
/// this stay out of the trace; [`FsStats`] still counts their time.
const MIN_WRITE_SPAN_NS: u64 = 20_000;

/// What the wrapper counts, shared by every handle it hands out.
#[derive(Default)]
pub struct FsStats {
    /// Positioned reads forwarded, spans on or off: set against the blob
    /// layer's own read count, it gives the BSFS block cache's hit rate.
    reads: AtomicU64,
    /// Nanoseconds inside forwarded calls while spans were on, per class.
    busy_ns: [AtomicU64; 6],
}

impl FsStats {
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Seconds spent inside calls of `class` while spans were on, summed
    /// over threads.
    pub fn busy_s(&self, class: &str) -> f64 {
        self.busy_ns[index_of(class)].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Run `f` as one forwarded call of class number `class`.
    fn call<T>(&self, class: usize, min_span_ns: u64, f: impl FnOnce() -> T) -> T {
        if !spans::enabled() {
            return f();
        }
        let _span = spans::enter_if_longer(CLASSES[class], min_span_ns);
        let start = Instant::now();
        let out = f();
        // Relaxed: a statistic that publishes nothing else.
        self.busy_ns[class].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// Where `class` stands in [`CLASSES`].
fn index_of(class: &str) -> usize {
    CLASSES
        .iter()
        .position(|c| *c == class)
        .expect("a class this file defines")
}

fn read_class(path: &str) -> &'static str {
    if path.contains("/_shuffle") {
        FETCH
    } else {
        READ_AT
    }
}

fn write_class(path: &str) -> &'static str {
    if path.contains("/attempt-map-") || path.contains("/attempt-compact-") {
        SPILL_WRITE
    } else if path.contains("/attempt-reduce-") {
        OUTPUT_WRITE
    } else {
        WRITE
    }
}

/// The wrapper. Cloning shares the wrapped file system.
#[derive(Clone)]
pub struct TracedFs {
    inner: Arc<dyn DistFs>,
    stats: Arc<FsStats>,
}

impl TracedFs {
    pub fn new(inner: Arc<dyn DistFs>, stats: Arc<FsStats>) -> Self {
        TracedFs { inner, stats }
    }

    fn meta<T>(&self, f: impl FnOnce() -> T) -> T {
        self.stats.call(index_of(FS_META), 0, f)
    }
}

struct TracedWriter {
    inner: Box<dyn FileWriter>,
    /// Index into [`CLASSES`], looked up once when the file is opened.
    class: usize,
    stats: Arc<FsStats>,
}

impl FileWriter for TracedWriter {
    fn write(&mut self, data: &[u8]) -> MrResult<()> {
        let inner = &mut self.inner;
        self.stats
            .call(self.class, MIN_WRITE_SPAN_NS, || inner.write(data))
    }
    fn close(&mut self) -> MrResult<()> {
        let inner = &mut self.inner;
        self.stats.call(self.class, 0, || inner.close())
    }
}

struct TracedReader {
    inner: Box<dyn FileReader>,
    /// Index into [`CLASSES`], looked up once when the file is opened.
    class: usize,
    stats: Arc<FsStats>,
}

impl FileReader for TracedReader {
    fn read_at(&mut self, offset: u64, len: u64) -> MrResult<Bytes> {
        // Relaxed: a statistic that publishes nothing else.
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.stats
            .call(self.class, 0, || inner.read_at(offset, len))
    }
    fn len(&mut self) -> MrResult<u64> {
        let inner = &mut self.inner;
        self.stats.call(index_of(FS_META), 0, || inner.len())
    }
}

impl DistFs for TracedFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn create(&self, path: &str) -> MrResult<Box<dyn FileWriter>> {
        Ok(Box::new(TracedWriter {
            inner: self.meta(|| self.inner.create(path))?,
            class: index_of(write_class(path)),
            stats: Arc::clone(&self.stats),
        }))
    }
    fn open(&self, path: &str) -> MrResult<Box<dyn FileReader>> {
        Ok(Box::new(TracedReader {
            inner: self.meta(|| self.inner.open(path))?,
            class: index_of(read_class(path)),
            stats: Arc::clone(&self.stats),
        }))
    }
    fn len(&self, path: &str) -> MrResult<u64> {
        self.meta(|| self.inner.len(path))
    }
    fn exists(&self, path: &str) -> bool {
        self.meta(|| self.inner.exists(path))
    }
    fn list(&self, path: &str) -> MrResult<Vec<String>> {
        self.meta(|| self.inner.list(path))
    }
    fn mkdirs(&self, path: &str) -> MrResult<()> {
        self.meta(|| self.inner.mkdirs(path))
    }
    fn delete(&self, path: &str, recursive: bool) -> MrResult<()> {
        self.meta(|| self.inner.delete(path, recursive))
    }
    fn rename(&self, from: &str, to: &str) -> MrResult<()> {
        self.meta(|| self.inner.rename(from, to))
    }
    fn locate(&self, path: &str, offset: u64, len: u64) -> MrResult<Vec<BlockHint>> {
        self.meta(|| self.inner.locate(path, offset, len))
    }
    fn on_node(&self, node: NodeId) -> Box<dyn DistFs> {
        Box::new(TracedFs {
            inner: Arc::from(self.inner.on_node(node)),
            stats: Arc::clone(&self.stats),
        })
    }
    // `read_file` and `write_file` keep their default bodies, which go
    // through `open`/`create` above and are therefore traced call by call.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_classed_by_what_the_bytes_are_for() {
        assert_eq!(read_class("/input/text"), READ_AT);
        assert_eq!(read_class("/sort-out/_shuffle-000003/map-00001"), FETCH);
        assert_eq!(
            write_class("/sort-out/_temporary-000003/attempt-map-00001-0"),
            SPILL_WRITE
        );
        assert_eq!(
            write_class("/sort-out/_temporary-000003/attempt-compact-00000-0"),
            SPILL_WRITE
        );
        assert_eq!(
            write_class("/sort-out/_temporary-000003/attempt-reduce-00002-0"),
            OUTPUT_WRITE
        );
        assert_eq!(write_class("/input/text"), WRITE);
    }
}
