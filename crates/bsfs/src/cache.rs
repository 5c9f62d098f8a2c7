//! Client-side caching: prefetch-on-read and write-back-on-full-block.
//!
//! "We also implemented a caching mechanism for read/write operations, as
//! MapReduce applications usually process data in small records (4KB, whereas
//! Hadoop is concerned). This mechanism prefetches a whole block when the
//! requested data is not already cached, and delays committing writes until a
//! whole block has been filled in the cache." (paper §III-B)
//!
//! Two small, single-owner helpers implement exactly that:
//!
//! * [`ReadCache`] — holds up to `capacity` most-recently-used whole blocks;
//!   a miss triggers a whole-block fetch through the supplied loader.
//! * [`WriteBuffer`] — accumulates sequential writes and hands every block
//!   that fills up to a commit closure, straight from the caller's slice
//!   when the block lies whole in it; the owner commits each as a single
//!   BlobSeer append.
//!
//! Both are deliberately *not* thread-safe: each MapReduce task owns its own
//! reader/writer, matching how the Hadoop client library behaves.

use bytes::Bytes;
use std::collections::VecDeque;

/// Statistics kept by [`ReadCache`] (exposed for the A2 cache ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served entirely from cached blocks.
    pub hits: u64,
    /// Requests that had to load at least one block.
    pub misses: u64,
    /// Whole blocks fetched from storage.
    pub blocks_loaded: u64,
    /// Bytes fetched from storage (block granularity).
    pub bytes_loaded: u64,
}

/// A most-recently-used cache of whole blocks of one file.
#[derive(Debug)]
pub struct ReadCache {
    block_size: u64,
    capacity: usize,
    /// (block index, block contents), most recently used last.
    blocks: VecDeque<(u64, Bytes)>,
    stats: CacheStats,
}

impl ReadCache {
    /// Create a cache holding up to `capacity` blocks of `block_size` bytes.
    pub fn new(block_size: u64, capacity: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        assert!(capacity > 0, "cache capacity must be at least one block");
        ReadCache {
            block_size,
            capacity,
            blocks: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configured block size.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Read `len` bytes at `offset` of a file of `file_size` bytes, loading
    /// whole blocks through `load` on misses. `load(block_index, block_len)`
    /// must return exactly `block_len` bytes.
    pub fn read<E>(
        &mut self,
        offset: u64,
        len: u64,
        file_size: u64,
        mut load: impl FnMut(u64, u64) -> Result<Bytes, E>,
    ) -> Result<Bytes, E> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        debug_assert!(offset + len <= file_size, "caller enforces bounds");
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = offset;
        let end = offset + len;
        let mut any_miss = false;
        while pos < end {
            let block = pos / self.block_size;
            let block_start = block * self.block_size;
            let block_len = (file_size - block_start).min(self.block_size);
            let data = match self.lookup(block) {
                Some(b) => b,
                None => {
                    any_miss = true;
                    let loaded = load(block, block_len)?;
                    debug_assert_eq!(loaded.len() as u64, block_len);
                    self.stats.blocks_loaded += 1;
                    self.stats.bytes_loaded += loaded.len() as u64;
                    self.insert(block, loaded.clone());
                    loaded
                }
            };
            let from = (pos - block_start) as usize;
            let to = ((end.min(block_start + block_len)) - block_start) as usize;
            out.extend_from_slice(&data[from..to]);
            pos = block_start + to as u64;
        }
        if any_miss {
            self.stats.misses += 1;
        } else {
            self.stats.hits += 1;
        }
        Ok(Bytes::from(out))
    }

    fn lookup(&mut self, block: u64) -> Option<Bytes> {
        let idx = self.blocks.iter().position(|(b, _)| *b == block)?;
        // Move to the back (most recently used).
        let entry = self.blocks.remove(idx)?;
        let data = entry.1.clone();
        self.blocks.push_back(entry);
        Some(data)
    }

    fn insert(&mut self, block: u64, data: Bytes) {
        if self.blocks.len() == self.capacity {
            self.blocks.pop_front();
        }
        self.blocks.push_back((block, data));
    }

    /// Drop all cached blocks (e.g. after the file grew).
    pub fn invalidate(&mut self) {
        self.blocks.clear();
    }
}

/// A write-back buffer that releases full blocks.
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
    /// top-up leaves the partial block as it was: no buffered byte is lost.
    pub fn push<E>(
        &mut self,
        data: &[u8],
        mut commit: impl FnMut(&[u8]) -> Result<(), E>,
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
            if let Err(e) = commit(&self.buffer) {
                self.buffer.truncate(self.block_size - room);
                return Err(e);
            }
            self.buffer.clear();
            self.total += room as u64;
            rest = tail;
        }
        let mut blocks = rest.chunks_exact(self.block_size);
        for block in blocks.by_ref() {
            commit(block)?;
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
    pub fn flush(&mut self) -> Option<Bytes> {
        if self.buffer.is_empty() {
            None
        } else {
            Some(Bytes::from(std::mem::take(&mut self.buffer)))
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
    use std::cell::RefCell;
    use std::convert::Infallible;
    use std::rc::Rc;

    /// A loader that serves from a backing vector and records which blocks it
    /// was asked for.
    fn loader(
        backing: &[u8],
        block_size: u64,
        calls: Rc<RefCell<Vec<u64>>>,
    ) -> impl FnMut(u64, u64) -> Result<Bytes, Infallible> {
        let backing = backing.to_vec();
        move |block, block_len| {
            calls.borrow_mut().push(block);
            let start = (block * block_size) as usize;
            Ok(Bytes::from(
                backing[start..start + block_len as usize].to_vec(),
            ))
        }
    }

    #[test]
    fn small_reads_within_one_block_hit_after_first_miss() {
        let data: Vec<u8> = (0..200u8).collect();
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut cache = ReadCache::new(64, 2);
        {
            let mut load = loader(&data, 64, Rc::clone(&calls));
            // 16 sequential 4-byte reads inside block 0: one load only.
            for i in 0..16u64 {
                let got = cache.read(i * 4, 4, 200, &mut load).unwrap();
                assert_eq!(&got[..], &data[(i * 4) as usize..(i * 4 + 4) as usize]);
            }
        }
        assert_eq!(*calls.borrow(), vec![0]);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 15);
        assert_eq!(stats.blocks_loaded, 1);
        assert_eq!(stats.bytes_loaded, 64);
    }

    #[test]
    fn read_crossing_blocks_loads_both() {
        let data: Vec<u8> = (0..=255u8).collect();
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut cache = ReadCache::new(100, 4);
        {
            let mut load = loader(&data, 100, Rc::clone(&calls));
            let got = cache.read(90, 20, 256, &mut load).unwrap();
            assert_eq!(&got[..], &data[90..110]);
        }
        assert_eq!(*calls.borrow(), vec![0, 1]);
    }

    #[test]
    fn last_partial_block_is_loaded_with_its_true_length() {
        let data: Vec<u8> = (0..130u8).collect();
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut cache = ReadCache::new(100, 2);
        {
            let mut load = loader(&data, 100, Rc::clone(&calls));
            let got = cache.read(100, 30, 130, &mut load).unwrap();
            assert_eq!(&got[..], &data[100..130]);
        }
        assert_eq!(*calls.borrow(), vec![1]);
        assert_eq!(cache.stats().bytes_loaded, 30);
    }

    #[test]
    fn lru_eviction_refetches_oldest_block() {
        let data = vec![7u8; 400];
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut cache = ReadCache::new(100, 2);
        {
            let mut load = loader(&data, 100, Rc::clone(&calls));
            cache.read(0, 10, 400, &mut load).unwrap(); // block 0
            cache.read(100, 10, 400, &mut load).unwrap(); // block 1
            cache.read(200, 10, 400, &mut load).unwrap(); // block 2 evicts 0
            cache.read(0, 10, 400, &mut load).unwrap(); // block 0 again: refetch
        }
        assert_eq!(*calls.borrow(), vec![0, 1, 2, 0]);
    }

    #[test]
    fn invalidate_clears_cached_blocks() {
        let data = vec![1u8; 100];
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut cache = ReadCache::new(100, 2);
        {
            let mut load = loader(&data, 100, Rc::clone(&calls));
            cache.read(0, 10, 100, &mut load).unwrap();
            cache.invalidate();
            cache.read(0, 10, 100, &mut load).unwrap();
        }
        assert_eq!(*calls.borrow(), vec![0, 0]);
    }

    #[test]
    fn zero_length_read_is_free() {
        let mut cache = ReadCache::new(100, 1);
        let got = cache
            .read(0, 0, 100, |_, _| -> Result<Bytes, Infallible> {
                panic!("must not load")
            })
            .unwrap();
        assert!(got.is_empty());
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    #[should_panic(expected = "block size must be non-zero")]
    fn zero_block_size_rejected() {
        let _ = ReadCache::new(0, 1);
    }

    /// Push through `buf`, collecting the committed blocks.
    fn push_collect(buf: &mut WriteBuffer, data: &[u8]) -> Vec<Vec<u8>> {
        let mut blocks = Vec::new();
        buf.push(data, |block| -> Result<(), Infallible> {
            blocks.push(block.to_vec());
            Ok(())
        })
        .unwrap();
        blocks
    }

    #[test]
    fn write_buffer_releases_full_blocks_in_order() {
        let mut buf = WriteBuffer::new(10);
        assert!(push_collect(&mut buf, b"12345").is_empty());
        assert_eq!(buf.buffered(), 5);
        let blocks = push_collect(&mut buf, b"6789012345678");
        assert_eq!(blocks, [b"1234567890"]);
        assert_eq!(buf.buffered(), 8);
        // A huge push can release several blocks at once.
        let blocks = push_collect(&mut buf, &[b'x'; 32]);
        assert_eq!(blocks.len(), 4);
        assert_eq!(buf.total_bytes(), 5 + 13 + 32);
    }

    #[test]
    fn write_buffer_commits_whole_blocks_from_the_callers_slice() {
        let data: Vec<u8> = (0..35u8).collect();
        let mut buf = WriteBuffer::new(10);
        push_collect(&mut buf, &data[..3]);
        // The top-up block is assembled in the buffer; the two whole blocks
        // after it are views into `data` itself.
        let mut from_slice = Vec::new();
        buf.push(&data[3..], |block| -> Result<(), Infallible> {
            from_slice.push(data.as_ptr_range().contains(&block.as_ptr()));
            Ok(())
        })
        .unwrap();
        assert_eq!(from_slice, [false, true, true]);
        assert_eq!(buf.buffered(), 5);
    }

    #[test]
    fn a_failed_commit_loses_no_buffered_bytes() {
        let mut buf = WriteBuffer::new(4);
        push_collect(&mut buf, b"ab");
        // The top-up's commit fails: the partial block is as it was.
        assert_eq!(buf.push(b"cdefgh", |_| Err("down")), Err("down"));
        assert_eq!((buf.buffered(), buf.total_bytes()), (2, 2));
        // The second of three blocks fails: the first is committed, the
        // rest is not accepted, and the buffer is untouched.
        let mut buf = WriteBuffer::new(4);
        let mut committed = Vec::new();
        let mut calls = 0;
        let failed = buf.push(b"abcdefghijkl", |block| {
            calls += 1;
            if calls == 2 {
                return Err("down");
            }
            committed.push(block.to_vec());
            Ok(())
        });
        assert_eq!(failed, Err("down"));
        assert_eq!(committed, [b"abcd"]);
        assert_eq!((buf.buffered(), buf.total_bytes()), (0, 4));
        // A retry of the rest goes through from where it stopped.
        assert_eq!(push_collect(&mut buf, b"efghijkl"), [b"efgh", b"ijkl"]);
    }

    #[test]
    fn write_buffer_takes_one_large_push_in_linear_time() {
        // 64 MiB in one call with 256 KiB blocks, on top of a partial block.
        // Re-copying the remainder for every emitted block made this
        // quadratic: 8 GiB of memmove, 128 times the data.
        let block = 256 * 1024;
        let data: Vec<u8> = (0..(64usize << 20) + 100).map(|i| (i >> 8) as u8).collect();
        let mut buf = WriteBuffer::new(block as u64);
        assert!(push_collect(&mut buf, &data[..100]).is_empty());
        let started = std::time::Instant::now();
        let mut blocks = 0;
        buf.push(&data[100..], |b| -> Result<(), Infallible> {
            assert_eq!(
                b,
                &data[blocks * block..(blocks + 1) * block],
                "block {blocks}"
            );
            blocks += 1;
            Ok(())
        })
        .unwrap();
        let push_took = started.elapsed();
        assert_eq!(blocks, 256);
        assert_eq!(buf.buffered(), 100);
        assert_eq!(buf.total_bytes(), data.len() as u64);
        assert_eq!(&buf.flush().unwrap()[..], &data[256 * block..]);
        // Measured against one plain copy of the same bytes rather than a
        // wall-clock budget, so a slow machine moves both sides.
        let started = std::time::Instant::now();
        let copy = std::hint::black_box(data[100..].to_vec());
        let copy_took = started.elapsed();
        drop(copy);
        assert!(
            push_took < copy_took * 32,
            "one 64 MiB push took {push_took:?}, a plain copy {copy_took:?}"
        );
    }

    #[test]
    fn write_buffer_flush_returns_partial_tail() {
        let mut buf = WriteBuffer::new(8);
        push_collect(&mut buf, b"abcdefgh");
        push_collect(&mut buf, b"ij");
        assert!(push_collect(&mut buf, b"").is_empty());
        let tail = buf.flush().unwrap();
        assert_eq!(&tail[..], b"ij");
        assert!(buf.flush().is_none());
        assert_eq!(buf.buffered(), 0);
    }

    #[test]
    fn write_buffer_exact_multiple_leaves_nothing() {
        let mut buf = WriteBuffer::new(4);
        assert_eq!(push_collect(&mut buf, b"abcdefgh").len(), 2);
        assert!(buf.flush().is_none());
    }
}
