//! Client-side caching: prefetch-on-read and write-back-on-full-block.
//!
//! "We also implemented a caching mechanism for read/write operations, as
//! MapReduce applications usually process data in small records (4KB, whereas
//! Hadoop is concerned). This mechanism prefetches a whole block when the
//! requested data is not already cached, and delays committing writes until a
//! whole block has been filled in the cache." (paper §III-B)
//!
//! The write half is the file-system layer's shared
//! [`simcluster::fs::WriteBuffer`]. The read half is [`StreamBlock`]: the one
//! whole block a [`crate::BsfsReader`] serves a stream of small records from.
//! A stream moves forward, so one block is all it ever reads again; it makes
//! no capacity decision. Both are deliberately *not* thread-safe: each
//! MapReduce task owns its own reader/writer, matching how the Hadoop client
//! library behaves.

use bytes::Bytes;

/// The one whole block of a file a record stream is served from.
#[derive(Debug)]
pub(crate) struct StreamBlock {
    block_size: u64,
    /// (block index, block contents) of the block last loaded.
    held: Option<(u64, Bytes)>,
}

impl StreamBlock {
    /// Create an empty holder for blocks of `block_size` bytes.
    pub(crate) fn new(block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        StreamBlock {
            block_size,
            held: None,
        }
    }

    /// The configured block size.
    pub(crate) fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Read `len` bytes at `offset` of a file of `file_size` bytes. A read
    /// inside the held block is a view of it; a read reaching into another
    /// block loads that whole block through `load` and holds it instead.
    /// `load(block_index, block_len)` must return exactly `block_len` bytes.
    pub(crate) fn read<E>(
        &mut self,
        offset: u64,
        len: u64,
        file_size: u64,
        mut load: impl FnMut(u64, u64) -> Result<Bytes, E>,
    ) -> Result<Bytes, E> {
        debug_assert!(offset + len <= file_size, "caller enforces bounds");
        let end = offset + len;
        let mut out = Vec::new();
        let mut pos = offset;
        while pos < end {
            let block = pos / self.block_size;
            let block_start = block * self.block_size;
            let block_len = (file_size - block_start).min(self.block_size);
            let data = match &self.held {
                // A held last block shorter than the file now says is stale.
                Some((index, data)) if *index == block && data.len() as u64 == block_len => {
                    data.clone()
                }
                _ => {
                    let loaded = load(block, block_len)?;
                    debug_assert_eq!(loaded.len() as u64, block_len);
                    self.held = Some((block, loaded.clone()));
                    loaded
                }
            };
            let from = (pos - block_start) as usize;
            let to = (end.min(block_start + block_len) - block_start) as usize;
            if pos == offset && block_start + to as u64 == end {
                return Ok(data.slice(from..to));
            }
            out.extend_from_slice(&data[from..to]);
            pos = block_start + to as u64;
        }
        Ok(Bytes::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::fs::{Block, WriteBuffer};
    use std::cell::RefCell;
    use std::convert::Infallible;
    use std::rc::Rc;

    /// A loader that serves from a backing vector and records which blocks,
    /// of which length, it was asked for.
    fn loader(
        backing: &[u8],
        block_size: u64,
        calls: Rc<RefCell<Vec<(u64, u64)>>>,
    ) -> impl FnMut(u64, u64) -> Result<Bytes, Infallible> {
        let backing = backing.to_vec();
        move |block, block_len| {
            calls.borrow_mut().push((block, block_len));
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
        let mut stream = StreamBlock::new(64);
        let mut load = loader(&data, 64, Rc::clone(&calls));
        // 16 sequential 4-byte reads inside block 0: one load only, and
        // every record is a view of the held block, not a copy.
        let first = stream.read(0, 4, 200, &mut load).unwrap();
        for i in 0..16u64 {
            let got = stream.read(i * 4, 4, 200, &mut load).unwrap();
            assert_eq!(&got[..], &data[(i * 4) as usize..(i * 4 + 4) as usize]);
            assert_eq!(got.as_ptr(), first.as_ptr().wrapping_add(i as usize * 4));
        }
        assert_eq!(*calls.borrow(), [(0, 64)]);
    }

    #[test]
    fn read_crossing_blocks_loads_both() {
        let data: Vec<u8> = (0..=255u8).collect();
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut stream = StreamBlock::new(100);
        let mut load = loader(&data, 100, Rc::clone(&calls));
        let got = stream.read(90, 20, 256, &mut load).unwrap();
        assert_eq!(&got[..], &data[90..110]);
        assert_eq!(*calls.borrow(), [(0, 100), (1, 100)]);
        // The block read into is the one held: the next record is free.
        let got = stream.read(110, 20, 256, &mut load).unwrap();
        assert_eq!(&got[..], &data[110..130]);
        assert_eq!(calls.borrow().len(), 2);
    }

    #[test]
    fn last_partial_block_is_loaded_with_its_true_length() {
        let data: Vec<u8> = (0..160u8).collect();
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut stream = StreamBlock::new(100);
        let mut load = loader(&data, 100, Rc::clone(&calls));
        let got = stream.read(100, 30, 130, &mut load).unwrap();
        assert_eq!(&got[..], &data[100..130]);
        assert_eq!(*calls.borrow(), [(1, 30)]);
        // The file grew: the held 30 bytes are stale and the block reloads.
        let got = stream.read(120, 40, 160, &mut load).unwrap();
        assert_eq!(&got[..], &data[120..160]);
        assert_eq!(*calls.borrow(), [(1, 30), (1, 60)]);
    }

    #[test]
    fn zero_length_read_is_free() {
        let mut stream = StreamBlock::new(100);
        let got = stream
            .read(0, 0, 100, |_, _| -> Result<Bytes, Infallible> {
                panic!("must not load")
            })
            .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "block size must be non-zero")]
    fn zero_block_size_rejected() {
        let _ = StreamBlock::new(0);
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
        // A commit may take an assembled block instead of copying it; the
        // buffer goes on with the next block.
        let mut taken = Vec::new();
        buf.push(&data[..8], |block| -> Result<(), Infallible> {
            if let Block::Buffered(assembled) = block {
                taken.push(std::mem::take(assembled));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(taken, [[30, 31, 32, 33, 34, 0, 1, 2, 3, 4]]);
        assert_eq!(buf.flush().unwrap(), [5, 6, 7]);
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
                &b[..],
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
