//! Input splits and record extraction.
//!
//! "The input data is also split into chunks of equal size, that are stored
//! in a distributed file system across the cluster. First, the map tasks are
//! run, each processing a chunk of the input file" (paper §II-A). A split is
//! the unit of map-task work: a contiguous byte range of one input file (or a
//! synthetic split for generator jobs), annotated with the nodes that hold
//! the underlying data so the scheduler can place the task next to it.
//!
//! Record extraction follows Hadoop's text-input convention: records are
//! newline-terminated lines; a split that does not start at offset 0 skips
//! the partial line at its head (it belongs to the previous split), and the
//! line that begins inside a split is processed entirely by that split even
//! if it continues past the split's end.

use crate::error::{MrError, MrResult};
use crate::fs::DistFs;
use crate::job::InputSpec;
use bytes::Bytes;
use simcluster::NodeId;
use std::borrow::Cow;

/// What a split reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitSource {
    /// A byte range of a file.
    File {
        /// Path of the input file.
        path: String,
        /// First byte of the split.
        offset: u64,
        /// Length of the split in bytes.
        len: u64,
    },
    /// A synthetic split: `records` empty records, keyed 0..records.
    Synthetic {
        /// Index of the split within the job.
        index: usize,
        /// Number of records to generate.
        records: u64,
    },
}

/// One unit of map-task work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSplit {
    /// Dense id of the split within the job.
    pub id: usize,
    /// The data the split covers.
    pub source: SplitSource,
    /// Nodes that hold the split's data (empty for synthetic splits).
    pub preferred_nodes: Vec<NodeId>,
}

impl InputSplit {
    /// Number of input bytes this split covers.
    pub fn byte_len(&self) -> u64 {
        match &self.source {
            SplitSource::File { len, .. } => *len,
            SplitSource::Synthetic { .. } => 0,
        }
    }
}

/// Expand an input specification into splits, querying the file system for
/// sizes and data locations.
pub fn compute_splits(
    fs: &dyn DistFs,
    input: &InputSpec,
    split_size: u64,
) -> MrResult<Vec<InputSplit>> {
    if split_size == 0 {
        return Err(MrError::InvalidJob("split size must be non-zero".into()));
    }
    match input {
        InputSpec::Synthetic {
            splits,
            records_per_split,
        } => Ok((0..*splits)
            .map(|i| InputSplit {
                id: i,
                source: SplitSource::Synthetic {
                    index: i,
                    records: *records_per_split,
                },
                preferred_nodes: Vec::new(),
            })
            .collect()),
        InputSpec::Files(paths) => {
            let mut files = Vec::new();
            for path in paths {
                expand_path(fs, path, &mut files)?;
            }
            if files.is_empty() {
                return Err(MrError::InvalidJob("input matched no files".into()));
            }
            let mut splits = Vec::new();
            for file in files {
                let size = fs.len(&file)?;
                if size == 0 {
                    continue;
                }
                let mut offset = 0u64;
                while offset < size {
                    let len = split_size.min(size - offset);
                    let preferred_nodes = fs
                        .locate(&file, offset, len)
                        .unwrap_or_default()
                        .into_iter()
                        .flat_map(|hint| hint.nodes)
                        .fold(Vec::new(), |mut acc, n| {
                            if !acc.contains(&n) {
                                acc.push(n);
                            }
                            acc
                        });
                    splits.push(InputSplit {
                        id: splits.len(),
                        source: SplitSource::File {
                            path: file.clone(),
                            offset,
                            len,
                        },
                        preferred_nodes,
                    });
                    offset += len;
                }
            }
            if splits.is_empty() {
                return Err(MrError::InvalidJob("all input files are empty".into()));
            }
            Ok(splits)
        }
    }
}

/// Recursively expand a path into the files below it.
fn expand_path(fs: &dyn DistFs, path: &str, out: &mut Vec<String>) -> MrResult<()> {
    if !fs.exists(path) {
        return Err(MrError::InputNotFound(path.to_string()));
    }
    match fs.list(path) {
        Ok(children) => {
            for child in children {
                expand_path(fs, &child, out)?;
            }
            Ok(())
        }
        Err(_) => {
            // Not a directory: it is a file.
            out.push(path.to_string());
            Ok(())
        }
    }
}

/// How much of the file past the split's end is fetched at a time while
/// looking for the end of the split's last line.
const TAIL_CHUNK: u64 = 4096;

/// Where the line holding `buf[from]` ends: just past the first newline at
/// or after `from`.
fn line_end(buf: &[u8], from: usize) -> Option<usize> {
    let nl = buf[from..].iter().position(|b| *b == b'\n')?;
    Some(from + nl + 1)
}

/// The text records of one file split, scanned in place: the split (and the
/// tail of its last line) is read into one buffer, and [`SplitLines::iter`]
/// yields each line as a view of it, following the Hadoop convention for
/// records that straddle split boundaries.
///
/// The scan rule: the lines the split owns are validated as UTF-8 once, as
/// a whole, and cut at each newline with a `memchr` search — a line is then
/// a borrowed `&str`, neither copied nor re-validated. Only a buffer that is
/// not valid UTF-8 is decoded line by line instead
/// ([`SplitLines::iter_lossy`]), with each malformed sequence becoming
/// U+FFFD; either way the same `(offset, line)` pairs come out.
pub struct SplitLines {
    /// The byte before the split (when there is one), the split, and the
    /// rest of the line that crosses its end: the positioned read's own
    /// buffer, unless that line ran past the first tail chunk.
    data: Bytes,
    /// File offset of `data[0]`.
    offset: u64,
    /// Where the first line this split owns starts in `data`.
    start: usize,
    /// Bytes read from storage (for the job counters).
    bytes_read: u64,
}

impl SplitLines {
    /// Read the lines that *start* inside `[offset, offset + len)` of `path`
    /// with one exact positioned read: the byte before the split, the split
    /// and the 4 KiB past its end, where its last line almost always ends
    /// (a longer line costs one more read per further 4 KiB, and a copy of
    /// the buffer).
    pub fn read(fs: &dyn DistFs, path: &str, offset: u64, len: u64) -> MrResult<SplitLines> {
        let mut reader = fs.open(path)?;
        let file_size = reader.len()?;
        let split_end = offset.saturating_add(len).min(file_size);
        // The byte before the split says whether its first line is whole.
        let from = offset.saturating_sub(1);
        let mut lines = SplitLines {
            data: Bytes::new(),
            offset: from,
            start: 0,
            bytes_read: 0,
        };
        if offset >= split_end {
            return Ok(lines);
        }
        let mut read_end = (split_end + TAIL_CHUNK).min(file_size);
        let mut data = reader.read_at(from, read_end - from)?;

        // The split's last line is the one holding its last byte: it ends at
        // the first newline at or after that byte, or with the file. Nothing
        // past that newline is kept, so every line in `data` starts before
        // `split_end`.
        let mut end = line_end(&data, (split_end - 1 - from) as usize);
        if end.is_none() && read_end < file_size {
            let mut grown = data.to_vec();
            while end.is_none() && read_end < file_size {
                let searched = grown.len();
                let chunk = reader.read_at(read_end, TAIL_CHUNK.min(file_size - read_end))?;
                read_end += chunk.len() as u64;
                grown.extend_from_slice(&chunk);
                end = line_end(&grown, searched);
            }
            data = Bytes::from(grown);
        }
        lines.data = match end {
            Some(end) => data.slice(..end),
            None => data,
        };
        lines.bytes_read = read_end - from;

        // Skip the partial line at the head of a non-initial split: it
        // belongs to the previous split (a line is owned by the split
        // containing its first byte). `data[0]` is the byte before the
        // split, so the first newline in `data` ends that line — at once,
        // when the split starts on a fresh line.
        if offset > 0 {
            lines.start = line_end(&lines.data, 0).unwrap_or(lines.data.len());
        }
        Ok(lines)
    }

    /// Bytes read from storage to build the buffer.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// `(byte offset of the line in the file, line without its newline)` for
    /// every line the split owns, each a view of the split's buffer: the
    /// buffer is validated once and cut with `memchr`, and only a buffer
    /// that is not valid UTF-8 takes [`SplitLines::iter_lossy`].
    pub fn iter(&self) -> impl Iterator<Item = (u64, Cow<'_, str>)> {
        let owned = &self.data[self.start..];
        let lines: Box<dyn Iterator<Item = (usize, Cow<'_, str>)>> =
            match std::str::from_utf8(owned) {
                Ok(text) => Box::new(text.split_inclusive('\n').map(|piece| {
                    let line = piece.strip_suffix('\n').unwrap_or(piece);
                    (piece.len(), Cow::Borrowed(line))
                })),
                Err(_) => Box::new(Self::lossy_lines(owned)),
            };
        self.with_offsets(lines)
    }

    /// What [`SplitLines::iter`] yields, decoded line by line: each line is
    /// validated on its own and a malformed sequence becomes U+FFFD — the
    /// fallback for a buffer that is not valid UTF-8 as a whole.
    pub fn iter_lossy(&self) -> impl Iterator<Item = (u64, Cow<'_, str>)> {
        self.with_offsets(Self::lossy_lines(&self.data[self.start..]))
    }

    /// `(raw length with the newline, decoded line)` for every line of
    /// `owned`.
    fn lossy_lines(owned: &[u8]) -> impl Iterator<Item = (usize, Cow<'_, str>)> {
        owned.split_inclusive(|b| *b == b'\n').map(|piece| {
            let line = piece.strip_suffix(b"\n").unwrap_or(piece);
            (piece.len(), String::from_utf8_lossy(line))
        })
    }

    /// Turn `(raw length, line)` pairs into `(file offset, line)` pairs.
    fn with_offsets<'a>(
        &self,
        lines: impl Iterator<Item = (usize, Cow<'a, str>)>,
    ) -> impl Iterator<Item = (u64, Cow<'a, str>)> {
        let mut at = self.offset + self.start as u64;
        lines.map(move |(raw_len, line)| {
            let line_offset = at;
            at += raw_len as u64;
            (line_offset, line)
        })
    }
}

/// Read the text records belonging to a file split as owned strings — the
/// convenience form of [`SplitLines`] for callers that keep the lines (the
/// sort sampler, tests). Returns `(byte offset of the line, line without
/// trailing newline)` pairs, plus the number of bytes actually read from
/// storage.
pub fn read_records(
    fs: &dyn DistFs,
    path: &str,
    offset: u64,
    len: u64,
) -> MrResult<(Vec<(u64, String)>, u64)> {
    let lines = SplitLines::read(fs, path, offset, len)?;
    let records = (lines.iter())
        .map(|(at, line)| (at, line.into_owned()))
        .collect();
    Ok((records, lines.bytes_read()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::BsfsFs;
    use blobseer::{BlobSeer, BlobSeerConfig};
    use bsfs::{Bsfs, BsfsConfig};

    fn fs() -> BsfsFs {
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(256));
        BsfsFs::new(Bsfs::new(storage, BsfsConfig::for_tests()))
    }

    #[test]
    fn synthetic_splits() {
        let fs = fs();
        let splits = compute_splits(
            &fs,
            &InputSpec::Synthetic {
                splits: 4,
                records_per_split: 100,
            },
            1024,
        )
        .unwrap();
        assert_eq!(splits.len(), 4);
        assert_eq!(splits[2].id, 2);
        assert_eq!(splits[2].byte_len(), 0);
        assert!(matches!(
            splits[3].source,
            SplitSource::Synthetic {
                index: 3,
                records: 100
            }
        ));
    }

    #[test]
    fn file_splits_cover_the_whole_file() {
        let fs = fs();
        let data = vec![b'x'; 1000];
        fs.write_file("/in/big", &data).unwrap();
        let splits = compute_splits(&fs, &InputSpec::Files(vec!["/in/big".into()]), 300).unwrap();
        assert_eq!(splits.len(), 4);
        let total: u64 = splits.iter().map(InputSplit::byte_len).sum();
        assert_eq!(total, 1000);
        assert!(splits.iter().all(|s| !s.preferred_nodes.is_empty()));
        // Last split is the remainder.
        assert_eq!(splits[3].byte_len(), 100);
    }

    #[test]
    fn directory_inputs_are_expanded_recursively() {
        let fs = fs();
        fs.write_file("/in/a.txt", b"aaa\n").unwrap();
        fs.write_file("/in/sub/b.txt", b"bbb\n").unwrap();
        fs.write_file("/in/sub/deeper/c.txt", b"ccc\n").unwrap();
        let splits = compute_splits(&fs, &InputSpec::Files(vec!["/in".into()]), 1024).unwrap();
        assert_eq!(splits.len(), 3);
    }

    #[test]
    fn empty_files_are_skipped_and_all_empty_is_an_error() {
        let fs = fs();
        fs.write_file("/in/empty", b"").unwrap();
        fs.write_file("/in/full", b"data\n").unwrap();
        let splits = compute_splits(&fs, &InputSpec::Files(vec!["/in".into()]), 64).unwrap();
        assert_eq!(splits.len(), 1);

        let fs2 = self::fs();
        fs2.write_file("/only/empty", b"").unwrap();
        assert!(matches!(
            compute_splits(&fs2, &InputSpec::Files(vec!["/only".into()]), 64),
            Err(MrError::InvalidJob(_))
        ));
    }

    #[test]
    fn missing_input_is_reported() {
        let fs = fs();
        assert!(matches!(
            compute_splits(&fs, &InputSpec::Files(vec!["/ghost".into()]), 64),
            Err(MrError::InputNotFound(_))
        ));
    }

    #[test]
    fn records_split_on_line_boundaries() {
        let fs = fs();
        let text = "alpha\nbeta\ngamma\ndelta\nepsilon\n";
        fs.write_file("/lines", text.as_bytes()).unwrap();
        let (records, _) = read_records(&fs, "/lines", 0, text.len() as u64).unwrap();
        let lines: Vec<&str> = records.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(lines, vec!["alpha", "beta", "gamma", "delta", "epsilon"]);
        // Offsets point at the start of each line.
        assert_eq!(records[0].0, 0);
        assert_eq!(records[1].0, 6);
    }

    #[test]
    fn split_boundaries_never_lose_or_duplicate_records() {
        let fs = fs();
        // Lines of varying lengths, total 1000+ bytes.
        let mut text = String::new();
        for i in 0..100 {
            text.push_str(&format!("record-{i:03}-{}\n", "x".repeat(i % 17)));
        }
        fs.write_file("/boundary", text.as_bytes()).unwrap();
        let size = text.len() as u64;

        // For several split sizes, the union of all splits' records must be
        // exactly the file's lines, in order, with no duplicates.
        for split_size in [64u64, 100, 128, 333, 1000, size] {
            let mut all: Vec<(u64, String)> = Vec::new();
            let mut offset = 0;
            while offset < size {
                let len = split_size.min(size - offset);
                let (mut records, _) = read_records(&fs, "/boundary", offset, len).unwrap();
                all.append(&mut records);
                offset += len;
            }
            let expected: Vec<&str> = text.lines().collect();
            let got: Vec<&str> = all.iter().map(|(_, l)| l.as_str()).collect();
            assert_eq!(got, expected, "split_size={split_size}");
        }
    }

    #[test]
    fn file_without_trailing_newline_keeps_last_record() {
        let fs = fs();
        fs.write_file("/no-newline", b"first\nsecond\nlast-no-nl")
            .unwrap();
        let (records, _) = read_records(&fs, "/no-newline", 0, 23).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].1, "last-no-nl");
    }

    #[test]
    fn read_records_beyond_eof_is_empty() {
        let fs = fs();
        fs.write_file("/short", b"only\n").unwrap();
        let (records, bytes) = read_records(&fs, "/short", 100, 50).unwrap();
        assert!(records.is_empty());
        assert_eq!(bytes, 0);
    }
}
