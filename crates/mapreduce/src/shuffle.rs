//! The storage-materialized shuffle: the map output buffer, spill files,
//! segment fetches and merges.
//!
//! The paper's methodology swaps the storage layer under an unchanged
//! framework (§IV), so the framework's *intermediate* data must flow through
//! that storage layer for the comparison to mean anything. This module is the
//! Hadoop-shaped data path that makes it so:
//!
//! * every map attempt copies what its mapper emits into one
//!   [`MapOutputBuffer`] — an arena of key and value bytes plus a metadata
//!   array, Hadoop's `MapOutputBuffer` — and sorts the metadata, not the
//!   records; an optional combiner runs over the sorted runs at spill time,
//!   cutting the bytes the shuffle moves;
//! * the buffer is encoded straight into one sorted, partition-bucketed
//!   spill file `<output>/_shuffle-<tag>/map-<id>` ([`MapOutputBuffer::spill`]),
//!   whose index — one [`IndexEntry`] per partition — the jobtracker
//!   publishes with the map's commit instead of storing it in the file;
//! * every reduce task **pulls** its partition's segment out of every map
//!   file with one exact positioned read ([`read_segment`]; none for an empty
//!   segment) and streams the **k-way merge** of the still-encoded,
//!   pre-sorted segments through the reducer into its part file
//!   ([`reduce_segments`]) — a record stays a slice of the buffer it was
//!   fetched in until the user's `reduce` asks for a `String`;
//! * task attempts write under their execution's scratch directory
//!   ([`JobScratch::attempt_path`]) and
//!   [`rename`](crate::fs::DistFs::rename) into place on commit — the
//!   jobtracker performs that rename under its phase lock so the first
//!   finished attempt of a task wins and speculative losers are discarded —
//!   so a failed, retried or duplicated attempt can never leave a partial or
//!   duplicate file behind.
//!
//! [`sort_run`], [`combine_run`], [`encode_spill`] and [`merge_runs`] are the
//! same steps over owned `(String, String)` records: the in-memory oracle's
//! path, which the buffer and the streaming merge are tested against.
//!
//! ## Spill file layout
//!
//! ```text
//! +---------------------+-----+---------------------+
//! | partition 0 records | ... | partition N records |
//! +---------------------+-----+---------------------+
//! ```
//!
//! The file is payload only. Its index — `(offset, len, records)` per
//! partition — never goes to storage: the map task already holds it in
//! memory, and the jobtracker hands it to the reducers with the map's commit,
//! the way Hadoop's map-completion events and index cache do, so a segment
//! costs one read, not an index read and then a payload read.
//!
//! Records are length-prefixed (`u32 key_len, key, u32 val_len, value`), so
//! keys and values may contain any bytes, and each partition's records are
//! key-sorted (stable, preserving emit order for equal keys) — the reducer
//! merges pre-sorted runs instead of re-sorting the world.

use crate::error::{MrError, MrResult};
use crate::fs::DistFs;
use crate::job::Reducer;
use crate::tasktracker::OutputFile;
use bytes::Bytes;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Text of a key or value as the user's code sees it: a borrowed `str` when
/// the bytes are UTF-8, which everything a mapper emits is; replacement
/// characters otherwise, exactly as `String::from_utf8_lossy` gives them.
fn text(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

/// A key's first eight bytes, big-endian and zero-padded: comparing two
/// prefixes orders keys the way comparing the keys does, except where the
/// prefixes tie, so a sort or merge compares them first and reads the key
/// bytes only on a tie.
fn key_prefix(key: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = key.len().min(8);
    word[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(word)
}

/// The scratch namespace of one job execution: a uniquely-tagged pair of
/// shuffle and temporary directories under the job's output directory.
///
/// Before multi-tenancy, every execution used the bare `_shuffle/` and
/// `_temporary/` names — so two concurrent jobs writing into the same
/// `DistFs` (or one tenant resubmitting an identical `JobConfig` while the
/// first run was still in flight) would interleave spill files and attempt
/// scratch, and each job's cleanup would delete the *other*
/// job's live intermediates. Scoping every scratch path by a process-unique
/// execution tag makes the collision structurally impossible: file *names*
/// inside the directories are unchanged (delay/fault injection by filename
/// suffix still works), only the directory component carries the tag, and
/// cleanup deletes exactly this execution's directories.
#[derive(Debug, Clone)]
pub struct JobScratch {
    shuffle_dir: String,
    temporary_dir: String,
}

impl JobScratch {
    /// The scratch namespace for execution `tag` of a job writing to
    /// `output_dir`. Tags must be unique among executions that can share a
    /// `DistFs` — the jobtracker draws them from a process-wide counter.
    pub fn scoped(output_dir: &str, tag: u64) -> Self {
        JobScratch {
            shuffle_dir: format!("{output_dir}/_shuffle-{tag:06}"),
            temporary_dir: format!("{output_dir}/_temporary-{tag:06}"),
        }
    }

    /// This execution's shuffle directory (committed spills).
    pub fn shuffle_dir(&self) -> &str {
        &self.shuffle_dir
    }

    /// This execution's scratch directory for uncommitted attempt output.
    pub fn temporary_dir(&self) -> &str {
        &self.temporary_dir
    }

    /// The committed spill file of one map task.
    pub fn spill_path(&self, map_id: usize) -> String {
        format!("{}/map-{map_id:05}", self.shuffle_dir)
    }

    /// Where attempt `attempt` of `task` writes before its rename-commit.
    pub fn attempt_path(&self, task: &str, attempt: usize) -> String {
        format!("{}/attempt-{task}-{attempt}", self.temporary_dir)
    }

    /// Create both scratch directories.
    pub fn mkdirs(&self, fs: &dyn DistFs) -> MrResult<()> {
        fs.mkdirs(&self.temporary_dir)?;
        fs.mkdirs(&self.shuffle_dir)
    }

    /// Best-effort removal of an attempt's scratch file after a failure.
    pub fn discard_attempt(&self, fs: &dyn DistFs, task: &str, attempt: usize) {
        let _ = fs.delete(&self.attempt_path(task, attempt), false);
    }

    /// Best-effort removal of this execution's scratch directories — and
    /// only this execution's: a concurrent job's scratch under the same
    /// output directory carries a different tag and is untouched.
    pub fn cleanup(&self, fs: &dyn DistFs) {
        let _ = fs.delete(&self.temporary_dir, true);
        let _ = fs.delete(&self.shuffle_dir, true);
    }
}

/// Stable key-sort of one partition bucket: equal keys keep their emit order,
/// which the merge relies on to reproduce the in-memory shuffle's value
/// order.
pub fn sort_run(run: &mut [(String, String)]) {
    run.sort_by(|a, b| a.0.cmp(&b.0));
}

/// What a spill-time combine pass produced.
pub struct CombineOutcome {
    /// The combined bucket, re-sorted by key.
    pub records: Vec<(String, String)>,
    /// Records fed into the combiner.
    pub input_records: u64,
    /// Records the combiner emitted.
    pub output_records: u64,
}

/// Run the combiner over a key-sorted bucket, Hadoop's spill-time
/// mini-reduce: once per group of consecutive equal keys (the reduce side
/// groups the same way over encoded records, in [`reduce_segments`]). Takes
/// the records by value so the values move into their group instead of being
/// cloned.
pub fn combine_run(run: Vec<(String, String)>, combiner: &dyn Reducer) -> MrResult<CombineOutcome> {
    let input_records = run.len() as u64;
    let mut out = Vec::new();
    let mut records = run.into_iter().peekable();
    while let Some((key, first)) = records.next() {
        let mut values = vec![first];
        while let Some((_, value)) = records.next_if(|(k, _)| *k == key) {
            values.push(value);
        }
        combiner.reduce(&key, &values, &mut |k, v| out.push((k, v)))?;
    }
    // A well-behaved combiner emits in key order, but nothing enforces it —
    // re-sort (stable) so the spill's sorted-run contract always holds.
    sort_run(&mut out);
    Ok(CombineOutcome {
        output_records: out.len() as u64,
        records: out,
        input_records,
    })
}

fn truncated() -> MrError {
    MrError::Storage("truncated shuffle data".into())
}

fn get_u32(data: &[u8], at: usize) -> MrResult<u32> {
    let bytes = data.get(at..).and_then(|d| d.first_chunk());
    Ok(u32::from_le_bytes(*bytes.ok_or_else(truncated)?))
}

/// A key or value length as the spill format stores it: an error, not a
/// truncation, for 4 GiB or more.
fn spill_len(len: usize) -> MrResult<u32> {
    u32::try_from(len).map_err(|_| {
        MrError::InvalidJob(format!(
            "a {len}-byte key or value does not fit the spill format's 32-bit length"
        ))
    })
}

/// Append one record in the spill layout.
fn put_record(image: &mut Vec<u8>, key: &[u8], value: &[u8]) -> MrResult<()> {
    image.extend_from_slice(&spill_len(key.len())?.to_le_bytes());
    image.extend_from_slice(key);
    image.extend_from_slice(&spill_len(value.len())?.to_le_bytes());
    image.extend_from_slice(value);
    Ok(())
}

/// Where one partition's segment lies in a spill image, and how many records
/// it holds: one entry of the spill's index, which travels with the map's
/// commit rather than in the file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Byte offset of the segment in the spill file.
    pub(crate) offset: u64,
    /// Bytes of the segment's encoded records.
    pub(crate) len: u64,
    /// Records the segment holds.
    pub(crate) records: u64,
}

/// Encode partition buckets (each already key-sorted) into the spill layout.
/// Returns the file image and its index, one entry per partition. The image
/// is sized from the records up front and every record is copied once.
///
/// # Panics
///
/// On a key or value of 4 GiB or more, which the layout cannot hold (a map
/// attempt's [`MapOutputBuffer::spill`] returns that as an error).
pub fn encode_spill(partitions: &[Vec<(String, String)>]) -> (Vec<u8>, Vec<IndexEntry>) {
    let mut offset = 0;
    let index: Vec<IndexEntry> = (partitions.iter())
        .map(|bucket| {
            let len: usize = bucket.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
            let entry = IndexEntry {
                offset,
                len: len as u64,
                records: bucket.len() as u64,
            };
            offset += entry.len;
            entry
        })
        .collect();
    let mut image = Vec::with_capacity(offset as usize);
    for (k, v) in partitions.iter().flatten() {
        put_record(&mut image, k.as_bytes(), v.as_bytes())
            .expect("a record the spill layout can hold");
    }
    (image, index)
}

/// One emitted record in a [`MapOutputBuffer`]: the partition it goes to,
/// its key's [`key_prefix`], its place in emit order, and where its key and
/// (right after it) its value lie in the arena.
#[derive(Debug, Clone, Copy)]
struct Emitted {
    prefix: u64,
    partition: u32,
    index: u32,
    at: usize,
    key_len: usize,
    value_len: usize,
}

impl Emitted {
    fn key<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.at..self.at + self.key_len]
    }

    fn value<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        let at = self.at + self.key_len;
        &arena[at..at + self.value_len]
    }
}

/// What a map attempt's emits go into — Hadoop's `MapOutputBuffer`. Each
/// emitted key and value is copied into one byte arena and described by one
/// fixed-size metadata entry, so the mapper's `String`s are dropped at once
/// and no record is ever allocated on the framework's side. The spill sorts
/// the metadata, runs the combiner over sorted runs of views and encodes
/// straight from the arena: the same bytes and index as [`sort_run`] (+
/// [`combine_run`]) + [`encode_spill`] over the same emits in owned buckets.
/// The buffer, and all it holds, is freed with the attempt.
#[derive(Debug)]
pub struct MapOutputBuffer {
    partitions: usize,
    /// Every emitted key and value, back to back, in emit order.
    arena: Vec<u8>,
    /// One entry per emitted record: in emit order until the spill sorts
    /// them by (partition, key).
    records: Vec<Emitted>,
}

/// A map attempt's spill, ready to store.
#[derive(Debug)]
pub struct Spill {
    /// The spill file's bytes: payload only.
    pub image: Vec<u8>,
    /// Where each partition's segment lies in `image`, for the commit to
    /// publish.
    pub index: Vec<IndexEntry>,
    /// Records fed to the combiner (0 without one).
    pub combine_input_records: u64,
    /// Records the combiner emitted.
    pub combine_output_records: u64,
}

impl MapOutputBuffer {
    /// An empty buffer for `partitions` reduce partitions (1 for a map-only
    /// job).
    pub fn new(partitions: usize) -> Self {
        MapOutputBuffer {
            partitions: partitions.max(1),
            arena: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Copy one emitted pair in, bound for `partition`.
    pub fn push(&mut self, partition: usize, key: &str, value: &str) {
        self.records.push(Emitted {
            prefix: key_prefix(key.as_bytes()),
            // Out of range either way: the spill reports it.
            partition: u32::try_from(partition).unwrap_or(u32::MAX),
            index: u32::try_from(self.records.len())
                .expect("fewer than 2^32 records: their metadata alone would be 160 GiB"),
            at: self.arena.len(),
            key_len: key.len(),
            value_len: value.len(),
        });
        self.arena.extend_from_slice(key.as_bytes());
        self.arena.extend_from_slice(value.as_bytes());
    }

    /// Records pushed so far.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Sort the metadata by (partition, key bytes), equal keys in emit
    /// order, which the reduce-side merge relies on to reproduce the
    /// in-memory shuffle's value order. The emit index makes every record's
    /// sort key distinct, so an unstable sort gives the stable order. Keys
    /// are UTF-8, so byte order is `str` order.
    fn sort(&mut self) {
        let arena = &self.arena;
        self.records.sort_unstable_by(|a, b| {
            (a.partition.cmp(&b.partition))
                .then(a.prefix.cmp(&b.prefix))
                .then_with(|| a.key(arena).cmp(b.key(arena)))
                .then(a.index.cmp(&b.index))
        });
    }

    /// Run `combiner` once per run of equal keys within a partition of the
    /// sorted buffer, Hadoop's spill-time mini-reduce; what it emits stays in
    /// the run's partition. Returns the combined buffer, sorted again: a
    /// well-behaved combiner emits in key order, but nothing enforces it.
    fn combine(&self, combiner: &dyn Reducer) -> MrResult<MapOutputBuffer> {
        let arena = &self.arena;
        let mut out = MapOutputBuffer::new(self.partitions);
        let mut values = Vec::new();
        let same_run = |a: &Emitted, b: &Emitted| {
            a.partition == b.partition && a.prefix == b.prefix && a.key(arena) == b.key(arena)
        };
        for run in self.records.chunk_by(same_run) {
            let first = run[0];
            values.clear();
            values.extend((run.iter()).map(|r| text(r.value(arena)).into_owned()));
            let key = text(first.key(arena));
            let partition = first.partition as usize;
            combiner.reduce(&key, &values, &mut |k, v| out.push(partition, &k, &v))?;
        }
        out.sort();
        Ok(out)
    }

    /// Sort, combine (when the job has a combiner) and encode the buffer into
    /// its spill: the image, sized exactly up front, and its index. Fails on
    /// a record pushed to a partition the buffer does not have, and on a key
    /// or value the spill layout cannot hold.
    pub fn spill(mut self, combiner: Option<&dyn Reducer>) -> MrResult<Spill> {
        self.sort();
        let (mut combine_input_records, mut combine_output_records) = (0, 0);
        if let Some(combiner) = combiner {
            combine_input_records = self.len() as u64;
            self = self.combine(combiner)?;
            combine_output_records = self.len() as u64;
        }
        let arena = &self.arena;
        let mut image = Vec::with_capacity(8 * self.records.len() + arena.len());
        let mut index = vec![IndexEntry::default(); self.partitions];
        for record in &self.records {
            let entry = index.get_mut(record.partition as usize).ok_or_else(|| {
                MrError::InvalidJob(format!(
                    "a record for partition {} of {}",
                    record.partition, self.partitions
                ))
            })?;
            let before = image.len();
            put_record(&mut image, record.key(arena), record.value(arena))?;
            entry.len += (image.len() - before) as u64;
            entry.records += 1;
        }
        let mut offset = 0;
        for entry in &mut index {
            entry.offset = offset;
            offset += entry.len;
        }
        Ok(Spill {
            image,
            index,
            combine_input_records,
            combine_output_records,
        })
    }

    /// Write the records in emit order to a text output file at `path` — a
    /// map-only attempt's part file. Returns the bytes written.
    pub fn write_output_file(&self, fs: &dyn DistFs, path: &str) -> MrResult<u64> {
        let mut file = OutputFile::create(fs, path)?;
        for record in &self.records {
            file.push(record.key(&self.arena), record.value(&self.arena));
            file.flush_pieces()?;
        }
        file.close()
    }
}

/// One partition's segment pulled out of one map's spill: fetched and kept
/// encoded. Nothing ever decodes a segment into a record vector —
/// [`merge_segments`] walks its payload in place.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    /// The segment's still-encoded records.
    payload: Bytes,
    /// The file it was fetched from, for error messages.
    source: String,
    /// Records the spill's index promises the payload holds.
    pub records: u64,
}

/// What a fetch cost the storage layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FetchCost {
    /// Payload bytes fetched.
    pub bytes: u64,
    /// Positioned reads issued: 1, or 0 for an empty segment.
    pub round_trips: u64,
}

/// Fetch the segment `entry` locates in the spill at `path`: one positioned
/// read of exactly its bytes, and none at all when it is empty. The bytes are
/// not trusted — [`merge_segments`] checks them against `entry.records`.
pub fn read_segment(
    fs: &dyn DistFs,
    path: &str,
    entry: IndexEntry,
) -> MrResult<(Segment, FetchCost)> {
    let mut cost = FetchCost::default();
    let mut payload = Bytes::new();
    if entry.len > 0 {
        payload = fs.open(path)?.read_at(entry.offset, entry.len)?;
        cost = FetchCost {
            bytes: payload.len() as u64,
            round_trips: 1,
        };
    }
    let segment = Segment {
        payload,
        source: path.to_string(),
        records: entry.records,
    };
    Ok((segment, cost))
}

fn corrupt(path: &str) -> MrError {
    MrError::Storage(format!("corrupt segment in {path}"))
}

/// One still-encoded record: views into its segment's payload.
#[derive(Debug, Clone, Copy)]
pub struct RawRecord<'a> {
    /// The key's bytes.
    pub key: &'a [u8],
    /// The value's bytes.
    pub value: &'a [u8],
}

/// A position in a segment's payload. Enforces, in both directions, that the
/// payload holds exactly the records its index entry promised.
struct Cursor<'a> {
    rest: &'a [u8],
    /// Records the index still promises beyond `rest`'s start.
    promised: u64,
    source: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(segment: &'a Segment) -> Self {
        Cursor {
            rest: &segment.payload,
            promised: segment.records,
            source: &segment.source,
        }
    }

    /// Step over the next record; `None` at the end of the segment.
    fn next(&mut self) -> MrResult<Option<RawRecord<'a>>> {
        if self.rest.is_empty() && self.promised == 0 {
            return Ok(None);
        }
        if self.rest.is_empty() || self.promised == 0 {
            return Err(MrError::Storage(format!(
                "segment of {}: the index promises {} more records, the payload has {} more bytes",
                self.source,
                self.promised,
                self.rest.len()
            )));
        }
        let corrupt = || corrupt(self.source);
        let key_len = get_u32(self.rest, 0)? as usize;
        let (key, after_key) = (self.rest[4..].split_at_checked(key_len)).ok_or_else(corrupt)?;
        let value_len = get_u32(after_key, 0)? as usize;
        let (value, rest) = (after_key[4..].split_at_checked(value_len)).ok_or_else(corrupt)?;
        self.rest = rest;
        self.promised -= 1;
        Ok(Some(RawRecord { key, value }))
    }
}

/// Entry in the k-way-merge heap: the record a run's cursor stands on, and
/// its key's [`key_prefix`]. `BinaryHeap` is a max-heap, so comparisons are
/// reversed; ties break toward the lower run index (map id), and within a
/// run the cursor supplies records in position order — reproducing the
/// in-memory shuffle's value arrival order.
struct MergeHead<'a> {
    prefix: u64,
    record: RawRecord<'a>,
    run: usize,
}

impl<'a> MergeHead<'a> {
    fn new(record: RawRecord<'a>, run: usize) -> Self {
        MergeHead {
            prefix: key_prefix(record.key),
            record,
            run,
        }
    }
}

impl PartialEq for MergeHead<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.record.key == other.record.key && self.run == other.run
    }
}
impl Eq for MergeHead<'_> {}
impl PartialOrd for MergeHead<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Keys are UTF-8, so byte order is `str` order.
        (other.prefix.cmp(&self.prefix))
            .then_with(|| other.record.key.cmp(self.record.key))
            .then_with(|| other.run.cmp(&self.run))
    }
}

/// K-way-merge still-encoded, pre-sorted segments (in map-id order) into one
/// key-sorted record stream, handing `each` every record as a view. Stable:
/// for equal keys, records come out in (map id, emit order) — exactly the
/// order [`merge_runs`] gives the same runs decoded, and the order the
/// in-memory shuffle's concatenate-then-group produces. Fails with
/// [`MrError::Storage`] on a truncated or corrupt payload and on a segment
/// holding more or fewer records than its index promised. Returns the
/// number of segments that held records.
pub fn merge_segments<'a>(
    segments: impl IntoIterator<Item = &'a Segment>,
    mut each: impl FnMut(RawRecord<'a>) -> MrResult<()>,
) -> MrResult<u64> {
    let mut cursors: Vec<Cursor<'a>> = segments.into_iter().map(Cursor::new).collect();
    let mut heap = BinaryHeap::with_capacity(cursors.len());
    for (run, cursor) in cursors.iter_mut().enumerate() {
        if let Some(record) = cursor.next()? {
            heap.push(MergeHead::new(record, run));
        }
    }
    let runs = heap.len() as u64;
    while let Some(mut head) = heap.peek_mut() {
        each(head.record)?;
        // Replacing the head in place costs one sift; a pop and a push, two.
        match cursors[head.run].next()? {
            Some(record) => *head = MergeHead::new(record, head.run),
            None => drop(PeekMut::pop(head)),
        }
    }
    Ok(runs)
}

/// The reduce side of the shuffle in one streaming pass: merge the
/// partition's segments ([`merge_segments`]), group consecutive equal keys,
/// call the reducer once per group and format what it emits into `out`,
/// which goes to storage a piece at a time. Only one group's values are
/// ever decoded at once. Returns the number of segments that held records.
pub fn reduce_segments<'a>(
    segments: impl IntoIterator<Item = &'a Segment>,
    reducer: &dyn Reducer,
    out: &mut OutputFile,
) -> MrResult<u64> {
    let reduce_group = |key: &[u8], values: &[String], out: &mut OutputFile| {
        let key = text(key);
        reducer.reduce(&key, values, &mut |k, v| {
            out.push(k.as_bytes(), v.as_bytes())
        })?;
        out.flush_pieces()
    };
    let mut group: Option<&[u8]> = None;
    let mut values: Vec<String> = Vec::new();
    let runs = merge_segments(segments, |record| {
        if group != Some(record.key) {
            if let Some(key) = group.replace(record.key) {
                reduce_group(key, &values, out)?;
                values.clear();
            }
        }
        values.push(text(record.value).into_owned());
        Ok(())
    })?;
    if let Some(key) = group {
        reduce_group(key, &values, out)?;
    }
    Ok(runs)
}

/// Entry in [`merge_runs`]' heap: `BinaryHeap` is a max-heap, so comparisons
/// are reversed; ties break toward the lower run index (map id), reproducing
/// the in-memory shuffle's value arrival order.
struct HeapEntry<'a> {
    key: &'a str,
    run: usize,
    pos: usize,
}

impl PartialEq for HeapEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.run == other.run
    }
}
impl Eq for HeapEntry<'_> {}
impl PartialOrd for HeapEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .cmp(self.key)
            .then_with(|| other.run.cmp(&self.run))
    }
}

/// K-way-merge pre-sorted runs of decoded records (one per map task, in
/// map-id order) into one key-sorted record stream. Stable: for equal keys,
/// records come out in (map id, emit order) — exactly the order the in-memory
/// shuffle's concatenate-then-group produces. No job runs this any more: it
/// is the record-level reference [`merge_segments`] is property-tested
/// against.
pub fn merge_runs(runs: Vec<Vec<(String, String)>>) -> Vec<(String, String)> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut heap: BinaryHeap<HeapEntry<'_>> = runs
        .iter()
        .enumerate()
        .filter(|(_, run)| !run.is_empty())
        .map(|(i, run)| HeapEntry {
            key: &run[0].0,
            run: i,
            pos: 0,
        })
        .collect();
    let mut merged = Vec::with_capacity(total);
    let mut order = Vec::with_capacity(total);
    while let Some(entry) = heap.pop() {
        order.push((entry.run, entry.pos));
        let next = entry.pos + 1;
        if next < runs[entry.run].len() {
            heap.push(HeapEntry {
                key: &runs[entry.run][next].0,
                run: entry.run,
                pos: next,
            });
        }
    }
    // Materialise after the borrow of `runs` ends.
    let mut runs = runs;
    for (run, pos) in order {
        merged.push(std::mem::take(&mut runs[run][pos]));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::BsfsFs;
    use crate::job::SumReducer;
    use blobseer::{BlobSeer, BlobSeerConfig};
    use bsfs::{Bsfs, BsfsConfig};

    fn fs() -> BsfsFs {
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(256));
        BsfsFs::new(Bsfs::new(storage, BsfsConfig::for_tests()))
    }

    fn pair(k: &str, v: &str) -> (String, String) {
        (k.to_string(), v.to_string())
    }

    #[test]
    fn scoped_scratch_namespaces_are_disjoint_and_clean_up_only_themselves() {
        let fs = fs();
        let a = JobScratch::scoped("/out", 1);
        let b = JobScratch::scoped("/out", 2);
        // Same file names, different directories: no path of one execution
        // is a path of the other.
        assert_ne!(a.spill_path(0), b.spill_path(0));
        assert_ne!(
            a.attempt_path("map-00000", 0),
            b.attempt_path("map-00000", 0)
        );
        assert!(a.spill_path(3).ends_with("/map-00003"));
        assert!(a
            .attempt_path("map-00000", 1)
            .ends_with("/attempt-map-00000-1"));

        a.mkdirs(&fs).unwrap();
        b.mkdirs(&fs).unwrap();
        fs.write_file(&a.spill_path(0), b"aa").unwrap();
        fs.write_file(&b.spill_path(0), b"bb").unwrap();
        // Job A finishing must not disturb job B's live scratch.
        a.cleanup(&fs);
        assert!(!fs.exists(a.shuffle_dir()) && !fs.exists(a.temporary_dir()));
        assert_eq!(&fs.read_file(&b.spill_path(0)).unwrap()[..], b"bb");
        b.cleanup(&fs);
        assert_eq!(fs.list("/out").unwrap(), Vec::<String>::new());
    }

    /// A segment's records, decoded — through the merge, the only reader of
    /// encoded records there is.
    fn decode(segment: &Segment) -> Vec<(String, String)> {
        let mut records = Vec::new();
        merge_segments([segment], |r| {
            let text = |bytes| String::from_utf8_lossy(bytes).into_owned();
            records.push((text(r.key), text(r.value)));
            Ok(())
        })
        .unwrap();
        records
    }

    fn sample_buckets() -> Vec<Vec<(String, String)>> {
        vec![
            vec![pair("a", "1"), pair("b", "2")],
            Vec::new(),
            vec![pair("c", "x\ty\n"), pair("c", ""), pair("d", "3")],
        ]
    }

    /// The spill image of [`sample_buckets`], written out by hand: payload
    /// only.
    fn sample_image() -> Vec<u8> {
        let mut golden = Vec::new();
        golden.extend_from_slice(b"\x01\0\0\0a\x01\0\0\x001\x01\0\0\0b\x01\0\0\x002");
        golden.extend_from_slice(b"\x01\0\0\0c\x04\0\0\0x\ty\n\x01\0\0\0c\0\0\0\0");
        golden.extend_from_slice(b"\x01\0\0\0d\x01\0\0\x003");
        golden
    }

    fn entry(offset: u64, len: u64, records: u64) -> IndexEntry {
        IndexEntry {
            offset,
            len,
            records,
        }
    }

    /// Store a spill image the way a map attempt does; returns its index.
    fn store(fs: &BsfsFs, path: &str, buckets: &[Vec<(String, String)>]) -> Vec<IndexEntry> {
        let (image, index) = encode_spill(buckets);
        fs.write_file(path, &image).unwrap();
        index
    }

    #[test]
    fn spill_roundtrip_through_storage() {
        let fs = fs();
        let buckets = sample_buckets();
        // The index is pinned entry for entry, the layout byte for byte, and
        // the image is sized exactly up front.
        let (image, index) = encode_spill(&buckets);
        assert_eq!(index, [entry(0, 20, 2), entry(20, 0, 0), entry(20, 32, 3)]);
        assert_eq!(image, sample_image());
        assert_eq!(image.capacity(), image.len(), "sized from the records");

        // A map output buffer given the same emits in any order (equal keys
        // in emit order) sorts them into the same image and index.
        let mut buffer = MapOutputBuffer::new(3);
        let emits = [
            (2, "d", "3"),
            (0, "b", "2"),
            (2, "c", "x\ty\n"),
            (0, "a", "1"),
        ];
        for (partition, key, value) in emits.into_iter().chain([(2, "c", "")]) {
            buffer.push(partition, key, value);
        }
        let spill = buffer.spill(None).unwrap();
        assert_eq!((&spill.image, &spill.index), (&image, &index));
        assert_eq!(spill.image.capacity(), spill.image.len());

        fs.write_file("/out/_shuffle/map-00000", &spill.image)
            .unwrap();
        let stored = fs.read_file("/out/_shuffle/map-00000").unwrap();
        assert_eq!(&stored[..], &image[..]);
        for (p, bucket) in buckets.iter().enumerate() {
            let (seg, cost) = read_segment(&fs, "/out/_shuffle/map-00000", index[p]).unwrap();
            assert_eq!(&decode(&seg), bucket, "partition {p}");
            assert_eq!(seg.records, bucket.len() as u64);
            let reads = u64::from(!bucket.is_empty());
            assert_eq!(cost.round_trips, reads, "one exact read, none when empty");
            assert_eq!(cost.bytes, index[p].len);
        }
    }

    #[test]
    fn a_length_the_layout_cannot_hold_is_an_error_not_a_truncation() {
        assert_eq!(spill_len(0).unwrap(), 0);
        assert_eq!(spill_len(u32::MAX as usize).unwrap(), u32::MAX);
        let too_long = u32::MAX as usize + 1;
        assert!(matches!(spill_len(too_long), Err(MrError::InvalidJob(_))));

        // Nor is a record for a partition the buffer does not have a panic.
        let mut buffer = MapOutputBuffer::new(2);
        buffer.push(2, "k", "v");
        assert!(matches!(buffer.spill(None), Err(MrError::InvalidJob(_))));
    }

    #[test]
    fn an_index_whose_lengths_overflow_is_corruption_not_a_panic() {
        let fs = fs();
        fs.write_file("/overflow", &sample_image()).unwrap();
        for bad in [entry(0, u64::MAX, 2), entry(u64::MAX - 1, 4, 1)] {
            assert!(matches!(
                read_segment(&fs, "/overflow", bad),
                Err(MrError::Storage(_))
            ));
        }
    }

    #[test]
    fn empty_spill_reads_back_without_a_payload_round_trip() {
        let fs = fs();
        let index = store(&fs, "/s", &[Vec::new(), Vec::new()]);
        assert_eq!(index, [IndexEntry::default(); 2]);
        let reads = || fs.inner().storage().stats().read_ops;
        let before = reads();
        for entry in index {
            let (segment, cost) = read_segment(&fs, "/s", entry).unwrap();
            assert!(decode(&segment).is_empty());
            assert_eq!(cost, FetchCost::default());
        }
        // An empty segment is not even opened: its file need not exist.
        assert!(read_segment(&fs, "/missing", IndexEntry::default()).is_ok());
        assert_eq!(reads(), before, "an empty partition costs no read");
    }

    /// A segment over a hand-built payload, with whatever record count the
    /// "index" claims.
    fn segment_of(records: &[(String, String)], promised: u64, cut: usize) -> Segment {
        let (payload, _) = encode_spill(&[records.to_vec()]);
        Segment {
            payload: Bytes::copy_from_slice(&payload[..payload.len() - cut]),
            source: "/a/spill".into(),
            records: promised,
        }
    }

    #[test]
    fn a_segment_must_hold_exactly_the_records_its_index_promises() {
        let records = vec![pair("a", "1"), pair("b", "22")];
        let count = |segment: &Segment| {
            let mut seen = 0;
            merge_segments([segment], |_| {
                seen += 1;
                Ok(())
            })
            .map(|_| seen)
        };
        assert_eq!(count(&segment_of(&records, 2, 0)).unwrap(), 2);
        for (promised, cut) in [(3, 0), (1, 0), (2, 1), (2, 7), (0, 0)] {
            let err = count(&segment_of(&records, promised, cut)).unwrap_err();
            assert!(
                matches!(err, MrError::Storage(_)),
                "promised {promised}, cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn segment_requests_are_validated() {
        let fs = fs();
        let index = store(&fs, "/s", &[vec![pair("k", "v")]]);
        assert!(read_segment(&fs, "/s", index[0]).is_ok());
        // A segment reaching past the end of the file, or in no file at all.
        let past_the_end = entry(1, index[0].len, 1);
        assert!(matches!(
            read_segment(&fs, "/s", past_the_end),
            Err(MrError::Storage(_))
        ));
        assert!(read_segment(&fs, "/missing", index[0]).is_err());
    }

    #[test]
    fn sort_run_is_stable() {
        let mut run = vec![pair("b", "1"), pair("a", "2"), pair("b", "3")];
        sort_run(&mut run);
        assert_eq!(run, vec![pair("a", "2"), pair("b", "1"), pair("b", "3")]);
    }

    #[test]
    fn combine_run_sums_and_counts() {
        let run = vec![pair("a", "1"), pair("a", "2"), pair("b", "4")];
        let combined = combine_run(run, &SumReducer).unwrap();
        assert_eq!(combined.records, vec![pair("a", "3"), pair("b", "4")]);
        assert_eq!(combined.input_records, 3);
        assert_eq!(combined.output_records, 2);
    }

    #[test]
    fn merge_matches_stable_concatenated_sort() {
        // Three sorted runs with overlapping keys; the merge must equal
        // concatenating in run order and stable-sorting by key.
        let runs = vec![
            vec![pair("a", "r0-0"), pair("c", "r0-1"), pair("c", "r0-2")],
            Vec::new(),
            vec![pair("a", "r2-0"), pair("b", "r2-1")],
            vec![pair("c", "r3-0")],
        ];
        let mut reference: Vec<(String, String)> = runs.iter().flatten().cloned().collect();
        reference.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(merge_runs(runs), reference);
    }

    #[test]
    fn reduce_merged_groups_consecutive_keys() {
        let fs = fs();
        let segments = [
            segment_of(&[pair("a", "1"), pair("b", "5")], 2, 0),
            segment_of(&[], 0, 0),
            segment_of(&[pair("a", "2")], 1, 0),
        ];
        let mut out = OutputFile::create(&fs, "/out/part").unwrap();
        let runs = reduce_segments(&segments, &SumReducer, &mut out).unwrap();
        assert_eq!(runs, 2, "the empty segment is not a merge run");
        assert_eq!(out.records(), 2);
        assert_eq!(out.close().unwrap(), 8);
        assert_eq!(&fs.read_file("/out/part").unwrap()[..], b"a\t3\nb\t5\n");
    }

    #[test]
    fn invalid_utf8_reaches_the_reducer_as_replacement_characters() {
        // A hand-built segment: nothing a mapper emits is invalid UTF-8, but
        // storage bytes are not trusted to be text.
        let fs = fs();
        let mut payload = Vec::new();
        for (key, value) in [
            (&b"k\xff"[..], &b"a\xffb"[..]),
            (b"k\xff", b"\xc3"),
            (b"z", b"ok"),
        ] {
            put_record(&mut payload, key, value).unwrap();
        }
        let segment = Segment {
            payload: Bytes::from(payload),
            source: "/a/spill".into(),
            records: 3,
        };
        let mut out = OutputFile::create(&fs, "/out/part").unwrap();
        reduce_segments([&segment], &crate::job::IdentityReducer, &mut out).unwrap();
        out.close().unwrap();
        let expected = "k\u{FFFD}\ta\u{FFFD}b\nk\u{FFFD}\t\u{FFFD}\nz\tok\n";
        assert_eq!(&fs.read_file("/out/part").unwrap()[..], expected.as_bytes());
        assert_eq!(text(b"a\xffb"), String::from_utf8_lossy(b"a\xffb"));
        assert!(matches!(text(b"valid"), Cow::Borrowed("valid")));
    }

    #[test]
    fn a_key_prefix_orders_like_the_key() {
        let keys: [&[u8]; 8] = [
            b"",
            b"\0",
            b"a",
            b"a\0",
            b"abcdefgh",
            b"abcdefgh\0",
            b"abcdefghi",
            b"b",
        ];
        for a in keys {
            for b in keys {
                let (pa, pb) = (key_prefix(a), key_prefix(b));
                if pa != pb {
                    assert_eq!(pa.cmp(&pb), a.cmp(b), "{a:?} vs {b:?}");
                }
            }
        }
        assert_eq!(
            key_prefix(b"a"),
            key_prefix(b"a\0"),
            "a tie the key bytes break"
        );
    }
}
