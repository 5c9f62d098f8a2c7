//! The storage-materialized shuffle: spill files, segment fetches, merges
//! and the output-commit protocol.
//!
//! The paper's methodology swaps the storage layer under an unchanged
//! framework (§IV), so the framework's *intermediate* data must flow through
//! that storage layer for the comparison to mean anything. This module is the
//! Hadoop-shaped data path that makes it so:
//!
//! * every map task **spills** its output as one sorted, partition-bucketed
//!   file `<output>/_shuffle/map-<id>` with a per-partition index header
//!   ([`write_spill`]);
//! * every reduce task **pulls** its partition's segment out of every map
//!   file with positioned reads ([`read_segment`]) and streams the **k-way
//!   merge** of the still-encoded, pre-sorted segments through the reducer
//!   into its part file ([`reduce_segments`]) — a record stays a slice of the
//!   buffer it was fetched in until the user's `reduce` asks for a `String`;
//! * task attempts write under `<output>/_temporary/attempt-<task>-<n>`
//!   ([`attempt_path`]) and [`rename`](crate::fs::DistFs::rename) into place
//!   on commit — the jobtracker performs that rename under its phase lock so
//!   the first finished attempt of a task wins and speculative losers are
//!   discarded ([`commit_records`] is the one-shot convenience form) — so a
//!   failed, retried or duplicated attempt can never leave a partial or
//!   duplicate file behind;
//! * an optional combiner runs over each sorted bucket at spill time
//!   ([`combine_run`]), cutting the bytes the shuffle moves.
//!
//! ## Spill file layout
//!
//! ```text
//! +--------+---------+------------+----------+
//! | magic  | version | partitions | reserved |   16-byte fixed header (u32 LE)
//! +--------+---------+------------+----------+
//! | offset | len | records |  x partitions       24-byte index entries (u64 LE)
//! +--------+-----+---------+
//! | partition 0 records ... partition N records
//! +---------------------------------------------
//! ```
//!
//! Records are length-prefixed (`u32 key_len, key, u32 val_len, value`), so
//! keys and values may contain any bytes, and each partition's records are
//! key-sorted (stable, preserving emit order for equal keys) — the reducer
//! merges pre-sorted runs instead of re-sorting the world.

use crate::error::{MrError, MrResult};
use crate::fs::{DistFs, FileReader};
use crate::job::Reducer;
use crate::tasktracker::OutputFile;
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Magic number at the head of every spill file (`"SHUF"`).
pub const SPILL_MAGIC: u32 = 0x5348_5546;
/// Version of the spill layout.
pub const SPILL_VERSION: u32 = 1;
/// Bytes of the fixed header before the partition index.
pub const SPILL_HEADER_LEN: u64 = 16;
/// Bytes of one partition index entry (offset, len, records).
pub const SPILL_INDEX_ENTRY_LEN: u64 = 24;

/// The shuffle directory of a job.
pub fn shuffle_dir(output_dir: &str) -> String {
    format!("{output_dir}/_shuffle")
}

/// The committed spill file of one map task.
pub fn spill_path(output_dir: &str, map_id: usize) -> String {
    format!("{}/map-{map_id:05}", shuffle_dir(output_dir))
}

/// The committed merged run compacted from the spills of map tasks
/// `start..start + len` (a contiguous map-id range). Merged runs use the
/// spill layout unchanged, so [`read_segment`] serves them as-is.
pub fn run_path(output_dir: &str, start: usize, len: usize) -> String {
    format!("{}/run-{start:05}-{len:05}", shuffle_dir(output_dir))
}

/// The scratch directory task attempts write under before committing.
pub fn temporary_dir(output_dir: &str) -> String {
    format!("{output_dir}/_temporary")
}

/// Where attempt `attempt` of `task` (e.g. `"map-00003"`, `"reduce-00001"`)
/// writes before its rename-commit.
pub fn attempt_path(output_dir: &str, task: &str, attempt: usize) -> String {
    format!("{}/attempt-{task}-{attempt}", temporary_dir(output_dir))
}

/// Total bytes of header + index for a spill with `partitions` partitions —
/// what a reducer reads (one positioned read) to find its segment.
pub fn index_len(partitions: usize) -> u64 {
    SPILL_HEADER_LEN + partitions as u64 * SPILL_INDEX_ENTRY_LEN
}

/// The scratch namespace of one job execution: a uniquely-tagged pair of
/// shuffle and temporary directories under the job's output directory.
///
/// Before multi-tenancy, every execution used the bare `_shuffle/` and
/// `_temporary/` names — so two concurrent jobs writing into the same
/// `DistFs` (or one tenant resubmitting an identical `JobConfig` while the
/// first run was still in flight) would interleave spill files, compaction
/// runs and attempt scratch, and each job's cleanup would delete the *other*
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

    /// This execution's shuffle directory (committed spills + merged runs).
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

    /// The committed merged run compacted from the spills of map tasks
    /// `start..start + len`.
    pub fn run_path(&self, start: usize, len: usize) -> String {
        format!("{}/run-{start:05}-{len:05}", self.shuffle_dir)
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

    /// Write `records` to this execution's attempt scratch and rename into
    /// `final_path` (see [`commit_records`]).
    pub fn commit_records(
        &self,
        fs: &dyn DistFs,
        task: &str,
        attempt: usize,
        final_path: &str,
        records: &[(String, String)],
    ) -> MrResult<u64> {
        let scratch = self.attempt_path(task, attempt);
        let bytes = crate::tasktracker::write_output_file(fs, &scratch, records)?;
        fs.rename(&scratch, final_path)?;
        Ok(bytes)
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

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn truncated() -> MrError {
    MrError::Storage("truncated shuffle data".into())
}

fn get_u32(data: &[u8], at: usize) -> MrResult<u32> {
    let bytes = data.get(at..).and_then(|d| d.first_chunk());
    Ok(u32::from_le_bytes(*bytes.ok_or_else(truncated)?))
}

fn get_u64(data: &[u8], at: usize) -> MrResult<u64> {
    let bytes = data.get(at..).and_then(|d| d.first_chunk());
    Ok(u64::from_le_bytes(*bytes.ok_or_else(truncated)?))
}

/// Start a spill image whose partitions hold the given `(payload bytes,
/// records)`: the header and the index are written and room for the payloads
/// is reserved, so the caller appends each partition's records, in partition
/// order, and every record is copied exactly once.
fn begin_spill_image(partitions: &[(u64, u64)]) -> Vec<u8> {
    let payload: u64 = partitions.iter().map(|(len, _)| len).sum();
    let mut image = Vec::with_capacity((index_len(partitions.len()) + payload) as usize);
    put_u32(&mut image, SPILL_MAGIC);
    put_u32(&mut image, SPILL_VERSION);
    put_u32(&mut image, partitions.len() as u32);
    put_u32(&mut image, 0); // reserved
    let mut offset = index_len(partitions.len());
    for &(len, records) in partitions {
        put_u64(&mut image, offset);
        put_u64(&mut image, len);
        put_u64(&mut image, records);
        offset += len;
    }
    image
}

/// Encode partition buckets (each already key-sorted) into the spill layout.
/// Returns the file image and the total record count.
pub fn encode_spill(partitions: &[Vec<(String, String)>]) -> (Vec<u8>, u64) {
    let sizes: Vec<(u64, u64)> = (partitions.iter())
        .map(|bucket| {
            let payload: usize = bucket.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
            (payload as u64, bucket.len() as u64)
        })
        .collect();
    let mut image = begin_spill_image(&sizes);
    for (k, v) in partitions.iter().flatten() {
        put_u32(&mut image, k.len() as u32);
        image.extend_from_slice(k.as_bytes());
        put_u32(&mut image, v.len() as u32);
        image.extend_from_slice(v.as_bytes());
    }
    (image, sizes.iter().map(|(_, records)| records).sum())
}

/// Write a finished spill image to `path`.
pub fn write_image(fs: &dyn DistFs, path: &str, image: &[u8]) -> MrResult<()> {
    let mut writer = fs.create(path)?;
    writer.write(image)?;
    writer.close()
}

/// Write a map task's partition buckets as a spill file at `path` (normally
/// an [`attempt_path`], renamed into [`spill_path`] on commit). Returns
/// `(bytes_written, records_spilled)`.
pub fn write_spill(
    fs: &dyn DistFs,
    path: &str,
    partitions: &[Vec<(String, String)>],
) -> MrResult<(u64, u64)> {
    let (image, records) = encode_spill(partitions);
    write_image(fs, path, &image)?;
    Ok((image.len() as u64, records))
}

/// One partition's segment pulled out of one spill file (a map's, or a
/// merged run's): fetched and kept encoded. Nothing ever decodes a segment
/// into a record vector — [`merge_segments`] walks its payload in place.
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
    /// Bytes fetched (index + payload).
    pub bytes: u64,
    /// Positioned reads issued (1 for the index, +1 when there was payload
    /// to read).
    pub round_trips: u64,
}

/// Read and validate the header+index of the spill at `path`: one
/// positioned read, whose cost is returned with it.
fn read_index(
    reader: &mut dyn FileReader,
    path: &str,
    num_partitions: usize,
) -> MrResult<(Bytes, FetchCost)> {
    let header = reader.read_at(0, index_len(num_partitions))?;
    if get_u32(&header, 0)? != SPILL_MAGIC || get_u32(&header, 4)? != SPILL_VERSION {
        return Err(MrError::Storage(format!("{path} is not a spill file")));
    }
    let partitions = get_u32(&header, 8)? as usize;
    if partitions != num_partitions {
        return Err(MrError::Storage(format!(
            "{path} holds {partitions} partitions, {num_partitions} expected"
        )));
    }
    let cost = FetchCost {
        bytes: header.len() as u64,
        round_trips: 1,
    };
    Ok((header, cost))
}

/// Index entry `partition` of a spill header: `(offset, len, records)`.
fn index_entry(header: &[u8], partition: usize) -> MrResult<(u64, u64, u64)> {
    let entry = (SPILL_HEADER_LEN + partition as u64 * SPILL_INDEX_ENTRY_LEN) as usize;
    Ok((
        get_u64(header, entry)?,
        get_u64(header, entry + 8)?,
        get_u64(header, entry + 16)?,
    ))
}

/// Read `len` bytes of payload at `offset` — skipped when there are none —
/// and add what it cost to `cost`.
fn read_payload(
    reader: &mut dyn FileReader,
    offset: u64,
    len: u64,
    cost: &mut FetchCost,
) -> MrResult<Bytes> {
    if len == 0 {
        return Ok(Bytes::new());
    }
    let payload = reader.read_at(offset, len)?;
    cost.bytes += payload.len() as u64;
    cost.round_trips += 1;
    Ok(payload)
}

/// Fetch partition `partition` of the spill at `path` with positioned reads:
/// one read for the header+index, one for the segment payload (skipped when
/// the segment is empty).
pub fn read_segment(
    fs: &dyn DistFs,
    path: &str,
    partition: usize,
    num_partitions: usize,
) -> MrResult<(Segment, FetchCost)> {
    let mut reader = fs.open(path)?;
    let (header, mut cost) = read_index(&mut *reader, path, num_partitions)?;
    let (offset, len, records) = index_entry(&header, partition)?;
    let segment = Segment {
        payload: read_payload(&mut *reader, offset, len, &mut cost)?,
        source: path.to_string(),
        records,
    };
    Ok((segment, cost))
}

/// Fetch every partition's segment of the spill at `path`: one positioned
/// read for the header+index, one for the whole payload region, which the
/// segments share as views. This is how the compactor ingests the spills it
/// merges — paying 2 reads per *spill* rather than 2 per map×partition pair.
pub fn read_spill(
    fs: &dyn DistFs,
    path: &str,
    num_partitions: usize,
) -> MrResult<(Vec<Segment>, FetchCost)> {
    let mut reader = fs.open(path)?;
    let (header, mut cost) = read_index(&mut *reader, path, num_partitions)?;
    let entries = (0..num_partitions)
        .map(|p| index_entry(&header, p))
        .collect::<MrResult<Vec<_>>>()?;
    let base = index_len(num_partitions);
    // The index is untrusted: lengths that do not add up are corruption.
    let payload_len = (entries.iter())
        .try_fold(0u64, |sum, (_, len, _)| sum.checked_add(*len))
        .ok_or_else(|| corrupt(path))?;
    let payload = read_payload(&mut *reader, base, payload_len, &mut cost)?;
    let segments = (entries.into_iter())
        .map(|(offset, len, records)| {
            let from = offset.checked_sub(base).map(|from| from as usize);
            let range = from.and_then(|from| Some(from..from.checked_add(len as usize)?));
            match range {
                Some(range) if range.end <= payload.len() => Ok(Segment {
                    payload: payload.slice(range),
                    source: path.to_string(),
                    records,
                }),
                _ => Err(corrupt(path)),
            }
        })
        .collect::<MrResult<Vec<_>>>()?;
    Ok((segments, cost))
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
    /// The whole record as it is encoded, length prefixes included — what a
    /// merge that writes spill layout copies through unchanged.
    pub encoded: &'a [u8],
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
        let encoded = &self.rest[..self.rest.len() - rest.len()];
        self.rest = rest;
        self.promised -= 1;
        Ok(Some(RawRecord {
            key,
            value,
            encoded,
        }))
    }
}

/// Entry in the k-way-merge heap: the record a run's cursor stands on.
/// `BinaryHeap` is a max-heap, so comparisons are reversed; ties break toward
/// the lower run index (map id), and within a run the cursor supplies records
/// in position order — reproducing the in-memory shuffle's value arrival
/// order.
struct MergeHead<'a> {
    record: RawRecord<'a>,
    run: usize,
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
        (other.record.key.cmp(self.record.key)).then_with(|| other.run.cmp(&self.run))
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
            heap.push(MergeHead { record, run });
        }
    }
    let runs = heap.len() as u64;
    while let Some(mut head) = heap.peek_mut() {
        each(head.record)?;
        // Replacing the head in place costs one sift; a pop and a push, two.
        match cursors[head.run].next()? {
            Some(record) => head.record = record,
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
        let key = String::from_utf8_lossy(key);
        reducer.reduce(&key, values, &mut |k, v| out.push(&k, &v))?;
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
        values.push(String::from_utf8_lossy(record.value).into_owned());
        Ok(())
    })?;
    if let Some(key) = group {
        reduce_group(key, &values, out)?;
    }
    Ok(runs)
}

/// Merge whole spills (each one [`read_spill`]'s segments, in map-id order)
/// into the image of one merged run: per partition the same merge the
/// reducers run, with every record copied through as encoded bytes.
pub fn merge_spills(spills: &[Vec<Segment>], num_partitions: usize) -> MrResult<Vec<u8>> {
    let partition = |p: usize| spills.iter().filter_map(move |spill| spill.get(p));
    let sizes: Vec<(u64, u64)> = (0..num_partitions)
        .map(|p| {
            partition(p).fold((0, 0), |(bytes, records), segment| {
                (
                    bytes + segment.payload.len() as u64,
                    records + segment.records,
                )
            })
        })
        .collect();
    let mut image = begin_spill_image(&sizes);
    for p in 0..num_partitions {
        merge_segments(partition(p), |record| {
            image.extend_from_slice(record.encoded);
            Ok(())
        })?;
    }
    Ok(image)
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

/// Output-commit a task's records in one shot: write them in text output
/// format to the attempt's scratch path, then rename into `final_path`. A
/// crash before the rename leaves only scratch under `_temporary` (cleaned
/// up at job end); after the rename the file is complete — readers can never
/// observe a partial `part-*` file. Returns the bytes written.
///
/// The jobtracker itself splits this into two steps so concurrent attempts
/// of one task can be arbitrated: the scratch write
/// ([`crate::tasktracker::write_output_file`] / [`write_spill`]) happens
/// outside the phase lock, and the rename happens *under* it, after
/// checking that no peer attempt has committed — first finished attempt
/// wins, the loser's scratch is discarded. This helper remains the
/// convenience form for callers without racing attempts, and its tests pin
/// the protocol's foundation: `rename` refuses to clobber, so a duplicate
/// commit is an error, never corruption.
pub fn commit_records(
    fs: &dyn DistFs,
    output_dir: &str,
    task: &str,
    attempt: usize,
    final_path: &str,
    records: &[(String, String)],
) -> MrResult<u64> {
    let scratch = attempt_path(output_dir, task, attempt);
    let bytes = crate::tasktracker::write_output_file(fs, &scratch, records)?;
    fs.rename(&scratch, final_path)?;
    Ok(bytes)
}

/// Best-effort removal of an attempt's scratch file after a failure, so the
/// retry starts clean.
pub fn discard_attempt(fs: &dyn DistFs, output_dir: &str, task: &str, attempt: usize) {
    let _ = fs.delete(&attempt_path(output_dir, task, attempt), false);
}

/// Best-effort removal of the job's scratch directories after success.
pub fn cleanup_job_dirs(fs: &dyn DistFs, output_dir: &str) {
    let _ = fs.delete(&temporary_dir(output_dir), true);
    let _ = fs.delete(&shuffle_dir(output_dir), true);
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
        assert_ne!(a.run_path(0, 4), b.run_path(0, 4));
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

    /// The spill image of [`sample_buckets`], written out by hand.
    fn sample_image() -> Vec<u8> {
        let mut golden = Vec::new();
        for word in [SPILL_MAGIC, SPILL_VERSION, 3, 0] {
            golden.extend_from_slice(&word.to_le_bytes());
        }
        // (offset, len, records) per partition; the index ends at byte 88.
        for entry in [[88u64, 20, 2], [108, 0, 0], [108, 32, 3]] {
            for word in entry {
                golden.extend_from_slice(&word.to_le_bytes());
            }
        }
        golden.extend_from_slice(b"\x01\0\0\0a\x01\0\0\x001\x01\0\0\0b\x01\0\0\x002");
        golden.extend_from_slice(b"\x01\0\0\0c\x04\0\0\0x\ty\n\x01\0\0\0c\0\0\0\0");
        golden.extend_from_slice(b"\x01\0\0\0d\x01\0\0\x003");
        golden
    }

    #[test]
    fn spill_roundtrip_through_storage() {
        let fs = fs();
        let buckets = sample_buckets();
        let (bytes, records) = write_spill(&fs, "/out/_shuffle/map-00000", &buckets).unwrap();
        assert_eq!(records, 5);
        assert_eq!(bytes, fs.len("/out/_shuffle/map-00000").unwrap());
        // The layout is pinned byte for byte, and sized exactly up front.
        let (image, _) = encode_spill(&buckets);
        assert_eq!(image, sample_image());
        assert_eq!(image.capacity(), image.len(), "sized from the records");
        let stored = fs.read_file("/out/_shuffle/map-00000").unwrap();
        assert_eq!(&stored[..], &image[..]);

        for (p, bucket) in buckets.iter().enumerate() {
            let (seg, cost) = read_segment(&fs, "/out/_shuffle/map-00000", p, 3).unwrap();
            assert_eq!(&decode(&seg), bucket, "partition {p}");
            assert_eq!(seg.records, bucket.len() as u64);
            if bucket.is_empty() {
                assert_eq!(cost.round_trips, 1, "empty segments skip the data read");
            } else {
                assert_eq!(cost.round_trips, 2);
                assert!(cost.bytes > index_len(3));
            }
        }
    }

    #[test]
    fn whole_spill_reads_back_as_runs() {
        let fs = fs();
        let buckets = sample_buckets();
        let (bytes, _) = write_spill(&fs, "/out/_shuffle/map-00000", &buckets).unwrap();
        let (segments, cost) = read_spill(&fs, "/out/_shuffle/map-00000", 3).unwrap();
        let runs: Vec<_> = segments.iter().map(decode).collect();
        assert_eq!(runs, buckets);
        assert_eq!(cost.round_trips, 2, "one index read, one bulk payload read");
        assert_eq!(cost.bytes, bytes, "the whole file is fetched");
        // Wrong partition count and non-spill files are rejected.
        assert!(read_spill(&fs, "/out/_shuffle/map-00000", 2).is_err());
        fs.write_file("/junk", b"this is not a spill file at all......")
            .unwrap();
        assert!(read_spill(&fs, "/junk", 3).is_err());
    }

    #[test]
    fn an_index_whose_lengths_overflow_is_corruption_not_a_panic() {
        let fs = fs();
        let mut image = sample_image();
        // Partitions 0 and 2 each claim `u64::MAX` bytes of payload.
        for entry in [0, 2] {
            let len_at = (SPILL_HEADER_LEN + entry * SPILL_INDEX_ENTRY_LEN + 8) as usize;
            image[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        fs.write_file("/overflow", &image).unwrap();
        assert!(matches!(
            read_spill(&fs, "/overflow", 3),
            Err(MrError::Storage(_))
        ));
        assert!(matches!(
            read_segment(&fs, "/overflow", 0, 3),
            Err(MrError::Storage(_))
        ));
    }

    #[test]
    fn empty_spill_reads_back_without_a_payload_round_trip() {
        let fs = fs();
        let buckets = vec![Vec::new(), Vec::new()];
        write_spill(&fs, "/s", &buckets).unwrap();
        let (segments, cost) = read_spill(&fs, "/s", 2).unwrap();
        let runs: Vec<_> = segments.iter().map(decode).collect();
        assert_eq!(runs, buckets);
        assert_eq!(cost.round_trips, 1, "no payload to read");
    }

    #[test]
    fn merged_run_uses_the_spill_layout() {
        // A compacted run is just a spill file at a run path: merge the
        // spills' segments encoded-in, encoded-out, read the result with
        // read_segment.
        let fs = fs();
        let spills = [
            vec![
                vec![pair("a", "m0"), pair("c", "m0")],
                vec![pair("z", "m0")],
            ],
            vec![vec![pair("a", "m1")], Vec::new()],
        ];
        for (i, buckets) in spills.iter().enumerate() {
            write_spill(&fs, &spill_path("/out", i), buckets).unwrap();
        }
        let fetched: Vec<Vec<Segment>> = (0..2)
            .map(|m| read_spill(&fs, &spill_path("/out", m), 2).unwrap().0)
            .collect();
        let image = merge_spills(&fetched, 2).unwrap();
        // Byte for byte what encoding the merged records would have given.
        let merged: Vec<Vec<(String, String)>> = (0..2)
            .map(|p| merge_runs(spills.iter().map(|s| s[p].clone()).collect()))
            .collect();
        assert_eq!(image, encode_spill(&merged).0);
        assert_eq!(image.capacity(), image.len(), "sized from the segments");
        write_image(&fs, &run_path("/out", 0, 2), &image).unwrap();
        let (seg, _) = read_segment(&fs, &run_path("/out", 0, 2), 0, 2).unwrap();
        assert_eq!(
            decode(&seg),
            vec![pair("a", "m0"), pair("a", "m1"), pair("c", "m0")],
            "ties break toward the lower map id"
        );
        let (seg, _) = read_segment(&fs, &run_path("/out", 0, 2), 1, 2).unwrap();
        assert_eq!(decode(&seg), vec![pair("z", "m0")]);
    }

    /// A segment over a hand-built payload, with whatever record count the
    /// "index" claims.
    fn segment_of(records: &[(String, String)], promised: u64, cut: usize) -> Segment {
        let (image, _) = encode_spill(&[records.to_vec()]);
        let payload = &image[index_len(1) as usize..];
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
        let buckets = vec![vec![pair("k", "v")]];
        write_spill(&fs, "/s", &buckets).unwrap();
        // Wrong partition count or out-of-range partition.
        assert!(read_segment(&fs, "/s", 0, 2).is_err());
        assert!(read_segment(&fs, "/s", 1, 1).is_err());
        // Not a spill file at all.
        fs.write_file("/junk", b"this is not a spill file at all......")
            .unwrap();
        assert!(read_segment(&fs, "/junk", 0, 1).is_err());
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
    fn commit_is_all_or_nothing() {
        let fs = fs();
        fs.mkdirs("/out").unwrap();
        let records = vec![pair("k", "v")];
        let bytes = commit_records(
            &fs,
            "/out",
            "reduce-00000",
            0,
            "/out/part-r-00000",
            &records,
        )
        .unwrap();
        assert_eq!(bytes, 4);
        assert_eq!(&fs.read_file("/out/part-r-00000").unwrap()[..], b"k\tv\n");
        // The scratch file is gone (renamed), not copied.
        assert!(!fs.exists(&attempt_path("/out", "reduce-00000", 0)));

        // A second commit of the same task must fail: the final file exists,
        // so a duplicate attempt cannot clobber committed output.
        assert!(commit_records(
            &fs,
            "/out",
            "reduce-00000",
            1,
            "/out/part-r-00000",
            &records
        )
        .is_err());
        cleanup_job_dirs(&fs, "/out");
        assert!(!fs.exists(&temporary_dir("/out")));
    }
}
