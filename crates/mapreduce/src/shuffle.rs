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
//!   file with positioned reads ([`read_segment`]) and **k-way-merges** the
//!   pre-sorted runs ([`merge_runs`]);
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
use crate::fs::DistFs;
use crate::job::Reducer;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// Walk a key-sorted record stream, calling `f(key, values)` once per group
/// of consecutive equal keys — the grouping contract both the combiner and
/// the reduce side rely on. Takes the records by value so the values move
/// into their group instead of being cloned.
fn for_each_group(
    records: Vec<(String, String)>,
    mut f: impl FnMut(&str, &[String]) -> MrResult<()>,
) -> MrResult<()> {
    let mut it = records.into_iter().peekable();
    while let Some((key, first)) = it.next() {
        let mut values = vec![first];
        while it.peek().is_some_and(|(k, _)| *k == key) {
            values.push(it.next().expect("peeked").1);
        }
        f(&key, &values)?;
    }
    Ok(())
}

/// Run the combiner over a key-sorted bucket, Hadoop's spill-time
/// mini-reduce.
pub fn combine_run(run: Vec<(String, String)>, combiner: &dyn Reducer) -> MrResult<CombineOutcome> {
    let input_records = run.len() as u64;
    let mut out = Vec::new();
    for_each_group(run, |key, values| {
        combiner.reduce(key, values, &mut |k, v| out.push((k, v)))
    })?;
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

fn get_u32(data: &[u8], at: usize) -> MrResult<u32> {
    data.get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
        .ok_or_else(|| MrError::Storage("truncated shuffle data".into()))
}

fn get_u64(data: &[u8], at: usize) -> MrResult<u64> {
    data.get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        .ok_or_else(|| MrError::Storage("truncated shuffle data".into()))
}

/// Encode partition buckets (each already key-sorted) into the spill layout.
/// Returns the file image and the total record count.
pub fn encode_spill(partitions: &[Vec<(String, String)>]) -> (Vec<u8>, u64) {
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(partitions.len());
    let mut records_total = 0u64;
    for bucket in partitions {
        let mut payload = Vec::new();
        for (k, v) in bucket {
            put_u32(&mut payload, k.len() as u32);
            payload.extend_from_slice(k.as_bytes());
            put_u32(&mut payload, v.len() as u32);
            payload.extend_from_slice(v.as_bytes());
        }
        records_total += bucket.len() as u64;
        payloads.push(payload);
    }

    let mut file = Vec::new();
    put_u32(&mut file, SPILL_MAGIC);
    put_u32(&mut file, SPILL_VERSION);
    put_u32(&mut file, partitions.len() as u32);
    put_u32(&mut file, 0); // reserved
    let mut offset = index_len(partitions.len());
    for (bucket, payload) in partitions.iter().zip(&payloads) {
        put_u64(&mut file, offset);
        put_u64(&mut file, payload.len() as u64);
        put_u64(&mut file, bucket.len() as u64);
        offset += payload.len() as u64;
    }
    for payload in payloads {
        file.extend_from_slice(&payload);
    }
    (file, records_total)
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
    let mut writer = fs.create(path)?;
    writer.write(&image)?;
    writer.close()?;
    Ok((image.len() as u64, records))
}

/// One partition's segment pulled out of one map's spill file: fetched, not
/// yet decoded — a reduce attempt holds its segments in this compact form
/// until every map's has arrived ([`Segment::decode`]).
#[derive(Debug, Default, Clone)]
pub struct Segment {
    /// The segment's still-encoded records.
    payload: bytes::Bytes,
    /// Records the spill's index promises the payload holds.
    pub records: u64,
    /// Bytes fetched from the storage layer (index + payload).
    pub bytes: u64,
    /// Positioned reads issued (1 for the index, +1 when the segment has
    /// payload).
    pub round_trips: u64,
}

/// Fetch partition `partition` of the spill at `path` with positioned reads:
/// one read for the header+index, one for the segment payload (skipped when
/// the segment is empty).
pub fn read_segment(
    fs: &dyn DistFs,
    path: &str,
    partition: usize,
    num_partitions: usize,
) -> MrResult<Segment> {
    let mut reader = fs.open(path)?;
    let header = reader.read_at(0, index_len(num_partitions))?;
    let mut segment = Segment {
        bytes: header.len() as u64,
        round_trips: 1,
        ..Segment::default()
    };
    if get_u32(&header, 0)? != SPILL_MAGIC || get_u32(&header, 4)? != SPILL_VERSION {
        return Err(MrError::Storage(format!("{path} is not a spill file")));
    }
    let partitions = get_u32(&header, 8)? as usize;
    if partitions != num_partitions || partition >= partitions {
        return Err(MrError::Storage(format!(
            "{path} holds {partitions} partitions, segment {partition} of {num_partitions} requested"
        )));
    }
    let entry = (SPILL_HEADER_LEN + partition as u64 * SPILL_INDEX_ENTRY_LEN) as usize;
    let offset = get_u64(&header, entry)?;
    let len = get_u64(&header, entry + 8)?;
    segment.records = get_u64(&header, entry + 16)?;
    if len > 0 {
        segment.payload = reader.read_at(offset, len)?;
        segment.bytes += segment.payload.len() as u64;
        segment.round_trips += 1;
    }
    Ok(segment)
}

impl Segment {
    /// Decode the segment's records, key-sorted (a merge run). `path` names
    /// the file it was fetched from, for error messages.
    pub fn decode(&self, path: &str) -> MrResult<Vec<(String, String)>> {
        let records = decode_records(&self.payload, self.records, path)?;
        if records.len() as u64 != self.records {
            return Err(MrError::Storage(format!(
                "segment of {path}: index promised {} records, decoded {}",
                self.records,
                records.len()
            )));
        }
        Ok(records)
    }
}

/// Decode a length-prefixed record stream (one partition's payload).
fn decode_records(payload: &[u8], expected: u64, path: &str) -> MrResult<Vec<(String, String)>> {
    let mut records = Vec::with_capacity(expected as usize);
    let mut at = 0usize;
    while at < payload.len() {
        let key_len = get_u32(payload, at)? as usize;
        at += 4;
        let key = payload
            .get(at..at + key_len)
            .ok_or_else(|| MrError::Storage(format!("corrupt segment in {path}")))?;
        at += key_len;
        let val_len = get_u32(payload, at)? as usize;
        at += 4;
        let val = payload
            .get(at..at + val_len)
            .ok_or_else(|| MrError::Storage(format!("corrupt segment in {path}")))?;
        at += val_len;
        records.push((
            String::from_utf8_lossy(key).into_owned(),
            String::from_utf8_lossy(val).into_owned(),
        ));
    }
    Ok(records)
}

/// A whole spill read back as per-partition runs, the compactor's bulk-read
/// form of [`read_segment`].
#[derive(Debug, Default)]
pub struct SpillRuns {
    /// Every partition's key-sorted bucket, in partition order.
    pub partitions: Vec<Vec<(String, String)>>,
    /// Bytes fetched from the storage layer (index + payload).
    pub bytes: u64,
    /// Positioned reads issued (1 for the index, +1 when any partition has
    /// payload).
    pub round_trips: u64,
}

/// Read an entire spill file back: one positioned read for the header+index,
/// one for the whole payload region. This is how the compactor ingests the
/// spills it merges — paying 2 reads per *spill* rather than 2 per
/// map×partition pair.
pub fn read_spill_runs(fs: &dyn DistFs, path: &str, num_partitions: usize) -> MrResult<SpillRuns> {
    let mut reader = fs.open(path)?;
    let header = reader.read_at(0, index_len(num_partitions))?;
    let mut out = SpillRuns {
        bytes: header.len() as u64,
        round_trips: 1,
        ..SpillRuns::default()
    };
    if get_u32(&header, 0)? != SPILL_MAGIC || get_u32(&header, 4)? != SPILL_VERSION {
        return Err(MrError::Storage(format!("{path} is not a spill file")));
    }
    let partitions = get_u32(&header, 8)? as usize;
    if partitions != num_partitions {
        return Err(MrError::Storage(format!(
            "{path} holds {partitions} partitions, {num_partitions} expected"
        )));
    }
    let mut entries = Vec::with_capacity(partitions);
    let mut payload_len = 0u64;
    for p in 0..partitions {
        let entry = (SPILL_HEADER_LEN + p as u64 * SPILL_INDEX_ENTRY_LEN) as usize;
        let offset = get_u64(&header, entry)?;
        let len = get_u64(&header, entry + 8)?;
        let records = get_u64(&header, entry + 16)?;
        entries.push((offset, len, records));
        payload_len += len;
    }
    if payload_len == 0 {
        out.partitions = vec![Vec::new(); partitions];
        return Ok(out);
    }
    let base = index_len(partitions);
    let payload = reader.read_at(base, payload_len)?;
    out.bytes += payload.len() as u64;
    out.round_trips += 1;
    for (p, (offset, len, records)) in entries.into_iter().enumerate() {
        let from = (offset - base) as usize;
        let slice = payload
            .get(from..from + len as usize)
            .ok_or_else(|| MrError::Storage(format!("corrupt segment in {path}")))?;
        let decoded = decode_records(slice, records, path)?;
        if decoded.len() as u64 != records {
            return Err(MrError::Storage(format!(
                "partition {p} of {path}: index promised {records} records, decoded {}",
                decoded.len()
            )));
        }
        out.partitions.push(decoded);
    }
    Ok(out)
}

/// Entry in the k-way-merge heap: `BinaryHeap` is a max-heap, so comparisons
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

/// K-way-merge pre-sorted runs (one per map task, in map-id order) into one
/// key-sorted record stream. Stable: for equal keys, records come out in
/// (map id, emit order) — exactly the order the in-memory shuffle's
/// concatenate-then-group produces.
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

/// Feed a merged, key-sorted record stream through the reducer, grouping
/// consecutive equal keys. Returns the output records in emit order.
pub fn reduce_merged(
    merged: Vec<(String, String)>,
    reducer: &dyn Reducer,
) -> MrResult<Vec<(String, String)>> {
    let mut output = Vec::new();
    for_each_group(merged, |key, values| {
        reducer.reduce(key, values, &mut |k, v| output.push((k, v)))
    })?;
    Ok(output)
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

    #[test]
    fn spill_roundtrip_through_storage() {
        let fs = fs();
        let buckets = vec![
            vec![pair("a", "1"), pair("b", "2")],
            Vec::new(),
            vec![pair("c", "x\ty\n"), pair("c", ""), pair("d", "3")],
        ];
        let (bytes, records) = write_spill(&fs, "/out/_shuffle/map-00000", &buckets).unwrap();
        assert_eq!(records, 5);
        assert_eq!(bytes, fs.len("/out/_shuffle/map-00000").unwrap());

        for (p, bucket) in buckets.iter().enumerate() {
            let seg = read_segment(&fs, "/out/_shuffle/map-00000", p, 3).unwrap();
            assert_eq!(&seg.decode("map-00000").unwrap(), bucket, "partition {p}");
            if bucket.is_empty() {
                assert_eq!(seg.round_trips, 1, "empty segments skip the data read");
            } else {
                assert_eq!(seg.round_trips, 2);
                assert!(seg.bytes > index_len(3));
            }
        }
    }

    #[test]
    fn whole_spill_reads_back_as_runs() {
        let fs = fs();
        let buckets = vec![
            vec![pair("a", "1"), pair("b", "2")],
            Vec::new(),
            vec![pair("c", "x\ty\n"), pair("c", ""), pair("d", "3")],
        ];
        let (bytes, _) = write_spill(&fs, "/out/_shuffle/map-00000", &buckets).unwrap();
        let runs = read_spill_runs(&fs, "/out/_shuffle/map-00000", 3).unwrap();
        assert_eq!(runs.partitions, buckets);
        assert_eq!(runs.round_trips, 2, "one index read, one bulk payload read");
        assert_eq!(runs.bytes, bytes, "the whole file is fetched");
        // Wrong partition count and non-spill files are rejected.
        assert!(read_spill_runs(&fs, "/out/_shuffle/map-00000", 2).is_err());
        fs.write_file("/junk", b"this is not a spill file at all......")
            .unwrap();
        assert!(read_spill_runs(&fs, "/junk", 3).is_err());
    }

    #[test]
    fn empty_spill_reads_back_without_a_payload_round_trip() {
        let fs = fs();
        let buckets = vec![Vec::new(), Vec::new()];
        write_spill(&fs, "/s", &buckets).unwrap();
        let runs = read_spill_runs(&fs, "/s", 2).unwrap();
        assert_eq!(runs.partitions, buckets);
        assert_eq!(runs.round_trips, 1, "no payload to read");
    }

    #[test]
    fn merged_run_uses_the_spill_layout() {
        // A compacted run is just a spill file at a run path: write the
        // merged buckets with write_spill, read them with read_segment.
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
        let merged: Vec<Vec<(String, String)>> = (0..2)
            .map(|p| {
                merge_runs(
                    (0..2)
                        .map(|m| {
                            read_spill_runs(&fs, &spill_path("/out", m), 2)
                                .unwrap()
                                .partitions[p]
                                .clone()
                        })
                        .collect(),
                )
            })
            .collect();
        write_spill(&fs, &run_path("/out", 0, 2), &merged).unwrap();
        let seg = read_segment(&fs, &run_path("/out", 0, 2), 0, 2).unwrap();
        assert_eq!(
            seg.decode("run").unwrap(),
            vec![pair("a", "m0"), pair("a", "m1"), pair("c", "m0")],
            "ties break toward the lower map id"
        );
        let seg = read_segment(&fs, &run_path("/out", 0, 2), 1, 2).unwrap();
        assert_eq!(seg.decode("run").unwrap(), vec![pair("z", "m0")]);
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
        let merged = vec![pair("a", "1"), pair("a", "2"), pair("b", "5")];
        let out = reduce_merged(merged, &SumReducer).unwrap();
        assert_eq!(out, vec![pair("a", "3"), pair("b", "5")]);
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
