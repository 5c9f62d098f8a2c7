//! Tasktrackers, task attempts, and the execution of individual map/reduce
//! tasks.
//!
//! "The framework consists of a single master jobtracker, and multiple slave
//! tasktrackers, one per node. A MapReduce job is split into a set of tasks,
//! which are executed by the tasktrackers, as assigned by the jobtracker"
//! (paper §II-A). A [`TaskTracker`] here is the per-node executor descriptor
//! (which node, how many concurrent slots); the actual task bodies —
//! reading a split, applying the user's map function, partitioning the
//! intermediate pairs, applying reduce and writing output files — live in the
//! free functions of this module so the jobtracker's attempt tasks and the
//! tests can call them directly.
//!
//! The module also owns the **attempt state machine**, [`TaskBook`]: one
//! task may have several concurrent *attempts* (retries after failures, and
//! speculative clones of stragglers), identified by [`TaskAttemptId`]. Every
//! attempt moves `Running → Succeeded | Failed | Lost`:
//!
//! ```text
//!                claim_pending / claim_speculative
//!   PENDING  ------------------------------------->  RUNNING
//!      ^                                            /   |   \
//!      | retry (failed, no           finished first/    |    \ finished, but a
//!      | peer attempt running,       rename commits/    |     \ peer attempt had
//!      | attempts left)                            v    |      v already committed
//!      +------------------------------------- FAILED   |     LOST (wasted work)
//!        failures reach max_task_attempts -> job fails  v
//!                                                  SUCCEEDED (sole winner)
//! ```
//!
//! The book is pure bookkeeping driven by an external clock reading — it
//! performs no I/O and takes no locks — so unit tests can step it through
//! every speculation scenario deterministically with a
//! [`simcluster::clock::SimClock`].

use crate::error::{MrError, MrResult};
use crate::fs::{DistFs, FileWriter};
use crate::job::{format_output_record, Mapper, Partitioner, Reducer};
use crate::scheduler::{AttemptView, RuntimeHistory, SpeculationPolicy};
use crate::split::{InputSplit, SplitLines, SplitSource};
use simcluster::NodeId;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// A per-node task executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTracker {
    /// The cluster node the tracker runs on.
    pub node: NodeId,
    /// Concurrent map tasks the tracker can execute.
    pub map_slots: usize,
    /// Concurrent reduce tasks the tracker can execute.
    pub reduce_slots: usize,
}

impl TaskTracker {
    /// A tracker with Hadoop's classic defaults (2 map slots, 1 reduce slot).
    pub fn new(node: NodeId) -> Self {
        TaskTracker {
            node,
            map_slots: 2,
            reduce_slots: 1,
        }
    }

    /// Override the slot counts.
    pub fn with_slots(mut self, map_slots: usize, reduce_slots: usize) -> Self {
        self.map_slots = map_slots.max(1);
        self.reduce_slots = reduce_slots.max(1);
        self
    }
}

/// The output of one map task.
#[derive(Debug, Default, Clone)]
pub struct MapTaskOutput {
    /// Intermediate pairs, one bucket per reduce partition (a single bucket
    /// for map-only jobs), as [`run_map_task`] collects them. Empty for an
    /// engine attempt, whose emits go to a
    /// [`MapOutputBuffer`](crate::shuffle::MapOutputBuffer).
    pub partitions: Vec<Vec<(String, String)>>,
    /// Input records processed.
    pub records_read: u64,
    /// Intermediate pairs emitted.
    pub records_emitted: u64,
    /// Bytes read from the storage layer.
    pub bytes_read: u64,
    /// Bytes of the committed spill file (0 for map-only jobs).
    pub spilled_bytes: u64,
    /// Records written to the spill file (post-combine).
    pub spilled_records: u64,
    /// Records fed to the spill-time combiner (0 without a combiner).
    pub combine_input_records: u64,
    /// Records the spill-time combiner emitted.
    pub combine_output_records: u64,
}

/// Identifies one execution attempt of one task within a phase: `task` is
/// the task index (map split id / reduce partition), `attempt` a per-task
/// counter — retries and speculative clones get fresh attempt numbers, so
/// scratch paths (`_temporary/attempt-<task>-<attempt>`) never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskAttemptId {
    /// Index of the task within its phase.
    pub task: usize,
    /// Attempt number, starting at 0 for the first execution.
    pub attempt: usize,
}

/// Lifecycle state of one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptState {
    /// Claimed by a worker slot and executing.
    Running,
    /// Finished first and committed its output (won the rename arbitration).
    Succeeded,
    /// Returned an error before committing.
    Failed,
    /// Finished its work, but a concurrent attempt of the same task had
    /// already committed — the output was discarded (wasted work).
    Lost,
}

/// Bookkeeping record of one attempt.
#[derive(Debug, Clone, Copy)]
pub struct AttemptRecord {
    /// Which attempt this is.
    pub id: TaskAttemptId,
    /// The node whose slot executes it.
    pub node: NodeId,
    /// Whether it was launched as a speculative clone of a running attempt.
    pub speculative: bool,
    /// Clock reading when the attempt was claimed, moved up to when it began
    /// executing by [`TaskBook::record_started`].
    pub started_at: Duration,
    /// Current lifecycle state.
    pub state: AttemptState,
    /// Latest progress fraction the attempt reported (`0.0` until the first
    /// report). Feeds the LATE remaining-time estimator.
    pub progress: f64,
}

/// Speculation outcome counters, reported on
/// [`JobResult`](crate::jobtracker::JobResult).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculationCounters {
    /// Speculative attempts launched.
    pub launched: u64,
    /// Tasks whose committing attempt was a speculative clone.
    pub wins: u64,
    /// Attempts (original or clone) whose work was thrown away because a
    /// peer attempt committed first, or that failed after the task had
    /// already committed.
    pub wasted_attempts: u64,
    /// Total runtime of those wasted attempts, in clock microseconds.
    pub wasted_micros: u64,
    /// Speculative clones aborted mid-flight because the scheduler owed
    /// their slot to a starved tenant (also counted in `wasted_attempts`).
    pub preempted: u64,
}

impl SpeculationCounters {
    /// Accumulate another phase's counters.
    pub fn merge(&mut self, other: &SpeculationCounters) {
        self.launched += other.launched;
        self.wins += other.wins;
        self.wasted_attempts += other.wasted_attempts;
        self.wasted_micros += other.wasted_micros;
        self.preempted += other.preempted;
    }
}

/// Resolution of the injected clocks (a `SimClock` counts microseconds).
const CLOCK_TICK: Duration = Duration::from_micros(1);

/// What [`TaskBook::record_failure`] decided about a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureVerdict {
    /// The task was requeued for a fresh attempt.
    Retry,
    /// Another attempt of the task is still running; nothing was requeued
    /// (if that attempt also fails, *it* will trigger the retry or the
    /// fatal verdict).
    Waiting,
    /// The task had already committed — the failure is wasted work, not a
    /// retry, and must not fail the job.
    Wasted,
    /// The task exhausted `max_task_attempts` with no attempt left running:
    /// the job must fail. Carries the number of failed attempts.
    Fatal(usize),
}

struct TaskEntry {
    committed: bool,
    failures: usize,
    attempts: Vec<AttemptRecord>,
}

/// The per-phase attempt state machine: which tasks are pending, which
/// attempts are running where and since when, who committed, and what the
/// speculation policy is allowed to clone. The jobtracker keeps one book per
/// phase inside the phase mutex; everything here is pure state driven by
/// clock readings passed in by the caller, so tests can exercise every
/// transition deterministically.
#[derive(Default)]
pub struct TaskBook {
    tasks: Vec<TaskEntry>,
    pending: Vec<usize>,
    outstanding: usize,
    retries: usize,
    committed: usize,
    history: RuntimeHistory,
    speculation: SpeculationCounters,
}

impl TaskBook {
    /// A book with `num_tasks` tasks, all pending.
    pub fn new(num_tasks: usize) -> Self {
        TaskBook {
            tasks: (0..num_tasks)
                .map(|_| TaskEntry {
                    committed: false,
                    failures: 0,
                    attempts: Vec::new(),
                })
                .collect(),
            pending: (0..num_tasks).collect(),
            ..Default::default()
        }
    }

    /// Tasks awaiting a (regular) attempt. Positions in this slice are what
    /// [`TaskBook::claim_pending`] consumes, so a locality-aware picker can
    /// choose among them.
    pub fn pending(&self) -> &[usize] {
        &self.pending
    }

    /// Attempts currently running, over all tasks.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Failed attempts that led to a retry or are covered by a still-running
    /// peer attempt (the job-level `task_retries` counter).
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// Speculation outcome counters so far.
    pub fn speculation(&self) -> SpeculationCounters {
        self.speculation
    }

    /// Has this task committed an attempt?
    pub fn is_committed(&self, task: usize) -> bool {
        self.tasks[task].committed
    }

    /// Have all tasks committed?
    pub fn all_committed(&self) -> bool {
        self.committed == self.tasks.len()
    }

    /// Full attempt history of one task, for tests and reporting.
    pub fn attempts(&self, task: usize) -> &[AttemptRecord] {
        &self.tasks[task].attempts
    }

    /// The committed runtimes as an incrementally sorted [`RuntimeHistory`]
    /// — the speculation policy's baseline, median in O(1) per consult.
    pub fn history(&self) -> &RuntimeHistory {
        &self.history
    }

    /// Claim the pending entry at position `pos` (as chosen by the
    /// scheduler) for a regular attempt on `node` at time `now`.
    pub fn claim_pending(&mut self, pos: usize, node: NodeId, now: Duration) -> TaskAttemptId {
        let task = self.pending.swap_remove(pos);
        self.start_attempt(task, node, now, false)
    }

    /// The tasks an idle slot on `node` may clone, policy aside: uncommitted,
    /// never speculated before (one clone per task for the job's lifetime,
    /// so a clone that fails cannot trigger an endless relaunch loop), with
    /// exactly one running attempt, on a *different* node (cloning onto the
    /// straggler's own node would inherit its slowness).
    fn clone_candidates(
        &self,
        node: NodeId,
        now: Duration,
    ) -> impl Iterator<Item = (usize, AttemptView)> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .filter_map(move |(task, entry)| {
                if entry.committed || entry.attempts.iter().any(|a| a.speculative) {
                    return None;
                }
                let mut running = entry
                    .attempts
                    .iter()
                    .filter(|a| a.state == AttemptState::Running);
                let (Some(sole), None) = (running.next(), running.next()) else {
                    return None;
                };
                (sole.node != node).then_some((
                    task,
                    AttemptView {
                        runtime: now.saturating_sub(sole.started_at),
                        progress: sole.progress,
                    },
                ))
            })
    }

    /// Offer an idle slot on `node` a speculative clone: of the
    /// [candidates](Self::clone_candidates) that pass `policy` against the
    /// committed peers' runtimes, the one the policy ranks most urgent
    /// (elapsed runtime by default, estimated remaining time for LATE; ties
    /// to the lowest task id). Returns the claimed attempt, or `None` if
    /// nothing qualifies.
    pub fn claim_speculative(
        &mut self,
        node: NodeId,
        now: Duration,
        policy: &dyn SpeculationPolicy,
    ) -> Option<TaskAttemptId> {
        let (task, _) = self
            .clone_candidates(node, now)
            .filter(|(_, view)| policy.should_speculate(*view, &self.history))
            .min_by_key(|(task, view)| (std::cmp::Reverse(policy.urgency(*view)), *task))?;
        self.speculation.launched += 1;
        Some(self.start_attempt(task, node, now, true))
    }

    /// How long until [`claim_speculative`](Self::claim_speculative) on
    /// `node` can succeed if nothing but the clock moves: `ZERO` when it
    /// would succeed now, `None` when only an event (a commit, a failure, a
    /// progress report) can make it. A positive wait is one clock tick past
    /// [`SpeculationPolicy::time_to_qualify`]'s instant, where the policy's
    /// strict comparison has flipped.
    pub fn speculation_wait(
        &self,
        node: NodeId,
        now: Duration,
        policy: &dyn SpeculationPolicy,
    ) -> Option<Duration> {
        self.clone_candidates(node, now)
            .filter_map(|(_, view)| {
                if policy.should_speculate(view, &self.history) {
                    Some(Duration::ZERO)
                } else {
                    let wait = policy.time_to_qualify(view, &self.history)?;
                    Some(wait + CLOCK_TICK)
                }
            })
            .min()
    }

    /// The attempt began executing — it may have queued for a pool worker
    /// since the claim. Its runtime counts from here, so how wide the pool is
    /// never makes a healthy attempt look like a straggler.
    pub fn record_started(&mut self, id: TaskAttemptId, now: Duration) {
        if let Some(record) = self.tasks[id.task].attempts.iter_mut().find(|a| a.id == id) {
            record.started_at = now;
        }
    }

    /// Record a progress report from a running attempt (fraction of its
    /// input processed). Progress is clamped to `[0, 1]` and never moves
    /// backwards. Reports for attempts that already finished are ignored —
    /// a loser's late report must not touch the book.
    pub fn report_progress(&mut self, id: TaskAttemptId, progress: f64) {
        if let Some(record) = self.tasks[id.task]
            .attempts
            .iter_mut()
            .find(|a| a.id == id && a.state == AttemptState::Running)
        {
            record.progress = record.progress.max(progress.clamp(0.0, 1.0));
        }
    }

    fn start_attempt(
        &mut self,
        task: usize,
        node: NodeId,
        now: Duration,
        speculative: bool,
    ) -> TaskAttemptId {
        let entry = &mut self.tasks[task];
        let id = TaskAttemptId {
            task,
            attempt: entry.attempts.len(),
        };
        entry.attempts.push(AttemptRecord {
            id,
            node,
            speculative,
            started_at: now,
            state: AttemptState::Running,
            progress: 0.0,
        });
        self.outstanding += 1;
        id
    }

    fn finish(&mut self, id: TaskAttemptId, state: AttemptState) -> AttemptRecord {
        // Invariant: an attempt is closed once, by the worker it was claimed for.
        let record = self.tasks[id.task]
            .attempts
            .iter_mut()
            .find(|a| a.id == id && a.state == AttemptState::Running)
            .expect("an attempt is closed once, by the worker it was claimed for");
        record.state = state;
        self.outstanding -= 1;
        *record
    }

    /// The attempt committed its output (the caller's rename into the final
    /// path succeeded while holding the book): mark the task done and feed
    /// its runtime to the speculation baseline. Counters of losing attempts
    /// never reach this path — only the winner's output and statistics are
    /// merged into the job.
    pub fn record_success(&mut self, id: TaskAttemptId, now: Duration) {
        debug_assert!(!self.tasks[id.task].committed, "two winners for a task");
        let record = self.finish(id, AttemptState::Succeeded);
        self.tasks[id.task].committed = true;
        self.committed += 1;
        let runtime = now.saturating_sub(record.started_at);
        self.history.record(runtime);
        if record.speculative {
            self.speculation.wins += 1;
        }
    }

    /// The attempt finished its work, but a peer attempt had already
    /// committed: all of it is wasted work.
    pub fn record_lost(&mut self, id: TaskAttemptId, now: Duration) {
        let record = self.finish(id, AttemptState::Lost);
        self.speculation.wasted_attempts += 1;
        self.speculation.wasted_micros += now.saturating_sub(record.started_at).as_micros() as u64;
    }

    /// The worker abandoned the attempt because the job is already failing
    /// (e.g. a reduce attempt aborting after a map-phase failure): close the
    /// attempt's bookkeeping without a retry, waste counters or a verdict,
    /// so no attempt is left `Running` after the workers exit.
    pub fn record_abandoned(&mut self, id: TaskAttemptId) {
        self.finish(id, AttemptState::Failed);
    }

    /// A speculative clone was preempted mid-flight: the fair-share
    /// scheduler owed its slot to a starved tenant, so the worker aborted
    /// the clone before it committed. Only speculative attempts may be
    /// preempted — the task's original attempt keeps running, so preemption
    /// can never lose a task or force a retry. The clone's work is counted
    /// as waste.
    pub fn record_preempted(&mut self, id: TaskAttemptId, now: Duration) {
        let record = self.finish(id, AttemptState::Lost);
        debug_assert!(record.speculative, "only speculative clones are preempted");
        self.speculation.preempted += 1;
        self.speculation.wasted_attempts += 1;
        self.speculation.wasted_micros += now.saturating_sub(record.started_at).as_micros() as u64;
    }

    /// The attempt failed with an error. Decides between retrying, waiting
    /// for a still-running peer attempt, counting pure waste (task already
    /// committed), and failing the job. Failed *speculative* attempts do not
    /// consume the task's `max_attempts` budget — a bad spare node must not
    /// be able to fail a task whose healthy original is still running.
    pub fn record_failure(
        &mut self,
        id: TaskAttemptId,
        now: Duration,
        max_attempts: usize,
    ) -> FailureVerdict {
        let record = self.finish(id, AttemptState::Failed);
        let entry = &mut self.tasks[id.task];
        if entry.committed {
            // A clone (or the original) already won; this failure is noise.
            self.speculation.wasted_attempts += 1;
            self.speculation.wasted_micros +=
                now.saturating_sub(record.started_at).as_micros() as u64;
            return FailureVerdict::Wasted;
        }
        if !record.speculative {
            entry.failures += 1;
        }
        self.retries += 1;
        let peer_running = entry
            .attempts
            .iter()
            .any(|a| a.state == AttemptState::Running);
        if peer_running {
            // The surviving attempt may still commit; if it fails too, that
            // failure will requeue or kill the job.
            FailureVerdict::Waiting
        } else if entry.failures >= max_attempts {
            FailureVerdict::Fatal(entry.failures)
        } else {
            self.pending.push(id.task);
            FailureVerdict::Retry
        }
    }
}

/// Hash-partition an intermediate key across `num_partitions` reducers
/// (Hadoop's default `HashPartitioner`).
pub fn partition_for(key: &str, num_partitions: usize) -> usize {
    if num_partitions <= 1 {
        return 0;
    }
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % num_partitions
}

/// Execute one map task the way the in-memory oracle does: read the split's
/// records, run the user's map function on each (told which file the record
/// came from, for multi-input jobs), and collect the emitted pairs in one
/// owned bucket per partition of the job's partitioner.
pub fn run_map_task(
    fs: &dyn DistFs,
    split: &InputSplit,
    mapper: &dyn Mapper,
    partitioner: &dyn Partitioner,
    num_partitions: usize,
) -> MrResult<MapTaskOutput> {
    let mut partitions = vec![Vec::new(); num_partitions.max(1)];
    let (out, _) = map_split(
        fs,
        split,
        mapper,
        partitioner,
        num_partitions,
        &mut |_| true,
        &mut |p, k, v| partitions[p].push((k, v)),
    )?;
    Ok(MapTaskOutput { partitions, ..out })
}

/// How many times per task the map loop reports progress (and offers the
/// caller a preemption point).
const MAP_PROGRESS_MILESTONES: u64 = 8;

/// The map task body, the one map loop of both the engine and the oracle:
/// read the split's records, run the user's map function on each, and hand
/// every emitted pair to `emit` with the partition the job's partitioner
/// gives it — into a [`MapOutputBuffer`](crate::shuffle::MapOutputBuffer) for
/// an engine attempt, into owned buckets for [`run_map_task`].
///
/// `progress` is called with the fraction of the split processed (by byte
/// position; by record index for a synthetic split) at
/// ~[`MAP_PROGRESS_MILESTONES`] evenly-spaced milestones and once more, with
/// `1.0`, at the end. Its return value is a continue/abort decision:
/// returning `false` abandons the task at once — how the jobtracker preempts
/// a speculative clone mid-flight without losing the original attempt.
/// Returns the task's counters, and whether it ran to the end of its split.
/// A partitioner answer outside `0..num_partitions` fails the task.
pub(crate) fn map_split(
    fs: &dyn DistFs,
    split: &InputSplit,
    mapper: &dyn Mapper,
    partitioner: &dyn Partitioner,
    num_partitions: usize,
    progress: &mut dyn FnMut(f64) -> bool,
    emit: &mut dyn FnMut(usize, String, String),
) -> MrResult<(MapTaskOutput, bool)> {
    let buckets = num_partitions.max(1);
    let mut out = MapTaskOutput::default();
    // A record's position in its split — its byte offset for a file split,
    // its index for a synthetic one — is how far the task has come.
    let (source_path, base, span) = match &split.source {
        SplitSource::File { path, offset, len } => (path.as_str(), *offset, *len),
        SplitSource::Synthetic { records, .. } => ("", 0, *records),
    };
    let step = (span / MAP_PROGRESS_MILESTONES).max(1);
    let mut milestone = base + step;
    // Map one record; `false` when `progress` abandons the task at a
    // milestone the record has reached.
    let mut map_one = |out: &mut MapTaskOutput, at: u64, line: &str| -> MrResult<bool> {
        if at >= milestone {
            if !progress((at - base) as f64 / span as f64) {
                return Ok(false);
            }
            milestone = at - (at - base) % step + step;
        }
        out.records_read += 1;
        let (mut emitted, mut stray) = (0u64, None);
        mapper.map_with_source(source_path, at, line, &mut |k, v| {
            let p = partitioner.partition(&k, buckets);
            if p < buckets {
                emit(p, k, v);
                emitted += 1;
            } else {
                stray.get_or_insert(p);
            }
        })?;
        if let Some(p) = stray {
            return Err(MrError::InvalidJob(format!(
                "the partitioner sent a key to partition {p} of {buckets}"
            )));
        }
        out.records_emitted += emitted;
        Ok(true)
    };
    // The user's map function sees each record as a view: of the split's
    // buffer for file splits, of nothing for synthetic ones.
    let mut finished = true;
    match &split.source {
        SplitSource::File { path, offset, len } => {
            let lines = SplitLines::read(fs, path, *offset, *len)?;
            out.bytes_read = lines.bytes_read();
            for (at, line) in lines.iter() {
                finished = map_one(&mut out, at, &line)?;
                if !finished {
                    break;
                }
            }
        }
        SplitSource::Synthetic { records, .. } => {
            for i in 0..*records {
                finished = map_one(&mut out, i, "")?;
                if !finished {
                    break;
                }
            }
        }
    }
    let finished = finished && progress(1.0);
    Ok((out, finished))
}

/// Group one reduce partition's pairs by key, preserving the per-key value
/// arrival order (Hadoop sorts keys; values keep shuffle order).
pub fn group_by_key(pairs: Vec<(String, String)>) -> BTreeMap<String, Vec<String>> {
    let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (k, v) in pairs {
        groups.entry(k).or_default().push(v);
    }
    groups
}

/// Execute one reduce task over its grouped input and return the output
/// records (already formatted ordering: ascending key).
pub fn run_reduce_task(
    groups: &BTreeMap<String, Vec<String>>,
    reducer: &dyn Reducer,
) -> MrResult<Vec<(String, String)>> {
    let mut output = Vec::new();
    for (key, values) in groups {
        reducer.reduce(key, values, &mut |k, v| output.push((k, v)))?;
    }
    Ok(output)
}

/// How much formatted output an [`OutputFile`] hands its writer at a time:
/// one piece is one storage block at the benchmark's 1 MiB blocks, and a
/// whole number of pieces fills any larger power-of-two block.
const OUTPUT_PIECE: usize = 1 << 20;

/// A task's output file in Hadoop's text output format
/// ([`format_output_record`]): records are formatted into one buffer, which
/// goes to the storage layer's writer in 1 MiB pieces — never a `String` or
/// a write per record.
pub struct OutputFile {
    writer: Box<dyn FileWriter>,
    buffer: Vec<u8>,
    bytes: u64,
    records: u64,
}

impl OutputFile {
    /// Create the file at `path`.
    pub fn create(fs: &dyn DistFs, path: &str) -> MrResult<Self> {
        Ok(OutputFile {
            writer: fs.create(path)?,
            buffer: Vec::with_capacity(OUTPUT_PIECE),
            bytes: 0,
            records: 0,
        })
    }

    /// Format one record into the buffer. Touches no storage:
    /// [`OutputFile::flush_pieces`] does, between records or groups.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        format_output_record(&mut self.buffer, key, value);
        self.records += 1;
    }

    /// Write out every whole piece the buffer holds.
    pub fn flush_pieces(&mut self) -> MrResult<()> {
        if self.buffer.len() < OUTPUT_PIECE {
            return Ok(());
        }
        let whole = self.buffer.len() - self.buffer.len() % OUTPUT_PIECE;
        for piece in self.buffer[..whole].chunks(OUTPUT_PIECE) {
            self.writer.write(piece)?;
        }
        self.bytes += whole as u64;
        self.buffer.drain(..whole);
        Ok(())
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Write the rest of the buffer and seal the file. Returns the bytes
    /// written.
    pub fn close(mut self) -> MrResult<u64> {
        self.flush_pieces()?;
        if !self.buffer.is_empty() {
            self.writer.write(&self.buffer)?;
        }
        self.writer.close()?;
        Ok(self.bytes + self.buffer.len() as u64)
    }
}

/// Write a task's output records to `path` through the storage layer, in
/// Hadoop's text output format. Returns the number of bytes written.
pub fn write_output_file(
    fs: &dyn DistFs,
    path: &str,
    records: &[(String, String)],
) -> MrResult<u64> {
    let mut file = OutputFile::create(fs, path)?;
    for (k, v) in records {
        file.push(k.as_bytes(), v.as_bytes());
        file.flush_pieces()?;
    }
    file.close()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MrError;
    use crate::fs::BsfsFs;
    use crate::job::{HashPartitioner, SumReducer};
    use crate::scheduler::SlowestFactorPolicy;
    use blobseer::{BlobSeer, BlobSeerConfig};
    use bsfs::{Bsfs, BsfsConfig};
    use simcluster::clock::{Clock, SimClock};

    fn fs() -> BsfsFs {
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(256));
        BsfsFs::new(Bsfs::new(storage, BsfsConfig::for_tests()))
    }

    struct WordCountMapper;
    impl Mapper for WordCountMapper {
        fn map(
            &self,
            _offset: u64,
            line: &str,
            emit: &mut dyn FnMut(String, String),
        ) -> MrResult<()> {
            for word in line.split_whitespace() {
                emit(word.to_string(), "1".to_string());
            }
            Ok(())
        }
    }

    struct FailingMapper;
    impl Mapper for FailingMapper {
        fn map(
            &self,
            _offset: u64,
            _line: &str,
            _emit: &mut dyn FnMut(String, String),
        ) -> MrResult<()> {
            Err(MrError::Storage("synthetic failure".into()))
        }
    }

    #[test]
    fn tracker_defaults_and_overrides() {
        let t = TaskTracker::new(NodeId(3));
        assert_eq!(t.map_slots, 2);
        assert_eq!(t.reduce_slots, 1);
        let t = t.with_slots(0, 0);
        assert_eq!(t.map_slots, 1, "slot counts are clamped to at least one");
        assert_eq!(t.reduce_slots, 1);
    }

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for key in ["a", "b", "the", "quick", "fox"] {
            let p = partition_for(key, 4);
            assert!(p < 4);
            assert_eq!(
                p,
                partition_for(key, 4),
                "same key must always map to the same partition"
            );
        }
        assert_eq!(partition_for("anything", 1), 0);
        assert_eq!(partition_for("anything", 0), 0);
    }

    #[test]
    fn map_task_reads_split_and_partitions_output() {
        let fs = fs();
        fs.write_file("/in", b"the quick fox\nthe lazy dog\n")
            .unwrap();
        let split = InputSplit {
            id: 0,
            source: SplitSource::File {
                path: "/in".into(),
                offset: 0,
                len: 27,
            },
            preferred_nodes: vec![],
        };
        let out = run_map_task(&fs, &split, &WordCountMapper, &HashPartitioner, 3).unwrap();
        assert_eq!(out.records_read, 2);
        assert_eq!(out.records_emitted, 6);
        assert_eq!(out.partitions.len(), 3);
        let all: Vec<&(String, String)> = out.partitions.iter().flatten().collect();
        assert_eq!(all.len(), 6);
        assert!(out.bytes_read >= 27);
        // Identical keys land in identical partitions.
        let the_parts: std::collections::HashSet<usize> = out
            .partitions
            .iter()
            .enumerate()
            .filter(|(_, bucket)| bucket.iter().any(|(k, _)| k == "the"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(the_parts.len(), 1);
    }

    #[test]
    fn synthetic_split_generates_empty_records() {
        let fs = fs();
        let split = InputSplit {
            id: 0,
            source: SplitSource::Synthetic {
                index: 0,
                records: 5,
            },
            preferred_nodes: vec![],
        };
        struct CountingMapper;
        impl Mapper for CountingMapper {
            fn map(
                &self,
                offset: u64,
                line: &str,
                emit: &mut dyn FnMut(String, String),
            ) -> MrResult<()> {
                assert!(line.is_empty());
                emit(format!("record-{offset}"), String::new());
                Ok(())
            }
        }
        let out = run_map_task(&fs, &split, &CountingMapper, &HashPartitioner, 0).unwrap();
        assert_eq!(out.records_read, 5);
        assert_eq!(out.records_emitted, 5);
        assert_eq!(out.partitions.len(), 1);
        assert_eq!(out.bytes_read, 0);
    }

    #[test]
    fn failing_mapper_propagates_the_error() {
        let fs = fs();
        fs.write_file("/in", b"line\n").unwrap();
        let split = InputSplit {
            id: 0,
            source: SplitSource::File {
                path: "/in".into(),
                offset: 0,
                len: 5,
            },
            preferred_nodes: vec![],
        };
        assert!(run_map_task(&fs, &split, &FailingMapper, &HashPartitioner, 1).is_err());
    }

    #[test]
    fn a_partition_out_of_range_fails_the_task() {
        struct PastTheEnd;
        impl Partitioner for PastTheEnd {
            fn partition(&self, _key: &str, num_partitions: usize) -> usize {
                num_partitions
            }
        }
        let fs = fs();
        fs.write_file("/in", b"a b\n").unwrap();
        let split = InputSplit {
            id: 0,
            source: SplitSource::File {
                path: "/in".into(),
                offset: 0,
                len: 4,
            },
            preferred_nodes: vec![],
        };
        let outcome = run_map_task(&fs, &split, &WordCountMapper, &PastTheEnd, 2);
        assert!(matches!(outcome, Err(MrError::InvalidJob(_))));
    }

    #[test]
    fn grouping_and_reducing() {
        let pairs = vec![
            ("b".to_string(), "1".to_string()),
            ("a".to_string(), "1".to_string()),
            ("b".to_string(), "1".to_string()),
            ("c".to_string(), "2".to_string()),
        ];
        let groups = group_by_key(pairs);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups["b"], vec!["1", "1"]);
        let out = run_reduce_task(&groups, &SumReducer).unwrap();
        // BTreeMap iteration gives ascending key order.
        assert_eq!(
            out,
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string()),
                ("c".to_string(), "2".to_string()),
            ]
        );
    }

    // -----------------------------------------------------------------
    // TaskBook: the attempt state machine, stepped deterministically on a
    // manually advanced SimClock (no threads, no wall-clock time).
    // -----------------------------------------------------------------

    fn policy() -> SlowestFactorPolicy {
        SlowestFactorPolicy {
            slowest_factor: 2.0,
            min_runtime: Duration::from_secs(1),
            min_completed: 1,
        }
    }

    /// A policy that clones any attempt that has run at all, history or not
    /// — for exercising the failure paths of single-task books.
    fn eager_policy() -> SlowestFactorPolicy {
        SlowestFactorPolicy {
            slowest_factor: 1.0,
            min_runtime: Duration::ZERO,
            min_completed: 0,
        }
    }

    #[test]
    fn straggler_is_cloned_and_the_clone_wins_deterministically() {
        let clock = SimClock::new();
        let mut book = TaskBook::new(2);

        // t=0: both tasks start, on different nodes.
        let fast = book.claim_pending(0, NodeId(0), clock.now());
        let slow = book.claim_pending(0, NodeId(1), clock.now());
        assert_eq!((fast.task, fast.attempt), (0, 0));
        assert_eq!((slow.task, slow.attempt), (1, 0));
        assert_eq!(book.outstanding(), 2);

        // t=2s: the fast task commits (runtime 2s becomes the median).
        clock.advance(Duration::from_secs(2));
        book.record_success(fast, clock.now());
        assert_eq!(book.history().sorted(), &[Duration::from_secs(2)]);

        // t=4s: straggler runtime 4s <= 2 x median — no clone yet. The
        // straggler's own node is never offered the clone either.
        clock.advance(Duration::from_secs(2));
        assert!(book
            .claim_speculative(NodeId(2), clock.now(), &policy())
            .is_none());

        // t=5s: 5s > 4s threshold — an idle slot on node 2 gets the clone,
        // but node 1 (the straggler's node) still does not.
        clock.advance(Duration::from_secs(1));
        assert!(book
            .claim_speculative(NodeId(1), clock.now(), &policy())
            .is_none());
        let clone = book
            .claim_speculative(NodeId(2), clock.now(), &policy())
            .expect("straggler must be cloned");
        assert_eq!((clone.task, clone.attempt), (1, 1));
        assert_eq!(book.speculation().launched, 1);
        // With two attempts running, no further clone of the same task.
        assert!(book
            .claim_speculative(NodeId(3), clock.now(), &policy())
            .is_none());

        // t=6s: the clone commits; the original finishes at t=60 and loses.
        clock.advance(Duration::from_secs(1));
        assert!(!book.is_committed(1));
        book.record_success(clone, clock.now());
        assert!(book.is_committed(1) && book.all_committed());
        clock.advance(Duration::from_secs(54));
        book.record_lost(slow, clock.now());

        let s = book.speculation();
        assert_eq!((s.launched, s.wins, s.wasted_attempts), (1, 1, 1));
        assert_eq!(s.wasted_micros, 60_000_000, "the original ran 0s..60s");
        // Lost attempts must not pollute the job's statistics: no retry was
        // recorded and the speculation baseline only holds the two winners.
        assert_eq!(book.retries(), 0);
        assert_eq!(
            book.history().sorted(),
            &[Duration::from_secs(1), Duration::from_secs(2)]
        );
        assert_eq!(book.attempts(1)[0].state, AttemptState::Lost);
        assert_eq!(book.attempts(1)[1].state, AttemptState::Succeeded);
    }

    #[test]
    fn original_wins_and_the_clone_is_wasted() {
        let clock = SimClock::new();
        let mut book = TaskBook::new(2);
        let a = book.claim_pending(0, NodeId(0), clock.now());
        let b = book.claim_pending(0, NodeId(1), clock.now());
        clock.advance(Duration::from_secs(1));
        book.record_success(a, clock.now());
        clock.advance(Duration::from_secs(4));
        let clone = book
            .claim_speculative(NodeId(2), clock.now(), &policy())
            .unwrap();
        // t=8s: the *original* commits first; the clone loses at t=9.
        clock.advance(Duration::from_secs(3));
        book.record_success(b, clock.now());
        clock.advance(Duration::from_secs(1));
        book.record_lost(clone, clock.now());
        let s = book.speculation();
        assert_eq!((s.launched, s.wins, s.wasted_attempts), (1, 0, 1));
        assert_eq!(s.wasted_micros, 4_000_000, "the clone ran 5s..9s");
    }

    #[test]
    fn failure_verdicts_cover_retry_waiting_wasted_and_fatal() {
        let clock = SimClock::new();
        let mut book = TaskBook::new(1);
        let max = 3;

        // Attempt 0 fails alone -> Retry, task requeued.
        let a0 = book.claim_pending(0, NodeId(0), clock.now());
        assert_eq!(
            book.record_failure(a0, clock.now(), max),
            FailureVerdict::Retry
        );
        assert_eq!(book.pending(), &[0]);
        assert_eq!(book.retries(), 1);

        // Attempt 1 runs, gets a clone; attempt 1 fails while the clone is
        // still running -> Waiting (nothing requeued).
        let a1 = book.claim_pending(0, NodeId(0), clock.now());
        clock.advance(Duration::from_secs(10));
        let clone = book
            .claim_speculative(NodeId(1), clock.now(), &eager_policy())
            .unwrap();
        assert_eq!(
            book.record_failure(a1, clock.now(), max),
            FailureVerdict::Waiting
        );
        assert!(book.pending().is_empty());

        // The clone fails too. Speculative failures never burn the task's
        // max_attempts budget (a bad spare node must not fail the job), so
        // this requeues instead of counting toward Fatal...
        assert_eq!(
            book.record_failure(clone, clock.now(), max),
            FailureVerdict::Retry
        );
        assert_eq!(book.pending(), &[0]);
        // ...and the task is never speculated twice: even with an eligible
        // sole running attempt, no second clone is offered.
        let a2 = book.claim_pending(0, NodeId(0), clock.now());
        clock.advance(Duration::from_secs(10));
        assert!(book
            .claim_speculative(NodeId(1), clock.now(), &eager_policy())
            .is_none());
        // The third *regular* failure exhausts the budget -> Fatal.
        assert_eq!(
            book.record_failure(a2, clock.now(), max),
            FailureVerdict::Fatal(3)
        );

        // A failure after the task committed is Wasted, not a retry.
        let mut book = TaskBook::new(1);
        let a0 = book.claim_pending(0, NodeId(0), clock.now());
        clock.advance(Duration::from_secs(5));
        let clone = book
            .claim_speculative(NodeId(1), clock.now(), &eager_policy())
            .unwrap();
        book.record_success(clone, clock.now());
        let retries_before = book.retries();
        assert_eq!(
            book.record_failure(a0, clock.now(), max),
            FailureVerdict::Wasted
        );
        assert_eq!(book.retries(), retries_before, "waste is not a retry");
        assert_eq!(book.speculation().wasted_attempts, 1);
    }

    #[test]
    fn both_attempts_failing_leaves_attempts_for_a_retry() {
        // max_attempts large enough: original + clone both fail, the task
        // requeues, a third attempt succeeds.
        let clock = SimClock::new();
        let mut book = TaskBook::new(1);
        let a0 = book.claim_pending(0, NodeId(0), clock.now());
        clock.advance(Duration::from_secs(5));
        let a1 = book
            .claim_speculative(NodeId(1), clock.now(), &eager_policy())
            .unwrap();
        assert_eq!(
            book.record_failure(a1, clock.now(), 4),
            FailureVerdict::Waiting
        );
        assert_eq!(
            book.record_failure(a0, clock.now(), 4),
            FailureVerdict::Retry
        );
        let a2 = book.claim_pending(0, NodeId(2), clock.now());
        assert_eq!(a2.attempt, 2);
        book.record_success(a2, clock.now());
        assert!(book.all_committed());
        assert_eq!(book.retries(), 2);
    }

    #[test]
    fn progress_reports_are_clamped_monotonic_and_ignored_after_finish() {
        let clock = SimClock::new();
        let mut book = TaskBook::new(1);
        let a = book.claim_pending(0, NodeId(0), clock.now());
        book.report_progress(a, 0.5);
        assert_eq!(book.attempts(0)[0].progress, 0.5);
        // Backwards and out-of-range reports are ignored/clamped.
        book.report_progress(a, 0.2);
        assert_eq!(book.attempts(0)[0].progress, 0.5);
        book.report_progress(a, 7.0);
        assert_eq!(book.attempts(0)[0].progress, 1.0);
        // After the attempt finishes, late reports must not resurrect it.
        book.record_success(a, clock.now());
        book.report_progress(a, 0.1);
        assert_eq!(book.attempts(0)[0].progress, 1.0);
    }

    #[test]
    fn preempted_clone_is_pure_waste_and_the_original_still_commits() {
        let clock = SimClock::new();
        let mut book = TaskBook::new(2);
        let fast = book.claim_pending(0, NodeId(0), clock.now());
        let slow = book.claim_pending(0, NodeId(1), clock.now());
        clock.advance(Duration::from_secs(1));
        book.record_success(fast, clock.now());
        clock.advance(Duration::from_secs(4));
        let clone = book
            .claim_speculative(NodeId(2), clock.now(), &policy())
            .unwrap();

        // The scheduler owes the clone's slot to a starved tenant: preempt.
        clock.advance(Duration::from_secs(2));
        book.record_preempted(clone, clock.now());
        let s = book.speculation();
        assert_eq!((s.launched, s.preempted, s.wasted_attempts), (1, 1, 1));
        assert_eq!(s.wasted_micros, 2_000_000, "the clone ran 5s..7s");

        // Nothing is lost: the original attempt is still running, commits,
        // and no retry was ever recorded.
        assert!(!book.is_committed(1));
        assert_eq!(book.outstanding(), 1);
        book.record_success(slow, clock.now());
        assert!(book.all_committed());
        assert_eq!(book.retries(), 0);
        assert_eq!(book.attempts(1)[1].state, AttemptState::Lost);
    }

    #[test]
    fn late_urgency_ranks_candidates_by_remaining_time() {
        use crate::scheduler::LatePolicy;
        // Two stragglers: task 1 has run 10s at 90% progress (~1.1s left),
        // task 2 has run 6s at 10% progress (54s left). LATE must clone
        // task 2 even though task 1 has run longer.
        let clock = SimClock::new();
        let mut book = TaskBook::new(3);
        let fast = book.claim_pending(0, NodeId(0), clock.now());
        let near_done = book.claim_pending(0, NodeId(1), clock.now());
        clock.advance(Duration::from_secs(4));
        let barely_started = book.claim_pending(0, NodeId(2), clock.now());
        clock.advance(Duration::from_secs(1));
        book.record_success(fast, clock.now());
        clock.advance(Duration::from_secs(5));
        book.report_progress(near_done, 0.9);
        book.report_progress(barely_started, 0.1);
        let clone = book
            .claim_speculative(NodeId(3), clock.now(), &LatePolicy::default())
            .expect("the slow-progress task must be cloned");
        assert_eq!(clone.task, barely_started.task);
    }

    #[test]
    fn map_task_progress_callback_can_abort_the_task() {
        let fs = fs();
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("line {i}\n"));
        }
        fs.write_file("/in", text.as_bytes()).unwrap();
        let split = InputSplit {
            id: 0,
            source: SplitSource::File {
                path: "/in".into(),
                offset: 0,
                len: text.len() as u64,
            },
            preferred_nodes: vec![],
        };
        // Continue-everywhere reports monotonically increasing fractions and
        // completes.
        let mut seen = Vec::new();
        let mut emitted = 0;
        let (out, finished) = map_split(
            &fs,
            &split,
            &WordCountMapper,
            &HashPartitioner,
            2,
            &mut |f| {
                seen.push(f);
                true
            },
            &mut |_, _, _| emitted += 1,
        )
        .unwrap();
        assert!(finished, "not preempted");
        assert_eq!(out.records_read, 40);
        assert_eq!((out.records_emitted, emitted), (80, 80));
        assert!(seen.len() >= 2, "several milestones expected: {seen:?}");
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*seen.last().unwrap(), 1.0);

        // Aborting at the first milestone is an unfinished task, not an
        // error.
        let (_, finished) = map_split(
            &fs,
            &split,
            &WordCountMapper,
            &HashPartitioner,
            2,
            &mut |_| false,
            &mut |_, _, _| {},
        )
        .unwrap();
        assert!(!finished, "callback returning false preempts the task");
    }

    #[test]
    fn output_file_is_written_in_text_format() {
        let fs = fs();
        let records = vec![
            ("alpha".to_string(), "1".to_string()),
            ("beta".to_string(), String::new()),
        ];
        let bytes = write_output_file(&fs, "/out/part-r-00000", &records).unwrap();
        let content = fs.read_file("/out/part-r-00000").unwrap();
        assert_eq!(&content[..], b"alpha\t1\nbeta\n");
        assert_eq!(bytes, content.len() as u64);
    }
}
