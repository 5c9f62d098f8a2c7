//! Locality-aware task scheduling and the straggler-speculation policy.
//!
//! "One of the optimization techniques the MapReduce framework employs, is to
//! ship the computation to nodes that store the input data; the goal is to
//! minimize data transfers between nodes. For this reason, the storage layer
//! must be able to provide the information about the location of the data"
//! (paper §II-B). The jobtracker uses the functions below to hand each free
//! map slot the *closest* pending split: one whose data lives on the
//! tasktracker's own node if possible, else in its rack, else anywhere.
//!
//! The second half of this module is Hadoop's other latency defense:
//! **speculative execution**. A [`SpeculationPolicy`] decides, from a running
//! attempt's elapsed time and reported progress (an [`AttemptView`]) and the
//! runtimes of its completed peer tasks (a [`RuntimeHistory`], kept
//! incrementally sorted so the median is O(1), not a fresh sort), whether an
//! idle slot should launch a duplicate attempt of that task — and, when not
//! yet, after how long it could, which is the one deadline the jobtracker's
//! dispatcher ever arms. The
//! default [`SlowestFactorPolicy`] clones a task once it has run longer than
//! `slowest_factor ×` the median of its completed peers (with an absolute
//! floor, so short jobs don't speculate on noise); [`LatePolicy`] instead
//! estimates each attempt's *remaining* time from its progress fraction and
//! clones the task that will finish last. All times come from the
//! jobtracker's injected [`simcluster::clock::Clock`], so the policies are
//! deterministic under a [`simcluster::clock::SimClock`].

use crate::split::InputSplit;
use simcluster::topology::ClusterTopology;
use simcluster::NodeId;
use std::time::Duration;

/// How close a task's data is to the node that will execute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Locality {
    /// The data (one of its replicas) is on the executing node itself.
    DataLocal,
    /// The data is in the same rack as the executing node.
    RackLocal,
    /// The data is somewhere else in the cluster (or the split has no
    /// location information, e.g. synthetic splits).
    Remote,
}

/// Counters of how many map tasks ran at each locality level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalityCounters {
    /// Tasks whose data was on the executing node.
    pub data_local: usize,
    /// Tasks whose data was in the executing node's rack.
    pub rack_local: usize,
    /// Tasks that had to read across racks (or had no location info).
    pub remote: usize,
}

impl LocalityCounters {
    /// Record one task execution at the given locality.
    pub fn record(&mut self, locality: Locality) {
        match locality {
            Locality::DataLocal => self.data_local += 1,
            Locality::RackLocal => self.rack_local += 1,
            Locality::Remote => self.remote += 1,
        }
    }

    /// Total tasks recorded.
    pub fn total(&self) -> usize {
        self.data_local + self.rack_local + self.remote
    }
}

/// Classify how close a split's data is to `node`.
pub fn classify(topology: &ClusterTopology, node: NodeId, split: &InputSplit) -> Locality {
    if split.preferred_nodes.is_empty() {
        return Locality::Remote;
    }
    if split.preferred_nodes.contains(&node) {
        return Locality::DataLocal;
    }
    let rack = topology.rack_of(node);
    if split
        .preferred_nodes
        .iter()
        .any(|n| topology.rack_of(*n) == rack)
    {
        Locality::RackLocal
    } else {
        Locality::Remote
    }
}

/// Pick the best pending split for a tasktracker on `node`: data-local first,
/// then rack-local, then anything. Returns the position *within `pending`* of
/// the chosen entry and its locality class, or `None` when `pending` is empty.
pub fn pick_map_task(
    topology: &ClusterTopology,
    node: NodeId,
    pending: &[usize],
    splits: &[InputSplit],
) -> Option<(usize, Locality)> {
    if pending.is_empty() {
        return None;
    }
    let mut best: Option<(usize, Locality)> = None;
    for (pos, &split_idx) in pending.iter().enumerate() {
        let locality = classify(topology, node, &splits[split_idx]);
        match best {
            None => best = Some((pos, locality)),
            Some((_, current)) if locality < current => best = Some((pos, locality)),
            _ => {}
        }
        if locality == Locality::DataLocal {
            break; // cannot do better
        }
    }
    best
}

/// What a speculation policy sees about one running attempt: how long it has
/// been executing and how far through its input it claims to be. Attempts
/// report progress fractions at record-count milestones; `0.0` means "no
/// report yet" (the LATE estimator treats it as barely started).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptView {
    /// Elapsed execution time of the attempt (clock now − claim time).
    pub runtime: Duration,
    /// Reported progress fraction in `[0, 1]`.
    pub progress: f64,
}

/// Incrementally maintained runtime statistics of a phase's committed tasks.
///
/// The speculation policy is consulted under the phase lock on every grant
/// decision; this keeps the history sorted as runtimes arrive (binary-search
/// insert, O(n) worst-case memmove but amortised far below a full sort),
/// making `median` O(1).
#[derive(Debug, Clone, Default)]
pub struct RuntimeHistory {
    sorted: Vec<Duration>,
}

impl RuntimeHistory {
    /// An empty history.
    pub fn new() -> Self {
        RuntimeHistory::default()
    }

    /// Record one committed task's runtime, keeping the history sorted.
    pub fn record(&mut self, runtime: Duration) {
        let at = self.sorted.partition_point(|r| *r <= runtime);
        self.sorted.insert(at, runtime);
    }

    /// Number of recorded runtimes.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Is the history empty?
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Median runtime in O(1) ([`Duration::ZERO`] when empty); even counts
    /// average the two middle values, matching Hadoop's estimator.
    pub fn median(&self) -> Duration {
        let n = self.sorted.len();
        if n == 0 {
            return Duration::ZERO;
        }
        let mid = n / 2;
        if n % 2 == 1 {
            self.sorted[mid]
        } else {
            (self.sorted[mid - 1] + self.sorted[mid]) / 2
        }
    }

    /// The runtimes, sorted ascending.
    pub fn sorted(&self) -> &[Duration] {
        &self.sorted
    }
}

/// Decides whether a running task deserves a speculative duplicate attempt.
///
/// The jobtracker consults the policy for *idle* slot tokens (so "spare
/// slots exist" holds by construction): `attempt` describes the task's sole
/// running attempt, `history` the runtimes of the tasks of the same phase
/// that already committed.
pub trait SpeculationPolicy: Send + Sync {
    /// Should an idle slot clone this task now?
    fn should_speculate(&self, attempt: AttemptView, history: &RuntimeHistory) -> bool;

    /// If this attempt does not qualify now, after how much more runtime
    /// could it? [`should_speculate`](Self::should_speculate) stays false up
    /// to that instant and turns true just past it, given the progress and
    /// history seen so far. `None`: time alone cannot qualify the attempt,
    /// only a commit can (more history) — an event the dispatcher wakes on
    /// anyway. A progress report only moves the instant later, so waking at
    /// a stale one is early, never late. The default suits policies whose
    /// verdict does not depend on time.
    fn time_to_qualify(&self, attempt: AttemptView, history: &RuntimeHistory) -> Option<Duration> {
        let _ = (attempt, history);
        None
    }

    /// Ranking score used to choose *which* structural candidate to clone
    /// when several qualify: the candidate with the highest urgency is
    /// offered first. The default ranks by elapsed runtime (Hadoop's
    /// longest-running-first); LATE overrides it with the estimated
    /// remaining time.
    fn urgency(&self, attempt: AttemptView) -> Duration {
        attempt.runtime
    }
}

/// Median of a set of task runtimes ([`Duration::ZERO`] when empty); even
/// counts average the two middle values, matching Hadoop's estimator.
pub fn median_runtime(runtimes: &[Duration]) -> Duration {
    if runtimes.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = runtimes.to_vec();
    sorted.sort();
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    }
}

/// The default speculation policy: clone a task once its runtime exceeds
/// `slowest_factor ×` the median runtime of its completed peers, with an
/// absolute `min_runtime` floor, and only after `min_completed` peers have
/// finished (no peers, no baseline — Hadoop's "wait for enough history").
#[derive(Debug, Clone, Copy)]
pub struct SlowestFactorPolicy {
    /// How many times slower than the median a task must be.
    pub slowest_factor: f64,
    /// Never speculate a task that has run for less than this.
    pub min_runtime: Duration,
    /// Completed peer tasks required before any speculation.
    pub min_completed: usize,
}

impl Default for SlowestFactorPolicy {
    fn default() -> Self {
        SlowestFactorPolicy {
            slowest_factor: 1.5,
            min_runtime: Duration::from_secs(1),
            min_completed: 1,
        }
    }
}

impl SlowestFactorPolicy {
    /// The runtime an attempt must exceed to be cloned; `None` until enough
    /// peers have completed.
    fn threshold(&self, history: &RuntimeHistory) -> Option<Duration> {
        (history.len() >= self.min_completed).then(|| {
            let factor = history.median().mul_f64(self.slowest_factor);
            factor.max(self.min_runtime)
        })
    }
}

impl SpeculationPolicy for SlowestFactorPolicy {
    fn should_speculate(&self, attempt: AttemptView, history: &RuntimeHistory) -> bool {
        (self.threshold(history)).is_some_and(|threshold| attempt.runtime > threshold)
    }

    fn time_to_qualify(&self, attempt: AttemptView, history: &RuntimeHistory) -> Option<Duration> {
        (self.threshold(history)).map(|threshold| threshold.saturating_sub(attempt.runtime))
    }
}

/// Floor on the progress fraction LATE divides by: an attempt that has
/// reported no progress at all still gets a finite (but very large) remaining
/// time estimate instead of a division blow-up.
const LATE_MIN_PROGRESS: f64 = 0.01;

/// A LATE-style speculation policy (Zaharia et al., *Improving MapReduce
/// Performance in Heterogeneous Environments*): instead of comparing elapsed
/// runtime against the median peer runtime, estimate each attempt's
/// **remaining** time from its reported progress fraction — assuming the
/// observed progress rate holds, `remaining = runtime × (1 − p) / p` — and
/// clone the task whose estimated remaining time is longest, once that
/// estimate exceeds `late_factor ×` the median runtime of its committed
/// peers. A half-done slow task and a barely-started medium task rank by how
/// much longer they will *take*, not how long they have already run, which
/// is what actually bounds job completion time.
#[derive(Debug, Clone, Copy)]
pub struct LatePolicy {
    /// How many medians of estimated-remaining-time trigger a clone.
    pub late_factor: f64,
    /// Never speculate an attempt that has run for less than this (progress
    /// rates measured over tiny runtimes are noise).
    pub min_runtime: Duration,
    /// Completed peer tasks required before any speculation.
    pub min_completed: usize,
}

impl Default for LatePolicy {
    fn default() -> Self {
        LatePolicy {
            late_factor: 1.0,
            min_runtime: Duration::from_secs(1),
            min_completed: 1,
        }
    }
}

impl LatePolicy {
    /// Estimated time left for an attempt, from its progress rate so far.
    pub fn remaining(attempt: AttemptView) -> Duration {
        let p = attempt.progress.clamp(0.0, 1.0).max(LATE_MIN_PROGRESS);
        attempt.runtime.mul_f64((1.0 - p) / p)
    }
}

impl SpeculationPolicy for LatePolicy {
    fn should_speculate(&self, attempt: AttemptView, history: &RuntimeHistory) -> bool {
        if history.len() < self.min_completed || attempt.runtime < self.min_runtime {
            return false;
        }
        let threshold = history.median().mul_f64(self.late_factor);
        Self::remaining(attempt) > threshold
    }

    fn time_to_qualify(&self, attempt: AttemptView, history: &RuntimeHistory) -> Option<Duration> {
        let p = attempt.progress.clamp(0.0, 1.0).max(LATE_MIN_PROGRESS);
        // A finished-but-uncommitted attempt has nothing left to estimate.
        if history.len() < self.min_completed || p >= 1.0 {
            return None;
        }
        // remaining > threshold  <=>  runtime > threshold * p / (1 - p);
        // an instant too far to represent is as good as never.
        let secs = history.median().as_secs_f64() * self.late_factor * p / (1.0 - p);
        let qualifies_at = Duration::try_from_secs_f64(secs)
            .ok()?
            .max(self.min_runtime);
        Some(qualifies_at.saturating_sub(attempt.runtime))
    }

    fn urgency(&self, attempt: AttemptView) -> Duration {
        Self::remaining(attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::SplitSource;

    fn split(id: usize, nodes: Vec<NodeId>) -> InputSplit {
        InputSplit {
            id,
            source: SplitSource::File {
                path: "/f".into(),
                offset: 0,
                len: 1,
            },
            preferred_nodes: nodes,
        }
    }

    fn topo() -> ClusterTopology {
        // 2 racks of 3 nodes: rack 0 = nodes 0..3, rack 1 = nodes 3..6.
        ClusterTopology::builder()
            .sites(1)
            .racks_per_site(2)
            .nodes_per_rack(3)
            .build()
    }

    #[test]
    fn classification_levels() {
        let t = topo();
        let s_local = split(0, vec![NodeId(1)]);
        let s_rack = split(1, vec![NodeId(2)]);
        let s_remote = split(2, vec![NodeId(5)]);
        let s_unknown = split(3, vec![]);
        assert_eq!(classify(&t, NodeId(1), &s_local), Locality::DataLocal);
        assert_eq!(classify(&t, NodeId(1), &s_rack), Locality::RackLocal);
        assert_eq!(classify(&t, NodeId(1), &s_remote), Locality::Remote);
        assert_eq!(classify(&t, NodeId(1), &s_unknown), Locality::Remote);
        // Ordering backs the scheduler's preference.
        assert!(Locality::DataLocal < Locality::RackLocal);
        assert!(Locality::RackLocal < Locality::Remote);
    }

    #[test]
    fn picker_prefers_data_local_then_rack_local() {
        let t = topo();
        let splits = vec![
            split(0, vec![NodeId(5)]), // remote for node 0
            split(1, vec![NodeId(2)]), // rack-local for node 0
            split(2, vec![NodeId(0)]), // data-local for node 0
        ];
        let pending = vec![0, 1, 2];
        let (pos, loc) = pick_map_task(&t, NodeId(0), &pending, &splits).unwrap();
        assert_eq!(pending[pos], 2);
        assert_eq!(loc, Locality::DataLocal);

        // Without the data-local option, the rack-local one wins.
        let pending = vec![0, 1];
        let (pos, loc) = pick_map_task(&t, NodeId(0), &pending, &splits).unwrap();
        assert_eq!(pending[pos], 1);
        assert_eq!(loc, Locality::RackLocal);

        // Only the remote split left.
        let pending = vec![0];
        let (pos, loc) = pick_map_task(&t, NodeId(0), &pending, &splits).unwrap();
        assert_eq!(pending[pos], 0);
        assert_eq!(loc, Locality::Remote);

        assert!(pick_map_task(&t, NodeId(0), &[], &splits).is_none());
    }

    /// An attempt view with no progress report (the pre-LATE policies only
    /// look at the runtime).
    fn ran(runtime: Duration) -> AttemptView {
        AttemptView {
            runtime,
            progress: 0.0,
        }
    }

    fn history(runtimes: &[Duration]) -> RuntimeHistory {
        let mut h = RuntimeHistory::new();
        for r in runtimes {
            h.record(*r);
        }
        h
    }

    #[test]
    fn median_runtime_handles_odd_even_and_empty() {
        let s = Duration::from_secs;
        assert_eq!(median_runtime(&[]), Duration::ZERO);
        assert_eq!(median_runtime(&[s(4)]), s(4));
        assert_eq!(median_runtime(&[s(9), s(1), s(5)]), s(5));
        assert_eq!(median_runtime(&[s(8), s(2), s(4), s(6)]), s(5));
    }

    #[test]
    fn runtime_history_maintains_a_sorted_incremental_median() {
        let s = Duration::from_secs;
        let mut h = RuntimeHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.median(), Duration::ZERO);
        // Insert out of order; the history must agree with the full-sort
        // reference at every step.
        let mut seen = Vec::new();
        for r in [s(9), s(1), s(5), s(5), s(2), s(40), s(3)] {
            h.record(r);
            seen.push(r);
            assert_eq!(h.median(), median_runtime(&seen));
            assert!(h.sorted().windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(h.len(), 7);
    }

    #[test]
    fn slowest_factor_policy_gates_on_history_floor_and_factor() {
        let s = Duration::from_secs;
        let policy = SlowestFactorPolicy {
            slowest_factor: 2.0,
            min_runtime: s(3),
            min_completed: 2,
        };
        // Not enough completed peers: never speculate, however slow.
        assert!(!policy.should_speculate(ran(s(1000)), &history(&[s(1)])));
        // Enough history, but under the absolute floor.
        assert!(!policy.should_speculate(ran(s(3)), &history(&[s(1), s(1)])));
        // Over the floor and over factor x median.
        assert!(policy.should_speculate(ran(s(4)), &history(&[s(1), s(1)])));
        // Factor dominates once the median is large: 2 x 10s = 20s.
        assert!(!policy.should_speculate(ran(s(20)), &history(&[s(10), s(10)])));
        assert!(policy.should_speculate(ran(s(21)), &history(&[s(10), s(10)])));
        // The default ranking is longest-elapsed-first.
        assert!(policy.urgency(ran(s(21))) > policy.urgency(ran(s(20))));
    }

    #[test]
    fn default_policy_waits_for_one_peer_and_one_second() {
        let policy = SlowestFactorPolicy::default();
        assert!(!policy.should_speculate(ran(Duration::from_secs(900)), &history(&[])));
        assert!(policy.should_speculate(
            ran(Duration::from_secs(2)),
            &history(&[Duration::from_millis(10)])
        ));
    }

    #[test]
    fn late_policy_estimates_remaining_time_from_progress() {
        let s = Duration::from_secs;
        let at = |runtime: Duration, progress: f64| AttemptView { runtime, progress };
        let policy = LatePolicy::default();
        let h = history(&[s(10), s(10)]); // median 10s

        // 90% done after 20s: ~2.2s left, far under the 10s median — a
        // runtime-vs-median policy would have cloned this long ago.
        assert!(!policy.should_speculate(at(s(20), 0.9), &h));
        // 10% done after 5s: 45s left > 10s median — LATE clones it even
        // though its elapsed runtime is *below* the median.
        assert!(policy.should_speculate(at(s(5), 0.1), &h));
        // No progress report at all: remaining is capped, not infinite, and
        // still well past the threshold.
        assert!(policy.should_speculate(at(s(2), 0.0), &h));
        // Gates: runtime floor and history floor.
        assert!(!policy.should_speculate(at(Duration::from_millis(100), 0.1), &h));
        assert!(!policy.should_speculate(at(s(5), 0.1), &history(&[])));

        // Urgency ranks by remaining time, not elapsed: the barely-started
        // task outranks the nearly-done one that has run 4x longer.
        assert!(policy.urgency(at(s(5), 0.1)) > policy.urgency(at(s(20), 0.9)));
        // remaining() itself: 10s at half progress -> 10s left.
        assert_eq!(LatePolicy::remaining(at(s(10), 0.5)), s(10));
    }

    /// `should_speculate` is false up to the instant `time_to_qualify` names
    /// and true just past it.
    fn assert_qualifies_exactly_at(
        policy: &dyn SpeculationPolicy,
        attempt: AttemptView,
        history: &RuntimeHistory,
    ) {
        let tick = Duration::from_micros(1);
        let wait = policy
            .time_to_qualify(attempt, history)
            .expect("time alone qualifies this attempt");
        assert!(wait > tick, "pick an attempt that does not qualify yet");
        let after = |extra: Duration| AttemptView {
            runtime: attempt.runtime + extra,
            ..attempt
        };
        assert!(!policy.should_speculate(attempt, history));
        assert!(!policy.should_speculate(after(wait - tick), history));
        assert!(policy.should_speculate(after(wait + tick), history));
    }

    #[test]
    fn time_to_qualify_names_the_instant_should_speculate_flips() {
        let s = Duration::from_secs;
        let at = |runtime: Duration, progress: f64| AttemptView { runtime, progress };
        let slowest = SlowestFactorPolicy {
            slowest_factor: 2.0,
            min_runtime: s(3),
            min_completed: 2,
        };
        // Floor-dominated (2 x 1s < 3s) and factor-dominated (2 x 10s).
        assert_qualifies_exactly_at(&slowest, ran(s(1)), &history(&[s(1), s(1)]));
        assert_qualifies_exactly_at(&slowest, ran(s(7)), &history(&[s(10), s(10)]));
        assert_eq!(
            slowest.time_to_qualify(ran(s(7)), &history(&[s(10), s(10)])),
            Some(s(13))
        );
        // No baseline yet: only the next commit can change the verdict.
        assert_eq!(
            slowest.time_to_qualify(ran(s(900)), &history(&[s(1)])),
            None
        );
        // Already qualifying: no wait left.
        assert_eq!(
            slowest.time_to_qualify(ran(s(30)), &history(&[s(10), s(10)])),
            Some(Duration::ZERO)
        );

        let late = LatePolicy {
            late_factor: 1.0,
            min_runtime: s(1),
            min_completed: 1,
        };
        let h = history(&[s(10), s(10)]);
        // Half done: remaining == runtime, so it qualifies past 10s.
        assert_qualifies_exactly_at(&late, at(s(4), 0.5), &h);
        // 20% done: remaining = 4 x runtime, qualifies past 2.5s.
        assert_qualifies_exactly_at(&late, at(s(2), 0.2), &h);
        // Floor-dominated: no report yet, 100ms in, 1s floor.
        assert_qualifies_exactly_at(&late, at(Duration::from_millis(100), 0.0), &h);
        // Progress only moves the instant later.
        assert!(late.time_to_qualify(at(s(2), 0.6), &h) > late.time_to_qualify(at(s(2), 0.5), &h));
        // Nothing left to estimate, or nothing to compare against.
        assert_eq!(late.time_to_qualify(at(s(2), 1.0), &h), None);
        assert_eq!(late.time_to_qualify(at(s(2), 0.5), &history(&[])), None);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = LocalityCounters::default();
        c.record(Locality::DataLocal);
        c.record(Locality::DataLocal);
        c.record(Locality::RackLocal);
        c.record(Locality::Remote);
        assert_eq!(c.data_local, 2);
        assert_eq!(c.rack_local, 1);
        assert_eq!(c.remote, 1);
        assert_eq!(c.total(), 4);
    }
}
