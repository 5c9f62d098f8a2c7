//! A slow-node [`DistFs`] wrapper for injecting per-task delays.
//!
//! Straggler experiments need a way to make *one specific task attempt* (or
//! every operation of one node) slow without touching the framework. This
//! wrapper intercepts `create`/`open` calls and, when a [`DelayRule`]
//! matches, sleeps on an injected [`Clock`] before delegating — under a
//! [`simcluster::clock::SimClock`] the delay is purely virtual, so a test
//! can inject a "60-second" straggler that costs no real time.
//!
//! Per-task targeting exploits the output-commit protocol: every attempt
//! writes under `_temporary/attempt-<task>-<attempt>`, so a rule matching
//! `"attempt-map-00003-0"` delays exactly the first attempt of map task 3,
//! wherever it is scheduled — retries and speculative clones get fresh
//! attempt numbers and stay fast. Rules can also be restricted to handles
//! bound to one node ([`DelayRule::on_node`]), modelling a slow machine.

use mapreduce::fs::{BlockHint, DistFs, FileReader, FileWriter};
use mapreduce::MrResult;
use simcluster::clock::Clock;
use simcluster::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which filesystem operation a [`DelayRule`] intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayOp {
    /// Delay `DistFs::create` (covers task output: spills, part files and
    /// attempt scratch).
    Create,
    /// Delay `DistFs::open` (covers input splits and shuffle segment
    /// fetches).
    Open,
}

/// One injection rule: sleep `delay` on the wrapper's clock whenever a
/// matching operation touches a path *ending with* the rule's suffix
/// (optionally only from handles bound to one node, and only a limited
/// number of times). Suffix matching keeps attempt targeting exact:
/// attempt numbers are unpadded, so a substring match for `...-1` would
/// also fire on attempts 10-19.
pub struct DelayRule {
    op: DelayOp,
    path_suffix: String,
    delay: Duration,
    node: Option<NodeId>,
    remaining: AtomicUsize,
}

impl DelayRule {
    /// Delay `create` calls on paths ending with `path_suffix`.
    pub fn create(path_suffix: impl Into<String>, delay: Duration) -> Self {
        DelayRule {
            op: DelayOp::Create,
            path_suffix: path_suffix.into(),
            delay,
            node: None,
            remaining: AtomicUsize::new(usize::MAX),
        }
    }

    /// Delay `open` calls on paths ending with `path_suffix`.
    pub fn open(path_suffix: impl Into<String>, delay: Duration) -> Self {
        DelayRule {
            op: DelayOp::Open,
            path_suffix: path_suffix.into(),
            delay,
            node: None,
            remaining: AtomicUsize::new(usize::MAX),
        }
    }

    /// Restrict the rule to handles bound (via `on_node`) to `node`.
    pub fn on_node(mut self, node: NodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// Fire at most `times` times (default: unlimited).
    pub fn times(mut self, times: usize) -> Self {
        self.remaining = AtomicUsize::new(times);
        self
    }

    /// Does this rule fire for `op` on `path` from a handle bound to
    /// `node`? Consumes one application when it does.
    fn take(&self, op: DelayOp, path: &str, node: Option<NodeId>) -> bool {
        if self.op != op || !path.ends_with(&self.path_suffix) {
            return false;
        }
        if let Some(rule_node) = self.node {
            if node != Some(rule_node) {
                return false;
            }
        }
        self.remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }
}

/// The delay-injecting [`DistFs`] wrapper. Everything passes through to the
/// wrapped backend unchanged except matching `create`/`open` calls, which
/// first sleep on the injected clock.
pub struct SlowFs {
    inner: Box<dyn DistFs>,
    clock: Arc<dyn Clock>,
    rules: Arc<Vec<DelayRule>>,
    node: Option<NodeId>,
}

impl SlowFs {
    /// Wrap `inner`, sleeping on `clock` whenever one of `rules` matches.
    pub fn new(inner: Box<dyn DistFs>, clock: Arc<dyn Clock>, rules: Vec<DelayRule>) -> Self {
        SlowFs {
            inner,
            clock,
            rules: Arc::new(rules),
            node: None,
        }
    }

    fn apply(&self, op: DelayOp, path: &str) {
        for rule in self.rules.iter() {
            if rule.take(op, path, self.node) {
                // A straggler is a slow *node*: its wait must not cost the
                // executor pool that plays every node a worker.
                mapreduce::blocking(|| self.clock.sleep(rule.delay));
            }
        }
    }
}

impl DistFs for SlowFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn create(&self, path: &str) -> MrResult<Box<dyn FileWriter>> {
        self.apply(DelayOp::Create, path);
        self.inner.create(path)
    }
    fn open(&self, path: &str) -> MrResult<Box<dyn FileReader>> {
        self.apply(DelayOp::Open, path);
        self.inner.open(path)
    }
    fn len(&self, path: &str) -> MrResult<u64> {
        self.inner.len(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, path: &str) -> MrResult<Vec<String>> {
        self.inner.list(path)
    }
    fn mkdirs(&self, path: &str) -> MrResult<()> {
        self.inner.mkdirs(path)
    }
    fn delete(&self, path: &str, recursive: bool) -> MrResult<()> {
        self.inner.delete(path, recursive)
    }
    fn rename(&self, from: &str, to: &str) -> MrResult<()> {
        self.inner.rename(from, to)
    }
    fn locate(&self, path: &str, offset: u64, len: u64) -> MrResult<Vec<BlockHint>> {
        self.inner.locate(path, offset, len)
    }
    fn on_node(&self, node: NodeId) -> Box<dyn DistFs> {
        Box::new(SlowFs {
            inner: self.inner.on_node(node),
            clock: Arc::clone(&self.clock),
            rules: Arc::clone(&self.rules),
            node: Some(node),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer::{BlobSeer, BlobSeerConfig};
    use bsfs::{Bsfs, BsfsConfig};
    use mapreduce::fs::BsfsFs;
    use simcluster::clock::SimClock;

    fn base_fs() -> Box<dyn DistFs> {
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(256));
        Box::new(BsfsFs::new(Bsfs::new(storage, BsfsConfig::for_tests())))
    }

    #[test]
    fn matching_create_sleeps_on_the_virtual_clock() {
        let clock = Arc::new(SimClock::new());
        let fs = SlowFs::new(
            base_fs(),
            clock.clone(),
            vec![DelayRule::create("attempt-map-00000-0", Duration::from_secs(30)).times(1)],
        );
        let elapsed = clock.drive(Duration::from_secs(10), || {
            let before = clock.now();
            fs.write_file("/out/_temporary/attempt-map-00000-0", b"spill")
                .unwrap();
            // Suffix matching: attempt 1 and "attempt 0 of task 00000-0x"
            // style near-misses are free...
            fs.write_file("/out/_temporary/attempt-map-00000-1", b"clone")
                .unwrap();
            fs.write_file("/out/_temporary/attempt-map-00000-0x", b"again")
                .unwrap();
            // ...and so is a second matching path once times(1) is spent.
            fs.write_file("/other/attempt-map-00000-0", b"spent")
                .unwrap();
            clock.now().saturating_sub(before)
        });
        assert!(
            elapsed >= Duration::from_secs(30),
            "the first create must cost 30 virtual seconds, took {elapsed:?}"
        );
        assert!(elapsed < Duration::from_secs(60), "only one rule firing");
        assert_eq!(
            &fs.read_file("/out/_temporary/attempt-map-00000-0").unwrap()[..],
            b"spill"
        );
    }

    #[test]
    fn node_scoped_rules_only_fire_on_that_nodes_handles() {
        let clock = Arc::new(SimClock::new());
        let fs = SlowFs::new(
            base_fs(),
            clock.clone(),
            vec![DelayRule::open("/data", Duration::from_secs(5)).on_node(NodeId(2))],
        );
        fs.write_file("/data", b"payload").unwrap();
        // The root handle and other nodes are unaffected: no pump is
        // running, so a sleep would hang — completing at all proves no rule
        // fired.
        assert_eq!(&fs.read_file("/data").unwrap()[..], b"payload");
        let other = fs.on_node(NodeId(1));
        assert_eq!(&other.read_file("/data").unwrap()[..], b"payload");
        assert_eq!(clock.now_micros(), 0);

        let slow = fs.on_node(NodeId(2));
        let elapsed = clock.drive(Duration::from_secs(5), || {
            let before = clock.now();
            assert_eq!(&slow.read_file("/data").unwrap()[..], b"payload");
            clock.now().saturating_sub(before)
        });
        assert!(elapsed >= Duration::from_secs(5));
    }

    #[test]
    fn wrapper_delegates_the_full_contract() {
        let clock = Arc::new(SimClock::new());
        let fs = SlowFs::new(base_fs(), clock, Vec::new());
        assert_eq!(fs.name(), "BSFS");
        fs.mkdirs("/d").unwrap();
        fs.write_file("/d/f", b"abc").unwrap();
        assert!(fs.exists("/d/f"));
        assert_eq!(fs.len("/d/f").unwrap(), 3);
        assert_eq!(fs.list("/d").unwrap(), vec!["/d/f"]);
        assert!(!fs.locate("/d/f", 0, 3).unwrap().is_empty());
        fs.rename("/d/f", "/d/g").unwrap();
        assert_eq!(&fs.read_file("/d/g").unwrap()[..], b"abc");
        fs.delete("/d", true).unwrap();
        assert!(!fs.exists("/d/g"));
    }
}
