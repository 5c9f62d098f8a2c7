//! Heartbeat failure detection on an injectable [`Clock`].
//!
//! A member (DHT node, data provider) is never *declared* dead to the
//! detector — it is *discovered* dead: a monitor periodically probes each
//! member (a heartbeat actor message) and reports the outcome here. A member
//! whose last successful heartbeat is older than the suspicion timeout and
//! which just failed another probe becomes **suspect**; a later successful
//! probe clears the suspicion (the member recovered or was falsely accused —
//! the classic trade-off of timeout-based detectors).
//!
//! The detector is deliberately passive: it holds no threads and sends no
//! messages itself. The owning tier feeds it from its repair pass, whose
//! probe is the heartbeat round ([`crate::replica`]), and from refused data
//! operations, which keeps the whole mechanism deterministic under
//! [`crate::clock::SimClock`].

use crate::clock::Clock;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long since the last successful heartbeat before a failed probe
/// turns into suspicion. Longer tolerates slow members; shorter detects
/// crashes faster.
pub const SUSPICION_TIMEOUT: Duration = Duration::from_millis(150);

struct MemberRecord {
    last_ok: Duration,
    suspect: bool,
}

/// Timeout/suspicion failure detector over members of type `K`.
///
/// Thread-safe; probes from any thread may report outcomes concurrently.
pub struct FailureDetector<K: Eq + Hash + Copy> {
    clock: Arc<dyn Clock>,
    members: Mutex<HashMap<K, MemberRecord>>,
    failures_detected: AtomicU64,
    recoveries_observed: AtomicU64,
}

impl<K: Eq + Hash + Copy> FailureDetector<K> {
    /// A detector reading time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        FailureDetector {
            clock,
            members: Mutex::new(HashMap::new()),
            failures_detected: AtomicU64::new(0),
            recoveries_observed: AtomicU64::new(0),
        }
    }

    /// A detector reading time from `clock` that tracks `members` from now.
    pub fn with_members(clock: Arc<dyn Clock>, members: impl IntoIterator<Item = K>) -> Self {
        let detector = Self::new(clock);
        members.into_iter().for_each(|id| detector.register(id));
        detector
    }

    /// Start tracking a member, presumed alive as of now (a member that
    /// never answers will still only become suspect after the timeout).
    pub fn register(&self, member: K) {
        let now = self.clock.now();
        self.members.lock().entry(member).or_insert(MemberRecord {
            last_ok: now,
            suspect: false,
        });
    }

    /// Report one heartbeat probe outcome (ignored for an unregistered
    /// member).
    pub fn observe(&self, member: K, ok: bool) {
        let now = self.clock.now();
        let mut members = self.members.lock();
        let Some(rec) = members.get_mut(&member) else {
            return;
        };
        if ok {
            if rec.suspect {
                self.recoveries_observed.fetch_add(1, Ordering::Relaxed);
            }
            rec.suspect = false;
            rec.last_ok = now;
        } else if !rec.suspect && now.saturating_sub(rec.last_ok) >= SUSPICION_TIMEOUT {
            rec.suspect = true;
            self.failures_detected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// True when the member's probes have failed for longer than the
    /// suspicion timeout (false for an unregistered member).
    pub fn is_suspect(&self, member: K) -> bool {
        self.members.lock().get(&member).is_some_and(|r| r.suspect)
    }

    /// All currently suspected members.
    pub fn suspects(&self) -> Vec<K> {
        self.members
            .lock()
            .iter()
            .filter(|(_, r)| r.suspect)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Number of members currently tracked.
    pub fn member_count(&self) -> usize {
        self.members.lock().len()
    }

    /// Alive→suspect transitions observed (each distinct detection counts
    /// once, however many probes fail while suspect).
    pub fn failures_detected(&self) -> u64 {
        self.failures_detected.load(Ordering::Relaxed)
    }

    /// Suspect→alive transitions observed.
    pub fn recoveries_observed(&self) -> u64 {
        self.recoveries_observed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    fn detector() -> (Arc<SimClock>, FailureDetector<u32>) {
        let clock = Arc::new(SimClock::new());
        let det = FailureDetector::new(Arc::clone(&clock) as Arc<dyn Clock>);
        (clock, det)
    }

    #[test]
    fn failed_probe_before_timeout_is_tolerated() {
        let (clock, det) = detector();
        det.register(1);
        clock.advance(SUSPICION_TIMEOUT / 2);
        det.observe(1, false);
        assert!(!det.is_suspect(1));
        assert_eq!(det.failures_detected(), 0);
    }

    #[test]
    fn missed_heartbeats_past_timeout_raise_suspicion_once() {
        let (clock, det) = detector();
        det.register(7);
        clock.advance(SUSPICION_TIMEOUT);
        det.observe(7, false);
        assert!(det.is_suspect(7));
        assert_eq!(det.suspects(), vec![7]);
        assert_eq!(det.failures_detected(), 1);
        // Further failed probes do not re-count the same detection.
        clock.advance(SUSPICION_TIMEOUT);
        det.observe(7, false);
        assert_eq!(det.failures_detected(), 1);
    }

    #[test]
    fn successful_probe_clears_suspicion() {
        let (clock, det) = detector();
        det.register(3);
        clock.advance(SUSPICION_TIMEOUT * 2);
        det.observe(3, false);
        assert!(det.is_suspect(3));
        det.observe(3, true);
        assert!(!det.is_suspect(3));
        assert_eq!(det.recoveries_observed(), 1);
        // Suspicion timing restarts from the recovery.
        clock.advance(SUSPICION_TIMEOUT / 2);
        det.observe(3, false);
        assert!(!det.is_suspect(3));
    }
}
