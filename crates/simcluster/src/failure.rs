//! Failure injection schedules.
//!
//! BlobSeer tolerates provider failures through page-level replication and
//! repair; the churn experiments and tests need a way to declare "a node
//! dies (or joins) at virtual time T". The schedule is immutable during a
//! run so that experiments stay deterministic and reproducible.
//!
//! [`ChurnSchedule`] is an ordered stream of kill **and** join events at a
//! configurable rate, the regime the repair loop has to survive. The
//! schedule only fixes *when* events happen and of *which kind*; the harness
//! applying it decides which live node a kill lands on (it knows current
//! membership), keeping the schedule independent of how membership evolves.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// What happens at one churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnEventKind {
    /// A currently-live node crashes (the harness picks the victim).
    Kill,
    /// A fresh node joins the ring.
    Join,
}

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Virtual time at which the event fires.
    pub at: SimTime,
    pub kind: ChurnEventKind,
}

/// A deterministic stream of kill/join events on the virtual timeline.
///
/// Built either explicitly ([`ChurnSchedule::event_at`]) or generated at a
/// uniform rate with a seeded xorshift mix of kills and joins
/// ([`ChurnSchedule::uniform`]).
/// Events are kept sorted by time; a harness drains them with
/// [`ChurnSchedule::events_between`] as its clock advances.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// A schedule with no events.
    pub fn none() -> Self {
        Self::default()
    }

    /// Add one event (builder-style); keeps the stream time-ordered.
    pub fn event_at(mut self, at: SimTime, kind: ChurnEventKind) -> Self {
        self.events.push(ChurnEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Generate `count` events uniformly spaced `every` apart starting at
    /// `every` (not at time zero: the workload gets a head start), with the
    /// kill/join mix decided by a seeded xorshift64* stream so runs are
    /// reproducible. Roughly `kill_per_mille`/1000 of the events are kills,
    /// the rest joins.
    pub fn uniform(
        count: usize,
        every: crate::time::SimDuration,
        kill_per_mille: u32,
        seed: u64,
    ) -> Self {
        // xorshift must not start at 0; any non-zero mix keeps seeds distinct.
        let mut state = if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        };
        let mut events = Vec::with_capacity(count);
        let step = every.as_micros();
        for i in 0..count {
            state = crate::xorshift64(state);
            let roll = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % 1000;
            let kind = if (roll as u32) < kill_per_mille {
                ChurnEventKind::Kill
            } else {
                ChurnEventKind::Join
            };
            events.push(ChurnEvent {
                at: SimTime::from_micros(step.saturating_mul(i as u64 + 1)),
                kind,
            });
        }
        ChurnSchedule { events }
    }

    /// Events with `from < at <= to`, in time order — the half-open window a
    /// harness applies after advancing its clock from `from` to `to`.
    pub fn events_between(&self, from: SimTime, to: SimTime) -> Vec<ChurnEvent> {
        self.events
            .iter()
            .filter(|e| e.at > from && e.at <= to)
            .copied()
            .collect()
    }

    /// All events, in time order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Kills scheduled over the whole stream.
    pub fn kill_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == ChurnEventKind::Kill)
            .count()
    }

    /// Joins scheduled over the whole stream.
    pub fn join_count(&self) -> usize {
        self.events.len() - self.kill_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_events_stay_time_ordered() {
        let s = ChurnSchedule::none()
            .event_at(SimTime::from_secs(30), ChurnEventKind::Join)
            .event_at(SimTime::from_secs(10), ChurnEventKind::Kill)
            .event_at(SimTime::from_secs(20), ChurnEventKind::Kill);
        let times: Vec<u64> = s.events().iter().map(|e| e.at.as_micros()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.kill_count(), 2);
        assert_eq!(s.join_count(), 1);
    }

    #[test]
    fn events_between_is_half_open_and_drains_exactly_once() {
        let s = ChurnSchedule::none()
            .event_at(SimTime::from_secs(1), ChurnEventKind::Kill)
            .event_at(SimTime::from_secs(2), ChurnEventKind::Join)
            .event_at(SimTime::from_secs(3), ChurnEventKind::Kill);
        // Walk the timeline in steps; every event must fire exactly once.
        let mut seen = 0;
        let mut prev = SimTime::from_secs(0);
        for t in 1..=4u64 {
            let now = SimTime::from_secs(t);
            seen += s.events_between(prev, now).len();
            prev = now;
        }
        assert_eq!(seen, 3);
        // The boundary event belongs to the window that *reaches* it.
        assert_eq!(
            s.events_between(SimTime::from_secs(0), SimTime::from_secs(1))
                .len(),
            1
        );
        assert!(s
            .events_between(SimTime::from_secs(1), SimTime::from_secs(1))
            .is_empty());
    }

    #[test]
    fn uniform_generation_is_deterministic_and_respects_the_mix() {
        let a = ChurnSchedule::uniform(100, crate::time::SimDuration::from_millis(500), 500, 42);
        let b = ChurnSchedule::uniform(100, crate::time::SimDuration::from_millis(500), 500, 42);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.len(), 100);
        // Events start after time zero and are uniformly spaced.
        assert_eq!(a.events()[0].at, SimTime::from_micros(500_000));
        assert_eq!(a.events()[99].at, SimTime::from_micros(50_000_000));
        // A 50% mix lands near half kills (seeded, so this is a fixed value,
        // but keep the band loose for clarity about intent).
        assert!(a.kill_count() > 30 && a.kill_count() < 70);
        // A different seed reshuffles the kinds.
        let c = ChurnSchedule::uniform(100, crate::time::SimDuration::from_millis(500), 500, 43);
        assert_ne!(a.events(), c.events());
    }
}
