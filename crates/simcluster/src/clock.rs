//! Injectable clocks for thread-based components.
//!
//! The flow simulator runs on [`crate::time::SimTime`], a virtual timeline it
//! advances itself inside one event loop. Thread-based components — the
//! MapReduce jobtracker, fault injectors — need something different: a clock
//! that *real threads* can read and sleep against, but whose passage of time
//! a test can control. The [`Clock`] trait is that seam:
//!
//! * [`WallClock`] is the production implementation — `now` is time since the
//!   clock was created, waits are real condvar waits;
//! * [`SimClock`] is a manually advanced virtual clock — `sleep` blocks the
//!   calling thread on a condvar until someone calls [`SimClock::advance`]
//!   past the deadline, so a test can inject "a task that takes 60 seconds"
//!   without the test suite ever waiting 60 real seconds, and a scheduler's
//!   timing decisions (straggler detection, speculation) become deterministic
//!   functions of virtual time.
//!
//! Waiting is one primitive, [`Clock::park`]: block until a [`Parker`] is
//! unparked *or* the clock reaches a deadline. [`Clock::sleep`] is the
//! special case nobody unparks; an event-driven component (the jobtracker's
//! dispatcher) parks without a deadline and is woken by events, arming a
//! deadline only for "the earliest instant something can become true".
//!
//! [`SimClock::drive`] is the standard harness for running thread-based code
//! under virtual time: it executes a closure on a scoped thread while the
//! calling thread pumps the clock forward in fixed steps until the closure
//! finishes, waking every virtual sleeper on the way.

use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A wake-up flag one thread parks on through a [`Clock`]. Unparking is
/// sticky: an [`Clock::unpark`] that lands before the [`Clock::park`] makes
/// that park return at once, so no wake-up is ever lost.
#[derive(Default)]
pub struct Parker {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    /// A parker with no wake-up pending.
    pub fn new() -> Self {
        Parker::default()
    }
}

/// A source of time that thread-based components read and wait against.
pub trait Clock: Send + Sync {
    /// Time elapsed since the clock's origin.
    fn now(&self) -> Duration;

    /// Block the calling thread until `parker` is unparked or, with a
    /// `deadline`, until [`Clock::now`] reaches it — whichever comes first.
    /// Consumes the pending wake-up.
    fn park(&self, parker: &Parker, deadline: Option<Duration>);

    /// Wake the thread parked (now or next) on `parker` through this clock.
    fn unpark(&self, parker: &Parker);

    /// Block the calling thread for `d` of this clock's time.
    fn sleep(&self, d: Duration) {
        self.park(&Parker::new(), Some(self.now() + d));
    }
}

/// The production clock: real time since construction, real sleeps.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock anchored at the moment of construction.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn park(&self, parker: &Parker, deadline: Option<Duration>) {
        let mut woken = parker.woken.lock();
        while !*woken {
            match deadline.map(|d| d.saturating_sub(self.now())) {
                None => parker.cv.wait(&mut woken),
                Some(left) if left.is_zero() => break,
                Some(left) => {
                    parker.cv.wait_for(&mut woken, left);
                }
            }
        }
        *woken = false;
    }

    fn unpark(&self, parker: &Parker) {
        *parker.woken.lock() = true;
        parker.cv.notify_all();
    }
}

struct SimClockState {
    /// Virtual microseconds since the clock's origin.
    now_us: u64,
    /// Deadlines (virtual µs) of threads currently parked with a deadline
    /// (`sleep` included).
    sleepers: Vec<u64>,
}

/// A manually advanced virtual clock for deterministic timing tests.
///
/// `now` returns virtual time; `sleep` blocks the caller until the virtual
/// time has been advanced past its deadline by [`SimClock::advance`] (or one
/// of the pump helpers). No thread ever waits real time proportional to a
/// virtual delay.
pub struct SimClock {
    state: Mutex<SimClockState>,
    cv: Condvar,
}

impl SimClock {
    /// A virtual clock starting at zero.
    pub fn new() -> Self {
        SimClock {
            state: Mutex::new(SimClockState {
                now_us: 0,
                sleepers: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Current virtual time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.state.lock().now_us
    }

    /// Advance virtual time by `d`, waking every sleeper whose deadline has
    /// passed.
    pub fn advance(&self, d: Duration) {
        let mut s = self.state.lock();
        s.now_us = s.now_us.saturating_add(d.as_micros() as u64);
        drop(s);
        self.cv.notify_all();
    }

    /// Number of threads currently waiting for a virtual deadline
    /// ([`Clock::sleep`], or [`Clock::park`] with one).
    pub fn sleeper_count(&self) -> usize {
        self.state.lock().sleepers.len()
    }

    /// Jump virtual time straight to the earliest pending sleeper deadline.
    /// Returns `false` (and leaves time untouched) when nothing is sleeping.
    pub fn advance_to_next_sleeper(&self) -> bool {
        let mut s = self.state.lock();
        let Some(&deadline) = s.sleepers.iter().min() else {
            return false;
        };
        s.now_us = s.now_us.max(deadline);
        drop(s);
        self.cv.notify_all();
        true
    }

    /// Advance virtual time by at most `step`, clamped to the earliest
    /// sleeper deadline, and only if someone is sleeping. Returns whether
    /// time moved. This is [`SimClock::drive`]'s tick: virtual time stands
    /// still while nothing virtual is pending, so the virtual runtime a
    /// running thread accrues does not depend on real scheduling latency.
    pub fn advance_while_sleeping(&self, step: Duration) -> bool {
        let mut s = self.state.lock();
        let Some(&next) = s.sleepers.iter().min() else {
            return false;
        };
        let stepped = s.now_us.saturating_add(step.as_micros() as u64);
        // `next` can be in the past relative to a concurrent advance; never
        // move backwards.
        s.now_us = stepped.min(next).max(s.now_us);
        drop(s);
        self.cv.notify_all();
        true
    }

    /// Run `f` on a scoped thread while this thread pumps the clock forward
    /// until `f` finishes: up to `step` of virtual time per tick, clamped to
    /// the earliest sleeper deadline, and only while a virtual sleep is
    /// pending. Between ticks the pump yields briefly in real time so the
    /// driven threads get a chance to run, block in virtual sleeps, and
    /// observe intermediate virtual times (a straggler detector polling
    /// `now` must be able to see the straggler *before* its sleep expires —
    /// that is why the pump steps instead of jumping to the deadline).
    /// Returns `f`'s result; panics in `f` are propagated.
    pub fn drive<T, F>(&self, step: Duration, f: F) -> T
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        assert!(!step.is_zero(), "the pump step must be positive");
        std::thread::scope(|scope| {
            let worker = scope.spawn(f);
            while !worker.is_finished() {
                // Let the driven threads reach their next blocking point:
                // long enough that a busy two-core host does not turn a
                // healthy task into a straggler between two ticks.
                std::thread::sleep(Duration::from_millis(5));
                if worker.is_finished() {
                    break;
                }
                self.advance_while_sleeping(step);
            }
            match worker.join() {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        })
    }
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::new()
    }
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        Duration::from_micros(self.now_micros())
    }

    fn park(&self, parker: &Parker, deadline: Option<Duration>) {
        let deadline_us = deadline.map(|d| d.as_micros() as u64);
        let mut s = self.state.lock();
        if let Some(us) = deadline_us {
            s.sleepers.push(us);
            // Wake any pump waiting for a sleeper to appear.
            self.cv.notify_all();
        }
        // The flag is only ever touched under the clock's state lock, so an
        // unpark cannot slip between this check and the wait.
        while !*parker.woken.lock() && deadline_us.is_none_or(|us| s.now_us < us) {
            self.cv.wait(&mut s);
        }
        *parker.woken.lock() = false;
        if let Some(pos) = deadline_us.and_then(|us| s.sleepers.iter().position(|&d| d == us)) {
            s.sleepers.swap_remove(pos);
        }
    }

    fn unpark(&self, parker: &Parker) {
        let _s = self.state.lock();
        *parker.woken.lock() = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn wall_clock_moves_forward() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn sim_clock_only_moves_when_advanced() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_secs(3));
        assert_eq!(clock.now(), Duration::from_secs(3));
        clock.advance(Duration::from_millis(500));
        assert_eq!(clock.now_micros(), 3_500_000);
    }

    #[test]
    fn zero_sleep_returns_immediately_without_a_pump() {
        let clock = SimClock::new();
        clock.sleep(Duration::ZERO);
        assert_eq!(clock.sleeper_count(), 0);
    }

    #[test]
    fn sleepers_block_until_the_clock_passes_their_deadline() {
        let clock = Arc::new(SimClock::new());
        let woke = Arc::new(AtomicBool::new(false));
        let handle = {
            let clock = Arc::clone(&clock);
            let woke = Arc::clone(&woke);
            std::thread::spawn(move || {
                clock.sleep(Duration::from_secs(10));
                woke.store(true, Ordering::SeqCst);
            })
        };
        // Wait until the sleeper has registered, then advance short of the
        // deadline: it must stay blocked.
        while clock.sleeper_count() == 0 {
            std::thread::yield_now();
        }
        clock.advance(Duration::from_secs(9));
        std::thread::sleep(Duration::from_millis(5));
        assert!(!woke.load(Ordering::SeqCst), "9s < 10s deadline");
        clock.advance(Duration::from_secs(1));
        handle.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
        assert_eq!(clock.sleeper_count(), 0);
    }

    #[test]
    fn wall_park_returns_on_a_pending_unpark_or_a_passed_deadline() {
        let clock = WallClock::new();
        let parker = Parker::new();
        // Sticky: the unpark lands first, the park consumes it at once...
        clock.unpark(&parker);
        clock.park(&parker, None);
        // ...exactly once: the next park runs into its deadline instead.
        let before = clock.now();
        clock.park(&parker, Some(before + Duration::from_millis(5)));
        assert!(clock.now() >= before + Duration::from_millis(5));
        clock.park(&parker, Some(Duration::ZERO)); // already passed
    }

    #[test]
    fn sim_park_wakes_on_unpark_or_exactly_at_its_deadline() {
        let clock = Arc::new(SimClock::new());
        let parker = Arc::new(Parker::new());
        let park = |deadline: Option<Duration>| {
            let (clock, parker) = (Arc::clone(&clock), Arc::clone(&parker));
            std::thread::spawn(move || {
                clock.park(&parker, deadline);
                clock.now()
            })
        };
        // Without a deadline the parked thread is no sleeper (the pump has
        // nothing to advance to) and only an unpark wakes it.
        let handle = park(None);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(clock.sleeper_count(), 0);
        assert!(!clock.advance_while_sleeping(Duration::from_secs(1)));
        clock.unpark(&parker);
        assert_eq!(handle.join().unwrap(), Duration::ZERO);

        // With one, it is a registered sleeper the pump advances to exactly.
        let handle = park(Some(Duration::from_millis(2500)));
        while clock.sleeper_count() == 0 {
            std::thread::yield_now();
        }
        assert!(clock.advance_while_sleeping(Duration::from_secs(2)));
        assert!(clock.advance_while_sleeping(Duration::from_secs(2)));
        assert_eq!(handle.join().unwrap(), Duration::from_millis(2500));
        assert_eq!(clock.sleeper_count(), 0);

        // An unpark beats a far deadline and deregisters the sleeper.
        let handle = park(Some(Duration::from_secs(3600)));
        while clock.sleeper_count() == 0 {
            std::thread::yield_now();
        }
        clock.unpark(&parker);
        assert_eq!(handle.join().unwrap(), Duration::from_millis(2500));
        assert_eq!(clock.sleeper_count(), 0);
    }

    #[test]
    fn advance_to_next_sleeper_jumps_to_the_earliest_deadline() {
        let clock = Arc::new(SimClock::new());
        assert!(!clock.advance_to_next_sleeper(), "no sleepers yet");
        let h1 = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || clock.sleep(Duration::from_secs(7)))
        };
        let h2 = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || clock.sleep(Duration::from_secs(3)))
        };
        while clock.sleeper_count() < 2 {
            std::thread::yield_now();
        }
        assert!(clock.advance_to_next_sleeper());
        h2.join().unwrap();
        assert_eq!(clock.now(), Duration::from_secs(3));
        assert!(clock.advance_to_next_sleeper());
        h1.join().unwrap();
        assert_eq!(clock.now(), Duration::from_secs(7));
    }

    #[test]
    fn advance_while_sleeping_is_gated_and_clamped() {
        let clock = Arc::new(SimClock::new());
        // No sleepers: virtual time stands still, however often we tick.
        assert!(!clock.advance_while_sleeping(Duration::from_secs(1)));
        assert_eq!(clock.now_micros(), 0);

        let handle = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || clock.sleep(Duration::from_millis(1500)))
        };
        while clock.sleeper_count() == 0 {
            std::thread::yield_now();
        }
        assert!(clock.advance_while_sleeping(Duration::from_secs(1)));
        assert_eq!(clock.now_micros(), 1_000_000, "a full step fits");
        assert!(clock.advance_while_sleeping(Duration::from_secs(1)));
        assert_eq!(clock.now_micros(), 1_500_000, "clamped to the deadline");
        handle.join().unwrap();
        assert!(!clock.advance_while_sleeping(Duration::from_secs(1)));
        assert_eq!(clock.now_micros(), 1_500_000);
    }

    #[test]
    fn drive_pumps_virtual_sleeps_without_real_waits() {
        let clock = SimClock::new();
        // A virtual hour of sleeping finishes in real milliseconds.
        let result = clock.drive(Duration::from_secs(600), || {
            clock.sleep(Duration::from_secs(3600));
            clock.now()
        });
        assert!(result >= Duration::from_secs(3600));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn drive_propagates_panics() {
        let clock = SimClock::new();
        clock.drive(Duration::from_secs(1), || panic!("boom"));
    }
}
