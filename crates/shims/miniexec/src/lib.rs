//! Offline shim for a small task executor, in the spirit of tokio's core
//! loop but synchronous: a fixed pool of worker threads polling a global run
//! queue, scoped tasks that borrow from their caller, and the `oneshot`
//! reply channel the pool is built on. The storage components (page
//! providers, DHT nodes) own no thread: a call into one — a read's
//! downloads, a write's page pushes, a metadata batch — is served on the
//! caller's thread, so the pool is the only system-owned thread set.
//!
//! One kind of task runs on the pool: MapReduce task attempts, spawned into
//! a [`scope`] by their job's dispatcher; the storage tier spawns nothing.
//! Design points that matter to callers:
//!
//! * **Bounded threads.** The pool is sized once (`worker_count`, clamped to
//!   4..=16, overridable with `MINIEXEC_WORKERS`) and never grows. In-flight
//!   concurrency is bounded by queue depth, not thread count, which is what
//!   the [`census`] module exists to prove.
//! * **No task waits on the pool.** A join ([`JoinHandle::join`],
//!   [`block_on`]) is a plain blocking receive, for threads off the pool. The
//!   one wait a thread makes on pool tasks is the end of a [`scope`]: it runs
//!   that scope's still-queued tasks itself, then sleeps until the ones
//!   already running finish. It never runs another scope's task, so no wait
//!   ever ends up under a frame it is waiting for.
//! * **Waiting is not working.** A task that waits without using the CPU (a
//!   sleep on a virtual clock) wraps the wait in [`blocking`]: a stand-in
//!   worker takes its seat meanwhile, so the pool's size bounds parallelism,
//!   never how many tasks may be asleep.
//!
//! No dependencies; everything is `std::sync`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Process-wide thread accounting for every thread the storage/compute tier
/// spawns (executor workers and their [`blocking`] stand-ins). Client
/// threads are *not* registered — the census answers "how many threads does
/// the system itself burn", which must stay flat as clients scale.
pub mod census {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static SPAWNED: AtomicUsize = AtomicUsize::new(0);
    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// Total system threads ever registered in this process.
    pub fn spawned() -> usize {
        SPAWNED.load(Ordering::SeqCst)
    }

    /// System threads currently alive.
    pub fn live() -> usize {
        LIVE.load(Ordering::SeqCst)
    }

    /// High-water mark of concurrently-live system threads.
    pub fn peak() -> usize {
        PEAK.load(Ordering::SeqCst)
    }

    /// RAII registration: created at the top of a system thread, dropped when
    /// the thread exits (including by unwinding).
    #[must_use = "the census entry lasts only as long as this guard"]
    pub struct Registration(());

    impl Registration {
        pub fn new() -> Self {
            SPAWNED.fetch_add(1, Ordering::SeqCst);
            let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(live, Ordering::SeqCst);
            Registration(())
        }
    }

    impl Default for Registration {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Drop for Registration {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Executor {
    tasks: Mutex<RunQueue>,
    available: Condvar,
    workers: usize,
}

#[derive(Default)]
struct RunQueue {
    tasks: VecDeque<Task>,
    /// Stand-in workers (see [`blocking`]) owed an exit.
    retiring: usize,
}

static EXECUTOR: OnceLock<&'static Executor> = OnceLock::new();

thread_local! {
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Number of pool workers (fixed for the life of the process).
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("MINIEXEC_WORKERS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 16)
}

fn executor() -> &'static Executor {
    EXECUTOR.get_or_init(|| {
        let ex: &'static Executor = Box::leak(Box::new(Executor {
            tasks: Mutex::new(RunQueue::default()),
            available: Condvar::new(),
            workers: worker_count(),
        }));
        for i in 0..ex.workers {
            std::thread::Builder::new()
                .name(format!("miniexec-{i}"))
                .spawn(move || worker_loop(ex, false))
                .expect("spawn miniexec worker");
        }
        ex
    })
}

/// Run queued tasks forever — or, for a `stand_in`, until one is retired.
fn worker_loop(ex: &'static Executor, stand_in: bool) {
    let _census = census::Registration::new();
    IS_WORKER.with(|w| w.set(true));
    loop {
        let task = {
            let mut q = ex.tasks.lock().unwrap();
            loop {
                if stand_in && q.retiring > 0 {
                    q.retiring -= 1;
                    return;
                }
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                q = ex.available.wait(q).unwrap();
            }
        };
        run_task(task);
    }
}

/// Run `f` — a wait that uses no CPU, like a sleep on a virtual clock —
/// without costing the pool a worker. On a pool worker a stand-in worker is
/// started first and one is retired afterwards, so `worker_count()` threads
/// stay available to run tasks however many tasks are asleep: pool size
/// bounds parallelism, never how many tasks may be waiting. Off the pool
/// this is just `f()`.
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    if !IS_WORKER.with(|w| w.get()) {
        return f();
    }
    let ex = executor();
    // Detached on purpose, like the pool's own workers: the stand-in may be
    // mid-task when it is retired, and it exits by itself once that is done.
    let stand_in = std::thread::Builder::new()
        .name("miniexec-stand-in".into())
        .spawn(move || worker_loop(ex, true));
    let result = f();
    if stand_in.is_ok() {
        ex.tasks.lock().unwrap().retiring += 1;
        ex.available.notify_all();
    }
    result
}

fn run_task(task: Task) {
    // Every submitted task already routes its panic into a channel; this
    // catch is a backstop so a worker thread can never die.
    let _ = catch_unwind(AssertUnwindSafe(task));
}

fn submit(task: Task) {
    let ex = executor();
    ex.tasks.lock().unwrap().tasks.push_back(task);
    ex.available.notify_one();
}

/// Spawn `f` onto the pool and return a handle to its result.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = oneshot::channel();
    submit(Box::new(move || {
        let result = catch_unwind(AssertUnwindSafe(f));
        let _ = tx.send(result);
    }));
    JoinHandle { rx }
}

/// Run `f` on the pool and block the current thread until it completes.
pub fn block_on<T, F>(f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    spawn(f).join()
}

/// Handle to a spawned task's result.
pub struct JoinHandle<T> {
    rx: oneshot::Receiver<std::thread::Result<T>>,
}

impl<T> JoinHandle<T> {
    /// Block until the task finishes. Panics propagate.
    pub fn join(self) -> T {
        match self.rx.recv() {
            Ok(Ok(v)) => v,
            Ok(Err(panic)) => resume_unwind(panic),
            Err(oneshot::Canceled) => panic!("miniexec task was dropped without completing"),
        }
    }
}

// ---------------------------------------------------------------------------
// Scoped tasks: spawn borrowing closures onto the pool, in the shape of
// `std::thread::scope`. The scope does not return until every spawned task
// has run to completion (on success, panic, or early exit), which is what
// makes the lifetime erasure below sound.
//
// A scope keeps its tasks in its OWN queue and submits one opaque "token"
// per task to the global pool; a token makes a worker run one task from the
// scope's queue (a no-op once the queue is drained). The point of the
// indirection: the thread that opened the scope, once its closure returns,
// runs the scope's still-queued tasks itself instead of idling until a
// worker comes by, and it runs tasks *of this scope only*, never work a
// task of its own might be waiting on.
// ---------------------------------------------------------------------------

struct ScopeState {
    inner: Mutex<ScopeInner>,
    /// Notified on every task completion and every new spawn.
    signal: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct ScopeInner {
    /// Tasks spawned and not yet finished (queued or running).
    pending: usize,
    /// Tasks spawned and not yet started.
    queue: VecDeque<Task>,
}

/// Spawn site for borrowing tasks; shareable with the tasks themselves, so
/// a scoped task may spawn further scoped tasks.
pub struct Scope<'env> {
    state: Arc<ScopeState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Queue `f` on the pool. It runs before [`scope`] returns; a panic in
    /// it is re-raised there.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(panic) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(panic);
                }
            }
            let mut inner = state.inner.lock().unwrap();
            inner.pending -= 1;
            drop(inner);
            state.signal.notify_all();
        });
        // SAFETY: `scope` blocks until `pending` reaches zero before
        // returning on every path, so the task (and everything it borrows
        // from 'env) outlives its execution.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                task,
            )
        };
        {
            let mut inner = self.state.inner.lock().unwrap();
            inner.pending += 1;
            inner.queue.push_back(task);
        }
        self.state.signal.notify_all();
        // The token: any pool worker may come and run one task of this
        // scope. Harmlessly idempotent if the scope's owner drained it first.
        let st = Arc::clone(&self.state);
        submit(Box::new(move || {
            let task = st.inner.lock().unwrap().queue.pop_front();
            if let Some(t) = task {
                run_task(t);
            }
        }));
    }
}

/// Run `f` with a [`Scope`] that can spawn borrowing tasks onto the pool,
/// then run the scope's still-queued tasks and wait for the rest to finish.
/// The first task panic is re-raised after the scope is quiesced, like
/// `std::thread::scope`.
pub fn scope<'env, R>(f: impl FnOnce(&Scope<'env>) -> R) -> R {
    let s = Scope {
        state: Arc::new(ScopeState {
            inner: Mutex::new(ScopeInner {
                pending: 0,
                queue: VecDeque::new(),
            }),
            signal: Condvar::new(),
            panic: Mutex::new(None),
        }),
        _env: std::marker::PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&s)));
    wait_quiesced(&s.state);
    if let Some(panic) = s.state.panic.lock().unwrap().take() {
        resume_unwind(panic);
    }
    match result {
        Ok(r) => r,
        Err(panic) => resume_unwind(panic),
    }
}

fn wait_quiesced(state: &ScopeState) {
    loop {
        let task = {
            let mut inner = state.inner.lock().unwrap();
            loop {
                if let Some(t) = inner.queue.pop_front() {
                    break Some(t);
                }
                if inner.pending == 0 {
                    break None;
                }
                // Queue drained but tasks still running elsewhere; they may
                // spawn more into this scope, so wake on both completions
                // and spawns.
                inner = state.signal.wait(inner).unwrap();
            }
        };
        match task {
            Some(t) => run_task(t),
            None => return,
        }
    }
}

// ---------------------------------------------------------------------------
// oneshot: single-value reply channel.
// ---------------------------------------------------------------------------

pub mod oneshot {
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    /// The sender was dropped without sending.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Canceled;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Canceled,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    struct State<T> {
        value: Option<T>,
        sender_alive: bool,
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                value: None,
                sender_alive: true,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        pub fn send(self, value: T) -> Result<(), T> {
            // A oneshot send cannot observe receiver death cheaply here; the
            // value is parked and dropped with the shared state if unread.
            self.shared.state.lock().unwrap().value = Some(value);
            self.shared.ready.notify_all();
            Ok(())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.shared.state.lock().unwrap().sender_alive = false;
            self.shared.ready.notify_all();
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, Canceled> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if let Some(v) = state.value.take() {
                    return Ok(v);
                }
                if !state.sender_alive {
                    return Err(Canceled);
                }
                state = self.shared.ready.wait(state).unwrap();
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, TryRecvError> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if let Some(v) = state.value.take() {
                    return Ok(v);
                }
                if !state.sender_alive {
                    return Err(TryRecvError::Canceled);
                }
                let (next, waited) = self.shared.ready.wait_timeout(state, timeout).unwrap();
                state = next;
                if waited.timed_out() {
                    return match state.value.take() {
                        Some(v) => Ok(v),
                        None => Err(TryRecvError::Empty),
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn spawn_and_join_returns_value() {
        let h = spawn(|| 21 * 2);
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn block_on_runs_to_completion() {
        assert_eq!(block_on(|| "done".to_string()), "done");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn spawned_panic_propagates_on_join() {
        spawn(|| panic!("boom")).join()
    }

    #[test]
    fn scope_tasks_borrow_stack_state() {
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let total = AtomicUsize::new(0);
        scope(|s| {
            for chunk in data.chunks(2) {
                s.spawn(|| {
                    total.fetch_add(chunk.iter().sum::<u64>() as usize, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 36);
    }

    #[test]
    fn nested_scopes_on_the_fixed_pool_do_not_deadlock() {
        // More nested scopes than pool workers: each outer task waits for
        // its inner scope, which is only sound because the waiting thread
        // runs its own scope's queued tasks.
        let n = worker_count() * 4;
        let total = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    scope(|inner| {
                        for i in 0..4 {
                            let total = &total;
                            inner.spawn(move || {
                                total.fetch_add(i, Ordering::SeqCst);
                            });
                        }
                    })
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), n * 6);
    }

    #[test]
    #[should_panic(expected = "scoped boom")]
    fn scope_propagates_task_panic() {
        scope(|s| {
            s.spawn(|| panic!("scoped boom"));
        });
    }

    #[test]
    fn oneshot_cancel_on_sender_drop() {
        let (tx, rx) = oneshot::channel::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(oneshot::Canceled));
    }

    #[test]
    fn census_counts_pool_workers_and_stand_ins() {
        let before = census::spawned();
        // A wait wrapped in `blocking` on a pool worker starts a stand-in,
        // which registers itself from its own thread.
        block_on(|| blocking(|| ()));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while census::spawned() <= before && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(census::spawned() > before);
        assert!(census::peak() >= 1);
    }
}
