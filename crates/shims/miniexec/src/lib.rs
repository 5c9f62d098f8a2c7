//! Offline shim for a small task executor, in the spirit of tokio's core
//! loop but synchronous: a fixed pool of worker threads polling a global run
//! queue, scoped tasks that borrow from their caller, and the `oneshot`
//! reply channel the pool is built on. The storage components (page
//! providers, DHT nodes) own no thread: a call into one is served on the
//! caller's thread, so the pool is the only system-owned thread set.
//!
//! Design points that matter to callers:
//!
//! * **Bounded threads.** The pool is sized once (`worker_count`, clamped to
//!   4..=16, overridable with `MINIEXEC_WORKERS`) and never grows. In-flight
//!   concurrency is bounded by queue depth, not thread count, which is what
//!   the [`census`] module exists to prove.
//! * **Helping waits.** A worker thread that blocks joining another task
//!   (`JoinHandle::join`, `scope`, `join_all`) does not idle: it pops queued
//!   tasks (newest first, so a reply it is waiting on tends to be serviced
//!   immediately) and runs them inline. This is what makes nested fan-out on
//!   a fixed pool deadlock-free.
//! * **Waiting is not working.** A task that waits without using the CPU (a
//!   sleep on a virtual clock) wraps the wait in [`blocking`]: a stand-in
//!   worker takes its seat meanwhile, so the pool's size bounds parallelism,
//!   never how many tasks may be asleep.
//!
//! No dependencies; everything is `std::sync`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

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

struct QueuedTask {
    f: Task,
    /// Safe to run inline under an idle-waiting caller's stack frame. Short
    /// work items (page I/O, replica pushes, fan-out chunks) are helpable;
    /// long tasks that may sleep on a clock (MapReduce task attempts) are
    /// NOT — inlining one under a helping wait suspends the waiter for as
    /// long as the attempt runs or sleeps.
    helpable: bool,
}

struct Executor {
    tasks: Mutex<RunQueue>,
    available: Condvar,
    workers: usize,
}

#[derive(Default)]
struct RunQueue {
    tasks: VecDeque<QueuedTask>,
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
        run_task(task.f);
    }
}

/// Run `f` — a wait that uses no CPU, like a sleep on a virtual clock —
/// without costing the pool a worker. On a pool worker a stand-in worker is
/// started first and one is retired afterwards, so `worker_count()` threads
/// stay available to run tasks however many tasks are asleep: pool size
/// bounds parallelism, never how many tasks may be waiting. Off the pool
/// this is just `f()`.
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    if !on_worker_thread() {
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
    submit_with(task, true);
}

fn submit_with(task: Task, helpable: bool) {
    let ex = executor();
    let mut q = ex.tasks.lock().unwrap();
    q.tasks.push_back(QueuedTask { f: task, helpable });
    drop(q);
    ex.available.notify_one();
}

/// True when called from a pool worker thread.
pub fn on_worker_thread() -> bool {
    IS_WORKER.with(|w| w.get())
}

/// Pop the most recently queued *helpable* task and run it inline. Returns
/// false when no helpable task is queued. Newest-first order means a blocked
/// caller helping itself tends to run exactly the task it is waiting on.
/// Non-helpable tasks (long-running task attempts) are left for dedicated
/// workers — see [`QueuedTask::helpable`].
pub fn run_one_queued_task() -> bool {
    let Some(ex) = EXECUTOR.get() else {
        return false;
    };
    let task = {
        let mut q = ex.tasks.lock().unwrap();
        match q.tasks.iter().rposition(|t| t.helpable) {
            Some(i) => q.tasks.remove(i),
            None => None,
        }
    };
    match task {
        Some(t) => {
            run_task(t.f);
            true
        }
        None => false,
    }
}

/// Idle-wait used by polling loops: on a worker thread, donate the wait to a
/// queued task if one exists; otherwise (or off-pool) sleep for `d`.
pub fn poll_wait(d: Duration) {
    if on_worker_thread() && run_one_queued_task() {
        return;
    }
    std::thread::sleep(d);
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
    /// Wait for the task, helping the pool while blocked. Panics propagate.
    pub fn join(self) -> T {
        match recv_helping(&self.rx) {
            Ok(Ok(v)) => v,
            Ok(Err(panic)) => resume_unwind(panic),
            Err(oneshot::Canceled) => panic!("miniexec task was dropped without completing"),
        }
    }

    /// True once the task has finished (or been lost); `join` will not block.
    pub fn is_finished(&self) -> bool {
        self.rx.is_ready()
    }
}

/// Join every handle, in order, helping the pool while blocked.
pub fn join_all<T>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    handles.into_iter().map(|h| h.join()).collect()
}

/// `select`-ish helper: wait until *any* of the handles completes, remove it
/// from the vec, and return its index and value.
pub fn select_ready<T>(handles: &mut Vec<JoinHandle<T>>) -> Option<(usize, T)> {
    if handles.is_empty() {
        return None;
    }
    loop {
        if let Some(i) = handles.iter().position(|h| h.is_finished()) {
            return Some((i, handles.swap_remove(i).join()));
        }
        poll_wait(Duration::from_micros(200));
    }
}

fn recv_helping<T>(rx: &oneshot::Receiver<T>) -> Result<T, oneshot::Canceled> {
    if !on_worker_thread() {
        return rx.recv();
    }
    loop {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(oneshot::TryRecvError::Canceled) => return Err(oneshot::Canceled),
            Err(oneshot::TryRecvError::Empty) => {
                if !run_one_queued_task() {
                    match rx.recv_timeout(Duration::from_micros(200)) {
                        Ok(v) => return Ok(v),
                        Err(oneshot::TryRecvError::Canceled) => return Err(oneshot::Canceled),
                        Err(oneshot::TryRecvError::Empty) => {}
                    }
                }
            }
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
// indirection: a thread blocked on this scope (`scope` itself, or a
// `ScopedHandle::join`) helps by running tasks *of this scope only*. Helping
// on arbitrary pool tasks is a deadlock: the helper may be mid-way through
// work that a popped task transitively waits on (e.g. a page push whose
// commit a reduce slot is polling for), and inlining that task under the
// helper's frame makes the wait circular.
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

/// Pop one task of `state`'s scope and run it inline. False if none queued.
fn run_scope_task(state: &ScopeState) -> bool {
    let task = state.inner.lock().unwrap().queue.pop_front();
    match task {
        Some(t) => {
            run_task(t);
            true
        }
        None => false,
    }
}

/// Spawn site for borrowing tasks; shareable with the tasks themselves, so
/// a scoped task may spawn further scoped tasks.
pub struct Scope<'env> {
    state: Arc<ScopeState>,
    /// Whether this scope's tokens may be inlined by idle-waiting helpers
    /// ([`run_one_queued_task`]). True for short work items; false for
    /// long-running tasks spawned via [`scope_blocking`].
    helpable: bool,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

/// Handle to one scoped task's result.
pub struct ScopedHandle<T> {
    rx: oneshot::Receiver<T>,
    state: Arc<ScopeState>,
}

impl<T> ScopedHandle<T> {
    /// Wait for the task, helping its own scope while blocked. If the task
    /// panicked the panic is re-raised here.
    pub fn join(self) -> T {
        loop {
            match self.rx.try_recv() {
                Ok(v) => return v,
                Err(oneshot::TryRecvError::Canceled) => panic!("scoped task panicked"),
                Err(oneshot::TryRecvError::Empty) => {
                    if !run_scope_task(&self.state) {
                        // The task is running on another thread (or queued
                        // behind a racing helper): wait for the reply, but
                        // re-check the scope queue periodically in case a
                        // sibling task spawns more scoped work.
                        match self.rx.recv_timeout(Duration::from_micros(200)) {
                            Ok(v) => return v,
                            Err(oneshot::TryRecvError::Canceled) => {
                                panic!("scoped task panicked")
                            }
                            Err(oneshot::TryRecvError::Empty) => {}
                        }
                    }
                }
            }
        }
    }
}

impl<'env> Scope<'env> {
    pub fn spawn<T, F>(&self, f: F) -> ScopedHandle<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let (tx, rx) = oneshot::channel();
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(v) => {
                    let _ = tx.send(v);
                }
                Err(panic) => {
                    drop(tx); // joiners observe Canceled
                    let mut slot = state.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(panic);
                    }
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
        // scope. Harmlessly idempotent if a helper drained the queue first.
        let st = Arc::clone(&self.state);
        submit_with(
            Box::new(move || {
                run_scope_task(&st);
            }),
            self.helpable,
        );
        ScopedHandle {
            rx,
            state: Arc::clone(&self.state),
        }
    }
}

/// Run `f` with a [`Scope`] that can spawn borrowing tasks onto the pool;
/// block (helping the scope's own tasks) until all of them finish. The first
/// task panic is re-raised after the scope is quiesced, like
/// `std::thread::scope`.
pub fn scope<'env, R>(f: impl FnOnce(&Scope<'env>) -> R) -> R {
    scope_impl(true, f)
}

/// Like [`scope`], but for tasks that run long and may sleep (a MapReduce
/// task attempt under a virtual clock). Their tokens are never inlined by
/// idle-waiting helpers — only dedicated pool workers (and the thread blocked
/// on *this* scope, once its closure has returned) run them, so a helping
/// wait inside one attempt can never suspend itself under a sibling.
pub fn scope_blocking<'env, R>(f: impl FnOnce(&Scope<'env>) -> R) -> R {
    scope_impl(false, f)
}

fn scope_impl<'env, R>(helpable: bool, f: impl FnOnce(&Scope<'env>) -> R) -> R {
    let s = Scope {
        state: Arc::new(ScopeState {
            inner: Mutex::new(ScopeInner {
                pending: 0,
                queue: VecDeque::new(),
            }),
            signal: Condvar::new(),
            panic: Mutex::new(None),
        }),
        helpable,
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

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.state.lock().unwrap();
            match state.value.take() {
                Some(v) => Ok(v),
                None if state.sender_alive => Err(TryRecvError::Empty),
                None => Err(TryRecvError::Canceled),
            }
        }

        pub fn is_ready(&self) -> bool {
            let state = self.shared.state.lock().unwrap();
            state.value.is_some() || !state.sender_alive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn join_all_preserves_order() {
        let handles: Vec<_> = (0..32).map(|i| spawn(move || i * i)).collect();
        let out = join_all(handles);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn select_ready_returns_a_finished_handle() {
        let mut handles: Vec<_> = (0..4)
            .map(|i| {
                spawn(move || {
                    std::thread::sleep(Duration::from_millis(i * 5));
                    i
                })
            })
            .collect();
        let mut seen = Vec::new();
        while let Some((_, v)) = select_ready(&mut handles) {
            seen.push(v);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
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
    fn scope_handles_return_values_in_order() {
        let squares: Vec<u64> = scope(|s| {
            let handles: Vec<_> = (0..16u64).map(|i| s.spawn(move || i * i)).collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        assert_eq!(squares, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scopes_on_the_fixed_pool_do_not_deadlock() {
        // More blocking joins than pool workers: only sound because blocked
        // tasks help run the queue.
        let n = worker_count() * 4;
        let total: usize = scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        scope(|inner| {
                            let hs: Vec<_> = (0..4).map(|i| inner.spawn(move || i)).collect();
                            hs.into_iter().map(|h| h.join()).sum::<usize>()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).sum()
        });
        assert_eq!(total, n * 6);
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
