//! `ideaflow-exec` — the work-stealing executor behind ideaflow's
//! parallel loops.
//!
//! The orchestration layer (GWTW rounds, multistart batches, concurrent
//! bandit pulls) fans work out through [`current_par_map`]; this crate
//! supplies the pool those calls run on. It is a std-only work-stealing
//! scheduler:
//!
//! - one **global injector** queue plus one **per-worker deque**
//!   (`queues[0]` is the injector, `queues[1 + w]` belongs to worker
//!   `w`). Workers pop their own deque LIFO for locality, then take
//!   from the injector, then steal FIFO from siblings;
//! - an **atomic** pending count (push/pop touch no shared lock) with a
//!   `Condvar` used only for parking: a pusher takes the state lock
//!   solely when a sleeper is registered, and a worker re-checks the
//!   pending count under that lock before parking, so wakeups cannot be
//!   lost (see `Inner::push` for the two-way SeqCst argument);
//! - **chunked** `par_map` dispatch: items are grouped into at most
//!   `4 × threads` contiguous chunks so queue/wake overhead amortizes
//!   over several items, while each closure still receives its original
//!   item index (chunking is invisible to determinism);
//! - [`ThreadPool::scope`] for borrowing tasks (non-`'static`), with
//!   the calling thread *helping* — executing queued tasks — while it
//!   waits, so a 1-worker pool cannot deadlock on nested scopes;
//! - [`ThreadPool::par_map`], the indexed map every parallel loop uses: it
//!   hands every closure its item index, so call sites that derive
//!   per-index RNG seeds produce **bit-identical results at any thread
//!   count** (results land in per-index slots; scheduling order cannot
//!   reorder them).
//!
//! Thread count comes from the `IDEAFLOW_THREADS` env var (`0`/unset =
//! one per core) or [`PoolBuilder::threads`]; at `1` the pool spawns no
//! threads and runs everything inline on the caller, which *is* the
//! sequential baseline. The lazy [`global`] pool serves
//! [`current_par_map`] calls;
//! tests pin a specific pool with [`with_pool`].
//!
//! # Schedule-perturbation sanitizer
//!
//! `IDEAFLOW_SCHED_FUZZ=<seed>` (or [`PoolBuilder::sched_fuzz`]) turns
//! on seeded schedule perturbation: every queue poll draws a word from
//! a per-thread splitmix64 stream and uses it to (a) inject a
//! `yield_now` at the task boundary, (b) flip whether the injector is
//! checked before the worker's own deque, and (c) rotate the
//! steal-scan's starting victim. Perturbation only *reorders* the
//! places a poll looks — it never skips a queue — so fuzzed pools keep
//! the no-livelock/no-lost-wakeup properties of the unfuzzed schedule,
//! and because results are per-index slotted they must stay
//! bit-identical under every seed (`tests/sched_fuzz.rs` asserts
//! exactly that).
//!
//! Span parentage crosses the pool boundary: `scope.spawn` captures the
//! spawning thread's open-span stack ([`SpanStack::capture`]) and
//! enters it around the task on the worker, so worker spans nest under
//! the spawning span instead of rooting at depth 0. Workers are named
//! `ifw-<n>`, which the span `thread` field picks up for
//! `ifjournal summary --by-thread`.
//!
//! When a [`TelemetryRegistry`] is attached ([`ThreadPool::attach_telemetry`])
//! the pool exports `exec.workers` / `exec.workers_busy` /
//! `exec.queue_depth` / `exec.tasks` gauges into the Prometheus
//! exposition.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::time::Duration;

use ideaflow_trace::{SpanStack, TelemetryRegistry};
use parking_lot::Mutex;

/// Environment variable selecting the global pool's thread count.
/// `0` or unset means one thread per available core; `1` runs
/// everything inline on the caller (the sequential baseline).
pub const THREADS_ENV: &str = "IDEAFLOW_THREADS";

/// Environment variable enabling the schedule-perturbation sanitizer:
/// a `u64` seed for the per-thread decision streams. Unset/unparsable
/// means off (the production schedule).
pub const SCHED_FUZZ_ENV: &str = "IDEAFLOW_SCHED_FUZZ";

type Task = Box<dyn FnOnce() + Send + 'static>;

struct State {
    shutdown: bool,
}

struct Inner {
    /// `queues[0]` is the global injector; `queues[1 + w]` is worker
    /// `w`'s deque.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks pushed but not yet popped, over all queues. Atomic so the
    /// push/pop hot path never serializes on `state`; `SeqCst` pairs
    /// with `sleepers` (see `push`).
    pending: AtomicUsize,
    /// Workers currently in (or entering) the parked-wait protocol.
    /// A pusher only takes the state lock to notify when this is
    /// non-zero, which is what keeps an uncontended push lock-free.
    sleepers: AtomicUsize,
    state: Mutex<State>,
    work_available: Condvar,
    busy: AtomicUsize,
    tasks_run: AtomicU64,
    threads: usize,
    telemetry: Mutex<Option<TelemetryRegistry>>,
    /// Cheap hot-path guard so untelemetered pools skip the registry
    /// mutex (and the state-lock queue-depth read) on every task.
    telemetry_attached: AtomicBool,
    /// Schedule-perturbation seed; `None` (production) keeps the exact
    /// pre-sanitizer poll order with a single branch of overhead.
    fuzz: Option<u64>,
}

/// splitmix64: the fuzz decision stream. Good enough diffusion that
/// consecutive counters land on unrelated words.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Distinguishes fuzz streams of threads that share a seed. Ordering
/// is irrelevant — any unique value per thread works.
static FUZZ_SALTS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(salt, counter)` for this thread's fuzz stream.
    static FUZZ: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

impl Inner {
    /// One word from this thread's seeded decision stream, when the
    /// sanitizer is on. Each draw advances the stream, so consecutive
    /// polls of one thread perturb independently.
    fn fuzz_word(&self) -> Option<u64> {
        let seed = self.fuzz?;
        let (mut salt, counter) = FUZZ.get();
        if salt == 0 {
            salt = splitmix64(FUZZ_SALTS.fetch_add(1, Ordering::Relaxed));
        }
        FUZZ.set((salt, counter.wrapping_add(1)));
        Some(splitmix64(seed ^ salt.rotate_left(17) ^ counter))
    }

    fn push(&self, task: Task) {
        let queue = local_worker_index(self).map_or(0, |w| 1 + w);
        if self.fuzz_word().is_some_and(|w| w & 1 != 0) {
            // Task boundary: let another thread win the next race.
            std::thread::yield_now();
        }
        // Count before enqueueing: `note_pop` decrements when it pops, so
        // the count must never lag the queue or a concurrent pop could
        // underflow it. The brief over-count only makes a scanning worker
        // re-poll until the push below lands.
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.queues[queue].lock().push_back(task);
        // Dekker-style handshake with `worker_loop`: we store `pending`
        // then load `sleepers`; a parking worker stores `sleepers` then
        // loads `pending` — both SeqCst. In the total order either our
        // sleeper load sees the worker (we notify under the state lock,
        // so the worker is in `wait` or will re-check `pending` before
        // waiting), or the worker's pending load sees our push and it
        // never parks. Either way no wakeup is lost, and the common
        // busy-pool push skips the lock entirely.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _st = lock_state(&self.state);
            self.work_available.notify_one();
        }
        self.publish_gauges();
    }

    /// Pops the next runnable task: own deque (LIFO), injector (FIFO),
    /// then steal from siblings (FIFO). `worker` is this thread's
    /// worker index in *this* pool, when it has one.
    ///
    /// Under the sanitizer the fuzz word may yield first, hoist the
    /// injector check ahead of the own-deque check, and rotate the
    /// steal scan's starting victim — reorderings only; every queue is
    /// still visited, so a poll that would have found work still does.
    fn try_pop(&self, worker: Option<usize>) -> Option<Task> {
        let word = self.fuzz_word();
        if word.is_some_and(|w| w & 1 != 0) {
            std::thread::yield_now();
        }
        let injector_first = word.is_some_and(|w| w & 2 != 0);
        if injector_first {
            if let Some(t) = self.pop_queue(0, false) {
                return Some(t);
            }
        }
        if let Some(w) = worker {
            if let Some(t) = self.pop_queue(1 + w, true) {
                return Some(t);
            }
        }
        if !injector_first {
            if let Some(t) = self.pop_queue(0, false) {
                return Some(t);
            }
        }
        let siblings = self.queues.len() - 1;
        if siblings > 0 {
            let start = word.map_or(0, |w| (w >> 8) as usize % siblings);
            for k in 0..siblings {
                let i = 1 + (start + k) % siblings;
                if worker == Some(i - 1) {
                    continue;
                }
                if let Some(t) = self.pop_queue(i, false) {
                    return Some(t);
                }
            }
        }
        None
    }

    /// Pops one task from queue `i` — LIFO for the owner's own deque,
    /// FIFO for the injector and steals.
    fn pop_queue(&self, i: usize, lifo: bool) -> Option<Task> {
        let mut q = self.queues[i].lock();
        let task = if lifo { q.pop_back() } else { q.pop_front() };
        drop(q);
        task.map(|t| self.note_pop(t))
    }

    fn note_pop(&self, t: Task) -> Task {
        self.pending.fetch_sub(1, Ordering::SeqCst);
        t
    }

    fn run_task(&self, task: Task) {
        self.busy.fetch_add(1, Ordering::Relaxed);
        self.tasks_run.fetch_add(1, Ordering::Relaxed);
        self.publish_gauges();
        // Scope tasks catch their own panics and re-raise them on the
        // scope owner; this catch is a backstop so a stray panic can
        // never take a worker down with it.
        let _ = catch_unwind(AssertUnwindSafe(task));
        self.busy.fetch_sub(1, Ordering::Relaxed);
        self.publish_gauges();
    }

    fn publish_gauges(&self) {
        if !self.telemetry_attached.load(Ordering::Relaxed) {
            return;
        }
        let telemetry = self.telemetry.lock().clone();
        if let Some(t) = telemetry {
            t.set_gauge(
                "exec.workers_busy",
                self.busy.load(Ordering::Relaxed) as f64,
            );
            t.set_gauge(
                "exec.queue_depth",
                self.pending.load(Ordering::Relaxed) as f64,
            );
            t.set_gauge("exec.tasks", self.tasks_run.load(Ordering::Relaxed) as f64);
        }
    }
}

/// The vendored `parking_lot` hands back genuine `std` guards, so the
/// `std::sync::Condvar` pairs with them directly.
fn lock_state(state: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    state.lock()
}

thread_local! {
    /// Stack of pools pinned to this thread: the innermost entry is
    /// what [`current_par_map`] dispatches to. Workers pin their own
    /// pool; [`with_pool`] pushes an override for the closure's extent.
    static CURRENT_POOL: std::cell::RefCell<Vec<Arc<Inner>>> =
        const { std::cell::RefCell::new(Vec::new()) };

    /// `(pool identity, worker index)` when this thread is a pool
    /// worker. Identity-checked so a worker of pool A helping inside a
    /// scope of pool B does not index into B's queues with A's index.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> = const { std::cell::Cell::new(None) };
}

fn local_worker_index(inner: &Inner) -> Option<usize> {
    let key = std::ptr::from_ref(inner) as usize;
    WORKER.get().and_then(|(k, w)| (k == key).then_some(w))
}

fn worker_loop(inner: &Arc<Inner>, index: usize) {
    WORKER.set(Some((Arc::as_ptr(inner) as usize, index)));
    CURRENT_POOL.with(|c| c.borrow_mut().push(inner.clone()));
    loop {
        if let Some(task) = inner.try_pop(Some(index)) {
            inner.run_task(task);
            continue;
        }
        // Park protocol: register as a sleeper *before* the final
        // pending check (the other half of the SeqCst handshake in
        // `Inner::push`), and re-check under the state lock so a
        // notify issued while we held the lock cannot slip past.
        inner.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut st = lock_state(&inner.state);
        loop {
            // Drain before honoring shutdown, so Drop's contract (workers
            // finish queued tasks) holds even for work pushed right before
            // the shutdown flag flipped.
            if inner.pending.load(Ordering::SeqCst) > 0 {
                break;
            }
            if st.shutdown {
                drop(st);
                inner.sleepers.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            st = inner
                .work_available
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(st);
        inner.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Builds a [`ThreadPool`] with an explicit thread count.
#[derive(Debug, Default)]
pub struct PoolBuilder {
    threads: Option<usize>,
    fuzz: Option<u64>,
}

impl PoolBuilder {
    /// A builder using `IDEAFLOW_THREADS` / core count by default.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the thread count (`1` = inline/sequential).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Enables the schedule-perturbation sanitizer with an explicit
    /// seed (tests; production opts in via [`SCHED_FUZZ_ENV`]).
    #[must_use]
    pub fn sched_fuzz(mut self, seed: u64) -> Self {
        self.fuzz = Some(seed);
        self
    }

    /// Builds the pool, spawning `threads - 1 >= 1 ? threads : 0`
    /// workers named `ifw-<n>` (a 1-thread pool spawns none and runs
    /// inline).
    #[must_use]
    pub fn build(self) -> ThreadPool {
        let threads = self.threads.unwrap_or_else(default_threads).max(1);
        let workers = if threads <= 1 { 0 } else { threads };
        let fuzz = self.fuzz.or_else(|| {
            std::env::var(SCHED_FUZZ_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        });
        let inner = Arc::new(Inner {
            queues: (0..=workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            state: Mutex::new(State { shutdown: false }),
            work_available: Condvar::new(),
            busy: AtomicUsize::new(0),
            tasks_run: AtomicU64::new(0),
            threads,
            telemetry: Mutex::new(None),
            telemetry_attached: AtomicBool::new(false),
            fuzz,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("ifw-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { inner, handles }
    }
}

/// Parses a thread-count override the way [`THREADS_ENV`] is read:
/// `None` for unset/empty/`0`/garbage (= auto), `Some(n)` for `n >= 1`.
#[must_use]
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

fn default_threads() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// A work-stealing thread pool. Dropping it shuts the workers down
/// (after they drain any queued tasks) and joins them.
pub struct ThreadPool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.inner.threads)
            .field("busy", &self.inner.busy.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        lock_state(&self.inner.state).shutdown = true;
        self.work_available_notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl ThreadPool {
    fn work_available_notify_all(&self) {
        self.inner.work_available.notify_all();
    }

    /// The pool's parallelism (1 = inline, no worker threads).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Tasks pushed but not yet picked up.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.pending.load(Ordering::Relaxed)
    }

    /// Total tasks the pool has executed.
    #[must_use]
    pub fn tasks_run(&self) -> u64 {
        self.inner.tasks_run.load(Ordering::Relaxed)
    }

    /// Attaches a telemetry registry: the pool keeps the
    /// `exec.workers` / `exec.workers_busy` / `exec.queue_depth` /
    /// `exec.tasks` gauges current from now on (and seeds them
    /// immediately, so the metrics appear in the exposition even
    /// before the first task runs).
    pub fn attach_telemetry(&self, registry: &TelemetryRegistry) {
        registry.set_gauge("exec.workers", self.inner.threads as f64);
        *self.inner.telemetry.lock() = Some(registry.clone());
        self.inner.telemetry_attached.store(true, Ordering::Relaxed);
        self.inner.publish_gauges();
    }

    /// Runs `body` with a [`Scope`] whose spawned tasks may borrow from
    /// the enclosing environment; returns once `body` *and every
    /// spawned task* finished. The calling thread executes queued pool
    /// tasks while it waits. The first panic from `body` or any task is
    /// resumed here after all tasks completed.
    pub fn scope<'env, R>(&self, body: impl FnOnce(&Scope<'env>) -> R) -> R {
        scope_on(&self.inner, body)
    }

    /// Maps `f` over `items` with their indices, in parallel, returning
    /// results in input order. Because `f` receives the item *index*,
    /// call sites that derive per-index seeds produce bit-identical
    /// output at any thread count.
    pub fn par_map<T: Send, R: Send>(
        &self,
        items: Vec<T>,
        f: impl Fn(usize, T) -> R + Sync,
    ) -> Vec<R> {
        par_map_on(&self.inner, items, f)
    }
}

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

struct ScopeState {
    active: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<PanicPayload>>,
}

/// Spawn handle passed to [`ThreadPool::scope`] bodies. Tasks may
/// borrow anything outliving the scope (`'env`).
pub struct Scope<'env> {
    inner: Arc<Inner>,
    state: Arc<ScopeState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").finish_non_exhaustive()
    }
}

impl<'env> Scope<'env> {
    /// Queues `task` on the pool. On a 1-thread pool it runs inline,
    /// immediately — which is exactly the sequential baseline. The
    /// spawning thread's open-span stack travels with the task, so
    /// spans it opens nest under the spawning span.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'env) {
        if self.inner.threads <= 1 {
            if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
                self.state.panic.lock().get_or_insert(p);
            }
            return;
        }
        *lock_state_usize(&self.state.active) += 1;
        let state = self.state.clone();
        let spans = SpanStack::capture();
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| spans.enter(task))) {
                state.panic.lock().get_or_insert(p);
            }
            let mut active = lock_state_usize(&state.active);
            *active -= 1;
            if *active == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: the scope owner blocks in `scope_on` until `active`
        // drops to zero (even when its body panics), so every borrow
        // in the task outlives the task's execution; erasing the
        // lifetime to queue it as a `'static` Task is sound.
        let boxed: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                boxed,
            )
        };
        self.inner.push(boxed);
    }
}

fn lock_state_usize(m: &Mutex<usize>) -> std::sync::MutexGuard<'_, usize> {
    m.lock()
}

fn scope_on<'env, R>(inner: &Arc<Inner>, body: impl FnOnce(&Scope<'env>) -> R) -> R {
    let scope = Scope {
        inner: inner.clone(),
        state: Arc::new(ScopeState {
            active: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }),
        _env: std::marker::PhantomData,
    };
    // The body must not escape before every task ran, even when it
    // panics — tasks borrow from the environment.
    let result = catch_unwind(AssertUnwindSafe(|| body(&scope)));
    let worker = local_worker_index(inner);
    loop {
        if *lock_state_usize(&scope.state.active) == 0 {
            break;
        }
        // Help: run queued tasks (ours or anyone's) instead of idling.
        if let Some(task) = inner.try_pop(worker) {
            inner.run_task(task);
            continue;
        }
        let active = lock_state_usize(&scope.state.active);
        if *active == 0 {
            break;
        }
        // Timed wait: our remaining tasks may be running on workers (the
        // `done` signal wakes us), but new helpable work may also get
        // queued — re-scan the queues every millisecond.
        let _ = scope
            .state
            .done
            .wait_timeout(active, Duration::from_millis(1));
    }
    if let Some(p) = scope.state.panic.lock().take() {
        resume_unwind(p);
    }
    match result {
        Ok(r) => r,
        Err(p) => resume_unwind(p),
    }
}

fn par_map_on<T: Send, R: Send>(
    inner: &Arc<Inner>,
    items: Vec<T>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if inner.threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    // Task grain: one spawned task per *chunk* of contiguous items, at
    // most `4 × threads` chunks, so queue/steal/wake overhead amortizes
    // over the chunk while still leaving enough chunks for the stealers
    // to balance. Small fanouts (n ≤ 4 × threads) degenerate to one
    // item per task. Each closure still receives its original index and
    // writes its own slot, so chunking cannot affect results.
    let chunk = n.div_ceil(inner.threads * 4).max(1);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let f = &f;
    let slots_ref = &slots;
    scope_on(inner, |s| {
        let mut items = items.into_iter();
        let mut start = 0;
        while start < n {
            let take = chunk.min(n - start);
            let batch: Vec<T> = items.by_ref().take(take).collect();
            s.spawn(move || {
                for (offset, item) in batch.into_iter().enumerate() {
                    let i = start + offset;
                    *slots_ref[i].lock() = Some(f(i, item));
                }
            });
            start += take;
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("scope ran every mapped task"))
        .collect()
}

/// A cooperative cancellation flag shared between a campaign's owner
/// and the work it oversees. Cheap to clone (clones share the flag);
/// checked at safe points — the token never preempts running code, it
/// asks the next checkpoint to stop. The campaign daemon hands one to
/// each chaos campaign, which checks it at every GWTW round barrier.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The lazy global pool: built on first use from `IDEAFLOW_THREADS`
/// (or core count). The env var is read once; use [`with_pool`] to run
/// a closure against a different pool in-process.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| PoolBuilder::new().build())
}

/// Runs `f` with `pool` pinned as the current executor:
/// [`current_par_map`] calls inside `f` dispatch to it instead of the
/// global pool. Nests; the override ends when `f` returns.
pub fn with_pool<R>(pool: &ThreadPool, f: impl FnOnce() -> R) -> R {
    CURRENT_POOL.with(|c| c.borrow_mut().push(pool.inner.clone()));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            CURRENT_POOL.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// [`ThreadPool::par_map`] on the current executor: the innermost
/// [`with_pool`] override (workers count as pinned to their own pool),
/// else the [`global`] pool. This is the entry point the parallel loops
/// in `opt` and `bandit` call.
pub fn current_par_map<T: Send, R: Send>(
    items: Vec<T>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    match CURRENT_POOL.with(|c| c.borrow().last().cloned()) {
        Some(inner) => par_map_on(&inner, items, f),
        None => global().par_map(items, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ideaflow_trace::{Journal, JournalReader, PayloadValue};

    fn int(v: Option<&PayloadValue>) -> Option<i64> {
        match v {
            Some(PayloadValue::Int(i)) => Some(*i),
            _ => None,
        }
    }

    #[test]
    fn par_map_preserves_order_and_indices() {
        let pool = PoolBuilder::new().threads(4).build();
        let out = pool.par_map((0..100u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let work = |i: usize, seed: u64| -> u64 {
            // Same per-index seed derivation shape as the call sites.
            let mut h = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..100 {
                h = h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            h
        };
        let items: Vec<u64> = vec![0xDAC2018; 64];
        let sequential = PoolBuilder::new()
            .threads(1)
            .build()
            .par_map(items.clone(), work);
        for threads in [2, 4, 8] {
            let parallel = PoolBuilder::new()
                .threads(threads)
                .build()
                .par_map(items.clone(), work);
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn one_thread_pool_spawns_no_workers_and_runs_inline() {
        let pool = PoolBuilder::new().threads(1).build();
        assert_eq!(pool.threads(), 1);
        assert!(pool.handles.is_empty());
        let caller = std::thread::current().id();
        let ran_on = pool.par_map(vec![(), ()], |_, ()| std::thread::current().id());
        assert_eq!(ran_on, vec![caller, caller]);
    }

    #[test]
    fn scope_tasks_borrow_and_mutate_disjoint_slots() {
        let pool = PoolBuilder::new().threads(3).build();
        let mut slots = vec![0u64; 32];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 + 1);
            }
        });
        assert!(slots.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = PoolBuilder::new().threads(2).build();
        let out = pool.par_map((0..8u64).collect(), |_, x| {
            // Nested parallelism from inside a worker task.
            current_par_map((0..4u64).collect(), move |_, y| x + y)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, (0..8u64).map(|x| 4 * x + 6).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_after_all_tasks_finish() {
        let pool = PoolBuilder::new().threads(2).build();
        let finished = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..8 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 3 {
                            panic!("task 3 exploded");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(r.is_err());
        assert_eq!(finished.load(Ordering::Relaxed), 7);
        // The pool survives and keeps working.
        assert_eq!(pool.par_map(vec![1, 2, 3], |_, x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn with_pool_overrides_the_current_executor() {
        let pool = PoolBuilder::new().threads(1).build();
        let caller = std::thread::current().id();
        let ran_on = with_pool(&pool, || {
            current_par_map(vec![()], |_, ()| std::thread::current().id())
        });
        assert_eq!(ran_on, vec![caller]);
    }

    /// A meeting point for `n` tasks. [`Rendezvous::arrive`] returns
    /// whether all `n` arrived before a 10 s guard expired: on a pool
    /// that cannot run `n` tasks at once, the early arrivals wait until
    /// the guard gives up.
    struct Rendezvous {
        n: usize,
        arrived: Mutex<usize>,
        all_here: Condvar,
    }

    impl Rendezvous {
        fn new(n: usize) -> Self {
            Self {
                n,
                arrived: Mutex::new(0),
                all_here: Condvar::new(),
            }
        }

        fn arrive(&self) -> bool {
            let mut arrived = self.arrived.lock();
            *arrived += 1;
            self.all_here.notify_all();
            let (arrived, _) = self
                .all_here
                .wait_timeout_while(arrived, Duration::from_secs(10), |a| *a < self.n)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *arrived == self.n
        }
    }

    #[test]
    fn par_map_runs_as_many_items_at_once_as_the_pool_has_threads() {
        // What a parallel speedup rests on, checked without a timing
        // threshold: every item of an N-item map on an N-thread pool
        // is running at the same moment.
        for threads in [2, 4] {
            let pool = PoolBuilder::new().threads(threads).build();
            let meet = Rendezvous::new(threads);
            let met = pool.par_map(vec![(); threads], |_, ()| meet.arrive());
            assert!(met.iter().all(|&m| m), "threads={threads}: {met:?}");
        }
    }

    #[test]
    fn workers_are_named_for_span_attribution() {
        // Three tasks held at one rendezvous run on three threads. The
        // helping caller can hold at most one of them, so at least two
        // run on `ifw-*` workers.
        let pool = PoolBuilder::new().threads(3).build();
        let meet = Rendezvous::new(3);
        let seen = pool.par_map(vec![(); 3], |_, ()| {
            (meet.arrive(), ideaflow_trace::thread_label())
        });
        assert!(seen.iter().all(|(met, _)| *met), "{seen:?}");
        let names: std::collections::BTreeSet<&str> =
            seen.iter().map(|(_, name)| name.as_str()).collect();
        assert_eq!(names.len(), 3, "{seen:?}");
        assert!(
            names.iter().filter(|n| n.starts_with("ifw-")).count() >= 2,
            "{seen:?}"
        );
    }

    #[test]
    fn spans_from_scope_tasks_nest_under_the_spawning_span() {
        let pool = PoolBuilder::new().threads(4).build();
        let journal = Journal::in_memory("execspan");
        {
            let root = journal.span("parallel.section");
            let root_id = root.id() as i64;
            pool.scope(|s| {
                for _ in 0..6 {
                    let journal = &journal;
                    s.spawn(move || drop(journal.span("parallel.task")));
                }
            });
            drop(root);
            let _ = root_id;
        }
        let reader = JournalReader {
            events: journal.drain_events(),
        };
        let opens = reader.events_for_step("span.open");
        let root_id = opens
            .iter()
            .find(|e| e.payload.get("name").and_then(|v| v.as_str()) == Some("parallel.section"))
            .and_then(|e| int(e.payload.get("id")))
            .unwrap();
        let tasks: Vec<_> = opens
            .iter()
            .filter(|e| e.payload.get("name").and_then(|v| v.as_str()) == Some("parallel.task"))
            .collect();
        assert_eq!(tasks.len(), 6);
        for e in tasks {
            assert_eq!(
                int(e.payload.get("parent")),
                Some(root_id),
                "worker span must nest under the spawning span"
            );
            assert_eq!(int(e.payload.get("depth")), Some(1));
        }
    }

    #[test]
    fn telemetry_gauges_are_seeded_and_updated() {
        let pool = PoolBuilder::new().threads(2).build();
        let registry = TelemetryRegistry::new();
        pool.attach_telemetry(&registry);
        assert_eq!(registry.gauge_value("exec.workers"), Some(2.0));
        assert_eq!(registry.gauge_value("exec.workers_busy"), Some(0.0));
        assert_eq!(registry.gauge_value("exec.queue_depth"), Some(0.0));
        let _ = pool.par_map((0..32).collect::<Vec<u32>>(), |_, x| x + 1);
        assert!(registry.gauge_value("exec.tasks").unwrap_or(0.0) >= 1.0);
        let exposition = registry.render_prometheus();
        assert!(
            exposition.contains("ideaflow_exec_workers_busy"),
            "{exposition}"
        );
        assert!(
            exposition.contains("ideaflow_exec_queue_depth"),
            "{exposition}"
        );
    }

    #[test]
    fn fuzzed_schedules_keep_par_map_results_bit_identical() {
        let work = |i: usize, seed: u64| -> u64 {
            let mut h = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..50 {
                h = h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            h
        };
        let items: Vec<u64> = vec![0xF0221; 128];
        let baseline = PoolBuilder::new()
            .threads(4)
            .build()
            .par_map(items.clone(), work);
        for seed in [1u64, 0xDEAD_BEEF, u64::MAX] {
            let fuzzed = PoolBuilder::new()
                .threads(4)
                .sched_fuzz(seed)
                .build()
                .par_map(items.clone(), work);
            assert_eq!(baseline, fuzzed, "seed={seed:#x}");
        }
    }

    #[test]
    fn fuzzed_pool_never_skips_queued_work() {
        // The perturbation only reorders polls; every spawned task must
        // still run exactly once, whatever the seed.
        for seed in 0..8u64 {
            let pool = PoolBuilder::new().threads(3).sched_fuzz(seed).build();
            let hits = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..64 {
                    let hits = &hits;
                    s.spawn(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(hits.load(Ordering::Relaxed), 64, "seed={seed}");
        }
    }

    #[test]
    fn parse_threads_treats_zero_and_garbage_as_auto() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("banana")), None);
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some(" 4 ")), Some(4));
    }

    #[test]
    fn global_pool_is_lazily_built_once() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn heavy_fanout_terminates_and_sums_correctly() {
        let pool = PoolBuilder::new().threads(4).build();
        let out = pool.par_map((0..1000u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x % 7
        });
        assert_eq!(out.iter().sum::<u64>(), (0..1000u64).map(|x| x % 7).sum());
    }
}
