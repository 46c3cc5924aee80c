//! A small work-stealing thread pool for per-function module work.
//!
//! The driver's unit of work is one function's full placement pipeline
//! (allocate → analyses → four techniques), whose cost varies wildly
//! across functions — SPEC-like modules mix two-block leaves with
//! thousand-instruction bodies. A static partition would leave workers
//! idle behind the largest function, so each worker owns a deque seeded
//! round-robin and steals from the *front* of a victim's deque when its
//! own runs dry (owner pops from the back: stealers and owner contend
//! only when a deque is nearly empty).
//!
//! Determinism: results are returned in item order, independent of
//! thread count and steal interleaving — [`run_indexed`] with 8 threads
//! is bit-identical to a serial run. The pool uses only `std` and has no
//! global state. Worker panics are *caught* ([`try_run_indexed`]), so a
//! panicking item can never poison the deque or result mutexes and
//! resurface on another thread as an opaque `PoisonError`; callers
//! receive the first panicking item's index and payload instead
//! ([`run_indexed`] re-raises it on the calling thread).

use spillopt_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use spillopt_sync::{thread, Arc, Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A panic raised by one work item, caught by the pool.
pub struct ItemPanic {
    /// Index of the panicking item (the smallest observed; with aborts in
    /// flight later items may not have run).
    pub index: usize,
    /// The original panic payload, re-raisable with
    /// [`std::panic::resume_unwind`].
    pub payload: Box<dyn std::any::Any + Send>,
}

impl ItemPanic {
    /// The panic message: strings verbatim, the fault layer's typed
    /// payloads via their `Display` forms.
    pub fn message(&self) -> String {
        payload_message(&*self.payload)
    }
}

/// Renders a caught panic payload: strings verbatim, the typed payloads
/// of the fault layer (`spillopt_obs::fault`) via their `Display`
/// forms. (Deliberately a local twin of `spillopt_stress::panic_message`
/// for the string cases: the pool keeps no dependency on the fuzzing
/// crate.)
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(b) = payload.downcast_ref::<spillopt_obs::fault::BudgetExceeded>() {
        b.to_string()
    } else if let Some(i) = payload.downcast_ref::<spillopt_obs::fault::InjectedFault>() {
        i.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

impl std::fmt::Debug for ItemPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ItemPanic")
            .field("index", &self.index)
            .field("message", &self.message())
            .finish()
    }
}

/// Runs `work(i, item)` for every item, on `threads` workers, returning
/// the results in item order regardless of scheduling.
///
/// `threads == 0` selects the available CPU parallelism; `threads == 1`
/// runs inline with no thread machinery at all (the reference serial
/// schedule the parallel runs must match).
///
/// # Panics
///
/// Re-raises the first caught item panic on the calling thread (see
/// [`try_run_indexed`] for the non-panicking form).
pub fn run_indexed<I, T, F>(items: Vec<I>, threads: usize, work: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    try_run_indexed(items, threads, work).unwrap_or_else(|p| resume_unwind(p.payload))
}

/// As [`run_indexed`], but a panicking item aborts the run and is
/// returned as an [`ItemPanic`] instead of unwinding through the pool.
///
/// Catching inside the worker keeps the deque and result mutexes
/// unpoisoned and lets the driver attach context (which function's
/// pipeline died) before surfacing the failure. When items panic
/// concurrently the smallest observed index is reported; remaining items
/// may be skipped.
///
/// # Errors
///
/// Returns the first caught [`ItemPanic`].
pub fn try_run_indexed<I, T, F>(items: Vec<I>, threads: usize, work: F) -> Result<Vec<T>, ItemPanic>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        return serial_run(items, &work);
    }

    // Seed the deques round-robin so every worker starts with a share of
    // the (typically size-correlated) item sequence.
    let mut deques: Vec<Mutex<VecDeque<(usize, I)>>> = Vec::with_capacity(threads);
    for _ in 0..threads {
        deques.push(Mutex::new(VecDeque::new()));
    }
    for (i, item) in items.into_iter().enumerate() {
        deques[i % threads].get_mut().unwrap().push_back((i, item));
    }
    let remaining = AtomicUsize::new(deques.iter_mut().map(|d| d.get_mut().unwrap().len()).sum());
    let abort = AtomicBool::new(false);
    let panicked: Mutex<Option<ItemPanic>> = Mutex::new(None);

    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(remaining.load(Ordering::Relaxed), || None);
    let slots = Mutex::new(&mut results);

    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for me in 0..threads {
            let deques = &deques;
            let remaining = &remaining;
            let abort = &abort;
            let panicked = &panicked;
            let slots = &slots;
            let work = &work;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, T)> = Vec::new();
                while remaining.load(Ordering::Acquire) > 0 && !abort.load(Ordering::Acquire) {
                    let next = pop_own(&deques[me]).or_else(|| steal(deques, me));
                    match next {
                        Some((i, item)) => {
                            match catch_unwind(AssertUnwindSafe(|| work(i, item))) {
                                Ok(out) => local.push((i, out)),
                                Err(payload) => {
                                    // Keep the smallest panicking index
                                    // (deterministic for the serial
                                    // schedule, best-effort otherwise).
                                    let mut slot = panicked.lock().unwrap();
                                    if slot.as_ref().is_none_or(|p| i < p.index) {
                                        *slot = Some(ItemPanic { index: i, payload });
                                    }
                                    abort.store(true, Ordering::Release);
                                }
                            }
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        }
                        None => {
                            // Deques are empty but another worker still
                            // holds an in-flight item; a short sleep
                            // bounds the CPU burned waiting for it.
                            thread::sleep(std::time::Duration::from_micros(50));
                        }
                    }
                }
                // Publish results under one short lock per worker.
                let mut slots = slots.lock().unwrap();
                for (i, out) in local {
                    slots[i] = Some(out);
                }
            }));
        }
        for h in handles {
            h.join().expect("pool workers never unwind");
        }
    });

    if let Some(p) = panicked.into_inner().unwrap() {
        return Err(p);
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every item completed"))
        .collect())
}

/// A **persistent** work pool: workers are spawned once (when a
/// [`crate::Session`] is built) and reused by every batch, so the
/// warm-server shape — many `optimize` calls against one configured
/// session — pays thread spin-up once instead of per module.
///
/// Batches keep the free functions' contract: results in item order,
/// panics caught per item and reported as [`ItemPanic`] (mutexes never
/// poisoned), and output that is a pure function of the items — the
/// worker count only changes wall-clock, never bytes.
pub struct Pool {
    /// `None` when the pool is serial (1 effective worker): batches run
    /// inline on the calling thread with no thread machinery at all.
    shared: Option<Arc<Shared>>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("persistent", &self.shared.is_some())
            .finish()
    }
}

/// The queue the persistent workers serve. Jobs are lifetime-erased
/// closures; the submitting batch blocks until every one of its jobs has
/// retired, which is what makes the erasure sound (see `run_batch`).
struct Shared {
    state: Mutex<Queue>,
    work_ready: Condvar,
    /// Per-worker lifetime accounting, indexed by worker id.
    worker_stats: Vec<WorkerCounters>,
}

/// Relaxed per-worker accumulators (a few clock reads per job — each job
/// is a whole function pipeline, so the accounting is noise).
#[derive(Default)]
struct WorkerCounters {
    /// Jobs this worker dequeued and began executing.
    started: AtomicU64,
    /// Jobs this worker finished (`items` in [`PoolWorkerStats`]).
    items: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
}

/// A snapshot of one persistent worker's lifetime activity, from
/// [`Pool::worker_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolWorkerStats {
    /// Jobs this worker executed (or skipped after a batch abort).
    pub items: u64,
    /// Nanoseconds spent running jobs.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for work.
    pub idle_ns: u64,
}

/// A queued job. The worker passes its accounting as the argument; the
/// job calls it just before retiring from its batch.
type Job<'a> = Box<dyn FnOnce(&dyn Fn()) + Send + 'a>;

struct Queue {
    jobs: VecDeque<Job<'static>>,
    shutdown: bool,
}

/// One in-flight batch: result slots, completion accounting, and the
/// first caught panic. Lives on the submitting thread's stack; jobs hold
/// (erased) references into it.
struct Batch<T> {
    slots: Mutex<Vec<Option<T>>>,
    remaining: Mutex<usize>,
    done: Condvar,
    abort: AtomicBool,
    panicked: Mutex<Option<ItemPanic>>,
}

impl<T> Batch<T> {
    /// Runs item `i` and retires it. `account` runs before the item
    /// counts as done, so once `run_batch` returns every worker's
    /// counters include the whole batch.
    fn execute<I, F>(&self, work: &F, i: usize, item: I, account: &dyn Fn())
    where
        F: Fn(usize, I) -> T,
    {
        if !self.abort.load(Ordering::Acquire) {
            match catch_unwind(AssertUnwindSafe(|| work(i, item))) {
                Ok(out) => self.slots.lock().unwrap()[i] = Some(out),
                Err(payload) => {
                    let mut slot = self.panicked.lock().unwrap();
                    if slot.as_ref().is_none_or(|p| i < p.index) {
                        *slot = Some(ItemPanic { index: i, payload });
                    }
                    self.abort.store(true, Ordering::Release);
                }
            }
        }
        account();
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

impl Pool {
    /// Spawns a pool of `threads` persistent workers (`0` = available
    /// parallelism). One effective worker means a serial pool: no
    /// threads at all, batches run inline — the deterministic reference
    /// schedule.
    pub fn new(threads: usize) -> Pool {
        let threads = effective_threads(threads, usize::MAX);
        if threads <= 1 {
            return Pool {
                shared: None,
                workers: Vec::new(),
                threads: 1,
            };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            worker_stats: (0..threads).map(|_| WorkerCounters::default()).collect(),
        });
        let workers = (0..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared, me))
            })
            .collect();
        Pool {
            shared: Some(shared),
            workers,
            threads,
        }
    }

    /// The worker count the pool was built with (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Lifetime activity of each persistent worker (items executed, busy
    /// and idle nanoseconds), indexed by worker id. Empty for a serial
    /// pool — inline batches have no workers to account.
    pub fn worker_stats(&self) -> Vec<PoolWorkerStats> {
        let Some(shared) = &self.shared else {
            return Vec::new();
        };
        shared
            .worker_stats
            .iter()
            .map(|w| PoolWorkerStats {
                items: w.items.load(Ordering::Relaxed),
                busy_ns: w.busy_ns.load(Ordering::Relaxed),
                idle_ns: w.idle_ns.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Runs `work(i, item)` for every item on the persistent workers,
    /// returning results in item order. Semantics match
    /// [`try_run_indexed`]: a panicking item aborts the batch and is
    /// returned as an [`ItemPanic`].
    ///
    /// # Errors
    ///
    /// Returns the first caught [`ItemPanic`].
    pub fn run_batch<I, T, F>(&self, items: Vec<I>, work: F) -> Result<Vec<T>, ItemPanic>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let Some(shared) = &self.shared else {
            return serial_run(items, &work);
        };
        if items.len() <= 1 {
            return serial_run(items, &work);
        }

        let n = items.len();
        let batch: Batch<T> = Batch {
            slots: Mutex::new(Vec::new()),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            abort: AtomicBool::new(false),
            panicked: Mutex::new(None),
        };
        batch.slots.lock().unwrap().resize_with(n, || None);

        // SAFETY: each job borrows `batch` and `work` from this stack
        // frame through a lifetime-erased `Box<dyn FnOnce>`. The erasure
        // is sound because this function does not return (and the frame
        // does not unwind) until `batch.remaining` hits zero — every job
        // has run (or been skipped via `abort`) and dropped its borrows.
        // Between enqueue and the wait below there is no panicking
        // operation on this thread: the queue mutex cannot be poisoned
        // (workers never run user code while holding it).
        let jobs: Vec<Job<'static>> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let batch = &batch;
                let work = &work;
                let job: Job<'_> =
                    Box::new(move |account: &dyn Fn()| batch.execute(work, i, item, account));
                unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) }
            })
            .collect();
        let depth = {
            let mut state = shared.state.lock().unwrap();
            state.jobs.extend(jobs);
            state.jobs.len() as u64
        };
        shared.work_ready.notify_all();
        // Queue depth at enqueue: how much work this batch stacked up
        // behind whatever was already queued.
        spillopt_obs::sample("pool_queue_depth", depth);

        let mut remaining = batch.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).unwrap();
        }
        drop(remaining);

        if let Some(p) = batch.panicked.into_inner().unwrap() {
            return Err(p);
        }
        Ok(batch
            .slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|r| r.expect("every item completed"))
            .collect())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.state.lock().unwrap().shutdown = true;
            shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Shutdown balance check: with every worker joined, each one
        // must have finished every job it started — a worker that
        // vanished mid-job (or double-counted) indicates a broken
        // drain/shutdown protocol. Debug builds only: release pools
        // skip the scan.
        #[cfg(debug_assertions)]
        if let Some(shared) = &self.shared {
            for (i, w) in shared.worker_stats.iter().enumerate() {
                let started = w.started.load(Ordering::Relaxed);
                let finished = w.items.load(Ordering::Relaxed);
                debug_assert_eq!(
                    started, finished,
                    "pool worker {i} left busy at shutdown: \
                     started {started} jobs, finished {finished}"
                );
            }
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    let stats = &shared.worker_stats[me];
    loop {
        let wait_start = Instant::now();
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.work_ready.wait(state).unwrap();
            }
        };
        stats
            .idle_ns
            .fetch_add(wait_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match job {
            // Jobs never unwind: `Batch::execute` catches item panics.
            Some(job) => {
                stats.started.fetch_add(1, Ordering::Relaxed);
                let busy_start = Instant::now();
                {
                    // The outermost span on this worker: closing it also
                    // flushes the worker's event buffer, so a recording
                    // that finishes after the batch joins sees everything.
                    let _s = spillopt_obs::span("pool_job");
                    spillopt_obs::count("pool_jobs", 1);
                    job(&|| {
                        stats.items.fetch_add(1, Ordering::Relaxed);
                        stats
                            .busy_ns
                            .fetch_add(busy_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    });
                }
            }
            None => return,
        }
    }
}

/// The inline (no-thread) schedule shared by serial pools and
/// single-item batches.
fn serial_run<I, T, F>(items: Vec<I>, work: &F) -> Result<Vec<T>, ItemPanic>
where
    F: Fn(usize, I) -> T,
{
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| work(i, item))) {
            Ok(t) => out.push(t),
            Err(payload) => return Err(ItemPanic { index: i, payload }),
        }
    }
    Ok(out)
}

/// The worker count actually used for `requested` over `n_items`.
pub fn effective_threads(requested: usize, n_items: usize) -> usize {
    let hw = thread::available_parallelism().map_or(1, |n| n.get());
    let t = if requested == 0 { hw } else { requested };
    t.min(n_items.max(1))
}

fn pop_own<I>(deque: &Mutex<VecDeque<(usize, I)>>) -> Option<(usize, I)> {
    deque.lock().unwrap().pop_back()
}

fn steal<I>(deques: &[Mutex<VecDeque<(usize, I)>>], me: usize) -> Option<(usize, I)> {
    let n = deques.len();
    for k in 1..n {
        let victim = (me + k) % n;
        if let Some(stolen) = deques[victim].lock().unwrap().pop_front() {
            return Some(stolen);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = run_indexed(items.clone(), 1, |i, x| (i as u64) * 1000 + x * x);
        let parallel = run_indexed(items, 7, |i, x| (i as u64) * 1000 + x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One huge item up front; the rest tiny. All must complete.
        let items: Vec<u64> = (0..64).map(|i| if i == 0 { 1 << 14 } else { 1 }).collect();
        let out = run_indexed(items, 4, |_, n| (0..n).map(|x| x ^ (x >> 3)).sum::<u64>());
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn zero_threads_means_auto() {
        let out = run_indexed(vec![1, 2, 3], 0, |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = run_indexed(Vec::<i32>::new(), 4, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        run_indexed(vec![0usize; 16], 4, |i, _| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn persistent_pool_matches_serial_across_batches() {
        let pool = Pool::new(4);
        assert!(pool.threads() >= 1);
        let items: Vec<u64> = (0..257).collect();
        let serial = run_indexed(items.clone(), 1, |i, x| (i as u64) * 1000 + x * x);
        // The same pool serves several batches (the warm-session shape).
        for _ in 0..3 {
            let batch = pool
                .run_batch(items.clone(), |i, x| (i as u64) * 1000 + x * x)
                .expect("no panics");
            assert_eq!(serial, batch);
        }
    }

    #[test]
    fn persistent_pool_catches_panics_and_stays_usable() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let err = pool
            .run_batch(items.clone(), |i, x| {
                if i == 13 {
                    panic!("boom at {i}");
                }
                x * 2
            })
            .expect_err("item 13 panics");
        assert!(err.message().contains("boom"));
        // Nothing was poisoned; the same workers serve the next batch.
        let ok = pool.run_batch(items, |_, x| x + 1).expect("no panics");
        assert_eq!(ok.len(), 64);
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = pool.run_batch(vec![1, 2, 3], |_, x| x * 2).expect("serial");
        assert_eq!(out, vec![2, 4, 6]);
        // No workers, no worker accounting.
        assert!(pool.worker_stats().is_empty());
    }

    #[test]
    fn worker_stats_account_for_every_item() {
        let pool = Pool::new(3);
        let items: Vec<u64> = (0..64).collect();
        pool.run_batch(items, |_, x| x * 2).expect("no panics");
        let stats = pool.worker_stats();
        assert_eq!(stats.len(), pool.threads());
        let total: u64 = stats.iter().map(|w| w.items).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn caught_panic_names_the_item_and_poisons_nothing() {
        let items: Vec<usize> = (0..64).collect();
        let err = try_run_indexed(items.clone(), 4, |i, x| {
            if i == 13 {
                panic!("boom at {i}");
            }
            x * 2
        })
        .expect_err("item 13 panics");
        assert!(err.message().contains("boom"));
        // Serial schedule reports the smallest panicking index exactly.
        let serial = try_run_indexed(items.clone(), 1, |i, x| {
            if i >= 13 {
                panic!("boom at {i}");
            }
            x * 2
        })
        .expect_err("item 13 panics");
        assert_eq!(serial.index, 13);
        // The pool is reusable afterwards: nothing was poisoned.
        let ok = try_run_indexed(items, 4, |_, x| x + 1).expect("no panics");
        assert_eq!(ok.len(), 64);
    }
}

/// Model-checked suites: the pool's submit/drain/shutdown and panic
/// protocols explored over every interleaving reachable under the
/// preemption bound. Run with
/// `cargo test -p spillopt-driver --features model`.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::*;
    use spillopt_sync::model::{check, ModelOptions};

    /// Small bounds keep each scenario's schedule tree enumerable while
    /// still covering worker/submitter preemptions at every lock,
    /// condvar, and non-relaxed atomic operation.
    fn opts() -> ModelOptions {
        ModelOptions::new().executions(50_000)
    }

    /// Submit/drain: a 2-worker pool runs a 3-item batch; results come
    /// back in item order under every schedule, and shutdown (the
    /// `Drop`) joins cleanly — including its debug-build check that
    /// every worker finished what it started.
    #[test]
    fn model_submit_drain_shutdown() {
        let report = check(opts(), || {
            let pool = Pool::new(2);
            let out = pool
                .run_batch(vec![10u64, 20, 30], |i, x| x + i as u64)
                .expect("no panics");
            assert_eq!(out, vec![10, 21, 32]);
            drop(pool);
        });
        eprintln!(
            "model_submit_drain_shutdown: {} schedules",
            report.executions
        );
        assert!(
            report.executions > 1,
            "expected >1 interleaving, got {}",
            report.executions
        );
    }

    /// Shutdown with an empty queue: both workers are (possibly) parked
    /// on `work_ready` when the `Drop` broadcasts shutdown; no schedule
    /// may strand a worker (a lost shutdown notify would deadlock the
    /// join).
    #[test]
    fn model_idle_shutdown_wakes_all_workers() {
        let report = check(opts(), || {
            let pool = Pool::new(2);
            drop(pool);
        });
        eprintln!(
            "model_idle_shutdown_wakes_all_workers: {} schedules",
            report.executions
        );
        assert!(report.executions > 1);
    }

    /// Panic path: one item panics; under every schedule the batch
    /// reports an `ItemPanic` (never a poisoned mutex, never a hang)
    /// and shutdown still balances. Pool *reuse* after a panic is
    /// covered by the normal-mode suite; modeling a second batch here
    /// squares the schedule tree for no new protocol coverage.
    #[test]
    fn model_item_panic_aborts_batch() {
        let report = check(opts(), || {
            let pool = Pool::new(2);
            let err = pool
                .run_batch(vec![0u64, 1], |i, x| {
                    if i == 1 {
                        panic!("model boom");
                    }
                    x
                })
                .expect_err("item 1 panics");
            assert!(err.message().contains("model boom"));
            drop(pool);
        });
        eprintln!(
            "model_item_panic_aborts_batch: {} schedules",
            report.executions
        );
        assert!(report.executions > 1);
    }

    /// The scoped (non-persistent) path: `try_run_indexed` with its
    /// work-stealing deques, model-checked end to end.
    #[test]
    fn model_scoped_run_indexed() {
        let report = check(opts(), || {
            let out = try_run_indexed(vec![1u64, 2, 3], 2, |_, x| x * 10).expect("no panics");
            assert_eq!(out, vec![10, 20, 30]);
        });
        eprintln!("model_scoped_run_indexed: {} schedules", report.executions);
        assert!(report.executions > 1);
    }
}
