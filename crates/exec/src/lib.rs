#![warn(missing_docs)]
//! Run-level parallel execution with serial observability.
//!
//! Every multi-run driver in this workspace — chaos campaigns, parameter
//! sweeps, experiment tables, soak matrices — executes thousands of
//! *independent* deterministic runs. Each run is exactly reproducible from
//! its inputs and shares no mutable state with any other, so the batch can
//! be spread over worker threads *iff* callers cannot tell the difference:
//! [`RunPool::run_batch`] executes a batch of closures on a fixed set of
//! workers and reassembles the results in submission order, so the caller
//! observes exactly the sequence a serial loop would have produced. The
//! determinism-equivalence suite (`tests/exec_equivalence.rs`) holds the
//! pool to that contract bit-for-bit.
//!
//! The pool is deliberately boring: fixed worker threads sharing one job
//! queue, built on `std::sync` alone (the build environment has no crates.io
//! access — same constraint that produced `shims/`). Jobs wait in a
//! `VecDeque` and a batch's results come back in submission-order slots,
//! each behind one `Mutex` and `Condvar`, so what a batch allocates does not
//! depend on which worker takes or finishes a job first. Panics inside a
//! task are contained per task (`Err(TaskPanic)`), never poisoning the pool
//! or hanging the batch, and dropping the pool joins every worker.

use opr_metrics::{Counter, Histogram, MetricsRegistry};
use opr_obs::SharedSpanLog;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Wall-clock pool metrics, resolved once at attach time so the per-task
/// path touches only pre-created handles (relaxed atomics, no locks).
#[derive(Clone)]
struct PoolMetrics {
    tasks: Counter,
    queue_wait_ns: Histogram,
    task_ns: Histogram,
    stage_ns: Histogram,
}

/// A task's panic payload, rendered — the one way a batched run can fail
/// that its own return type does not describe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload as a string (`"non-string panic payload"` when the
    /// payload was neither `&str` nor `String`).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// What one batched task produced: its value, or the panic that ended it.
pub(crate) type TaskResult<T> = Result<T, TaskPanic>;

type BoxedJob = Box<dyn FnOnce() + Send>;

/// The workers' job queue. Workers wait on `ready` while it is empty, and
/// [`RunPool::new`] until every worker has started. A `VecDeque` keeps its
/// storage, and a `Condvar` wait allocates nothing, so no allocation
/// depends on which worker waits when.
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    /// The jobs not yet taken, in submission order.
    jobs: VecDeque<BoxedJob>,
    /// Set when the pool is dropped: workers leave once `jobs` is empty.
    closed: bool,
    /// Workers that have started running.
    started: usize,
}

impl Queue {
    /// The queue, locked. Jobs run outside the lock, so a poisoned lock
    /// holds a consistent queue.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on `ready`, releasing the lock meanwhile.
    fn wait<'a>(&self, state: MutexGuard<'a, QueueState>) -> MutexGuard<'a, QueueState> {
        self.ready
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One batch's results on their way back: a slot per task, in submission
/// order, and how many are filled.
struct Batch<T> {
    slots: Mutex<(Vec<Option<TaskResult<T>>>, usize)>,
    /// Signalled when the last slot is filled.
    done: Condvar,
}

impl<T> Batch<T> {
    /// The slots, locked. No code panics while holding the lock (tasks run
    /// outside it, under `catch_unwind`), so a poisoned lock holds
    /// consistent slots.
    fn lock(&self) -> MutexGuard<'_, (Vec<Option<TaskResult<T>>>, usize)> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size worker pool executing batches of independent closures.
///
/// `jobs ≤ 1` (including 0) degenerates to inline serial execution on the
/// caller's thread — no workers are spawned, and the panic-containment
/// contract is identical. `jobs ≥ 2` spawns exactly `jobs` worker threads
/// sharing one job queue; workers live until the pool is dropped, so
/// repeated batches reuse the same threads.
///
/// # Ordering contract
///
/// [`RunPool::run_batch`] returns results in submission order regardless of
/// which worker ran which task or how long each took. Combined with tasks
/// that are pure functions of their inputs (every run in this workspace),
/// a batch is observationally identical at any worker count.
pub struct RunPool {
    /// `None` for a serial pool.
    queue: Option<Arc<Queue>>,
    workers: Vec<JoinHandle<()>>,
    /// When attached, each batch records one wall-clock stage span. Wall
    /// timings are observability only — they never affect results or their
    /// order, so the determinism-equivalence contract is untouched.
    spans: Option<SharedSpanLog>,
    /// When attached, each task records queue-wait and execution-time
    /// histograms and each batch a stage histogram — wall-clock plane only.
    metrics: Option<PoolMetrics>,
    stage: AtomicUsize,
}

impl RunPool {
    /// Creates a pool with `jobs` workers (`0` and `1` both mean serial
    /// inline execution). Returns once every worker is running, so no
    /// thread's start-up — its own allocations included — overlaps a batch.
    pub fn new(jobs: usize) -> Self {
        if jobs <= 1 {
            return RunPool {
                queue: None,
                workers: Vec::new(),
                spans: None,
                metrics: None,
                stage: AtomicUsize::new(0),
            };
        }
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
        });
        // Built first, so a failed spawn drops it: its `Drop` closes the
        // queue and joins the workers already running.
        let mut pool = RunPool {
            queue: Some(Arc::clone(&queue)),
            workers: Vec::with_capacity(jobs),
            spans: None,
            metrics: None,
            stage: AtomicUsize::new(0),
        };
        for k in 0..jobs {
            let queue = Arc::clone(&queue);
            let worker = std::thread::Builder::new()
                .name(format!("opr-exec-{k}"))
                .spawn(move || {
                    queue.lock().started += 1;
                    queue.ready.notify_all();
                    worker_loop(&queue);
                })
                .expect("spawning a pool worker");
            pool.workers.push(worker);
        }
        let mut state = queue.lock();
        while state.started < jobs {
            state = queue.wait(state);
        }
        drop(state);
        pool
    }

    /// Attaches a wall-clock span log; every subsequent batch records one
    /// `pool stage K (N)` span covering submission to the last result.
    pub fn with_spans(mut self, spans: SharedSpanLog) -> Self {
        self.spans = Some(spans);
        self
    }

    /// Attaches a metrics registry; every subsequent task records queue-wait
    /// and execution-time histograms (`opr_pool_queue_wait_ns`,
    /// `opr_pool_task_ns`) plus a task counter, and every batch a stage
    /// duration histogram. These are wall-clock metrics: they never enter
    /// goldens or equality checks.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(PoolMetrics {
            tasks: registry.counter("opr_pool_tasks_total"),
            queue_wait_ns: registry.histogram("opr_pool_queue_wait_ns"),
            task_ns: registry.histogram("opr_pool_task_ns"),
            stage_ns: registry.histogram("opr_pool_stage_ns"),
        });
        self
    }

    /// A serial pool (the degenerate single-worker case) — handy where a
    /// `--jobs` flag defaults to 1.
    pub fn serial() -> Self {
        RunPool::new(1)
    }

    /// Executes every task and returns their results **in submission
    /// order**. A task that panics yields `Err(TaskPanic)` in its slot; the
    /// remaining tasks run to completion and the pool stays usable.
    pub fn run_batch<T, F>(&self, tasks: Vec<F>) -> Vec<TaskResult<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let observing = self.spans.is_some() || self.metrics.is_some();
        let stage_start = observing.then(|| {
            let stage = self.stage.fetch_add(1, Ordering::Relaxed) as u64;
            (stage, tasks.len() as u64, Instant::now())
        });
        let results = if let Some(pm) = &self.metrics {
            let wrapped: Vec<Box<dyn FnOnce() -> T + Send>> = tasks
                .into_iter()
                .map(|task| {
                    let pm = pm.clone();
                    let submitted = Instant::now();
                    Box::new(move || {
                        pm.queue_wait_ns
                            .record(submitted.elapsed().as_nanos() as u64);
                        let ran = Instant::now();
                        let out = task();
                        pm.task_ns.record(ran.elapsed().as_nanos() as u64);
                        pm.tasks.inc();
                        out
                    }) as Box<dyn FnOnce() -> T + Send>
                })
                .collect();
            self.run_batch_inner(wrapped)
        } else {
            self.run_batch_inner(tasks)
        };
        if let Some((stage, count, start)) = stage_start {
            if let Some(pm) = &self.metrics {
                pm.stage_ns.record(start.elapsed().as_nanos() as u64);
            }
            if let Some(log) = &self.spans {
                log.lock()
                    .unwrap()
                    .record_detailed("pool stage", stage, count, start);
            }
        }
        results
    }

    fn run_batch_inner<T, F>(&self, tasks: Vec<F>) -> Vec<TaskResult<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let Some(queue) = &self.queue else {
            return tasks.into_iter().map(run_contained).collect();
        };
        let total = tasks.len();
        let batch = Arc::new(Batch {
            slots: Mutex::new(((0..total).map(|_| None).collect(), 0)),
            done: Condvar::new(),
        });
        {
            let mut state = queue.lock();
            // The last batch's jobs are all taken, so this allocates only
            // when a batch is larger than every one before it.
            state.jobs.reserve(total);
            for (index, task) in tasks.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                state.jobs.push_back(Box::new(move || {
                    let result = run_contained(task);
                    let mut slots = batch.lock();
                    slots.0[index] = Some(result);
                    slots.1 += 1;
                    if slots.1 == total {
                        batch.done.notify_one();
                    }
                }));
            }
        }
        // One worker now; each worker that takes a job and leaves more
        // wakes the next. Waking every worker at once from this thread let
        // the scheduler stack them on one core, where they ran the
        // batch's jobs one after another.
        queue.ready.notify_one();
        let mut slots = batch.lock();
        while slots.1 < total {
            slots = batch
                .done
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut slots.0)
            .into_iter()
            .map(|slot| slot.expect("every slot filled by its task"))
            .collect()
    }
}

impl Drop for RunPool {
    fn drop(&mut self) {
        // Closing the queue ends every worker's loop once the queue is
        // empty; then join so no detached thread outlives the pool.
        if let Some(queue) = self.queue.take() {
            queue.lock().closed = true;
            queue.ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        // Hold the lock only for the dequeue, not while running the job.
        let (job, more) = {
            let mut state = queue.lock();
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break (job, !state.jobs.is_empty());
                }
                if state.closed {
                    return;
                }
                state = queue.wait(state);
            }
        };
        if more {
            queue.ready.notify_one();
        }
        job();
    }
}

fn run_contained<T, F: FnOnce() -> T>(task: F) -> TaskResult<T> {
    catch_unwind(AssertUnwindSafe(task)).map_err(|payload| TaskPanic {
        message: panic_message(payload.as_ref()),
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn values<T>(results: Vec<TaskResult<T>>) -> Vec<T> {
        results
            .into_iter()
            .map(|r| r.expect("no task panicked"))
            .collect()
    }

    #[test]
    fn reassembles_submission_order_under_adversarial_durations() {
        // Later-submitted tasks finish first: task i sleeps (16 − i) ms, so
        // completion order is the exact reverse of submission order.
        let pool = RunPool::new(4);
        let tasks: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(16 - i));
                    i
                }
            })
            .collect();
        let results = values(pool.run_batch(tasks));
        assert_eq!(results, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let batch = || (0..64u64).map(|i| move || i * i + 7).collect::<Vec<_>>();
        let serial = values(RunPool::new(1).run_batch(batch()));
        for jobs in [2, 4, 8] {
            let parallel = values(RunPool::new(jobs).run_batch(batch()));
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn panic_surfaces_as_failed_task_not_hung_pool() {
        let pool = RunPool::new(3);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom in task 1")),
            Box::new(|| 2),
        ];
        let results = pool.run_batch(tasks);
        assert_eq!(results[0], Ok(1));
        assert_eq!(
            results[1],
            Err(TaskPanic {
                message: "boom in task 1".to_string()
            })
        );
        assert_eq!(results[2], Ok(2));
        // The pool survives a panicking batch: the same workers serve the
        // next one.
        assert_eq!(values(pool.run_batch(vec![|| 9u64])), vec![9]);
    }

    #[test]
    fn degenerate_pools_execute_inline() {
        for jobs in [0, 1] {
            let pool = RunPool::new(jobs);
            assert!(pool.workers.is_empty(), "jobs={jobs}");
            let caller = std::thread::current().id();
            let results = pool.run_batch(vec![move || std::thread::current().id() == caller]);
            assert_eq!(values(results), vec![true], "jobs={jobs}");
        }
        // And panic containment matches the parallel path.
        let results = RunPool::serial().run_batch(vec![|| -> u64 { panic!("inline boom") }]);
        assert_eq!(results[0].as_ref().unwrap_err().message, "inline boom");
    }

    #[test]
    fn drop_joins_all_workers() {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        static FINISHED: AtomicUsize = AtomicUsize::new(0);
        let pool = RunPool::new(4);
        let tasks: Vec<_> = (0..8)
            .map(|_| {
                || {
                    STARTED.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    FINISHED.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        let _ = pool.run_batch(tasks);
        drop(pool);
        // After drop returns, no worker is still running a task.
        assert_eq!(STARTED.load(Ordering::SeqCst), 8);
        assert_eq!(FINISHED.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn attached_spans_record_one_stage_per_batch() {
        let spans = opr_obs::shared_span_log();
        let pool = RunPool::new(2).with_spans(Arc::clone(&spans));
        let _ = values(pool.run_batch((0..4u64).map(|i| move || i).collect::<Vec<_>>()));
        let _ = values(pool.run_batch(vec![|| 1u64]));
        let log = spans.lock().unwrap();
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.spans()[0].label(), "pool stage 0 (4)");
        assert_eq!(log.spans()[1].label(), "pool stage 1 (1)");
    }

    #[test]
    fn attached_metrics_count_tasks_and_waits() {
        let registry = MetricsRegistry::new();
        let pool = RunPool::new(2).with_metrics(&registry);
        let _ = values(pool.run_batch((0..6u64).map(|i| move || i).collect::<Vec<_>>()));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("opr_pool_tasks_total"), 6);
        assert_eq!(snap.histogram("opr_pool_queue_wait_ns").unwrap().count, 6);
        assert_eq!(snap.histogram("opr_pool_task_ns").unwrap().count, 6);
        assert_eq!(snap.histogram("opr_pool_stage_ns").unwrap().count, 1);
        // Serial pools record the same shape.
        let serial = RunPool::serial().with_metrics(&registry);
        let _ = values(serial.run_batch(vec![|| 1u64]));
        assert_eq!(registry.snapshot().counter("opr_pool_tasks_total"), 7);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = RunPool::new(4);
        let results: Vec<TaskResult<u64>> = pool.run_batch(Vec::<fn() -> u64>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn distinct_batches_share_the_fixed_workers() {
        // The pool spawns exactly `jobs` workers once; a batch larger than
        // the worker count still completes, and thread names confirm the
        // work ran on pool workers.
        let pool = RunPool::new(2);
        let tasks: Vec<_> = (0..10)
            .map(|_| {
                || {
                    std::thread::current()
                        .name()
                        .unwrap_or_default()
                        .to_string()
                }
            })
            .collect();
        let names = values(pool.run_batch(tasks));
        assert_eq!(names.len(), 10);
        for name in &names {
            assert!(name.starts_with("opr-exec-"), "{name}");
        }
        let distinct: std::collections::BTreeSet<&String> = names.iter().collect();
        assert!(distinct.len() <= 2);
    }
}
