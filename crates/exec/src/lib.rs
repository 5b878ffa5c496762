#![warn(missing_docs)]
//! Run-level parallel execution with serial observability.
//!
//! Every multi-run driver in this workspace — chaos campaigns, parameter
//! sweeps, experiment tables, soak matrices — executes thousands of
//! *independent* deterministic runs. Each run is exactly reproducible from
//! its inputs and shares no mutable state with any other, so the batch can
//! be spread over threads *iff* callers cannot tell the difference:
//! [`RunPool::run_batch`] executes a batch of closures and returns the
//! results in submission order, so the caller observes exactly the
//! sequence a serial loop would have produced. The determinism-equivalence
//! suite (`tests/exec_equivalence.rs`) holds the pool to that contract
//! bit-for-bit.
//!
//! A pool is a worker count and nothing else. Each batch is one
//! [`std::thread::scope`]: the caller's thread and up to `jobs − 1` helper
//! threads claim tasks in submission order from one shared iterator, each
//! result goes into its task's slot, and the scope ends when every task has
//! run. So tasks may borrow from the caller, and no thread outlives its
//! batch. Panics inside a task are contained per task (`Err(TaskPanic)`,
//! by [`contain`]), never poisoning the pool or hanging the batch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// The most threads one batch runs on: [`RunPool::new`] clamps its worker
/// count to this.
pub const MAX_JOBS: usize = 64;

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

/// Runs `task`, returning its value, or the panic that ended it rendered
/// as a [`TaskPanic`]. Every task of [`RunPool::run_batch`] runs under it.
///
/// # Errors
///
/// Returns the rendered panic payload when `task` panics.
pub fn contain<T>(task: impl FnOnce() -> T) -> Result<T, TaskPanic> {
    catch_unwind(AssertUnwindSafe(task)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        TaskPanic { message }
    })
}

/// How many threads a batch of independent closures may run on.
///
/// `jobs ≤ 1` (including 0) runs every batch inline on the caller's thread;
/// so does a batch of one task. Otherwise [`RunPool::run_batch`] starts
/// `min(jobs, tasks) − 1` helper threads for the batch, and the caller's
/// thread works too.
///
/// # Ordering contract
///
/// [`RunPool::run_batch`] returns results in submission order regardless of
/// which thread ran which task or how long each took. Combined with tasks
/// that are pure functions of their inputs (every run in this workspace),
/// a batch is observationally identical at any worker count.
pub struct RunPool {
    jobs: usize,
}

impl RunPool {
    /// A pool of `jobs` workers (`0` and `1` both mean serial inline
    /// execution), clamped to [`MAX_JOBS`]. Starts no thread.
    pub fn new(jobs: usize) -> Self {
        RunPool {
            jobs: jobs.min(MAX_JOBS),
        }
    }

    /// A serial pool (the degenerate single-worker case) — handy where a
    /// `--jobs` flag defaults to 1.
    pub fn serial() -> Self {
        RunPool::new(1)
    }

    /// Executes every task and returns their results **in submission
    /// order**. A task that panics yields `Err(TaskPanic)` in its slot; the
    /// remaining tasks run to completion and the pool stays usable. A helper
    /// thread the OS refuses to start is not an error: the caller's thread
    /// runs whatever no helper took.
    pub fn run_batch<T, F>(&self, tasks: Vec<F>) -> Vec<TaskResult<T>>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        let helpers = self.jobs.min(tasks.len()).saturating_sub(1);
        if helpers == 0 {
            return tasks.into_iter().map(contain).collect();
        }
        let slots = Mutex::new((0..tasks.len()).map(|_| None).collect::<Vec<_>>());
        let next = Mutex::new(tasks.into_iter().enumerate());
        // Tasks run outside both locks, under `contain`, so a poisoned lock
        // still guards a consistent iterator or slot table.
        let work = || loop {
            let claimed = next.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((index, task)) = claimed else {
                return;
            };
            let result = contain(task);
            slots.lock().unwrap_or_else(PoisonError::into_inner)[index] = Some(result);
        };
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                if std::thread::Builder::new()
                    .spawn_scoped(scope, work)
                    .is_err()
                {
                    break;
                }
            }
            work();
        });
        slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|slot| slot.expect("every slot filled by its task"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

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
        // The pool survives a panicking batch and runs the next one.
        assert_eq!(values(pool.run_batch(vec![|| 9u64])), vec![9]);
    }

    #[test]
    fn degenerate_pools_execute_inline() {
        for jobs in [0, 1] {
            let pool = RunPool::new(jobs);
            let caller = std::thread::current().id();
            let results = pool.run_batch(vec![move || std::thread::current().id() == caller; 3]);
            assert_eq!(values(results), vec![true; 3], "jobs={jobs}");
        }
        // And panic containment matches the parallel path.
        let results = RunPool::serial().run_batch(vec![|| -> u64 { panic!("inline boom") }]);
        assert_eq!(results[0].as_ref().unwrap_err().message, "inline boom");
    }

    #[test]
    fn contain_renders_every_payload_kind() {
        assert_eq!(contain(|| 3), Ok(3));
        let message = |payload: Box<dyn std::any::Any + Send>| {
            contain::<()>(|| std::panic::resume_unwind(payload))
                .unwrap_err()
                .message
        };
        assert_eq!(message(Box::new("static")), "static");
        assert_eq!(message(Box::new(String::from("owned"))), "owned");
        assert_eq!(message(Box::new(7u8)), "non-string panic payload");
    }

    #[test]
    fn exactly_jobs_tasks_run_at_once() {
        let running = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let started = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..12)
            .map(|_| {
                || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    high_water.fetch_max(now, Ordering::SeqCst);
                    started.fetch_add(1, Ordering::SeqCst);
                    // Hold each of the first tasks until three have started,
                    // so three threads, if there are three, overlap; give up
                    // after 10 s so a missing thread fails the test instead
                    // of hanging it.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while started.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        values(RunPool::new(3).run_batch(tasks));
        assert_eq!(high_water.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn tasks_borrow_the_callers_data() {
        // Each task writes through `&mut` into its own element of a vector
        // the caller owns and reads back once the batch returns.
        let mut cells = vec![0u64; 10];
        let tasks: Vec<_> = cells
            .iter_mut()
            .enumerate()
            .map(|(i, cell)| move || *cell = i as u64 * 3)
            .collect();
        values(RunPool::new(4).run_batch(tasks));
        assert_eq!(cells, (0..10).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn an_unbounded_worker_count_is_clamped() {
        let pool = RunPool::new(usize::MAX);
        assert_eq!(pool.jobs, MAX_JOBS);
        let tasks: Vec<_> = (0..3u64).map(|i| move || i + 1).collect();
        assert_eq!(values(pool.run_batch(tasks)), vec![1, 2, 3]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = RunPool::new(4);
        let results: Vec<TaskResult<u64>> = pool.run_batch(Vec::<fn() -> u64>::new());
        assert!(results.is_empty());
    }
}
