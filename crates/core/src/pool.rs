//! A persistent worker pool amortizing per-batch thread spawn.
//!
//! Every [`Sampler`](crate::sampler::Sampler) batch runs on a
//! [`WorkerPool`]: workers are spawned once (with
//! [`std::thread::Builder`], growing on demand), pull boxed tasks from a
//! shared [`std::sync::mpsc`] channel, and are reused by every
//! subsequent batch, so a call pays no thread spawns or joins. Task 0
//! of each call runs inline on the calling thread, so a one-task call
//! never touches the queue. No external crates (no crossbeam), no
//! `unsafe`.
//!
//! Because batch output is derived *by scene index* (see
//! [`derive_scene_seed`](crate::sampler::derive_scene_seed)), which
//! threads run which task can never change the result — the pool is a
//! pure latency/throughput knob, exactly like the worker count itself.
//!
//! The process-wide pool used by the sampler is [`WorkerPool::global`];
//! independent pools can be built for isolation (e.g. tests asserting
//! reuse) and join their workers on drop.
//!
//! # Example
//!
//! ```
//! use scenic_core::pool::WorkerPool;
//!
//! let pool = WorkerPool::new(2);
//! // Fan a computation out as 4 tasks; results come back in task order.
//! let squares = pool.try_execute(4, |task| task * task);
//! assert_eq!(squares, Ok(vec![0, 1, 4, 9]));
//! // The same threads serve the next call — nothing is respawned.
//! let doubled = pool.try_execute(3, |task| task * 2);
//! assert_eq!(doubled, Ok(vec![0, 2, 4]));
//! assert!(pool.workers() <= 3);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A unit of work shipped to a pool thread.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads fed from one shared queue.
///
/// Workers are spawned lazily: the pool starts with the requested
/// thread count and [grows](WorkerPool::ensure_workers) whenever a call
/// asks for more concurrency than it currently has, up to the largest
/// `tasks` value ever requested, paying each spawn once per pool
/// instead of once per batch.
///
/// Dropping a non-global pool closes the queue and joins every worker;
/// the [`WorkerPool::global`] instance lives for the whole process.
pub struct WorkerPool {
    /// Producer side of the shared task queue. `None` only during drop.
    injector: Option<Sender<Task>>,
    /// Consumer side, shared by all workers (one blocks in `recv` at a
    /// time; the rest wait on the mutex — pickup is serialized, the
    /// tasks themselves run in parallel).
    queue: Arc<Mutex<Receiver<Task>>>,
    /// Live worker threads.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (at least one).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let (injector, receiver) = channel::<Task>();
        let pool = WorkerPool {
            injector: Some(injector),
            queue: Arc::new(Mutex::new(receiver)),
            workers: Mutex::new(Vec::new()),
        };
        pool.ensure_workers(threads.max(1));
        pool
    }

    /// The process-wide pool behind
    /// [`Sampler::sample_batch`](crate::sampler::Sampler::sample_batch).
    ///
    /// Starts with a single worker and grows to the largest concurrency
    /// any batch requests; its threads are never joined (they idle in
    /// `recv` until process exit).
    #[must_use]
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(1))
    }

    /// Number of worker threads currently alive.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
            .lock()
            .expect("pool worker list poisoned")
            .len()
    }

    /// Grows the pool to at least `threads` workers (never shrinks).
    pub fn ensure_workers(&self, threads: usize) {
        let mut workers = self.workers.lock().expect("pool worker list poisoned");
        while workers.len() < threads {
            let queue = Arc::clone(&self.queue);
            let name = format!("scenic-pool-{}", workers.len());
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || loop {
                    // Take the next task while holding the queue lock,
                    // then release it before running so other workers
                    // can pick up in parallel.
                    let task = {
                        let queue = queue.lock().expect("pool queue poisoned");
                        queue.recv()
                    };
                    match task {
                        // A panicking task must not take the worker
                        // down with it: the pool would silently lose
                        // capacity. `try_execute` reports the panic to
                        // the submitting thread via its result channel.
                        Ok(task) => drop(catch_unwind(AssertUnwindSafe(task))),
                        Err(_) => break, // queue closed: pool dropped
                    }
                })
                .expect("failed to spawn pool worker");
            workers.push(handle);
        }
    }

    /// Enqueues one fire-and-forget task. The task runs on some pool
    /// worker at queue order; a panic inside it is caught (the worker
    /// survives) and otherwise ignored.
    fn submit(&self, task: impl FnOnce() + Send + 'static) {
        self.injector
            .as_ref()
            .expect("pool queue closed")
            .send(Box::new(task))
            .expect("pool workers gone");
    }

    /// Runs `tasks` copies of `worker` (passed its task index) and
    /// returns their results in task-index order.
    ///
    /// Task `0` runs inline on the calling thread — so progress is
    /// guaranteed even if every pool worker is busy — while tasks
    /// `1..tasks` are enqueued; the pool is grown so they can all run
    /// concurrently. Blocks until every task finishes.
    ///
    /// A panicking task, inline or pooled, yields an `Err` with the
    /// panic message instead of unwinding through the caller. All tasks
    /// still run to completion first, so the pool is quiescent either
    /// way — callers (the sampler, and through it the `scenicd` daemon)
    /// report a structured error and keep serving.
    ///
    /// # Errors
    ///
    /// The message of the first (lowest-index) panicking task; string
    /// payloads are passed through, anything else reports as an opaque
    /// panic.
    pub fn try_execute<T, F>(&self, tasks: usize, worker: F) -> Result<Vec<T>, String>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if tasks == 0 {
            return Ok(Vec::new());
        }
        self.ensure_workers(tasks - 1);
        let worker = Arc::new(worker);
        let (results_tx, results_rx) = channel();
        for task in 1..tasks {
            let worker = Arc::clone(&worker);
            let results_tx: Sender<(usize, std::thread::Result<T>)> = results_tx.clone();
            self.submit(move || {
                let result = catch_unwind(AssertUnwindSafe(|| worker(task)));
                // The receiver outlives every task (we hold it below
                // until all results arrive), so the send cannot fail.
                let _ = results_tx.send((task, result));
            });
        }
        let inline = catch_unwind(AssertUnwindSafe(|| worker(0)));

        let mut slots: Vec<Option<std::thread::Result<T>>> = Vec::new();
        slots.resize_with(tasks, || None);
        slots[0] = Some(inline);
        for _ in 1..tasks {
            let (task, result) = results_rx.recv().expect("pool worker lost a result");
            slots[task] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| match slot.expect("every task reported") {
                Ok(value) => Ok(value),
                Err(panic) => Err(panic_message(&*panic)),
            })
            .collect()
    }
}

/// Extracts a human-readable message from a caught panic payload
/// (`panic!("...")` and `assert!` produce `&str` or `String` payloads;
/// anything else is opaque).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel wakes every idle worker with a recv
        // error; join them so no thread outlives the pool.
        self.injector.take();
        let workers = std::mem::take(&mut *self.workers.lock().expect("pool worker list poisoned"));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn execute_returns_results_in_task_order() {
        let pool = WorkerPool::new(3);
        let out = pool.try_execute(8, |task| task + 100);
        assert_eq!(out, Ok((100..108).collect::<Vec<_>>()));
    }

    #[test]
    fn pool_reuses_threads_across_calls() {
        let pool = WorkerPool::new(2);
        pool.try_execute(4, |_| ()).unwrap();
        let after_first = pool.workers();
        pool.try_execute(4, |_| ()).unwrap();
        assert_eq!(pool.workers(), after_first, "second call respawned");
        assert!(after_first <= 3, "grew past requested concurrency");
    }

    #[test]
    fn grows_on_demand_never_shrinks() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        pool.try_execute(5, |_| ()).unwrap();
        assert_eq!(pool.workers(), 4, "5 tasks need 4 pool workers");
        pool.try_execute(2, |_| ()).unwrap();
        assert_eq!(pool.workers(), 4, "pools never shrink");
    }

    #[test]
    fn submit_runs_fire_and_forget_tasks() {
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers, so every task has run
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn execute_zero_tasks_is_empty() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.try_execute(0, |task| task), Ok(Vec::new()));
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        // Task 0 runs inline on the caller: its panic must come back as
        // an Err too, for one task or many, never unwind the caller.
        let pool = WorkerPool::new(2);
        for tasks in [1, 4] {
            let message = pool
                .try_execute(tasks, |task| {
                    assert!(task != 0, "inline task exploded");
                    task
                })
                .expect_err("inline panic should surface as Err");
            assert!(message.contains("inline task exploded"), "{message}");
        }
        // The pool still works afterwards.
        assert_eq!(pool.try_execute(3, |task| task), Ok(vec![0, 1, 2]));
    }

    #[test]
    fn try_execute_surfaces_panic_as_err_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = pool.try_execute(4, |task| {
            assert!(task != 2, "task 2 exploded");
            task
        });
        let message = result.expect_err("panic should surface as Err");
        assert!(message.contains("task 2 exploded"), "{message}");
        // The pool keeps serving — no thread was lost, nothing poisoned.
        assert_eq!(pool.try_execute(3, |task| task), Ok(vec![0, 1, 2]));
    }

    #[test]
    fn try_execute_reports_lowest_index_panic() {
        let pool = WorkerPool::new(3);
        let message = pool
            .try_execute(4, |task| {
                assert!(task == 0, "task {task} exploded");
            })
            .expect_err("panics should surface as Err");
        assert!(message.contains("task 1 exploded"), "{message}");
    }

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(WorkerPool::global().workers() >= 1);
    }
}
