//! A persistent worker pool for the executor's one threaded phase, the
//! compute phase.
//!
//! Dispatching each superstep's kernels onto fresh
//! [`std::thread::scope`] threads costs a spawn/join cycle per superstep,
//! whose ~10–50 µs dwarfs the work on all but the largest grids. The
//! [`WorkerPool`] here is the DART-style fix: spawn the workers **once
//! per execution**, park them on a `Condvar`, and hand every subsequent
//! batch of kernel jobs to the already-running threads.
//!
//! Std-only by design (`Mutex` + `Condvar` job queue, no crossbeam): the
//! repo bakes in no extra dependencies.
//!
//! ## Scoped batches over a `'static` queue
//!
//! Jobs borrow phase-local state (`&mut NodeShard` chunks, partial-result
//! slots), so they are *not* `'static` — but a shared queue must store
//! `'static` closures. [`WorkerPool::run`] bridges the gap the same way
//! `std::thread::scope` does: it erases the job lifetime (an `unsafe`
//! transmute) and then **blocks until every job of the batch has
//! finished** before returning, so no borrow can outlive the frame that
//! owns it. Panics inside a job are caught on the worker, carried back,
//! and resumed on the submitting thread after the batch completes —
//! matching scoped-spawn semantics, with the pool still usable afterwards.
//!
//! ## Determinism
//!
//! The pool adds no ordering of its own beyond the queue: callers are
//! responsible for only batching jobs that touch disjoint state, and for
//! folding results in a deterministic (shard index) order — the contract
//! the engine's compute phase obeys. Worker count, batch shape and
//! scheduling never influence virtual-time results.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// One unit of batch work: a closure that may borrow from the submitting
/// frame (`'scope`), executed exactly once on some pool worker.
pub type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

struct PoolState {
    queue: VecDeque<Job<'static>>,
    /// Jobs queued or currently executing in the in-flight batch.
    active: usize,
    /// First panic payload caught this batch (later ones are dropped,
    /// like `thread::scope` which propagates one).
    panic: Option<Box<dyn Any + Send + 'static>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for jobs.
    job_ready: Condvar,
    /// The submitter parks here waiting for `active == 0`.
    batch_done: Condvar,
}

/// A fixed-size pool of parked worker threads, created once per
/// execution and reused for every superstep's compute batch. Dropping
/// the pool shuts the workers down and joins them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Spawn `workers` (≥ 1) parked worker threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                active: 0,
                panic: None,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            batch_done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fgdsm-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            handles,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute a batch of jobs on the pool and block until all of them
    /// have finished. Jobs may borrow from the caller's frame; the
    /// barrier below is what makes that sound. If any job panicked, the
    /// first panic is resumed here after the whole batch has drained
    /// (so no job is left running with dangling borrows).
    #[allow(unsafe_code)] // the workspace's one unsafe site, argued below
    pub fn run(&self, jobs: Vec<Job<'_>>) {
        if jobs.is_empty() {
            return;
        }
        // SAFETY: `run` does not return until `active` drops back to
        // zero, i.e. until every job below has finished executing (or
        // panicked and been unwound on its worker). The borrows inside
        // the jobs therefore never outlive this call, even though the
        // queue stores them with an erased ('static) lifetime. This is
        // the same containment argument `std::thread::scope` makes.
        let jobs: Vec<Job<'static>> = jobs
            .into_iter()
            .map(|j| unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(j) })
            .collect();
        let mut st = self.shared.state.lock().unwrap();
        st.active += jobs.len();
        st.queue.extend(jobs);
        drop(st);
        self.shared.job_ready.notify_all();
        let mut st = self.shared.state.lock().unwrap();
        while st.active > 0 {
            st = self.shared.batch_done.wait(st).unwrap();
        }
        if let Some(p) = st.panic.take() {
            drop(st);
            std::panic::resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut st = shared.state.lock().unwrap();
    loop {
        if let Some(job) = st.queue.pop_front() {
            drop(st);
            let outcome = catch_unwind(AssertUnwindSafe(job));
            st = shared.state.lock().unwrap();
            if let Err(p) = outcome {
                if st.panic.is_none() {
                    st.panic = Some(p);
                }
            }
            st.active -= 1;
            if st.active == 0 {
                shared.batch_done.notify_all();
            }
        } else if st.shutdown {
            return;
        } else {
            st = shared.job_ready.wait(st).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    /// The whole point of the pool: many batches run on the *same* OS
    /// threads. Collect worker thread ids across batches and assert the
    /// set never grows past the pool size.
    #[test]
    fn batches_reuse_the_same_workers() {
        let pool = WorkerPool::new(3);
        let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..50 {
            let jobs: Vec<Job> = (0..6)
                .map(|_| {
                    Box::new(|| {
                        ids.lock().unwrap().insert(std::thread::current().id());
                    }) as Job
                })
                .collect();
            pool.run(jobs);
        }
        let ids = ids.into_inner().unwrap();
        assert!(!ids.is_empty());
        assert!(
            ids.len() <= 3,
            "50 batches must reuse the 3 persistent workers, saw {} distinct threads",
            ids.len()
        );
    }

    /// Jobs may borrow the submitting frame mutably (disjoint slots).
    #[test]
    fn jobs_borrow_caller_state() {
        let pool = WorkerPool::new(4);
        let mut slots = vec![0usize; 16];
        let jobs: Vec<Job> = slots
            .iter_mut()
            .enumerate()
            .map(|(i, s)| Box::new(move || *s = i * i) as Job)
            .collect();
        pool.run(jobs);
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(*s, i * i);
        }
    }

    /// A panic inside one job propagates to the submitter — and the
    /// batch still drains completely first, so sibling jobs' borrows
    /// stay contained and the pool remains usable.
    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let jobs: Vec<Job> = (0..8)
            .map(|i| {
                let ran = &ran;
                Box::new(move || {
                    if i == 3 {
                        panic!("kernel exploded on purpose");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                }) as Job
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| pool.run(jobs))).unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("kernel exploded"), "got: {msg}");
        assert_eq!(ran.load(Ordering::SeqCst), 7, "siblings still ran");
        // The pool is not poisoned: the next batch works.
        let cell = AtomicUsize::new(0);
        pool.run(vec![Box::new(|| {
            cell.fetch_add(41, Ordering::SeqCst);
        }) as Job]);
        assert_eq!(cell.load(Ordering::SeqCst), 41);
    }

    /// A size-1 pool behaves exactly like a serial loop over the jobs
    /// (single worker drains the queue in submission order).
    #[test]
    fn pool_of_one_is_serial() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let order = Mutex::new(Vec::new());
        let jobs: Vec<Job> = (0..10)
            .map(|i| {
                let order = &order;
                Box::new(move || order.lock().unwrap().push(i)) as Job
            })
            .collect();
        pool.run(jobs);
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    /// Empty batches are a no-op; drop joins the workers cleanly.
    #[test]
    fn empty_batch_and_clean_shutdown() {
        let pool = WorkerPool::new(2);
        pool.run(Vec::new());
        drop(pool); // must not hang
    }
}
