//! Worker-thread pool with static and dynamic task scheduling.
//!
//! §3.2: "dynamic scheduling partitions large tasks into smaller
//! sequential subtasks in a lightweight task queue. CPU threads
//! dynamically retrieve tasks, significantly reducing imbalance".
//!
//! The pool is persistent (workers are spawned once and parked between
//! jobs, as an inference server would) and offers two policies:
//!
//! * [`SchedulePolicy::Static`] — tasks are split into equal contiguous
//!   ranges per worker up front. This is the baseline that suffers when
//!   expert activation is skewed (some ranges are much heavier).
//! * [`SchedulePolicy::Dynamic`] — workers claim the next task index
//!   from a shared atomic counter (the lightweight task queue), so a
//!   worker that finishes early immediately steals remaining work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::error::KernelError;

/// Task-distribution policy for a pool job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Equal contiguous ranges assigned up front (baseline).
    Static,
    /// Shared-counter work queue; idle workers pull the next task.
    Dynamic,
}

/// Type-erased task function: `f(task_index)`.
type TaskFn = dyn Fn(usize) + Sync;

struct Job {
    /// Erased pointer to the caller's closure.
    ///
    /// Validity: `ThreadPool::run` neither returns nor unwinds until
    /// every job it built has been dropped (see `_done`), and a job is
    /// dropped strictly after the last use of this pointer, so the
    /// pointee outlives all uses.
    f: *const TaskFn,
    n_tasks: usize,
    next: Arc<AtomicUsize>,
    /// Static range for this worker (`None` under dynamic scheduling).
    range: Option<(usize, usize)>,
    panicked: Arc<AtomicBool>,
    /// This job's hold on its run's completion rendezvous: `run` waits
    /// until every clone of the run's sender has dropped. Nothing is
    /// ever sent on it.
    _done: Sender<()>,
}

// SAFETY: The raw closure pointer is only dereferenced while the caller
// blocks in `run` (see `Job::f` validity note); the pointee is `Sync` so
// concurrent shared calls are allowed.
unsafe impl Send for Job {}

/// A persistent pool of worker threads executing index-addressed tasks.
pub struct ThreadPool {
    workers: Vec<JoinHandle<()>>,
    senders: Vec<Sender<Job>>,
    n_threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `n_threads` total execution lanes.
    ///
    /// One lane is the caller's own thread (the paper's CPU control
    /// thread also executes expert work), so `n_threads - 1` workers are
    /// spawned.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Config`] if `n_threads` is zero.
    pub fn new(n_threads: usize) -> Result<Self, KernelError> {
        if n_threads == 0 {
            return Err(KernelError::config("thread pool requires n_threads >= 1"));
        }
        let mut workers = Vec::new();
        let mut senders = Vec::new();
        for i in 0..n_threads.saturating_sub(1) {
            let (tx, rx) = channel::<Job>();
            senders.push(tx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("kt-worker-{i}"))
                    .spawn(move || worker_loop(rx))
                    .expect("failed to spawn worker thread"),
            );
        }
        Ok(ThreadPool {
            workers,
            senders,
            n_threads,
        })
    }

    /// Number of execution lanes (including the caller's thread).
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Runs `n_tasks` tasks, calling `f(i)` exactly once for every
    /// `i in 0..n_tasks`, distributed over all lanes according to
    /// `policy`. Blocks until all tasks complete.
    ///
    /// Several threads may call `run` on one pool at once: each worker
    /// takes its jobs in arrival order, and each call waits only for
    /// its own jobs.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) if any task panicked on a worker thread,
    /// and panics if a worker thread has exited; either way only once
    /// no worker can still call `f`.
    pub fn run<F>(&self, n_tasks: usize, policy: SchedulePolicy, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n_tasks == 0 {
            return;
        }
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: We erase the lifetime of `f_ref` (fat-pointer
        // transmute to the `'static`-bounded alias). The pointer is used
        // only by jobs holding a clone of `done`; below, nothing between
        // here and the rendezvous can unwind (lane 0's tasks run under
        // `catch_unwind`, a failed send hands its job back to be
        // dropped), and the rendezvous waits for every clone to drop,
        // so `f` strictly outlives every dereference.
        let f_ptr: *const TaskFn =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), &TaskFn>(f_ref) };

        let next = Arc::new(AtomicUsize::new(0));
        let panicked = Arc::new(AtomicBool::new(false));
        let (done, all_done) = channel::<()>();
        let mut lost_worker = false;
        let lanes = self.n_threads;

        // Dispatch to workers (lanes 1..n); lane 0 is this thread.
        for (w, tx) in self.senders.iter().enumerate() {
            let lane = w + 1;
            let range = match policy {
                SchedulePolicy::Static => Some(static_range(n_tasks, lanes, lane)),
                SchedulePolicy::Dynamic => None,
            };
            let job = Job {
                f: f_ptr,
                n_tasks,
                next: Arc::clone(&next),
                range,
                panicked: Arc::clone(&panicked),
                _done: done.clone(),
            };
            // A send fails only if the worker has exited; the job comes
            // back in the error and drops here, unrun.
            lost_worker |= tx.send(job).is_err();
        }

        // Participate from the calling thread as lane 0.
        let my_range = match policy {
            SchedulePolicy::Static => Some(static_range(n_tasks, lanes, 0)),
            SchedulePolicy::Dynamic => None,
        };
        execute_tasks(f_ref, n_tasks, &next, my_range, &panicked);

        // Rendezvous: `recv` errs once the last clone of `done` drops,
        // and nothing is ever sent, so it returns exactly then.
        drop(done);
        let _ = all_done.recv();
        assert!(!lost_worker, "worker thread exited unexpectedly");
        if panicked.load(Ordering::Acquire) {
            panic!("a pool task panicked");
        }
    }

    /// Convenience: runs with [`SchedulePolicy::Dynamic`], the paper's
    /// default configuration.
    pub fn run_dynamic<F>(&self, n_tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run(n_tasks, SchedulePolicy::Dynamic, f);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channels makes the worker loops return.
        self.senders.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("n_threads", &self.n_threads)
            .finish()
    }
}

fn worker_loop(rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        // SAFETY: See `Job::f` — the caller blocks until `job` (with
        // its `_done`) is dropped, keeping the closure alive meanwhile.
        let f: &TaskFn = unsafe { &*job.f };
        execute_tasks(f, job.n_tasks, &job.next, job.range, &job.panicked);
        drop(job);
    }
}

fn execute_tasks(
    f: &(dyn Fn(usize) + Sync),
    n_tasks: usize,
    next: &AtomicUsize,
    range: Option<(usize, usize)>,
    panicked: &AtomicBool,
) {
    let result = catch_unwind(AssertUnwindSafe(|| match range {
        Some((start, end)) => {
            for i in start..end {
                f(i);
            }
        }
        None => loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            f(i);
        },
    }));
    if result.is_err() {
        panicked.store(true, Ordering::Release);
    }
}

/// Contiguous static range of `lane` out of `lanes` for `n_tasks` tasks.
fn static_range(n_tasks: usize, lanes: usize, lane: usize) -> (usize, usize) {
    let base = n_tasks / lanes;
    let rem = n_tasks % lanes;
    let start = lane * base + lane.min(rem);
    let len = base + usize::from(lane < rem);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn zero_threads_is_rejected() {
        assert!(ThreadPool::new(0).is_err());
    }

    #[test]
    fn static_ranges_cover_exactly_once() {
        for n_tasks in [0usize, 1, 5, 16, 17, 100] {
            for lanes in [1usize, 2, 3, 8] {
                let mut seen = vec![0u32; n_tasks];
                for lane in 0..lanes {
                    let (s, e) = static_range(n_tasks, lanes, lane);
                    for c in seen.iter_mut().take(e).skip(s) {
                        *c += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "n={n_tasks} lanes={lanes}");
            }
        }
    }

    #[test]
    fn all_tasks_run_exactly_once_each_policy() {
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads).unwrap();
            for policy in [SchedulePolicy::Static, SchedulePolicy::Dynamic] {
                let n = 257;
                let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                pool.run(n, policy, |i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "threads={threads} policy={policy:?}"
                );
            }
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = ThreadPool::new(2).unwrap();
        pool.run_dynamic(0, |_| panic!("must not be called"));
    }

    #[test]
    fn results_can_be_written_through_shared_slice() {
        let pool = ThreadPool::new(3).unwrap();
        let n = 64;
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.run_dynamic(n, |i| {
            out[i].store((i * i) as u64, Ordering::Relaxed);
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), (i * i) as u64);
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = ThreadPool::new(2).unwrap();
        let total = AtomicU64::new(0);
        for _ in 0..10 {
            pool.run_dynamic(100, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }

    #[test]
    #[should_panic(expected = "a pool task panicked")]
    fn worker_panics_propagate() {
        let pool = ThreadPool::new(2).unwrap();
        pool.run_dynamic(8, |i| {
            if i == 5 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn concurrent_runs_share_one_pool() {
        // Two callers drive one pool at once; each run must call every
        // task of its own job exactly once and return, so after run r a
        // caller's counters all read r + 1.
        let pool = ThreadPool::new(3).unwrap();
        for policy in [SchedulePolicy::Static, SchedulePolicy::Dynamic] {
            let n = 97;
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                        for r in 1..=20u64 {
                            pool.run(n, policy, |i| {
                                counts[i].fetch_add(1, Ordering::Relaxed);
                            });
                            assert!(
                                counts.iter().all(|c| c.load(Ordering::Relaxed) == r),
                                "policy={policy:?} run={r}"
                            );
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn failed_dispatch_waits_for_dispatched_jobs_then_panics() {
        // Worker 1's channel is swapped for one whose receiver is gone,
        // so its dispatch fails; worker 1 sees its old channel close and
        // exits. `run` must still wait for worker 2's job before it
        // panics: under dynamic scheduling worker 2 and lane 0 run
        // every task, all of them before `run` unwinds.
        let mut pool = ThreadPool::new(3).unwrap();
        pool.senders[0] = channel().0;
        let n = 64;
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_dynamic(n, |i| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "a lost worker must fail the run");
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn skewed_workloads_complete_under_both_policies() {
        // Functional smoke test for the load-imbalance scenario of §3.2.
        // Wall-clock balance is not assertable on arbitrary hardware, so
        // the dynamic-vs-static comparison is only printed, by
        // `ablation_sched` (simulated layer plus one real-kernel timing).
        let pool = ThreadPool::new(4).unwrap();
        let n = 64;
        let cost = |i: usize| if i < n / 2 { 50u64 } else { 1 };
        for policy in [SchedulePolicy::Static, SchedulePolicy::Dynamic] {
            let total = AtomicU64::new(0);
            pool.run(n, policy, |i| {
                let mut acc = 0u64;
                for _ in 0..cost(i) * 100 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                std::hint::black_box(acc);
                total.fetch_add(cost(i), Ordering::Relaxed);
            });
            let expect: u64 = (0..n).map(cost).sum();
            assert_eq!(total.load(Ordering::Relaxed), expect, "policy={policy:?}");
        }
    }
}
