//! The CPU expert backend: lock-free queue + background workers.
//!
//! §3.3: "A CPU control thread then (i) pushes routed-expert tasks into
//! a lock-free queue and (ii) launches GPU kernels for the shared
//! experts. Background worker threads execute the queued tasks in
//! parallel."
//!
//! Tasks are arbitrary closures; completion is communicated through
//! caller-owned atomic counters so the GPU-side merge kernel can spin
//! on them without any host synchronization (the single-CUDA-Graph
//! requirement).

use crossbeam::queue::SegQueue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::error::EngineError;

/// A unit of CPU work.
pub type CpuTask = Box<dyn FnOnce() + Send>;

struct Shared {
    queue: SegQueue<CpuTask>,
    shutdown: AtomicBool,
}

/// Background worker pool fed by a lock-free queue.
pub struct CpuBackend {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl CpuBackend {
    /// Spawns `n_workers` background threads.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] when `n_workers` is zero.
    pub fn new(n_workers: usize) -> Result<Self, EngineError> {
        if n_workers == 0 {
            return Err(EngineError::config("cpu backend requires >= 1 worker"));
        }
        let shared = Arc::new(Shared {
            queue: SegQueue::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kt-cpu-{i}"))
                    .spawn(move || worker_loop(shared))
                    .map_err(|e| EngineError::config(format!("spawn failed: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CpuBackend { shared, workers })
    }

    /// Enqueues a task (non-blocking, lock-free).
    pub fn submit(&self, task: CpuTask) {
        self.shared.queue.push(task);
    }
}

impl Drop for CpuBackend {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for CpuBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuBackend")
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut idle_spins = 0u32;
    loop {
        if let Some(task) = shared.queue.pop() {
            idle_spins = 0;
            // Isolate task panics: the worker must survive to serve the
            // next request — a poisoned expert computation must not
            // wedge the whole decode pipeline (completion counters of
            // the panicking task are the submitter's responsibility).
            let _ = catch_unwind(AssertUnwindSafe(task));
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Adaptive back-off: spin briefly (decode-latency critical),
        // then yield to avoid starving co-located threads.
        idle_spins += 1;
        if idle_spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn wait_for(pred: impl Fn() -> bool, timeout: Duration) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < timeout {
            if pred() {
                return true;
            }
            std::thread::yield_now();
        }
        pred()
    }

    #[test]
    fn zero_workers_is_rejected() {
        assert!(CpuBackend::new(0).is_err());
    }

    #[test]
    fn all_submitted_tasks_run() {
        let backend = CpuBackend::new(3).unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&count);
            backend.submit(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        assert!(wait_for(
            || count.load(Ordering::Relaxed) == 100,
            Duration::from_secs(5)
        ));
    }

    #[test]
    fn counters_enable_spin_waiting() {
        // The engine's merge pattern: submit N tasks that decrement a
        // counter; a consumer spins until it hits zero.
        let backend = CpuBackend::new(2).unwrap();
        let remaining = Arc::new(AtomicUsize::new(8));
        for _ in 0..8 {
            let r = Arc::clone(&remaining);
            backend.submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(1));
                r.fetch_sub(1, Ordering::AcqRel);
            }));
        }
        assert!(wait_for(
            || remaining.load(Ordering::Acquire) == 0,
            Duration::from_secs(5)
        ));
    }

    #[test]
    fn drop_waits_for_workers_without_losing_running_tasks() {
        let count = Arc::new(AtomicUsize::new(0));
        {
            let backend = CpuBackend::new(2).unwrap();
            for _ in 0..10 {
                let c = Arc::clone(&count);
                backend.submit(Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }));
            }
            // Give workers a moment; drop may race with the tail of the
            // queue, which is fine for shutdown semantics — but nothing
            // already started may be lost.
            assert!(wait_for(
                || count.load(Ordering::Relaxed) == 10,
                Duration::from_secs(5)
            ));
        }
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panicking_task_does_not_kill_workers() {
        let backend = CpuBackend::new(1).unwrap();
        backend.submit(Box::new(|| panic!("poisoned expert")));
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        backend.submit(Box::new(move || {
            d.store(1, Ordering::Release);
        }));
        assert!(wait_for(
            || done.load(Ordering::Acquire) == 1,
            Duration::from_secs(5)
        ));
    }
}
