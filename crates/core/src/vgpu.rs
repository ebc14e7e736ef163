//! A virtual GPU device: one stream, launches, host callbacks and graphs.
//!
//! Reproduces the CUDA execution semantics the paper's scheduler relies
//! on, with a dedicated device thread standing in for the GPU:
//!
//! * **One in-order stream** — ops execute in submission order. The
//!   engine's whole step runs on it, so it is the only stream.
//! * **Kernel launches** — each individually-launched op pays a
//!   configurable launch latency on the device timeline (16 µs for
//!   Fiddler's Python path, 5 µs for C++ paths; Figure 4).
//! * **Host functions** — `cudaLaunchHostFunc` analogs: host code that
//!   runs *inside* the stream, used to hand work to the CPU backend and
//!   to collect it without breaking the stream (§3.3).
//! * **Graph capture/replay** — a captured op sequence replays with a
//!   single launch cost, which is how KTransformers fits the entire
//!   decode path into one CUDA Graph.
//! * **Sticky stream faults** — an op that panics is caught on the
//!   device thread and counted complete; it poisons the stream, whose
//!   later ops are skipped (and counted complete) until
//!   [`VirtualGpu::synchronize`] reports the panic as an error. The
//!   device thread survives, so the stream is usable again afterwards.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::EngineError;

/// A device op's body: a kernel or an in-stream host callback.
pub type DeviceFn = Arc<dyn Fn() + Send + Sync>;

/// Device configuration.
#[derive(Debug, Clone, Copy)]
pub struct VgpuConfig {
    /// Latency charged per individually-launched op.
    pub launch_latency: Duration,
    /// Latency charged once per graph replay.
    pub graph_launch_latency: Duration,
}

impl Default for VgpuConfig {
    fn default() -> Self {
        VgpuConfig {
            launch_latency: Duration::ZERO,
            graph_launch_latency: Duration::ZERO,
        }
    }
}

/// A device op: a compute kernel or an in-stream host callback.
#[derive(Clone)]
enum Op {
    Kernel(DeviceFn),
    HostFunc(DeviceFn),
}

/// A captured, replayable op sequence.
#[derive(Clone)]
pub struct GraphHandle {
    ops: Arc<Vec<Op>>,
}

impl GraphHandle {
    /// Number of captured ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl std::fmt::Debug for GraphHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphHandle")
            .field("ops", &self.ops.len())
            .finish()
    }
}

/// Launch accounting, mirroring the quantities of Figure 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Individually launched kernels.
    pub kernel_launches: u64,
    /// Host-function callbacks executed in-stream.
    pub host_funcs: u64,
    /// Graph replays (each is ONE launch regardless of graph size).
    pub graph_replays: u64,
    /// Ops executed via graph replay (launch-free).
    pub graph_ops: u64,
    /// Total simulated launch-latency nanoseconds charged.
    pub launch_overhead_ns: u64,
    /// Nanoseconds the device spent executing ops (excludes launch
    /// latency and idle gaps) — the numerator of GPU utilization.
    pub busy_ns: u64,
}

struct QueueItem {
    op: Op,
    launch_cost: Duration,
}

#[derive(Default)]
struct DeviceState {
    queue: VecDeque<QueueItem>,
    /// Ops submitted to and completed on the stream.
    submitted: u64,
    completed: u64,
    /// Panic message of the first op that panicked since the last
    /// `synchronize` (a poisoned stream skips its ops).
    fault: Option<String>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<DeviceState>,
    cv: Condvar,
    done_cv: Condvar,
    kernel_launches: AtomicU64,
    host_funcs: AtomicU64,
    graph_replays: AtomicU64,
    graph_ops: AtomicU64,
    launch_overhead_ns: AtomicU64,
    busy_ns: AtomicU64,
    capturing: AtomicBool,
}

/// The virtual GPU device.
pub struct VirtualGpu {
    shared: Arc<Shared>,
    cfg: VgpuConfig,
    device_thread: Option<JoinHandle<()>>,
    capture_buf: Mutex<Vec<Op>>,
}

impl VirtualGpu {
    /// Spawns the device thread.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] when the thread cannot be spawned.
    pub fn new(cfg: VgpuConfig) -> Result<Self, EngineError> {
        let shared = Arc::new(Shared {
            state: Mutex::new(DeviceState::default()),
            cv: Condvar::new(),
            done_cv: Condvar::new(),
            kernel_launches: AtomicU64::new(0),
            host_funcs: AtomicU64::new(0),
            graph_replays: AtomicU64::new(0),
            graph_ops: AtomicU64::new(0),
            launch_overhead_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            capturing: AtomicBool::new(false),
        });
        // The stream gets its own named trace track, so CPU/GPU overlap
        // renders on separate rows.
        kt_trace::sink().name_track(kt_trace::stream_track(0), "vGPU stream 0");
        let worker_shared = Arc::clone(&shared);
        let device_thread = std::thread::Builder::new()
            .name("kt-vgpu".into())
            .spawn(move || device_loop(worker_shared))
            .map_err(|e| EngineError::config(format!("failed to spawn device thread: {e}")))?;
        Ok(VirtualGpu {
            shared,
            cfg,
            device_thread: Some(device_thread),
            capture_buf: Mutex::new(Vec::new()),
        })
    }

    fn enqueue(&self, op: Op, launch_cost: Duration) {
        let mut st = self.shared.state.lock();
        st.submitted += 1;
        st.queue.push_back(QueueItem { op, launch_cost });
        self.shared.cv.notify_one();
    }

    /// Launches a kernel. While capturing, the op is recorded instead
    /// of executed.
    pub fn launch_kernel(&self, f: DeviceFn) {
        let op = Op::Kernel(f);
        if self.shared.capturing.load(Ordering::Acquire) {
            self.capture_buf.lock().push(op);
            return;
        }
        self.shared.kernel_launches.fetch_add(1, Ordering::Relaxed);
        self.enqueue(op, self.cfg.launch_latency);
    }

    /// Launches an in-stream host callback (`cudaLaunchHostFunc`).
    pub fn launch_host_func(&self, f: DeviceFn) {
        let op = Op::HostFunc(f);
        if self.shared.capturing.load(Ordering::Acquire) {
            self.capture_buf.lock().push(op);
            return;
        }
        self.shared.host_funcs.fetch_add(1, Ordering::Relaxed);
        self.enqueue(op, self.cfg.launch_latency);
    }

    /// Begins capturing ops instead of executing them.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] if a capture is already active.
    pub fn begin_capture(&self) -> Result<(), EngineError> {
        if self.shared.capturing.swap(true, Ordering::AcqRel) {
            return Err(EngineError::exec("capture already in progress"));
        }
        self.capture_buf.lock().clear();
        Ok(())
    }

    /// Ends capture, returning the replayable graph.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] if no capture is active.
    pub fn end_capture(&self) -> Result<GraphHandle, EngineError> {
        if !self.shared.capturing.swap(false, Ordering::AcqRel) {
            return Err(EngineError::exec("no capture in progress"));
        }
        let ops = std::mem::take(&mut *self.capture_buf.lock());
        Ok(GraphHandle { ops: Arc::new(ops) })
    }

    /// Replays a captured graph with a **single** launch cost,
    /// regardless of how many ops it contains.
    pub fn launch_graph(&self, graph: &GraphHandle) {
        if kt_trace::enabled() {
            kt_trace::record_on(
                kt_trace::stream_track(0),
                kt_trace::SpanKind::VgpuGraphReplay,
                kt_trace::now_ns(),
                0,
                0,
                graph.ops.len() as u32,
            );
        }
        self.shared.graph_replays.fetch_add(1, Ordering::Relaxed);
        self.shared
            .graph_ops
            .fetch_add(graph.ops.len() as u64, Ordering::Relaxed);
        let mut first = true;
        for op in graph.ops.iter() {
            let cost = if first {
                self.cfg.graph_launch_latency
            } else {
                Duration::ZERO
            };
            first = false;
            // Host funcs inside graphs are still host funcs for stats.
            if matches!(op, Op::HostFunc(_)) {
                self.shared.host_funcs.fetch_add(1, Ordering::Relaxed);
            }
            self.enqueue(op.clone(), cost);
        }
    }

    /// Blocks until every submitted op has executed (or been skipped
    /// behind a panicked op), then clears the stream's fault.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] carrying the panic message when an
    /// op panicked since the last synchronization.
    pub fn synchronize(&self) -> Result<(), EngineError> {
        let mut st = self.shared.state.lock();
        while st.completed < st.submitted {
            self.shared.done_cv.wait(&mut st);
        }
        match st.fault.take() {
            Some(msg) => Err(EngineError::exec(format!("device op panicked: {msg}"))),
            None => Ok(()),
        }
    }

    /// Launch accounting snapshot.
    pub fn stats(&self) -> LaunchStats {
        LaunchStats {
            kernel_launches: self.shared.kernel_launches.load(Ordering::Relaxed),
            host_funcs: self.shared.host_funcs.load(Ordering::Relaxed),
            graph_replays: self.shared.graph_replays.load(Ordering::Relaxed),
            graph_ops: self.shared.graph_ops.load(Ordering::Relaxed),
            launch_overhead_ns: self.shared.launch_overhead_ns.load(Ordering::Relaxed),
            busy_ns: self.shared.busy_ns.load(Ordering::Relaxed),
        }
    }
}

impl Drop for VirtualGpu {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        if let Some(h) = self.device_thread.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for VirtualGpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualGpu")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

fn device_loop(shared: Arc<Shared>) {
    loop {
        let (item, poisoned) = {
            let mut st = shared.state.lock();
            loop {
                if let Some(item) = st.queue.pop_front() {
                    break (item, st.fault.is_some());
                }
                if st.shutdown {
                    return;
                }
                shared.cv.wait(&mut st);
            }
        };
        let tracing = kt_trace::enabled();
        let track = kt_trace::stream_track(0);
        if !item.launch_cost.is_zero() {
            // Simulated launch latency occupies the device timeline.
            shared
                .launch_overhead_ns
                .fetch_add(item.launch_cost.as_nanos() as u64, Ordering::Relaxed);
            let t0 = if tracing { kt_trace::now_ns() } else { 0 };
            spin_for(item.launch_cost);
            if tracing {
                let t1 = kt_trace::now_ns();
                kt_trace::record_on(
                    track,
                    kt_trace::SpanKind::VgpuLaunch,
                    t0,
                    t1.saturating_sub(t0),
                    0,
                    0,
                );
            }
        }
        let t0 = if tracing { kt_trace::now_ns() } else { 0 };
        let op_start = std::time::Instant::now();
        let panicked = if poisoned {
            None
        } else {
            let (Op::Kernel(f) | Op::HostFunc(f)) = &item.op;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f()))
                .err()
                .map(|p| panic_message(&*p))
        };
        shared
            .busy_ns
            .fetch_add(op_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if tracing {
            let kind = match &item.op {
                Op::Kernel(_) => kt_trace::SpanKind::VgpuKernel,
                Op::HostFunc(_) => kt_trace::SpanKind::VgpuHostFunc,
            };
            let t1 = kt_trace::now_ns();
            kt_trace::record_on(track, kind, t0, t1.saturating_sub(t0), 0, 0);
        }
        let mut st = shared.state.lock();
        if let Some(msg) = panicked {
            st.fault.get_or_insert(msg);
        }
        st.completed += 1;
        shared.done_cv.notify_all();
    }
}

/// The message a panic was raised with, if it carried one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Busy-waits for `d` (sleep granularity on Linux is too coarse for
/// microsecond launch costs).
fn spin_for(d: Duration) {
    let start = std::time::Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn gpu(cfg: VgpuConfig) -> VirtualGpu {
        VirtualGpu::new(cfg).unwrap()
    }

    fn op(f: impl Fn() + Send + Sync + 'static) -> DeviceFn {
        Arc::new(f)
    }

    #[test]
    fn stream_order_is_preserved() {
        let g = gpu(VgpuConfig::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..20 {
            let log = Arc::clone(&log);
            g.launch_kernel(op(move || log.lock().push(i)));
        }
        g.synchronize().unwrap();
        assert_eq!(*log.lock(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn host_funcs_interleave_in_stream_order() {
        let g = gpu(VgpuConfig::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        let l3 = Arc::clone(&log);
        g.launch_kernel(op(move || l1.lock().push("k1")));
        g.launch_host_func(op(move || l2.lock().push("host")));
        g.launch_kernel(op(move || l3.lock().push("k2")));
        g.synchronize().unwrap();
        assert_eq!(*log.lock(), vec!["k1", "host", "k2"]);
    }

    #[test]
    fn synchronize_blocks_until_done() {
        let g = gpu(VgpuConfig::default());
        let flag = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&flag);
        g.launch_kernel(op(move || {
            std::thread::sleep(Duration::from_millis(20));
            f.store(true, Ordering::Release);
        }));
        g.synchronize().unwrap();
        assert!(flag.load(Ordering::Acquire));
    }

    #[test]
    fn capture_records_without_executing() {
        let g = gpu(VgpuConfig::default());
        let count = Arc::new(AtomicUsize::new(0));
        g.begin_capture().unwrap();
        for _ in 0..5 {
            let c = Arc::clone(&count);
            g.launch_kernel(op(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let graph = g.end_capture().unwrap();
        assert_eq!(graph.len(), 5);
        g.synchronize().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 0, "capture must not execute");

        g.launch_graph(&graph);
        g.launch_graph(&graph);
        g.synchronize().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 10);
        let stats = g.stats();
        assert_eq!(stats.graph_replays, 2);
        assert_eq!(stats.graph_ops, 10);
        assert_eq!(stats.kernel_launches, 0);
    }

    #[test]
    fn double_capture_is_rejected() {
        let g = gpu(VgpuConfig::default());
        g.begin_capture().unwrap();
        assert!(g.begin_capture().is_err());
        let _ = g.end_capture().unwrap();
        assert!(g.end_capture().is_err());
    }

    #[test]
    fn launch_latency_is_charged_per_kernel_but_once_per_graph() {
        let lat = Duration::from_micros(500);
        let g = gpu(VgpuConfig {
            launch_latency: lat,
            graph_launch_latency: lat,
        });
        // 10 individual launches charge ~10x latency.
        for _ in 0..10 {
            g.launch_kernel(op(|| {}));
        }
        g.synchronize().unwrap();
        let individual = g.stats().launch_overhead_ns;
        assert!(individual >= 10 * 500_000, "individual={individual}");

        // The same 10 ops replayed as a graph charge ~1x latency.
        g.begin_capture().unwrap();
        for _ in 0..10 {
            g.launch_kernel(op(|| {}));
        }
        let graph = g.end_capture().unwrap();
        g.launch_graph(&graph);
        g.synchronize().unwrap();
        let graphed = g.stats().launch_overhead_ns - individual;
        assert!(
            graphed < individual / 5,
            "graphed={graphed} individual={individual}"
        );
    }

    #[test]
    fn spin_kernel_can_wait_on_host_progress() {
        // The §3.3 pattern: a kernel spins on a flag another thread
        // sets — the decode graph's "wait for CPU experts" op.
        let g = gpu(VgpuConfig::default());
        let flag = Arc::new(AtomicBool::new(false));
        let observed = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&flag);
        let o = Arc::clone(&observed);
        g.launch_kernel(op(move || {
            while !f.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            o.store(true, Ordering::Release);
        }));
        std::thread::sleep(Duration::from_millis(10));
        flag.store(true, Ordering::Release);
        g.synchronize().unwrap();
        assert!(observed.load(Ordering::Acquire));
    }

    #[test]
    fn panicking_op_poisons_its_stream_until_synchronize() {
        let g = gpu(VgpuConfig::default());
        let ran = Arc::new(AtomicUsize::new(0));
        let r1 = Arc::clone(&ran);
        g.launch_kernel(op(|| panic!("bad op")));
        g.launch_kernel(op(move || {
            r1.fetch_add(1, Ordering::Relaxed);
        }));
        let err = g.synchronize().unwrap_err();
        assert!(err.to_string().contains("bad op"), "{err}");
        // The stream skipped the op behind the panic.
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        // The device thread survived and the fault was cleared.
        let r2 = Arc::clone(&ran);
        g.launch_kernel(op(move || {
            r2.fetch_add(1, Ordering::Relaxed);
        }));
        g.synchronize().unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }
}
