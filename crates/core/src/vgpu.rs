//! A virtual GPU device: one stream, launches, host callbacks and graphs.
//!
//! Reproduces the CUDA execution semantics the paper's scheduler relies
//! on. The stream is an in-order queue that the thread waiting on it
//! drains: launches append and return at once, and
//! [`VirtualGpu::synchronize`] runs every queued op on the calling
//! thread. The CPU/GPU overlap of §3.3 comes from the CPU backend's
//! workers running expert tasks while the caller runs the stream.
//!
//! * **One in-order stream** — ops execute in submission order. The
//!   engine's whole step runs on it, so it is the only stream.
//! * **Kernel launches** — each individually-launched op pays a
//!   configurable launch latency on the device timeline (16 µs for
//!   Fiddler's Python path, 5 µs for C++ paths; Figure 4).
//! * **Host functions** — `cudaLaunchHostFunc` analogs: host code that
//!   runs *inside* the stream, used to hand work to the CPU backend and
//!   to collect it without breaking the stream (§3.3). As in CUDA, an
//!   op must not call back into its own device.
//! * **Graph capture/replay** — a captured op sequence replays with a
//!   single launch cost, which is how KTransformers fits the entire
//!   decode path into one CUDA Graph.
//! * **Sticky stream faults** — an op that panics is caught; it poisons
//!   the rest of the drain, whose later ops are skipped, and
//!   [`VirtualGpu::synchronize`] reports the panic as an error. The
//!   stream is usable again afterwards.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

#[derive(Default)]
struct Stream {
    /// Launched ops, each with the launch latency it pays.
    queue: VecDeque<(Op, Duration)>,
    /// Ops recorded by the active capture, if any.
    capture: Option<Vec<Op>>,
}

/// The virtual GPU device.
pub struct VirtualGpu {
    cfg: VgpuConfig,
    /// Held by `synchronize` for the whole drain, so concurrent callers
    /// queue behind it and the stream stays in order.
    stream: Mutex<Stream>,
    /// Apart from `stream`, so a reader never waits for a drain.
    stats: Mutex<LaunchStats>,
}

impl VirtualGpu {
    /// Creates the device and names its stream's trace track.
    pub fn new(cfg: VgpuConfig) -> Self {
        // The stream gets its own named trace track, so CPU/GPU overlap
        // renders on separate rows.
        kt_trace::sink().name_track(kt_trace::stream_track(0), "vGPU stream 0");
        VirtualGpu {
            cfg,
            stream: Mutex::new(Stream::default()),
            stats: Mutex::new(LaunchStats::default()),
        }
    }

    /// Queues `op`, or records it while capturing.
    fn launch(&self, op: Op) {
        let mut s = self.stream.lock();
        if let Some(buf) = &mut s.capture {
            buf.push(op);
            return;
        }
        {
            let mut stats = self.stats.lock();
            match op {
                Op::Kernel(_) => stats.kernel_launches += 1,
                Op::HostFunc(_) => stats.host_funcs += 1,
            }
        }
        s.queue.push_back((op, self.cfg.launch_latency));
    }

    /// Launches a kernel. While capturing, the op is recorded instead
    /// of executed.
    pub fn launch_kernel(&self, f: DeviceFn) {
        self.launch(Op::Kernel(f));
    }

    /// Launches an in-stream host callback (`cudaLaunchHostFunc`).
    pub fn launch_host_func(&self, f: DeviceFn) {
        self.launch(Op::HostFunc(f));
    }

    /// Begins capturing ops instead of executing them.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] if a capture is already active.
    pub fn begin_capture(&self) -> Result<(), EngineError> {
        let mut s = self.stream.lock();
        if s.capture.is_some() {
            return Err(EngineError::exec("capture already in progress"));
        }
        s.capture = Some(Vec::new());
        Ok(())
    }

    /// Ends capture, returning the replayable graph.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] if no capture is active.
    pub fn end_capture(&self) -> Result<GraphHandle, EngineError> {
        let ops = self
            .stream
            .lock()
            .capture
            .take()
            .ok_or_else(|| EngineError::exec("no capture in progress"))?;
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
        let mut s = self.stream.lock();
        {
            let mut stats = self.stats.lock();
            stats.graph_replays += 1;
            stats.graph_ops += graph.ops.len() as u64;
            // Host funcs inside graphs are still host funcs for stats.
            stats.host_funcs += graph
                .ops
                .iter()
                .filter(|op| matches!(op, Op::HostFunc(_)))
                .count() as u64;
        }
        let mut cost = self.cfg.graph_launch_latency;
        for op in graph.ops.iter() {
            s.queue.push_back((op.clone(), std::mem::take(&mut cost)));
        }
    }

    /// Runs every queued op, in order, on the calling thread. An op
    /// that panics poisons the rest of the drain: every later op is
    /// skipped, and the stream is clean again on return.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] carrying the panic message when an
    /// op panicked.
    pub fn synchronize(&self) -> Result<(), EngineError> {
        let mut s = self.stream.lock();
        let tracing = kt_trace::enabled();
        let track = kt_trace::stream_track(0);
        let (mut overhead_ns, mut busy_ns) = (0u64, 0u64);
        let mut fault = None;
        while let Some((op, launch_cost)) = s.queue.pop_front() {
            if fault.is_some() {
                continue;
            }
            if !launch_cost.is_zero() {
                // Simulated launch latency occupies the device timeline.
                overhead_ns += launch_cost.as_nanos() as u64;
                let t0 = if tracing { kt_trace::now_ns() } else { 0 };
                spin_for(launch_cost);
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
            let op_start = Instant::now();
            let (Op::Kernel(f) | Op::HostFunc(f)) = &op;
            fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f()))
                .err()
                .map(|p| panic_message(&*p));
            busy_ns += op_start.elapsed().as_nanos() as u64;
            if tracing {
                let kind = match op {
                    Op::Kernel(_) => kt_trace::SpanKind::VgpuKernel,
                    Op::HostFunc(_) => kt_trace::SpanKind::VgpuHostFunc,
                };
                let t1 = kt_trace::now_ns();
                kt_trace::record_on(track, kind, t0, t1.saturating_sub(t0), 0, 0);
            }
        }
        drop(s);
        {
            let mut stats = self.stats.lock();
            stats.launch_overhead_ns += overhead_ns;
            stats.busy_ns += busy_ns;
        }
        match fault {
            Some(msg) => Err(EngineError::exec(format!("device op panicked: {msg}"))),
            None => Ok(()),
        }
    }

    /// Launch accounting snapshot.
    pub fn stats(&self) -> LaunchStats {
        *self.stats.lock()
    }
}

impl std::fmt::Debug for VirtualGpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualGpu")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
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
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn gpu(cfg: VgpuConfig) -> VirtualGpu {
        VirtualGpu::new(cfg)
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
        // sets — the decode graph's "wait for CPU experts" op. The
        // flag is set while `synchronize` runs the spinning op.
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
        let setter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            flag.store(true, Ordering::Release);
        });
        g.synchronize().unwrap();
        setter.join().unwrap();
        assert!(observed.load(Ordering::Acquire));
    }

    #[test]
    fn ops_run_on_the_synchronizing_thread() {
        let g = gpu(VgpuConfig::default());
        let ids = Arc::new(Mutex::new(Vec::new()));
        let record = |ids: &Arc<Mutex<Vec<std::thread::ThreadId>>>| {
            let ids = Arc::clone(ids);
            op(move || ids.lock().push(std::thread::current().id()))
        };
        g.begin_capture().unwrap();
        g.launch_kernel(record(&ids));
        g.launch_host_func(record(&ids));
        let graph = g.end_capture().unwrap();
        g.launch_kernel(record(&ids));
        g.launch_host_func(record(&ids));
        g.launch_graph(&graph);
        assert!(ids.lock().is_empty(), "launches only queue");
        // Drained from a thread other than the launching one.
        let drainer = std::thread::scope(|s| {
            s.spawn(|| {
                g.synchronize().unwrap();
                std::thread::current().id()
            })
            .join()
            .unwrap()
        });
        assert_ne!(drainer, std::thread::current().id());
        assert_eq!(*ids.lock(), vec![drainer; 4]);
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
        // The fault was cleared with the drain; the stream runs again.
        let r2 = Arc::clone(&ran);
        g.launch_kernel(op(move || {
            r2.fetch_add(1, Ordering::Relaxed);
        }));
        g.synchronize().unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }
}
