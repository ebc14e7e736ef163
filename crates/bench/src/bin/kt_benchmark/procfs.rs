//! What the benchmark observes about its own process and machine.

use std::hint::black_box;
use std::time::Instant;

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) in MB; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Live threads of this process.
pub fn threads() -> Option<u64> {
    status_field("Threads")
}

/// User + system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> Option<f64> {
    // Fields 14/15 of /proc/self/stat, counted after the parenthesised
    // command name (which may itself contain spaces). Linux reports
    // them in USER_HZ ticks, which is 100 on every supported ABI.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// `(stolen, total)` CPU ticks of the machine so far, from the first
/// line of `/proc/stat`. Steal is time a virtual CPU was runnable but
/// the hypervisor ran someone else: a window with a large stolen share
/// measured the neighbours, not the program.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest fields are already counted in user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of machine CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

/// Self-contained machine probes: nothing from the repo's kernels, so
/// they move only when the host does. They are the denominator of the
/// `*_gbs` / `*_gflops` roofline fractions and are never applied to an
/// end-to-end number.
#[derive(Debug, Clone, Copy)]
pub struct HostRef {
    pub stream_gbs: f64,
    pub fma_gflops: f64,
}

/// Read bandwidth over a buffer well past the last-level cache, and
/// register-resident f32 multiply-add rate, best of a few passes each.
pub fn host_probe() -> HostRef {
    const WORDS: usize = 8 << 20; // 64 MiB of u64
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let mut best_stream = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        let mut acc = [0u64; 8];
        for chunk in black_box(&buf).chunks_exact(8) {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a = a.wrapping_add(v);
            }
        }
        black_box(acc);
        let gbs = (WORDS * 8) as f64 / t.elapsed().as_secs_f64() / 1e9;
        best_stream = best_stream.max(gbs);
    }
    drop(buf);

    let mut best_fma = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        let flops = fma_pass();
        best_fma = best_fma.max(flops as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    HostRef {
        stream_gbs: best_stream,
        fma_gflops: best_fma,
    }
}

const FMA_ITERS: usize = 400_000;

/// `LANES` independent f32 accumulators, each doing `FMA_ITERS` fused
/// multiply-adds; returns the FLOPs performed. Inlined into the
/// feature-gated wrappers so the loop is compiled for their ISA.
#[inline(always)]
fn fma_body<const LANES: usize>() -> usize {
    let mut acc = [1.0f32; LANES];
    let a = black_box(1.000_000_1f32);
    let b = black_box(1e-9f32);
    for _ in 0..FMA_ITERS {
        for x in acc.iter_mut() {
            *x = x.mul_add(a, b);
        }
    }
    black_box(acc);
    2 * LANES * FMA_ITERS
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_avx512() -> usize {
    fma_body::<128>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_avx2() -> usize {
    fma_body::<64>()
}

/// One timed pass at the widest FMA the CPU reports — the same
/// run-time choice the repo's kernels make — so the roofline
/// denominator is the machine's, not the baseline x86-64 target's.
fn fma_pass() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU reports AVX-512F, the only requirement
            // of the `target_feature` function.
            return unsafe { fma_avx512() };
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the CPU reports AVX2 and FMA, the only
            // requirements of the `target_feature` function.
            return unsafe { fma_avx2() };
        }
    }
    // No hardware FMA known: multiply and add separately (a software
    // `fmaf` would measure libm, not the machine).
    let mut acc = [1.0f32; 32];
    let a = black_box(1.000_000_1f32);
    let b = black_box(1e-9f32);
    for _ in 0..FMA_ITERS {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    black_box(acc);
    2 * 32 * FMA_ITERS
}
