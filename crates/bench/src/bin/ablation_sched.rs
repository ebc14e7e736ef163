//! §3.2 ablation: dynamic vs static task scheduling under skewed expert
//! activation — the simulated impact, then the real fused-MoE kernels
//! on a pool of one lane per host thread, both policies checked against
//! the serial forward before they are timed.

use kt_bench::{section, table};
use kt_hwsim::cost::{CpuKernel, CpuMoeOp, KernelPhase};
use kt_hwsim::hardware::CpuSpec;
use kt_hwsim::Calibration;
use kt_kernels::dispatch::Backend;
use kt_kernels::moe::{FusedMoE, MoeRouting};
use kt_kernels::schedule::{SchedulePolicy, ThreadPool};
use kt_tensor::rng::seeded;
use kt_tensor::{Matrix, WeightDtype};
use std::time::Instant;

/// Timed calls per policy in the real-kernel arm; the figure is their
/// median.
const REPS: usize = 201;

fn main() {
    section("Dynamic scheduling ablation (simulated, DS-3 prefill layer)");
    let cal = Calibration::default();
    let cpu = CpuSpec::dual_xeon_8452y();
    let op = CpuMoeOp {
        tokens_per_expert: 256.0,
        n_active_experts: 256.0,
        flops: 256.0 * 256.0 * 3.0 * 2.0 * 7168.0 * 2048.0,
        bytes: 256.0 * 3.0 * 7168.0 * 2048.0 * 2.0,
    };
    let stat = cal.cpu_moe_time(CpuKernel::KtAmx, &op, &cpu, true, false, KernelPhase::Prefill);
    let dynam = cal.cpu_moe_time(CpuKernel::KtAmx, &op, &cpu, true, true, KernelPhase::Prefill);
    table(
        &["Scheduling", "Layer time (ms)"],
        &[
            vec!["static".into(), format!("{:.1}", stat * 1e3)],
            vec!["dynamic".into(), format!("{:.1}", dynam * 1e3)],
        ],
    );
    println!("Speedup: {:.2}x (paper: up to 1.83x)", stat / dynam);

    section("Dynamic scheduling (real fused MoE, skewed prefill routing)");
    let mut rng = seeded(11);
    let moe = FusedMoE::random(16, 64, 96, WeightDtype::F32, Backend::HybridAmxAvx512, &mut rng)
        .unwrap();
    // Skewed routing: most tokens pile onto two experts.
    let n_tokens = 64;
    let routing = MoeRouting::new(
        (0..n_tokens)
            .map(|t| {
                if t % 4 == 0 {
                    vec![(t % 16, 1.0)]
                } else {
                    vec![(0, 0.7), (1, 0.3)]
                }
            })
            .collect(),
    );
    let x = Matrix::random_uniform(n_tokens, 64, 1.0, &mut rng).unwrap();
    let lanes = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool = ThreadPool::new(lanes).unwrap();
    let policies = [SchedulePolicy::Static, SchedulePolicy::Dynamic];
    // Both policies must compute exactly the serial forward before
    // either is timed: a fast but wrong schedule panics here.
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let serial = bits(&moe.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap());
    for policy in policies {
        let got = moe.forward(&x, &routing, Some(&pool), policy).unwrap();
        assert!(bits(&got) == serial, "{policy:?} differs from the serial forward");
    }
    // Median of REPS calls per policy, alternating call by call so both
    // see the same host noise.
    let mut ns = [Vec::with_capacity(REPS), Vec::with_capacity(REPS)];
    for _ in 0..REPS {
        for (policy, ns) in policies.iter().zip(&mut ns) {
            let t0 = Instant::now();
            let _ = moe.forward(&x, &routing, Some(&pool), *policy).unwrap();
            ns.push(t0.elapsed().as_nanos() as f64);
        }
    }
    let [t_static, t_dynamic] = ns.map(|mut ns| {
        ns.sort_by(f64::total_cmp);
        ns[REPS / 2]
    });
    table(
        &["Scheduling", "Fused MoE forward (ms, median)"],
        &[
            vec!["static".into(), format!("{:.3}", t_static / 1e6)],
            vec!["dynamic".into(), format!("{:.3}", t_dynamic / 1e6)],
        ],
    );
    println!(
        "Real-kernel ratio: {:.2}x on {lanes} lane(s), median of {REPS} alternating calls",
        t_static / t_dynamic
    );
}
