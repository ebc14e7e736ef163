//! §3.3 / §6.4 ablation: NUMA-aware tensor parallelism vs oblivious
//! placement, simulated (`kt-hwsim`'s two-socket model).

use kt_bench::{section, table};
use kt_hwsim::experiments::ablation_numa;
use kt_hwsim::Calibration;

fn main() {
    section("NUMA ablation (simulated, DS-3 decode)");
    let rows = ablation_numa(&Calibration::default()).expect("simulation");
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|(n, t)| vec![n.clone(), format!("{t:.2} tok/s")])
        .collect();
    table(&["Placement", "Decode throughput"], &printable);
    let ratio = rows[1].1 / rows[0].1;
    println!("Speedup: {ratio:.2}x (paper: up to 1.63x)");
    println!();
    println!("Paper reference: NUMA-aware TP up to 1.63x decode speedup; Fiddler's");
    println!("2-socket run only improves a single socket by 16% (6.9ms -> 5.8ms).");
}
