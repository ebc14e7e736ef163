//! §3.3 ablation: single-CUDA-Graph decode vs per-op launches, in the
//! simulator.

use kt_bench::{section, table};
use kt_hwsim::experiments::ablation_graph;
use kt_hwsim::Calibration;

fn main() {
    section("CUDA Graph ablation (simulated, DS-3 decode)");
    let rows = ablation_graph(&Calibration::default()).expect("simulation");
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|(n, t)| vec![n.clone(), format!("{t:.2} tok/s")])
        .collect();
    table(&["Launch mode", "Decode throughput"], &printable);
    println!("Speedup: {:.2}x (paper: up to 1.23x)", rows[1].1 / rows[0].1);
}
