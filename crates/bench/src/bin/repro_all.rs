//! Runs every table/figure regenerator in sequence (the one-shot
//! reproduction driver used to assemble EXPERIMENTS.md).
//!
//! Accuracy experiments honor `--quick` for a fast smoke run.

use std::process::Command;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let bins = [
        "table1", "fig3", "fig4", "fig7", "fig10", "fig11", "fig12", "fig14",
        "ablation_numa", "ablation_graph", "ablation_sched", "ablation_multigpu",
        "ablation_batch", "ablation_kvoffload", "ablation_offload", "ablation_latency",
        "table2", "fig13",
    ];
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    for bin in bins {
        let mut cmd = Command::new(dir.join(bin));
        if quick && (bin == "table2" || bin == "fig13") {
            cmd.arg("--quick");
        }
        let status = cmd.status().unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
    }
}
