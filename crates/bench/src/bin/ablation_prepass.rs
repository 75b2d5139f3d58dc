//! Ablation: scalar optimization passes (DCE / copy propagation /
//! constant folding) before CRAT. The passes can only shrink `MaxReg`,
//! tightening the design space.

use crat_bench::{csv_flag, table::Table};
use crat_core::analyze;
use crat_ptx::passes;
use crat_sim::GpuConfig;
use crat_workloads::{build_kernel, launch, suite};

fn main() {
    let csv = csv_flag();
    let gpu = GpuConfig::fermi();
    let mut t = Table::new(&[
        "app",
        "insts before",
        "insts after",
        "MaxReg before",
        "MaxReg after",
        "folded",
        "copies",
        "dce",
    ]);
    for app in suite::sensitive() {
        let kernel = build_kernel(app);
        let l = launch(app);
        let before = analyze(&kernel, &gpu, &l);
        let insts_before = kernel.num_insts();
        let mut optimized = kernel.clone();
        let stats = passes::optimize(&mut optimized);
        let after = analyze(&optimized, &gpu, &l);
        t.row(vec![
            app.abbr.into(),
            insts_before.to_string(),
            optimized.num_insts().to_string(),
            before.max_reg.to_string(),
            after.max_reg.to_string(),
            stats.constants_folded.to_string(),
            stats.copies_propagated.to_string(),
            stats.dce_removed.to_string(),
        ]);
    }
    t.print(csv);
    println!("\nThe generator emits fairly tight code, so the passes mostly tidy the");
    println!("prologue; on hand-written PTX (see `crat optimize --prepass`) they matter more.");
    crat_bench::print_engine_stats(csv);
}
