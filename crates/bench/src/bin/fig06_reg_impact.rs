//! Figure 6: the two faces of registers-per-thread for CFD — more
//! registers cut the TLP (a), fewer registers add spill instructions
//! (b).

use crat_bench::{csv_flag, engine, table::Table};
use crat_regalloc::{allocate, AllocOptions};
use crat_sim::{occupancy, GpuConfig};
use crat_workloads::{build_kernel, launch_sized, suite};

fn main() {
    let csv = csv_flag();
    let app = suite::spec("CFD");
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch_sized(app, 60);
    let engine = engine();

    let mut t = Table::new(&[
        "reg/thread",
        "TLP",
        "static insts",
        "dynamic warp insts",
        "local accesses",
    ]);
    for reg in (16..=60).step_by(4) {
        let Ok(alloc) = allocate(&kernel, &AllocOptions::new(reg)) else {
            continue;
        };
        let occ = occupancy(
            &gpu,
            alloc.slots_used,
            kernel.shared_bytes(),
            app.block_size,
        )
        .blocks;
        let stats = engine
            .simulate(&alloc.kernel, &gpu, &launch, alloc.slots_used, None)
            .expect("simulation");
        t.row(vec![
            alloc.slots_used.to_string(),
            occ.to_string(),
            alloc.kernel.num_insts().to_string(),
            stats.warp_insts.to_string(),
            stats.local_insts.to_string(),
        ]);
    }
    t.print(csv);
    println!("\nPaper: TLP falls as registers rise (6a); instruction count falls too, since");
    println!("fewer spills are needed (6b). The tension between the two is CRAT's target.");
    crat_bench::print_engine_stats(csv);
}
