//! Figure 2: the (registers-per-thread × TLP) design space of CFD —
//! simulated speedup over MaxTLP at every feasible point.

use crat_bench::{
    csv_flag, engine,
    table::{f2, Table},
};
use crat_core::{evaluate_with, Technique, ALLOC_FLOOR};
use crat_regalloc::{allocate, AllocOptions};
use crat_sim::{occupancy, GpuConfig};
use crat_workloads::{build_kernel, launch_sized, suite};

fn main() {
    let csv = csv_flag();
    let app = suite::spec("CFD");
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch_sized(app, app.grid_blocks);
    let engine = engine();

    let baseline =
        evaluate_with(engine, &kernel, &gpu, &launch, Technique::MaxTlp).expect("MaxTLP runs");
    println!(
        "CFD design space (speedup over MaxTLP = reg {}, TLP {}, {} cycles)\n",
        baseline.reg, baseline.tlp, baseline.stats.cycles
    );

    let mut t = Table::new(&[
        "reg",
        "maxTLP@reg",
        "TLP=1",
        "TLP=2",
        "TLP=3",
        "TLP=4",
        "TLP=5",
        "TLP=6",
        "TLP=7",
        "TLP=8",
    ]);
    let mut reg = ALLOC_FLOOR.max(16);
    while reg <= 60 {
        let alloc = match allocate(&kernel, &AllocOptions::new(reg)) {
            Ok(a) => a,
            Err(_) => {
                reg += 4;
                continue;
            }
        };
        let occ = occupancy(
            &gpu,
            alloc.slots_used,
            kernel.shared_bytes(),
            app.block_size,
        )
        .blocks;
        let mut cells = vec![reg.to_string(), occ.to_string()];
        for tlp in 1..=8u32 {
            if tlp > occ {
                cells.push("-".into());
                continue;
            }
            let stats = engine
                .simulate(&alloc.kernel, &gpu, &launch, alloc.slots_used, Some(tlp))
                .expect("simulation");
            cells.push(f2(stats.speedup_over(&baseline.stats)));
        }
        t.row(cells);
        reg += 4;
    }
    t.print(csv);
    println!(
        "\nPaper: the best point trades registers against TLP (CRAT found (50, 5) on GTX680)."
    );
    crat_bench::print_engine_stats(csv);
}
