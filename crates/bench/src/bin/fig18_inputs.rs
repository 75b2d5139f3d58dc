//! Figure 18: input sensitivity — CRAT profiled on one input, applied
//! across all inputs of CFD and BLK.

use crat_bench::{
    csv_flag, engine,
    table::{f2, Table},
};
use crat_core::{evaluate_with, optimize_with, CratOptions, OptTlpSource, Technique};
use crat_sim::GpuConfig;
use crat_workloads::{build_kernel, inputs, launch_sized, suite};

fn main() {
    let csv = csv_flag();
    let gpu = GpuConfig::fermi();
    let engine = engine();

    for abbr in ["CFD", "BLK"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let variants = inputs(app);
        println!("== {abbr} ==");

        // First: OptTLP is stable across profiling inputs.
        let mut opt_tlps = Vec::new();
        for v in &variants {
            let launch = launch_sized(app, v.grid_blocks);
            let sol = optimize_with(engine, &kernel, &gpu, &launch, &CratOptions::new())
                .expect("pipeline");
            opt_tlps.push((v.name, sol.opt_tlp, sol.point()));
        }
        let mut t = Table::new(&["profiling input", "OptTLP", "CRAT (reg,TLP)"]);
        for (name, tlp, point) in &opt_tlps {
            t.row(vec![
                (*name).into(),
                tlp.to_string(),
                format!("({},{})", point.reg, point.tlp),
            ]);
        }
        t.print(csv);

        // Then: profile on the first input, evaluate on all inputs.
        let first = &variants[0];
        let launch0 = launch_sized(app, first.grid_blocks);
        let sol = optimize_with(
            engine,
            &kernel,
            &gpu,
            &launch0,
            &CratOptions {
                opt_tlp: OptTlpSource::Profiled,
                ..CratOptions::new()
            },
        )
        .expect("pipeline");
        let winner = sol.winner();
        let mut t = Table::new(&["evaluation input", "CRAT speedup over OptTLP"]);
        for v in &variants {
            let launch = launch_sized(app, v.grid_blocks);
            let opt =
                evaluate_with(engine, &kernel, &gpu, &launch, Technique::OptTlp).expect("OptTLP");
            let stats = engine
                .simulate(
                    &winner.allocation.kernel,
                    &gpu,
                    &launch,
                    winner.allocation.slots_used,
                    Some(winner.achieved_tlp),
                )
                .expect("simulation");
            t.row(vec![v.name.into(), f2(stats.speedup_over(&opt.stats))]);
        }
        t.print(csv);
        println!();
    }
    println!("Paper: OptTLP is identical across profiling inputs, and CRAT's speedup holds");
    println!("across evaluation inputs (Fig. 18).");
    crat_bench::print_engine_stats(csv);
}
