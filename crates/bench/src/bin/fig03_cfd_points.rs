//! Figure 3: selected design points for CFD — MaxTLP, OptTLP,
//! OptTLP+Reg (same TLP, more registers), and CRAT — with performance,
//! L1 behaviour, and register utilization.

use crat_bench::{
    csv_flag, engine,
    table::{f2, pct, Table},
};
use crat_core::{analyze, evaluate_with, Technique};
use crat_regalloc::{allocate, AllocOptions};
use crat_sim::{max_regs_for_tlp, GpuConfig};
use crat_workloads::{build_kernel, launch_sized, suite};

fn main() {
    let csv = csv_flag();
    let app = suite::spec("CFD");
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch_sized(app, app.grid_blocks);
    let usage = analyze(&kernel, &gpu, &launch);
    let engine = engine();

    let max_tlp = evaluate_with(engine, &kernel, &gpu, &launch, Technique::MaxTlp).unwrap();
    let opt_tlp = evaluate_with(engine, &kernel, &gpu, &launch, Technique::OptTlp).unwrap();
    let crat = evaluate_with(engine, &kernel, &gpu, &launch, Technique::Crat).unwrap();

    // OptTLP+Reg: keep OptTLP's TLP, raise registers to the stair edge.
    let reg_plus = max_regs_for_tlp(&gpu, opt_tlp.tlp, usage.shm_size, usage.block_size)
        .unwrap_or(usage.default_reg)
        .min(usage.max_reg);
    let alloc_plus = allocate(&kernel, &AllocOptions::new(reg_plus)).expect("allocation");
    let stats_plus = engine
        .simulate(
            &alloc_plus.kernel,
            &gpu,
            &launch,
            alloc_plus.slots_used,
            Some(opt_tlp.tlp),
        )
        .expect("simulation");

    let mut t = Table::new(&["solution", "(reg,TLP)", "speedup", "L1 hit", "reg util"]);
    let util = |reg: u32, tlp: u32| {
        (reg as u64 * app.block_size as u64 * tlp as u64) as f64 / gpu.registers_per_sm as f64
    };
    let mut row = |name: &str, reg: u32, tlp: u32, stats: &crat_sim::SimStats| {
        t.row(vec![
            name.into(),
            format!("({reg},{tlp})"),
            f2(stats.speedup_over(&max_tlp.stats)),
            pct(stats.l1_hit_rate()),
            pct(util(reg, tlp)),
        ]);
    };
    row("MaxTLP", max_tlp.reg, max_tlp.tlp, &max_tlp.stats);
    row("OptTLP", opt_tlp.reg, opt_tlp.tlp, &opt_tlp.stats);
    row(
        "OptTLP+Reg",
        alloc_plus.slots_used,
        opt_tlp.tlp,
        &stats_plus,
    );
    row("CRAT", crat.reg, crat.tlp, &crat.stats);
    t.print(csv);
    println!(
        "\nPaper: OptTLP -> OptTLP+Reg -> CRAT progressively improve CFD, CRAT reaching 1.78x."
    );
    crat_bench::print_engine_stats(csv);
}
