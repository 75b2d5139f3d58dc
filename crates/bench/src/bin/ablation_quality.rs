//! Result-quality ablations of CRAT's design choices:
//!
//! 1. GTO vs LRR warp scheduling (the paper assumes GTO);
//! 2. pruning safety: the pruned search finds the same winner as an
//!    exhaustive sweep of the staircase;
//! 3. shared-memory spilling on/off (CRAT vs CRAT-local);
//! 4. TPSC choice quality vs a simulation oracle over the candidates.

use crat_bench::{
    csv_flag, engine,
    table::{f2, Table},
};
use crat_core::{evaluate_with, optimize_with, CratOptions, Technique};
use crat_sim::{GpuConfig, SchedulerKind};
use crat_workloads::{build_kernel, launch_sized, suite};

fn main() {
    let csv = csv_flag();
    let gpu = GpuConfig::fermi();
    let engine = engine();

    // 1. Scheduler ablation.
    println!("1) GTO vs LRR (cycles at MaxTLP):\n");
    let mut t = Table::new(&["app", "GTO cycles", "LRR cycles", "GTO speedup"]);
    for abbr in ["CFD", "KMN", "STE"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 60);
        let gto = engine.simulate(&kernel, &gpu, &launch, 21, None).unwrap();
        let mut lrr_cfg = gpu.clone();
        lrr_cfg.scheduler = SchedulerKind::Lrr;
        let lrr = engine
            .simulate(&kernel, &lrr_cfg, &launch, 21, None)
            .unwrap();
        t.row(vec![
            abbr.into(),
            gto.cycles.to_string(),
            lrr.cycles.to_string(),
            f2(gto.speedup_over(&lrr)),
        ]);
    }
    t.print(csv);

    // 2 + 4. Pruning safety and TPSC quality: simulate every candidate
    // of the pruned set and compare the TPSC pick with the oracle.
    println!("\n2) TPSC pick vs simulation oracle over candidates:\n");
    let mut t = Table::new(&[
        "app",
        "candidates",
        "TPSC pick",
        "oracle pick",
        "TPSC/oracle perf",
    ]);
    for abbr in ["CFD", "FDTD", "BLK", "HST", "STE"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let launch = launch_sized(app, app.grid_blocks);
        let sol = optimize_with(engine, &kernel, &gpu, &launch, &CratOptions::new()).unwrap();
        let mut best: Option<(usize, u64)> = None;
        let mut cycles = Vec::new();
        for (i, c) in sol.candidates.iter().enumerate() {
            let s = engine
                .simulate(
                    &c.allocation.kernel,
                    &gpu,
                    &launch,
                    c.allocation.slots_used,
                    Some(c.achieved_tlp),
                )
                .unwrap();
            cycles.push(s.cycles);
            if best.is_none_or(|(_, b)| s.cycles < b) {
                best = Some((i, s.cycles));
            }
        }
        let (oracle, oracle_cycles) = best.expect("at least one candidate");
        let tpsc_cycles = cycles[sol.chosen];
        let wc = sol.candidates[sol.chosen].point;
        let oc = sol.candidates[oracle].point;
        t.row(vec![
            abbr.into(),
            sol.candidates.len().to_string(),
            format!("({},{})", wc.reg, wc.tlp),
            format!("({},{})", oc.reg, oc.tlp),
            f2(oracle_cycles as f64 / tpsc_cycles as f64),
        ]);
    }
    t.print(csv);

    // 3. Shared-memory spilling ablation via the techniques.
    println!("\n3) CRAT vs CRAT-local (shared-memory spilling ablation):\n");
    let mut t = Table::new(&["app", "CRAT-local cycles", "CRAT cycles", "speedup"]);
    for abbr in ["DTC", "FDTD", "CFD", "STE"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let launch = launch_sized(app, app.grid_blocks);
        let local = evaluate_with(engine, &kernel, &gpu, &launch, Technique::CratLocal).unwrap();
        let full = evaluate_with(engine, &kernel, &gpu, &launch, Technique::Crat).unwrap();
        t.row(vec![
            abbr.into(),
            local.stats.cycles.to_string(),
            full.stats.cycles.to_string(),
            f2(full.stats.speedup_over(&local.stats)),
        ]);
    }
    t.print(csv);
    crat_bench::print_engine_stats(csv);
}
