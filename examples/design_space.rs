//! Walk an application's (registers × TLP) design space — the paper's
//! Figure 2 as a program: the occupancy staircase, the pruned
//! candidates, and the simulated performance at each point.
//!
//! Run with: `cargo run --release --example design_space [ABBR]`

use crat_suite::core::{
    analyze, optimize_with, prune, staircase, CratOptions, EvalEngine, OptTlpSource,
};
use crat_suite::regalloc::{allocate, AllocOptions};
use crat_suite::sim::{occupancy, simulate, GpuConfig};
use crat_suite::workloads::{build_kernel, launch, suite};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let abbr = std::env::args().nth(1).unwrap_or_else(|| "CFD".to_string());
    let app = suite::spec(&abbr);
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch(app);
    let usage = analyze(&kernel, &gpu, &launch);

    println!("== {} design space ==", app.abbr);
    println!(
        "register range [{}, {}], TLP range [1, {}]\n",
        usage.min_reg.min(usage.max_reg),
        usage.max_reg,
        usage.max_tlp
    );

    println!("the occupancy staircase (rightmost register budget per TLP):");
    for p in staircase(&usage, &gpu) {
        let occ = occupancy(&gpu, p.reg, usage.shm_size, usage.block_size);
        println!(
            "  TLP {} <- up to {:2} regs/thread (limited by {:?})",
            p.tlp, p.reg, occ.limiter
        );
    }

    // Simulate every stair point.
    println!("\nsimulated cycles per stair point (lower is better):");
    let mut best: Option<(u64, u32, u32)> = None;
    for p in staircase(&usage, &gpu) {
        let alloc = allocate(&kernel, &AllocOptions::new(p.reg))?;
        let stats = simulate(&alloc.kernel, &gpu, &launch, alloc.slots_used, Some(p.tlp))?;
        println!(
            "  (reg={:2}, TLP={})  cycles={:9}  L1 hit={:5.1}%  spills={}",
            p.reg,
            p.tlp,
            stats.cycles,
            stats.l1_hit_rate() * 100.0,
            alloc.spills.spilled.len()
        );
        if best.is_none_or(|(c, _, _)| stats.cycles < c) {
            best = Some((stats.cycles, p.reg, p.tlp));
        }
    }
    if let Some((c, reg, tlp)) = best {
        println!("\noracle best stair point: (reg={reg}, TLP={tlp}) at {c} cycles");
    }

    // What pruning would keep with a throttled OptTLP.
    let sol = optimize_with(
        &EvalEngine::from_env(None, None),
        &kernel,
        &gpu,
        &launch,
        &CratOptions {
            opt_tlp: OptTlpSource::Profiled,
            ..CratOptions::new()
        },
    )?;
    let kept = prune(&usage, &gpu, sol.opt_tlp);
    println!(
        "\nwith OptTLP = {}: pruning keeps {} of {} stair points; CRAT picked (reg={}, TLP={})",
        sol.opt_tlp,
        kept.len(),
        staircase(&usage, &gpu).len(),
        sol.point().reg,
        sol.point().tlp
    );
    Ok(())
}
