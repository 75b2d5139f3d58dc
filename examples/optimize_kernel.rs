//! Run the full CRAT pipeline on one application and compare it with
//! the MaxTLP and OptTLP baselines on the simulator.
//!
//! Run with: `cargo run --release --example optimize_kernel [ABBR]`
//! (default app: CFD; try FDTD, KMN, HST, ...)

use crat_suite::core::{evaluate_with, optimize_with, CratOptions, EvalEngine, Technique};
use crat_suite::sim::GpuConfig;
use crat_suite::workloads::{build_kernel, launch, suite};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let abbr = std::env::args().nth(1).unwrap_or_else(|| "CFD".to_string());
    let app = suite::spec(&abbr);
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch(app);
    // One engine for the whole run: the comparison below reuses the
    // simulations the pipeline already ran.
    let engine = EvalEngine::from_env(None, None);

    println!("== {} ({} / {}) ==", app.name, app.kernel, app.suite);

    // The pipeline, step by step.
    let solution = optimize_with(&engine, &kernel, &gpu, &launch, &CratOptions::new())?;
    println!(
        "\nresource usage: MaxReg={} MinReg={} BlockSize={} MaxTLP={} ShmSize={}B",
        solution.usage.max_reg,
        solution.usage.min_reg,
        solution.usage.block_size,
        solution.usage.max_tlp,
        solution.usage.shm_size
    );
    println!("OptTLP (profiled): {}", solution.opt_tlp);
    println!("\ncandidates after pruning:");
    for (i, c) in solution.candidates.iter().enumerate() {
        println!(
            "  {}(reg={:2}, TLP={}) TPSC={:.4}  spills: {} local / {} shared insts",
            if i == solution.chosen { "* " } else { "  " },
            c.point.reg,
            c.achieved_tlp,
            c.tpsc,
            c.allocation.spills.counts.total_local(),
            c.allocation.spills.counts.total_shared(),
        );
    }

    // Head-to-head on the simulator.
    println!("\nsimulated comparison:");
    let max_tlp = evaluate_with(&engine, &kernel, &gpu, &launch, Technique::MaxTlp)?;
    let opt_tlp = evaluate_with(&engine, &kernel, &gpu, &launch, Technique::OptTlp)?;
    let crat = evaluate_with(&engine, &kernel, &gpu, &launch, Technique::Crat)?;
    for e in [&max_tlp, &opt_tlp, &crat] {
        println!(
            "  {:10} reg={:2} TLP={}  cycles={:8}  L1 hit={:5.1}%  speedup over OptTLP: {:.2}x",
            e.technique.label(),
            e.reg,
            e.tlp,
            e.stats.cycles,
            e.stats.l1_hit_rate() * 100.0,
            e.stats.speedup_over(&opt_tlp.stats),
        );
    }
    Ok(())
}
