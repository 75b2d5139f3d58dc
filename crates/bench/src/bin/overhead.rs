//! §7.7 framework overhead: the cost of obtaining OptTLP by profiling
//! vs static analysis, and of the design-space exploration itself.

use std::time::Instant;

use crat_bench::{
    csv_flag, engine, sensitive_apps,
    table::{f2, Table},
};
use crat_core::{
    analyze, estimate_opt_tlp, optimize_with, profile_opt_tlp_with, CratOptions, OptTlpSource,
    ALLOC_FLOOR, STATIC_L1_HIT_RATE,
};
use crat_regalloc::{allocate, AllocOptions};
use crat_sim::GpuConfig;
use crat_workloads::{build_kernel, launch_sized};

fn main() {
    let csv = csv_flag();
    let gpu = GpuConfig::fermi();
    let engine = engine();

    let mut t = Table::new(&[
        "app",
        "profiling runs",
        "profiling ms",
        "static ms",
        "exploration ms",
    ]);
    let (mut p_sum, mut s_sum, mut e_sum) = (0.0f64, 0.0f64, 0.0f64);
    let apps = sensitive_apps();
    for app in &apps {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, app.grid_blocks);
        let usage = analyze(&kernel, &gpu, &launch);
        let alloc = allocate(
            &kernel,
            &AllocOptions::new(usage.default_reg.max(ALLOC_FLOOR)),
        )
        .expect("allocation");

        let t0 = Instant::now();
        let profile = profile_opt_tlp_with(engine, &alloc.kernel, &gpu, &launch, alloc.slots_used)
            .expect("profiling");
        let profiling_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let _ = estimate_opt_tlp(
            &kernel,
            &gpu,
            usage.max_tlp,
            gpu.warps_per_block(usage.block_size),
            STATIC_L1_HIT_RATE,
        );
        let static_ms = t1.elapsed().as_secs_f64() * 1e3;

        let t2 = Instant::now();
        let _ = optimize_with(
            engine,
            &kernel,
            &gpu,
            &launch,
            &CratOptions {
                opt_tlp: OptTlpSource::Given(profile.opt_tlp),
                ..CratOptions::new()
            },
        )
        .expect("pipeline");
        let explore_ms = t2.elapsed().as_secs_f64() * 1e3;

        p_sum += profiling_ms;
        s_sum += static_ms;
        e_sum += explore_ms;
        t.row(vec![
            app.abbr.into(),
            profile.runs.len().to_string(),
            f2(profiling_ms),
            f2(static_ms),
            f2(explore_ms),
        ]);
    }
    let n = apps.len() as f64;
    t.row(vec![
        "AVG".into(),
        String::new(),
        f2(p_sum / n),
        f2(s_sum / n),
        f2(e_sum / n),
    ]);
    t.print(csv);
    println!("\nPaper: profiling took ~1.8h of GPGPU-Sim time (1.94 ms on hardware) per app;");
    println!("static analysis ~1 ms; exploration negligible (§7.7). The shape to match:");
    println!("static analysis is orders of magnitude cheaper than simulator profiling.");
    crat_bench::print_engine_stats(csv);
}
