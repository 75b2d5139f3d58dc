//! End-to-end integration tests: the whole stack (workload generation →
//! resource analysis → profiling → pruning → allocation → TPSC →
//! simulation) produces the paper's qualitative results.

use crat_suite::core::{evaluate_with, EvalEngine, Evaluation, Technique};
use crat_suite::sim::GpuConfig;
use crat_suite::workloads::{build_kernel, launch_sized, suite};

fn run(engine: &EvalEngine, abbr: &str, grid: u32, t: Technique) -> Evaluation {
    let app = suite::spec(abbr);
    let kernel = build_kernel(app);
    evaluate_with(
        engine,
        &kernel,
        &GpuConfig::fermi(),
        &launch_sized(app, grid),
        t,
    )
    .unwrap_or_else(|e| panic!("{abbr}/{t}: {e}"))
}

/// The central claim, on the register-hungriest app: CRAT beats the
/// thread-throttling baseline, which beats (or matches) MaxTLP.
#[test]
fn crat_ordering_holds_on_register_hungry_app() {
    let engine = EvalEngine::default();
    let max = run(&engine, "CFD", 45, Technique::MaxTlp);
    let opt = run(&engine, "CFD", 45, Technique::OptTlp);
    let crat = run(&engine, "CFD", 45, Technique::Crat);
    assert!(
        opt.stats.cycles <= max.stats.cycles,
        "OptTLP {} vs MaxTLP {}",
        opt.stats.cycles,
        max.stats.cycles
    );
    assert!(
        crat.stats.cycles < opt.stats.cycles,
        "CRAT {} vs OptTLP {}",
        crat.stats.cycles,
        opt.stats.cycles
    );
    assert!(
        crat.reg > opt.reg,
        "CRAT must allocate more registers per thread"
    );
}

/// For an app whose default allocation is already optimal (the paper's
/// KMN/LBM/SPMV/STM group) CRAT must not lose to OptTLP.
#[test]
fn crat_matches_opt_tlp_when_default_is_optimal() {
    let engine = EvalEngine::default();
    let opt = run(&engine, "SPMV", 45, Technique::OptTlp);
    let crat = run(&engine, "SPMV", 45, Technique::Crat);
    let ratio = crat.stats.cycles as f64 / opt.stats.cycles as f64;
    assert!(ratio <= 1.05, "CRAT must not regress: ratio {ratio:.3}");
}

/// Insensitive apps: all three techniques within a few percent.
#[test]
fn insensitive_app_shows_no_remarkable_change() {
    let engine = EvalEngine::default();
    let max = run(&engine, "BAK", 45, Technique::MaxTlp);
    let opt = run(&engine, "BAK", 45, Technique::OptTlp);
    let crat = run(&engine, "BAK", 45, Technique::Crat);
    let lo = max
        .stats
        .cycles
        .min(opt.stats.cycles)
        .min(crat.stats.cycles) as f64;
    let hi = max
        .stats
        .cycles
        .max(opt.stats.cycles)
        .max(crat.stats.cycles) as f64;
    assert!(
        hi / lo < 1.10,
        "spread {:.3} too large for an insensitive app",
        hi / lo
    );
}

/// The whole evaluation is deterministic: two engines, whose memos
/// share nothing, agree.
#[test]
fn evaluation_is_deterministic() {
    let a = run(&EvalEngine::default(), "FDTD", 30, Technique::Crat);
    let b = run(&EvalEngine::default(), "FDTD", 30, Technique::Crat);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.reg, b.reg);
    assert_eq!(a.tlp, b.tlp);
}

/// CRAT improves register utilization relative to OptTLP on a
/// throttled, register-hungry app (paper Figure 15).
#[test]
fn register_utilization_improves() {
    let gpu = GpuConfig::fermi();
    let app = suite::spec("HST");
    let engine = EvalEngine::default();
    let opt = run(&engine, "HST", 45, Technique::OptTlp);
    let crat = run(&engine, "HST", 45, Technique::Crat);
    let u_opt = opt.register_utilization(&gpu, app.block_size);
    let u_crat = crat.register_utilization(&gpu, app.block_size);
    assert!(u_crat > u_opt, "{u_crat:.3} vs {u_opt:.3}");
}

/// CRAT on Kepler still works and still does not regress (paper §7.3).
#[test]
fn kepler_configuration_works() {
    let app = suite::spec("STE");
    let kernel = build_kernel(app);
    let gpu = GpuConfig::kepler();
    let launch = launch_sized(app, 48);
    let engine = EvalEngine::default();
    let opt = evaluate_with(&engine, &kernel, &gpu, &launch, Technique::OptTlp).unwrap();
    let crat = evaluate_with(&engine, &kernel, &gpu, &launch, Technique::Crat).unwrap();
    assert!(crat.stats.cycles <= opt.stats.cycles);
}

/// Static OptTLP estimation yields a working pipeline with performance
/// in the same ballpark as profiling (paper Figure 20).
#[test]
fn static_estimation_is_usable() {
    let engine = EvalEngine::default();
    let profile = run(&engine, "FDTD", 30, Technique::Crat);
    let statik = run(&engine, "FDTD", 30, Technique::CratStatic);
    let ratio = statik.stats.cycles as f64 / profile.stats.cycles as f64;
    assert!(
        ratio < 1.6,
        "static within 60% of profiled: ratio {ratio:.3}"
    );
}

/// Energy follows performance (paper §7.2: CRAT saves energy).
#[test]
fn crat_saves_energy_on_sensitive_app() {
    let engine = EvalEngine::default();
    let opt = run(&engine, "CFD", 45, Technique::OptTlp);
    let crat = run(&engine, "CFD", 45, Technique::Crat);
    assert!(crat.energy.total_j() < opt.energy.total_j());
}
