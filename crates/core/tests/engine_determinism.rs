//! The engine's central guarantee: results obtained through the memo
//! cache and worker pool are bit-identical to the pre-engine serial
//! path (a direct [`crat_sim::simulate`] loop), at any thread count,
//! cold or warm.

use crat_core::engine::EvalEngine;
use crat_core::{
    evaluate_with, optimize_with, profile_opt_tlp_with, CratOptions, OptTlpSource, Technique,
};
use crat_sim::GpuConfig;
use crat_workloads::{build_kernel, launch_sized, suite};

#[test]
fn profiled_sweep_is_identical_across_thread_counts() {
    let app = suite::spec("BAK");
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch_sized(app, 30);
    let regs = 16;

    let serial = EvalEngine::serial();
    let parallel = EvalEngine::new(8);
    let one = profile_opt_tlp_with(&serial, &kernel, &gpu, &launch, regs).unwrap();
    let many = profile_opt_tlp_with(&parallel, &kernel, &gpu, &launch, regs).unwrap();

    assert_eq!(one.opt_tlp, many.opt_tlp);
    assert_eq!(one.runs, many.runs);

    // Both must match the pre-refactor serial path: one direct
    // simulation per TLP level.
    for (tlp, stats) in &one.runs {
        let direct = crat_sim::simulate(&kernel, &gpu, &launch, regs, Some(*tlp)).unwrap();
        assert_eq!(
            stats, &direct,
            "TLP {tlp} diverged from a direct simulation"
        );
    }

    // A warm re-run serves everything from the cache and still returns
    // identical results.
    let before = parallel.stats().sims_executed;
    let warm = profile_opt_tlp_with(&parallel, &kernel, &gpu, &launch, regs).unwrap();
    assert_eq!(warm.runs, many.runs);
    assert_eq!(
        parallel.stats().sims_executed,
        before,
        "warm sweep must not simulate"
    );
    assert!(parallel.stats().cache_hits >= many.runs.len() as u64);
}

#[test]
fn optimize_is_identical_across_thread_counts() {
    let app = suite::spec("FDTD");
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch_sized(app, 30);
    let opts = CratOptions::new();

    let one = optimize_with(&EvalEngine::serial(), &kernel, &gpu, &launch, &opts).unwrap();
    let many = optimize_with(&EvalEngine::new(8), &kernel, &gpu, &launch, &opts).unwrap();

    assert_eq!(one.opt_tlp, many.opt_tlp);
    assert_eq!(one.chosen, many.chosen);
    assert_eq!(one.candidates.len(), many.candidates.len());
    for (a, b) in one.candidates.iter().zip(&many.candidates) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.achieved_tlp, b.achieved_tlp);
        assert_eq!(
            a.tpsc.to_bits(),
            b.tpsc.to_bits(),
            "TPSC must be bit-identical"
        );
        assert_eq!(a.allocation.kernel, b.allocation.kernel);
        assert_eq!(a.allocation.slots_used, b.allocation.slots_used);
    }
}

#[test]
fn evaluate_is_identical_across_thread_counts_and_warm_cache() {
    let app = suite::spec("BAK");
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch_sized(app, 30);
    let opts = CratOptions {
        opt_tlp: OptTlpSource::Given(3),
        ..CratOptions::new()
    };

    let serial = EvalEngine::serial();
    let parallel = EvalEngine::new(4);
    let run = |engine: &EvalEngine| {
        let sol = optimize_with(engine, &kernel, &gpu, &launch, &opts).unwrap();
        let w = sol.winner().clone();
        engine
            .simulate(
                &w.allocation.kernel,
                &gpu,
                &launch,
                w.allocation.slots_used,
                Some(w.achieved_tlp),
            )
            .unwrap()
    };

    let cold_serial = run(&serial);
    let cold_parallel = run(&parallel);
    let warm_parallel = run(&parallel);
    assert_eq!(cold_serial, cold_parallel);
    assert_eq!(cold_parallel, warm_parallel);

    // And the direct path agrees.
    let sol = optimize_with(&serial, &kernel, &gpu, &launch, &opts).unwrap();
    let w = sol.winner();
    let direct = crat_sim::simulate(
        &w.allocation.kernel,
        &gpu,
        &launch,
        w.allocation.slots_used,
        Some(w.achieved_tlp),
    )
    .unwrap();
    assert_eq!(direct, cold_serial);
}

/// The four Fig. 13 techniques share the default allocation and the
/// simulations of one engine; each must still return exactly what it
/// returns alone on a fresh engine.
#[test]
fn techniques_sharing_an_engine_match_fresh_engines() {
    let gpu = GpuConfig::fermi();
    let techniques = [
        Technique::MaxTlp,
        Technique::OptTlp,
        Technique::CratLocal,
        Technique::Crat,
    ];
    for abbr in ["CFD", "FDTD", "BAK"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 30);
        let shared = EvalEngine::serial();
        for t in techniques {
            let together = evaluate_with(&shared, &kernel, &gpu, &launch, t).unwrap();
            let alone = evaluate_with(&EvalEngine::serial(), &kernel, &gpu, &launch, t).unwrap();
            let what = format!("{abbr} {t}");
            assert_eq!(together.reg, alone.reg, "{what}: reg");
            assert_eq!(together.tlp, alone.tlp, "{what}: tlp");
            assert_eq!(together.stats, alone.stats, "{what}: stats");
            assert_eq!(together.allocation, alone.allocation, "{what}: allocation");
        }
    }
}
