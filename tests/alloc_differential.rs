//! Suite-wide allocation differential test: every workload in the
//! paper's suite, at every pruned design point, must allocate
//! bit-identically — same colors, same spills, same `slots_used` —
//! through the shared-context allocator ([`AllocContext`] +
//! `allocate_with`) and through the from-scratch reference path
//! (`reference_alloc`, the pre-context pipeline preserved verbatim).
//!
//! This is the allocator's counterpart to `decode_differential.rs`:
//! it pins the shared-analysis engine to the original algorithm so a
//! divergence isolates to the analysis sharing or the bit-matrix
//! interference representation.

use crat_suite::core::{
    analyze, optimize_with, AllocStrategy, CratOptions, EvalEngine, StrategyRoster,
};
use crat_suite::regalloc::{
    allocate_with, reference_alloc, AllocContext, AllocError, AllocOptions, Allocation,
    ShmSpillConfig,
};
use crat_suite::sim::GpuConfig;
use crat_suite::workloads::{build_kernel, launch_sized, suite};

#[test]
fn every_app_every_point_matches_the_reference_allocator() {
    let gpu = GpuConfig::fermi();
    for app in suite::all() {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 6);
        let usage = analyze(&kernel, &gpu, &launch);
        let points = crat_suite::core::prune(&usage, &gpu, usage.max_tlp);
        assert!(!points.is_empty(), "app {} pruned to nothing", app.abbr);

        // One context serves the whole sweep, descending reg order as
        // the pipeline walks it.
        let ctx = AllocContext::build(&kernel);
        for p in points.iter().rev() {
            let opts = AllocOptions::new(p.reg);
            let shared = allocate_with(&kernel, &ctx, &opts);
            let fresh = reference_alloc(&kernel, &opts);
            match (shared, fresh) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a, b,
                        "app {} diverges at reg={} tlp={}",
                        app.abbr, p.reg, p.tlp
                    );
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "app {} errors diverge at reg={}", app.abbr, p.reg);
                }
                (shared, fresh) => panic!(
                    "app {} at reg={}: shared {shared:?} vs fresh {fresh:?}",
                    app.abbr, p.reg
                ),
            }
        }
    }
}

#[test]
fn shm_spilling_matches_the_reference_allocator() {
    // A register-hungry slice of the suite with the shared-memory
    // spilling optimization enabled, at budgets tight enough to force
    // spills into the knapsack.
    for abbr in ["CFD", "FDTD", "SRAD", "LUD"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let ctx = AllocContext::build(&kernel);
        for budget in [24, 18, 14] {
            let opts =
                AllocOptions::new(budget).with_shm_spill(ShmSpillConfig::new(2048, app.block_size));
            let shared = allocate_with(&kernel, &ctx, &opts);
            let fresh = reference_alloc(&kernel, &opts);
            assert_eq!(
                shared.is_ok(),
                fresh.is_ok(),
                "app {abbr} outcome diverges at budget {budget}"
            );
            if let (Ok(a), Ok(b)) = (shared, fresh) {
                assert_eq!(a, b, "app {abbr} diverges at budget {budget} with shm");
            }
        }
    }
}

#[test]
fn repeated_runs_allocate_identically() {
    // Sorted adjacency makes the allocator deterministic: rebuilding
    // the context from scratch must reproduce the same allocation,
    // run after run.
    for abbr in ["CFD", "KMN", "BAK"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let opts = AllocOptions::new(20);
        let first = allocate_with(&kernel, &AllocContext::build(&kernel), &opts).unwrap();
        for _ in 0..3 {
            let again = allocate_with(&kernel, &AllocContext::build(&kernel), &opts).unwrap();
            assert_eq!(first, again, "app {abbr} is not run-deterministic");
        }
    }
}

#[test]
fn optimization_is_identical_across_thread_counts() {
    // The full pipeline — shared contexts fetched through the engine
    // cache, points fanned out across workers — must pick the same
    // design point and produce the same winning allocation whether it
    // runs on one worker or four.
    let gpu = GpuConfig::fermi();
    let opts = CratOptions::new();
    for abbr in ["CFD", "KMN"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 6);
        let e1 = EvalEngine::new(1);
        let e4 = EvalEngine::new(4);
        let s1 = optimize_with(&e1, &kernel, &gpu, &launch, &opts).unwrap();
        let s4 = optimize_with(&e4, &kernel, &gpu, &launch, &opts).unwrap();
        assert_eq!(s1.point(), s4.point(), "app {abbr} picks different points");
        assert_eq!(
            s1.winner().allocation,
            s4.winner().allocation,
            "app {abbr} winner allocation diverges across thread counts"
        );
        // The engine actually exercised the shared-context path.
        let stats = e4.stats();
        assert!(stats.alloc_ctx_builds >= 1);
        assert!(stats.allocs_run >= 1);
    }
}

/// The reference counterpart of the pipeline's `+2` budget-escalation
/// ladder: the same seven attempts, the same escalation rule, but over
/// the from-scratch `reference_alloc` instead of the shared-context
/// `StrategyKind::allocate` dispatch.
fn reference_escalate(
    kernel: &crat_suite::ptx::Kernel,
    budget: u32,
    shm: Option<ShmSpillConfig>,
) -> Result<Allocation, AllocError> {
    let mut budget = budget;
    for attempt in 0..7 {
        let mut opts = AllocOptions::new(budget);
        if let Some(s) = shm {
            opts = opts.with_shm_spill(s);
        }
        match reference_alloc(kernel, &opts) {
            Ok(a) => return Ok(a),
            Err(AllocError::BudgetTooSmall { .. }) if attempt < 6 => budget += 2,
            Err(e) => return Err(e),
        }
    }
    unreachable!("the final attempt either succeeds or returns its error")
}

#[test]
fn pinned_briggs_pipeline_matches_the_reference_path() {
    // End-to-end differential over the whole suite: with the roster
    // pinned to Briggs, every candidate the full pipeline produces —
    // engine cache, strategy dispatch, escalation ladder and all — must
    // be bit-identical to the reference allocator run from scratch at
    // the same design point with the same spare-shared-memory budget.
    let gpu = GpuConfig::fermi();
    let opts = CratOptions {
        roster: StrategyRoster::Pinned(AllocStrategy::Briggs),
        ..CratOptions::new()
    };
    for app in suite::all() {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 6);
        let usage = analyze(&kernel, &gpu, &launch);
        let engine = EvalEngine::new(2);
        let sol = optimize_with(&engine, &kernel, &gpu, &launch, &opts)
            .unwrap_or_else(|err| panic!("{}: pinned optimize failed: {err}", app.abbr));
        assert!(
            !sol.candidates.is_empty(),
            "app {} has no candidates",
            app.abbr
        );
        for cand in &sol.candidates {
            assert_eq!(
                cand.strategy,
                AllocStrategy::Briggs,
                "app {}: pinned roster must record Briggs",
                app.abbr
            );
            // Reproduce the pipeline's per-point spare-shm computation
            // (Algorithm 1's SpareShmSize with the 128-byte margin).
            let per_block = gpu.shmem_per_sm / cand.point.tlp.max(1);
            let spare = per_block
                .saturating_sub(usage.shm_size.div_ceil(128) * 128)
                .saturating_sub(128);
            let shm = Some(ShmSpillConfig::new(spare, usage.block_size));
            let reference =
                reference_escalate(&kernel, cand.point.reg, shm).unwrap_or_else(|err| {
                    panic!(
                        "{}: reference path failed at reg={}: {err}",
                        app.abbr, cand.point.reg
                    )
                });
            assert_eq!(
                cand.allocation, reference,
                "app {} diverges from the reference at reg={} tlp={}",
                app.abbr, cand.point.reg, cand.point.tlp
            );
        }
    }
}
