//! Semantic-preservation integration tests: for every application in
//! the suite, the CRAT-chosen allocation computes exactly the same
//! global-memory results as the unconstrained kernel.

use std::collections::HashMap;

use crat_suite::core::{optimize_with, CratOptions, EvalEngine, OptTlpSource};
use crat_suite::ptx::Kernel;
use crat_suite::regalloc::{allocate, AllocOptions};
use crat_suite::sim::{simulate_capture, GpuConfig, LaunchConfig};
use crat_suite::workloads::{build_kernel, launch_sized, suite, OUTPUT_BASE};

fn outputs(
    kernel: &Kernel,
    launch: &LaunchConfig,
    regs: u32,
    tlp: Option<u32>,
) -> HashMap<u64, u64> {
    let (_, mem) = simulate_capture(kernel, &GpuConfig::fermi(), launch, regs, tlp)
        .expect("simulation succeeds");
    mem.into_iter().filter(|&(a, _)| a >= OUTPUT_BASE).collect()
}

/// Reference: a generous allocation (the compacted kernel without
/// budget pressure).
fn reference(kernel: &Kernel, launch: &LaunchConfig) -> HashMap<u64, u64> {
    let roomy = allocate(kernel, &AllocOptions::new(63)).expect("roomy allocation");
    outputs(&roomy.kernel, launch, roomy.slots_used, None)
}

#[test]
fn default_allocation_preserves_semantics_for_all_apps() {
    for app in suite::all() {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 15);
        let expect = reference(&kernel, &launch);
        assert!(!expect.is_empty(), "{}", app.abbr);

        let budget = 21.max(crat_suite::core::ALLOC_FLOOR);
        let tight = allocate(&kernel, &AllocOptions::new(budget))
            .unwrap_or_else(|e| panic!("{}: {e}", app.abbr));
        let got = outputs(&tight.kernel, &launch, tight.slots_used, None);
        assert_eq!(
            got, expect,
            "{}: default allocation changed results",
            app.abbr
        );
    }
}

#[test]
fn crat_chosen_allocation_preserves_semantics_for_sensitive_apps() {
    let engine = EvalEngine::default();
    for app in suite::sensitive() {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 15);
        let expect = reference(&kernel, &launch);

        // Use a fixed OptTLP to keep the test fast (skips profiling).
        let sol = optimize_with(
            &engine,
            &kernel,
            &GpuConfig::fermi(),
            &launch,
            &CratOptions {
                opt_tlp: OptTlpSource::Given(2),
                ..CratOptions::new()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", app.abbr));
        let w = sol.winner();
        let got = outputs(
            &w.allocation.kernel,
            &launch,
            w.allocation.slots_used,
            Some(w.achieved_tlp),
        );
        assert_eq!(got, expect, "{}: CRAT allocation changed results", app.abbr);
    }
}

/// The TLP cap must never change *what* is computed, only when.
#[test]
fn throttling_does_not_change_results() {
    for abbr in ["KMN", "CFD", "SGM"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 15);
        let free = outputs(&kernel, &launch, 21, None);
        let throttled = outputs(&kernel, &launch, 21, Some(1));
        assert_eq!(free, throttled, "{abbr}");
    }
}

/// Scheduler policy must not change results either.
#[test]
fn scheduler_does_not_change_results() {
    let app = suite::spec("STE");
    let kernel = build_kernel(app);
    let launch = launch_sized(app, 15);
    let gto = outputs(&kernel, &launch, 21, None);
    let mut lrr_cfg = GpuConfig::fermi();
    lrr_cfg.scheduler = crat_suite::sim::SchedulerKind::Lrr;
    let (_, mem) = simulate_capture(&kernel, &lrr_cfg, &launch, 21, None).expect("LRR simulation");
    let lrr: HashMap<u64, u64> = mem.into_iter().filter(|&(a, _)| a >= OUTPUT_BASE).collect();
    assert_eq!(gto, lrr);
}
