//! Suite-wide differential test: every workload in the paper's suite
//! must simulate bit-identically — same [`SimStats`], same captured
//! global memory — on the pre-decoded cycle loop and on the reference
//! interpreter (the pre-decode implementation preserved verbatim in
//! `crat_sim::reference`).

use crat_suite::sim::{reference, simulate_capture, GpuConfig, SchedulerKind};
use crat_suite::workloads::{build_kernel, launch_sized, micro, suite};

#[test]
fn every_app_matches_the_reference_interpreter() {
    let gpu = GpuConfig::fermi();
    for app in suite::all() {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 6);
        for tlp in [None, Some(2)] {
            let new = simulate_capture(&kernel, &gpu, &launch, 21, tlp);
            let old = reference::simulate_capture(&kernel, &gpu, &launch, 21, tlp);
            assert_eq!(new, old, "app {} diverges at tlp {tlp:?}", app.abbr);
        }
    }
}

#[test]
fn scheduler_variants_match_the_reference_interpreter() {
    // A smaller slice of the suite under both scheduler policies.
    for sched in [SchedulerKind::Gto, SchedulerKind::Lrr] {
        let mut gpu = GpuConfig::fermi();
        gpu.scheduler = sched;
        for abbr in ["CFD", "KMN", "FDTD", "BAK"] {
            let app = suite::spec(abbr);
            let kernel = build_kernel(app);
            let launch = launch_sized(app, 4);
            let new = simulate_capture(&kernel, &gpu, &launch, 18, None);
            let old = reference::simulate_capture(&kernel, &gpu, &launch, 18, None);
            assert_eq!(new, old, "app {abbr} diverges under {sched:?}");
        }
        // Block turnover: four blocks on the simulated SM with at most
        // one or two resident, so an Exit retires a block and its slot
        // relaunches mid-scan (HST adds barriers).
        for abbr in ["KMN", "HST"] {
            let app = suite::spec(abbr);
            let kernel = build_kernel(app);
            let launch = launch_sized(app, 4 * gpu.num_sms);
            for tlp in [Some(1), Some(2)] {
                let new = simulate_capture(&kernel, &gpu, &launch, 21, tlp);
                let old = reference::simulate_capture(&kernel, &gpu, &launch, 21, tlp);
                let blocks = new.as_ref().map_or(0, |(s, _)| s.blocks);
                assert_eq!(blocks, 4, "app {abbr} ({sched:?}, tlp {tlp:?})");
                assert_eq!(new, old, "app {abbr} diverges ({sched:?}, tlp {tlp:?})");
            }
        }
        // The scheduler-overhead microkernels: a sole warp issuing
        // straight-line ALU (TLP 1), and a dependent-load stall storm
        // whose cycles are almost all idle fast-forward.
        for (name, kernel, launch, tlp) in [
            (
                "empty_alu",
                micro::empty_alu_kernel(),
                micro::empty_alu_launch(),
                Some(1),
            ),
            (
                "stall_heavy",
                micro::stall_heavy_kernel(),
                micro::stall_heavy_launch(30),
                None,
            ),
        ] {
            let new = simulate_capture(&kernel, &gpu, &launch, 21, tlp);
            let old = reference::simulate_capture(&kernel, &gpu, &launch, 21, tlp);
            assert_eq!(new, old, "micro {name} diverges under {sched:?}");
        }
    }
}

#[test]
fn reservation_storms_match_the_reference_interpreter() {
    // The grids above run one block per SM and barely reserve-fail.
    // Starved MSHR tables at grid 30 make the retry path the common
    // case: a two-entry L1, and an L1-bypassing configuration whose
    // four-entry L2 fails mid-warp (`load_warp_bypass`).
    let mut starved_l1 = GpuConfig::fermi();
    starved_l1.l1.mshrs = 2;
    let mut starved_bypass = GpuConfig::fermi();
    starved_bypass.l1_bypass_global = true;
    starved_bypass.l2.mshrs = 4;
    for (case, base) in [
        ("l1.mshrs=2", starved_l1),
        ("bypass, l2.mshrs=4", starved_bypass),
    ] {
        for sched in [SchedulerKind::Gto, SchedulerKind::Lrr] {
            let mut gpu = base.clone();
            gpu.scheduler = sched;
            for abbr in ["CFD", "STE", "SPMV", "KMN"] {
                let app = suite::spec(abbr);
                let kernel = build_kernel(app);
                let launch = launch_sized(app, 30);
                let new = simulate_capture(&kernel, &gpu, &launch, 21, None);
                let old = reference::simulate_capture(&kernel, &gpu, &launch, 21, None);
                let fails = new.as_ref().map_or(0, |(s, _)| s.l1_reservation_fails);
                assert!(
                    fails > 0,
                    "app {abbr} ({case}, {sched:?}) never reserve-failed"
                );
                assert_eq!(new, old, "app {abbr} diverges ({case}, {sched:?})");
            }
        }
    }
}
