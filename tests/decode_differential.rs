//! Suite-wide differential test: every workload in the paper's suite
//! must simulate bit-identically — same [`SimStats`], same captured
//! global memory — on the pre-decoded cycle loop and on the reference
//! interpreter (the pre-decode implementation preserved verbatim in
//! `crat_sim::reference`). The stats-only entry point, which computes
//! only the decoded value slice's lane values, must match it too.

use crat_suite::core::{
    analyze, optimize_with, CratOptions, EvalEngine, ALLOC_FLOOR, STATIC_L1_HIT_RATE,
};
use crat_suite::ptx::Kernel;
use crat_suite::regalloc::{allocate, AllocOptions};
use crat_suite::sim::{
    decode, reference, simulate, simulate_capture, GpuConfig, SchedulerKind, ShmBankConfig,
};
use crat_suite::workloads::{build_kernel, launch_sized, micro, suite, AppSpec};

#[test]
fn every_app_matches_the_reference_interpreter() {
    // Grid 6 puts one block on the simulated SM, uncapped; grid
    // `num_sms + 1` puts two there and TLP 1 runs them one after the
    // other, so the second block relaunches into the first one's slot.
    let gpu = GpuConfig::fermi();
    for app in suite::all() {
        let kernel = build_kernel(app);
        for (grid, tlp) in [(6, None), (gpu.num_sms + 1, Some(1))] {
            let launch = launch_sized(app, grid);
            let new = simulate_capture(&kernel, &gpu, &launch, 21, tlp);
            let old = reference::simulate_capture(&kernel, &gpu, &launch, 21, tlp);
            if tlp.is_some() {
                let ran = new.as_ref().map(|(s, _)| (s.blocks, s.resident_blocks));
                assert_eq!(ran, Ok((2, 1)), "app {} at grid {grid}", app.abbr);
            }
            assert_eq!(
                new, old,
                "app {} diverges at grid {grid}, tlp {tlp:?}",
                app.abbr
            );
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

/// MSHR-starved configurations: a two-entry L1, and an L1-bypassing
/// one whose four-entry L2 fails mid-warp (`load_warp_bypass`).
fn storm_configs() -> [(&'static str, GpuConfig); 2] {
    let mut starved_l1 = GpuConfig::fermi();
    starved_l1.l1.mshrs = 2;
    let mut starved_bypass = GpuConfig::fermi();
    starved_bypass.l1_bypass_global = true;
    starved_bypass.l2.mshrs = 4;
    [
        ("l1.mshrs=2", starved_l1),
        ("bypass, l2.mshrs=4", starved_bypass),
    ]
}

#[test]
fn reservation_storms_match_the_reference_interpreter() {
    // The grids above run one block per SM and barely reserve-fail.
    // Starved MSHR tables at grid 30 make the retry path the common
    // case.
    for (case, base) in storm_configs() {
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
                let sliced = simulate(&kernel, &gpu, &launch, 21, None);
                assert_eq!(
                    sliced,
                    old.clone().map(|(s, _)| s),
                    "app {abbr} value-sliced diverges ({case}, {sched:?})"
                );
                assert_eq!(new, old, "app {abbr} diverges ({case}, {sched:?})");
            }
        }
    }
}

/// One binary of the suite: the app it came from, which of its three
/// binaries it is, the allocated kernel and its register count.
struct Binary {
    app: &'static AppSpec,
    label: &'static str,
    kernel: Kernel,
    regs: u32,
}

/// Every app's distinct default, CRAT-local and CRAT binaries, in that
/// order. The CRAT ones come from static OptTLP, which re-homes spills
/// to shared memory without a profiling sweep; a CRAT binary equal to
/// one before it is left out.
fn suite_binaries(gpu: &GpuConfig) -> Vec<Binary> {
    let engine = EvalEngine::new(1);
    let crat = CratOptions::static_analysis(STATIC_L1_HIT_RATE);
    let local = CratOptions {
        shm_spill: false,
        ..crat
    };
    let mut out = Vec::new();
    for app in suite::all().chain(suite::bank_sensitive()) {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 4);
        let budget = analyze(&kernel, gpu, &launch).default_reg.max(ALLOC_FLOOR);
        let default = allocate(&kernel, &AllocOptions::new(budget))
            .unwrap_or_else(|e| panic!("{}: {e}", app.abbr));
        let first = out.len();
        out.push(Binary {
            app,
            label: "default",
            kernel: default.kernel,
            regs: default.slots_used,
        });
        for (label, opts) in [("CRAT-local", local), ("CRAT", crat)] {
            let sol = optimize_with(&engine, &kernel, gpu, &launch, &opts)
                .unwrap_or_else(|e| panic!("{} {label}: {e}", app.abbr));
            let winner = &sol.winner().allocation;
            let seen = out[first..]
                .iter()
                .any(|b: &Binary| b.regs == winner.slots_used && b.kernel == winner.kernel);
            if !seen {
                out.push(Binary {
                    app,
                    label,
                    kernel: winner.kernel.clone(),
                    regs: winner.slots_used,
                });
            }
        }
    }
    out
}

#[test]
fn value_sliced_simulation_matches_the_reference_interpreter() {
    // `simulate` is the path the evaluation engine runs: it skips the
    // lane work of every instruction off the value slice, so only its
    // statistics and errors can be compared. Each binary runs once, and
    // the binaries walk two rotations: the TLP cap (none at one block
    // per SM; 1 and 2 with two blocks on the simulated SM, so the cap
    // turns blocks over or keeps both resident), and the configuration
    // (both schedulers with the bank model off and at 32:4, and the two
    // reservation-storm configurations, which storm only at grid 30,
    // below).
    let gpu = GpuConfig::fermi();
    let mut configs = Vec::new();
    for banked in [false, true] {
        for sched in [SchedulerKind::Gto, SchedulerKind::Lrr] {
            let mut c = gpu.clone();
            c.scheduler = sched;
            // `--shm-banks 32:4`: 32 four-byte banks, 4-cycle replays.
            c.shm_banks = banked.then_some(ShmBankConfig {
                banks: 32,
                word_bytes: 4,
                conflict_penalty: 4,
            });
            configs.push(c);
        }
    }
    configs.extend(storm_configs().into_iter().map(|(_, c)| c));

    let binaries = suite_binaries(&gpu);
    let mut sliced = 0;
    for (n, b) in binaries.iter().enumerate() {
        let dk = decode(&b.kernel).unwrap_or_else(|e| panic!("{} {}: {e}", b.app.abbr, b.label));
        if dk
            .blocks()
            .iter()
            .flat_map(|blk| &blk.insts)
            .any(|i| !i.feeds_stats)
        {
            sliced += 1;
        }
        // The offset walks every (configuration, cap) pairing.
        let c = (n + n / 3) % configs.len();
        let (grid, tlp) = [
            (4, None),
            (gpu.num_sms + 1, Some(1)),
            (gpu.num_sms + 1, Some(2)),
        ][n % 3];
        let launch = launch_sized(b.app, grid);
        let new = simulate(&b.kernel, &configs[c], &launch, b.regs, tlp);
        let old = reference::simulate(&b.kernel, &configs[c], &launch, b.regs, tlp);
        assert_eq!(
            new, old,
            "{} {} diverges at grid {grid}, tlp {tlp:?}, configuration {c}",
            b.app.abbr, b.label
        );
    }
    // The tier compares nothing new unless most binaries skip work.
    assert!(
        sliced * 2 > binaries.len(),
        "only {sliced} of {} binaries have value-dead instructions",
        binaries.len()
    );
}
