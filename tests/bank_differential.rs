//! Bank-model differential tier: the shared-memory bank-conflict
//! model must be invisible when disabled and conservative when
//! enabled.
//!
//! * Disabled (`GpuConfig::shm_banks == None`, the default): every
//!   workload — all 22 paper apps plus the bank-study companions —
//!   simulates bit-identically (same [`SimStats`], same captured
//!   memory) on the decoded cycle loop and the reference interpreter,
//!   with zero conflicts counted and zero slots attributed.
//! * Enabled: the decoded loop still matches the reference
//!   interpreter bit for bit (across scheduler policies and across
//!   spill layouts), the cycle attribution still sums exactly to the
//!   simulated cycles, and conflict serialization only ever *adds*
//!   cycles over the conflict-free run of the same binary.

use crat_suite::regalloc::{
    allocate, AllocOptions, LayoutPolicy, ShmBankParams, ShmSpillConfig, SpillHome,
};
use crat_suite::sim::{
    reference, simulate, simulate_capture, GpuConfig, SchedulerKind, ShmBankConfig, StallCause,
};
use crat_suite::workloads::{build_kernel, launch_sized, suite};

/// Fermi with the bank model armed: 32 banks of 4-byte words.
fn banked(conflict_penalty: u32) -> GpuConfig {
    let mut gpu = GpuConfig::fermi();
    gpu.shm_banks = Some(ShmBankConfig {
        banks: 32,
        word_bytes: 4,
        conflict_penalty,
    });
    gpu
}

#[test]
fn disabled_bank_model_is_bit_identical_to_the_reference() {
    let gpu = GpuConfig::fermi();
    assert!(gpu.shm_banks.is_none(), "fermi must default conflict-free");
    for app in suite::all().chain(suite::bank_sensitive()) {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 6);
        let new = simulate_capture(&kernel, &gpu, &launch, 21, None)
            .unwrap_or_else(|e| panic!("{}: {e}", app.abbr));
        let old = reference::simulate_capture(&kernel, &gpu, &launch, 21, None)
            .unwrap_or_else(|e| panic!("{}: {e}", app.abbr));
        assert_eq!(new, old, "app {} diverges with banks off", app.abbr);
        assert_eq!(new.0.shm_bank_conflicts, 0, "app {}", app.abbr);
        assert_eq!(
            new.0.attribution.cause(StallCause::ShmBankConflict),
            0,
            "app {}",
            app.abbr
        );
    }
}

#[test]
fn enabled_bank_model_matches_the_reference_across_schedulers() {
    for sched in [SchedulerKind::Gto, SchedulerKind::Lrr] {
        let mut gpu = banked(2);
        gpu.scheduler = sched;
        // Shared-memory-heavy apps: barrier apps stage through shared
        // memory at 21 registers; BNKT adds double-precision traffic.
        for abbr in ["DTC", "HST", "NEED", "BNKT"] {
            let app = suite::spec(abbr);
            let kernel = build_kernel(app);
            let launch = launch_sized(app, 4);
            let new = simulate_capture(&kernel, &gpu, &launch, 21, None).unwrap();
            let old = reference::simulate_capture(&kernel, &gpu, &launch, 21, None).unwrap();
            assert_eq!(
                new, old,
                "app {abbr} diverges under {sched:?} with banks on"
            );
            new.0
                .attribution
                .check(new.0.cycles)
                .unwrap_or_else(|e| panic!("{abbr} under {sched:?}: {e}"));
        }
    }
}

#[test]
fn conflict_serialization_only_adds_cycles() {
    let free = GpuConfig::fermi();
    for abbr in ["HST", "LUD", "PATH", "SGM", "BNKT"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 6);
        let base = simulate(&kernel, &free, &launch, 21, None).unwrap();
        assert_eq!(base.shm_bank_conflicts, 0, "{abbr}");
        for penalty in [1, 4, 8] {
            let stats = simulate(&kernel, &banked(penalty), &launch, 21, None).unwrap();
            stats
                .attribution
                .check(stats.cycles)
                .unwrap_or_else(|e| panic!("{abbr} at penalty {penalty}: {e}"));
            // Same binary, same launch: the bank model may only delay.
            assert!(
                stats.cycles >= base.cycles,
                "{abbr} at penalty {penalty}: {} < conflict-free {}",
                stats.cycles,
                base.cycles
            );
            assert_eq!(stats.warp_insts, base.warp_insts, "{abbr}");
            if stats.shm_bank_conflicts == 0 {
                assert_eq!(
                    stats.cycles, base.cycles,
                    "{abbr}: stalls without conflicts"
                );
            }
        }
    }
}

#[test]
fn spill_layouts_match_the_reference_with_banks_enabled() {
    let gpu = banked(2);
    let bank = ShmBankParams {
        banks: 32,
        word_bytes: 4,
        conflict_penalty: 2,
    };
    for abbr in ["BNK", "BNKT"] {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        let launch = launch_sized(app, 6);
        for policy in [
            LayoutPolicy::Auto,
            LayoutPolicy::WarpInterleaved,
            LayoutPolicy::PerThread,
        ] {
            // Tight budget + generous spare shared memory: the
            // knapsack re-homes the double-precision sub-stack, so the
            // spill loads and stores themselves carry the bank
            // traffic under the layout being tested.
            let opts = AllocOptions::new(24).with_shm_spill(
                ShmSpillConfig::new(48 * 1024, app.block_size)
                    .with_bank(bank)
                    .with_layout(policy),
            );
            let alloc = allocate(&kernel, &opts).unwrap_or_else(|e| panic!("{abbr}: {e}"));
            assert!(
                alloc
                    .spills
                    .substacks
                    .iter()
                    .any(|s| s.home == SpillHome::Shared),
                "{abbr} with {policy:?} re-homed nothing"
            );
            let new = simulate_capture(&alloc.kernel, &gpu, &launch, alloc.slots_used, None)
                .unwrap_or_else(|e| panic!("{abbr}: {e}"));
            let old =
                reference::simulate_capture(&alloc.kernel, &gpu, &launch, alloc.slots_used, None)
                    .unwrap_or_else(|e| panic!("{abbr}: {e}"));
            assert_eq!(new, old, "{abbr} diverges with {policy:?} spills");
            new.0
                .attribution
                .check(new.0.cycles)
                .unwrap_or_else(|e| panic!("{abbr} with {policy:?}: {e}"));
            assert!(
                new.0.shm_bank_conflicts > 0,
                "{abbr} with {policy:?}: spill traffic produced no conflicts"
            );
        }
    }
}
