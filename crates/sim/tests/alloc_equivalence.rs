//! Cross-crate semantic checks: register allocation (including spill
//! code and shared-memory spill re-homing) must not change what a
//! kernel computes, only how many registers it uses.

use crat_ptx::{Kernel, KernelBuilder, Operand, Space, Type, VReg};
use crat_regalloc::{allocate, allocate_linear_scan, AllocOptions, ShmSpillConfig};
use crat_sim::{simulate_capture, GpuConfig, LaunchConfig};

/// A kernel with `n` accumulators updated in a loop from loaded data,
/// summed and written out — enough register pressure to force spills
/// at tight budgets, and data-dependent results that expose any
/// mis-renaming.
fn workload(n: usize, trips: i64) -> Kernel {
    let mut b = KernelBuilder::new("wk");
    let input = b.param_ptr("input");
    let out = b.param_ptr("out");
    let tid = b.special_tid_x(Type::U32);
    let ctaid = b.special_ctaid_x(Type::U32);
    let ntid = b.special_ntid_x(Type::U32);
    let prod = b.mul(Type::U32, ctaid, ntid);
    let gid = b.add(Type::U32, tid, prod);

    let accs: Vec<VReg> = (0..n)
        .map(|i| b.add(Type::U32, gid, Operand::Imm(i as i64)))
        .collect();
    let l = b.loop_range(0, Operand::Imm(trips), 1);
    let idx = b.add(Type::U32, gid, l.counter);
    let masked = b.and(Type::U32, idx, Operand::Imm(0xFF));
    let addr = b.wide_address(input, masked, 4);
    let v = b.ld(Space::Global, Type::U32, addr);
    for (i, &a) in accs.iter().enumerate() {
        b.mad_to(Type::U32, a, a, Operand::Imm(2 * i as i64 + 3), v);
    }
    b.end_loop(l);

    let mut total = accs[0];
    for &a in &accs[1..] {
        total = b.add(Type::U32, total, a);
    }
    let oa = b.wide_address(out, gid, 4);
    b.st(Space::Global, Type::U32, oa, total);
    b.finish()
}

fn outputs(kernel: &Kernel, regs: u32) -> std::collections::HashMap<u64, u64> {
    let cfg = GpuConfig::fermi();
    let launch = LaunchConfig::new(30, 64)
        .with_param("input", 0x100_0000)
        .with_param("out", 0x200_0000);
    let (_, mem) = simulate_capture(kernel, &cfg, &launch, regs, None).unwrap();
    // Only compare the output array (input region is never written).
    mem.into_iter().filter(|&(a, _)| a >= 0x200_0000).collect()
}

#[test]
fn briggs_allocation_preserves_semantics() {
    let k = workload(12, 16);
    let reference = outputs(&k, 63);
    assert!(!reference.is_empty());

    let full = allocate(&k, &AllocOptions::new(63)).unwrap();
    for cut in [0, 2, 4, 6, 8] {
        let budget = full.slots_used.saturating_sub(cut).max(12);
        let alloc = allocate(&k, &AllocOptions::new(budget)).unwrap();
        assert!(alloc.slots_used <= budget);
        let got = outputs(&alloc.kernel, alloc.slots_used);
        assert_eq!(got, reference, "budget {budget} changed results");
    }
}

#[test]
fn shm_spill_rehoming_preserves_semantics() {
    let k = workload(14, 16);
    let reference = outputs(&k, 63);
    let full = allocate(&k, &AllocOptions::new(63)).unwrap();
    let budget = full.slots_used - 6;
    let opts = AllocOptions::new(budget).with_shm_spill(ShmSpillConfig::new(48 * 1024, 64));
    let alloc = allocate(&k, &opts).unwrap();
    assert!(
        alloc.spills.counts.total_shared() > 0,
        "test needs shared spills to be meaningful: {:?}",
        alloc.spills.counts
    );
    let got = outputs(&alloc.kernel, alloc.slots_used);
    assert_eq!(got, reference);
}

#[test]
fn linear_scan_allocation_preserves_semantics() {
    let k = workload(12, 16);
    let reference = outputs(&k, 63);
    let full = allocate_linear_scan(&k, &AllocOptions::new(63)).unwrap();
    for cut in [0, 3, 6] {
        let budget = full.slots_used.saturating_sub(cut).max(12);
        let alloc = allocate_linear_scan(&k, &AllocOptions::new(budget)).unwrap();
        let got = outputs(&alloc.kernel, alloc.slots_used);
        assert_eq!(got, reference, "budget {budget} changed results");
    }
}

#[test]
fn spills_slow_the_kernel_down() {
    // The performance side of the tradeoff: fewer registers → more
    // spill instructions → more cycles (with TLP held fixed).
    let k = workload(14, 32);
    let cfg = GpuConfig::fermi();
    let launch = LaunchConfig::new(30, 64)
        .with_param("input", 0x100_0000)
        .with_param("out", 0x200_0000);

    let full = allocate(&k, &AllocOptions::new(63)).unwrap();
    let tight = allocate(&k, &AllocOptions::new(full.slots_used - 8)).unwrap();
    assert!(tight.spills.counts.total_local() > 0);

    let fast = crat_sim::simulate(&full.kernel, &cfg, &launch, full.slots_used, Some(2)).unwrap();
    let slow = crat_sim::simulate(&tight.kernel, &cfg, &launch, tight.slots_used, Some(2)).unwrap();
    assert!(
        slow.cycles > fast.cycles,
        "spilled version must be slower: {} vs {}",
        slow.cycles,
        fast.cycles
    );
    assert!(slow.local_insts > 0);
    assert_eq!(fast.local_insts, 0);
}

#[test]
fn l1_bypass_changes_timing_not_results() {
    let k = workload(10, 16);
    let launch = LaunchConfig::new(30, 64)
        .with_param("input", 0x100_0000)
        .with_param("out", 0x200_0000);
    let normal_cfg = GpuConfig::fermi();
    let mut bypass_cfg = GpuConfig::fermi();
    bypass_cfg.l1_bypass_global = true;

    let (ns, nm) = simulate_capture(&k, &normal_cfg, &launch, 21, None).unwrap();
    let (bs, bm) = simulate_capture(&k, &bypass_cfg, &launch, 21, None).unwrap();
    assert_eq!(nm, bm, "bypassing must not change results");
    // Bypassed global loads never touch the L1.
    assert!(bs.l1_hits < ns.l1_hits);
    assert!(bs.l2_accesses > ns.l2_accesses);
}
