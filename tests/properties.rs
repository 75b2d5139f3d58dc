//! Property-based tests over the whole stack: randomly generated
//! kernels must round-trip through the parser, allocate correctly at
//! any feasible budget, and keep their simulated semantics.

use std::sync::Arc;

use proptest::prelude::*;

use crat_suite::ptx::{
    self, Address, BinOp, CmpOp, Kernel, KernelBuilder, Operand, Space, Type, UnOp, VReg,
};
use crat_suite::regalloc::{
    allocate, knapsack_select, AllocContext, AllocError, AllocOptions, ShmSpillConfig, StrategyKind,
};
use crat_suite::sim::{simulate_capture, GpuConfig, LaunchConfig};

/// A recipe for a random (but always valid and warp-uniform) kernel.
#[derive(Debug, Clone)]
struct KernelRecipe {
    accumulators: usize,
    trips: u8,
    ops: Vec<u8>,
    use_shared: bool,
    use_sfu: bool,
}

fn recipe_strategy() -> impl Strategy<Value = KernelRecipe> {
    (
        2usize..10,
        1u8..12,
        prop::collection::vec(0u8..6, 1..12),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(accumulators, trips, ops, use_shared, use_sfu)| KernelRecipe {
                accumulators,
                trips,
                ops,
                use_shared,
                use_sfu,
            },
        )
}

/// Build a kernel from a recipe: accumulators live across a counted
/// loop whose body mixes loads, arithmetic, and optional shared-memory
/// traffic, everything warp-uniform.
fn build(recipe: &KernelRecipe) -> Kernel {
    let mut b = KernelBuilder::new("prop");
    if recipe.use_shared {
        b.shared_var("stage", 256);
    }
    let input = b.param_ptr("input");
    let out = b.param_ptr("out");
    let tid = b.special_tid_x(Type::U32);
    let ctaid = b.special_ctaid_x(Type::U32);
    let ntid = b.special_ntid_x(Type::U32);
    let prod = b.mul(Type::U32, ctaid, ntid);
    let gid = b.add(Type::U32, tid, prod);

    let accs: Vec<VReg> = (0..recipe.accumulators)
        .map(|i| b.add(Type::U32, gid, Operand::Imm(i as i64)))
        .collect();

    let l = b.loop_range(0, Operand::Imm(recipe.trips as i64), 1);
    let idx = b.add(Type::U32, gid, l.counter);
    let masked = b.and(Type::U32, idx, Operand::Imm(0x3F));
    let addr = b.wide_address(input, masked, 4);
    let v = b.ld(Space::Global, Type::U32, Address::reg(addr));
    for (k, &op) in recipe.ops.iter().enumerate() {
        let a = accs[k % accs.len()];
        match op {
            0 => b.binary_to(BinOp::Add, Type::U32, a, a, v),
            1 => b.binary_to(BinOp::Xor, Type::U32, a, a, l.counter),
            2 => b.mad_to(Type::U32, a, a, Operand::Imm(3), v),
            3 => b.binary_to(BinOp::Max, Type::U32, a, a, v),
            4 => {
                let p = b.setp(CmpOp::Lt, Type::U32, a, v);
                let sel = b.selp(Type::U32, a, v, p);
                b.mov_to(Type::U32, a, sel);
            }
            _ => {
                if recipe.use_sfu {
                    let f = b.cvt(Type::F32, Type::U32, a);
                    let s = b.unary(UnOp::Rsqrt, Type::F32, f);
                    let back = b.cvt(Type::U32, Type::F32, s);
                    b.binary_to(BinOp::Add, Type::U32, a, a, back);
                } else {
                    b.binary_to(BinOp::Shl, Type::U32, a, a, Operand::Imm(1));
                }
            }
        }
    }
    if recipe.use_shared {
        let toff = b.mul(Type::U32, tid, Operand::Imm(4));
        let tmask = b.and(Type::U32, toff, Operand::Imm(252));
        let tw = b.cvt(Type::U64, Type::U32, tmask);
        let base = b.fresh(Type::U64);
        b.push_guarded(
            None,
            crat_suite::ptx::Op::MovVarAddr {
                dst: base,
                var: "stage".to_string(),
            },
        );
        let slot = b.add(Type::U64, base, tw);
        b.st(Space::Shared, Type::U32, Address::reg(slot), accs[0]);
        b.bar_sync();
        let back = b.ld(Space::Shared, Type::U32, Address::reg(slot));
        b.binary_to(BinOp::Add, Type::U32, accs[0], accs[0], back);
    }
    b.end_loop(l);

    let mut total = accs[0];
    for &a in &accs[1..] {
        total = b.add(Type::U32, total, a);
    }
    let oaddr = b.wide_address(out, gid, 4);
    b.st(Space::Global, Type::U32, oaddr, total);
    b.finish()
}

fn outputs(kernel: &Kernel, regs: u32) -> std::collections::HashMap<u64, u64> {
    let launch = LaunchConfig::new(15, 32)
        .with_param("input", 0x100_0000)
        .with_param("out", 0x200_0000);
    let (_, mem) = simulate_capture(kernel, &GpuConfig::fermi(), &launch, regs, None)
        .expect("simulation succeeds");
    mem.into_iter().filter(|&(a, _)| a >= 0x200_0000).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Printed kernels re-parse to the identical IR.
    #[test]
    fn parse_print_round_trip(recipe in recipe_strategy()) {
        let kernel = build(&recipe);
        prop_assert_eq!(kernel.validate(), Ok(()));
        let text = kernel.to_ptx();
        let re = ptx::parse(&text).expect("own output parses");
        prop_assert_eq!(&re, &kernel);
        prop_assert_eq!(re.to_ptx(), text);
    }

    /// Every strategy's allocation at any feasible budget, local-only
    /// and with spare shared memory (one 32-thread block per launch
    /// block), stays within the budget, validates, and computes the
    /// same results as the original. Briggs must succeed; another
    /// strategy may report the budget too small.
    #[test]
    fn allocation_is_semantics_preserving(recipe in recipe_strategy(), cut in 0u32..10) {
        let kernel = build(&recipe);
        let expect = outputs(&kernel, 63);

        let roomy = allocate(&kernel, &AllocOptions::new(63)).expect("roomy allocation");
        let budget = roomy.slots_used.saturating_sub(cut).max(12);
        let local = AllocOptions::new(budget);
        for opts in [local, local.with_shm_spill(ShmSpillConfig::new(4096, 32))] {
            for kind in StrategyKind::ALL {
                let fresh = |k: &Kernel| Arc::new(AllocContext::build(k));
                let alloc = match kind.allocate(&kernel, fresh, &opts) {
                    Ok(a) => a,
                    Err(AllocError::BudgetTooSmall { .. }) if kind != StrategyKind::Briggs => {
                        continue
                    }
                    Err(e) => panic!("{kind} {:?}: {e}", opts.shm_spill),
                };
                prop_assert!(alloc.slots_used <= budget, "{} {:?}", kind, opts.shm_spill);
                prop_assert_eq!(alloc.kernel.validate(), Ok(()));
                let got = outputs(&alloc.kernel, alloc.slots_used);
                prop_assert_eq!(&got, &expect, "{} {:?}", kind, opts.shm_spill);
            }
        }
    }

    /// The knapsack solver never exceeds capacity and matches a brute-
    /// force oracle on small instances.
    #[test]
    fn knapsack_is_optimal(
        items in prop::collection::vec((1u64..64, 0u64..32), 1..10),
        capacity in 0u64..256,
    ) {
        let weights: Vec<u64> = items.iter().map(|&(w, _)| w).collect();
        let gains: Vec<u64> = items.iter().map(|&(_, g)| g).collect();
        let picks = knapsack_select(&weights, &gains, capacity);

        let weight: u64 = picks.iter().zip(&weights).filter(|(p, _)| **p).map(|(_, w)| w).sum();
        prop_assert!(weight <= capacity);

        let gain: u64 = picks.iter().zip(&gains).filter(|(p, _)| **p).map(|(_, g)| g).sum();
        let mut best = 0;
        for mask in 0u32..(1 << items.len()) {
            let (mut w, mut g) = (0u64, 0u64);
            for (i, &(wi, gi)) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    w += wi;
                    g += gi;
                }
            }
            if w <= capacity {
                best = best.max(g);
            }
        }
        prop_assert_eq!(gain, best);
    }
}
