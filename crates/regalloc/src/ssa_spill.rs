//! Braun–Hack-style SSA spill minimization with live-range splitting.
//!
//! Where Chaitin–Briggs discovers spills from coloring failures, this
//! allocator *plans* them first: a Belady/MIN pre-pass walks every
//! block with a register file of `budget_slots` and, whenever the
//! working set overflows, evicts the value whose next use is furthest
//! away (Braun & Hack's SSA-based generalization of Belady's optimal
//! replacement). Evicted values are spilled through the shared
//! `SpillState` machinery, which reloads into a fresh temporary at
//! every use — live-range splitting at use granularity, so a spilled
//! value only occupies a register in the short windows where it is
//! actually read.
//!
//! This module holds the planner and its entry points. The allocator
//! is Briggs' build–color–spill loop (`briggs.rs`) with the planner
//! run at the top of every iteration: while it picks anything, those
//! registers are spilled and the loop rebuilds. Coloring
//! ([`crate::try_color`]) then runs on the pre-spilled kernel and
//! remains the authoritative budget gate: any residual pressure the
//! MIN pass could not see (cross-block interference, pair alignment)
//! is resolved by the usual spill-and-retry loop, and infeasible
//! budgets fail exactly like the Briggs path. The shared-memory
//! re-homing optimization (Algorithm 1) applies unchanged.

use std::collections::{HashMap, HashSet};

use crat_ptx::{Kernel, LiveRange, Liveness, Type, VReg};

use crate::briggs::run_with_shm_fallback;
use crate::context::AllocContext;
use crate::{AllocError, AllocOptions, Allocation};

/// Allocate `kernel` with Belady/furthest-next-use spill planning
/// followed by graph coloring.
///
/// # Errors
///
/// Same failure modes as [`crate::allocate`].
///
/// # Examples
///
/// ```
/// use crat_ptx::{KernelBuilder, Type, Operand};
/// use crat_regalloc::{allocate_ssa, AllocOptions};
///
/// let mut b = KernelBuilder::new("k");
/// let x = b.mov(Type::U32, Operand::Imm(1));
/// let y = b.mov(Type::U32, Operand::Imm(2));
/// let _z = b.add(Type::U32, x, y);
/// let alloc = allocate_ssa(&b.finish(), &AllocOptions::new(8))?;
/// assert!(alloc.slots_used <= 8);
/// # Ok::<(), crat_regalloc::AllocError>(())
/// ```
pub fn allocate_ssa(kernel: &Kernel, opts: &AllocOptions) -> Result<Allocation, AllocError> {
    run_with_shm_fallback(kernel, None, opts, true)
}

/// [`allocate_ssa`] borrowing a shared [`AllocContext`] for the first
/// iteration's analyses. Results are bit-identical to [`allocate_ssa`].
///
/// # Errors
///
/// Same failure modes as [`allocate_ssa`].
pub fn allocate_ssa_with(
    kernel: &Kernel,
    ctx: &AllocContext,
    opts: &AllocOptions,
) -> Result<Allocation, AllocError> {
    run_with_shm_fallback(kernel, Some(ctx), opts, true)
}

/// Next-use distance encoding: in-block positions order before the
/// "live past the block" horizon.
const FAR: usize = usize::MAX;

/// The Belady/MIN pre-pass: simulate a `budget`-slot register file
/// forward through every block, evicting the value with the furthest
/// next use whenever the working set overflows, and return the values
/// that had to live in memory.
///
/// The pass is a *planner*, not a gate: values it cannot evict
/// (unspillable temporaries, single-point ranges, predicates) are
/// tolerated over budget and left for [`crate::try_color`] to resolve.
pub(crate) fn belady_spill_picks(
    work: &Kernel,
    lv: &Liveness,
    ranges: &[LiveRange],
    budget: u32,
    unspillable: &HashSet<VReg>,
) -> Vec<VReg> {
    let spillable = |v: VReg| {
        !unspillable.contains(&v) && ranges[v.index()].len() >= 2 && work.reg_ty(v) != Type::Pred
    };
    let width = |v: VReg| work.reg_ty(v).reg_slots();
    let mut spilled: HashSet<VReg> = HashSet::new();

    for block in work.blocks() {
        // Sorted in-block read positions per register (a guarded def
        // reads its destination; the terminator reads at position n).
        let n = block.insts.len();
        let mut read_pos: HashMap<VReg, Vec<usize>> = HashMap::new();
        for (j, inst) in block.insts.iter().enumerate() {
            let mut regs = inst.uses();
            if inst.is_conditional_def() {
                if let Some(d) = inst.def() {
                    regs.push(d);
                }
            }
            for v in regs {
                read_pos.entry(v).or_default().push(j);
            }
        }
        if let Some(t) = block.terminator.used_reg() {
            read_pos.entry(t).or_default().push(n);
        }
        let live_out = lv.live_out(block.id);
        let next_use = |v: VReg, from: usize| -> Option<usize> {
            if let Some(ps) = read_pos.get(&v) {
                let i = ps.partition_point(|&p| p < from);
                if i < ps.len() {
                    return Some(ps[i]);
                }
            }
            if live_out.contains(v.index()) {
                Some(FAR)
            } else {
                None
            }
        };
        // Eviction rank: furthest next use first, then the longest
        // global range, then the highest id — all deterministic.
        let evict_key =
            |v: VReg, from: usize| (next_use(v, from).unwrap_or(0), ranges[v.index()].end, v.0);

        // Working set of in-register values (predicates are free).
        let mut w: HashSet<VReg> = HashSet::new();
        let mut w_slots: u32 = 0;

        // Admit live-in values nearest-use-first; the rest start (and
        // stay) in memory.
        let mut entering: Vec<VReg> = lv
            .live_in(block.id)
            .iter()
            .map(|i| VReg(i as u32))
            .filter(|&v| !spilled.contains(&v))
            .collect();
        entering.sort_by_key(|&v| (next_use(v, 0).unwrap_or(FAR), ranges[v.index()].end, v.0));
        for v in entering {
            let vw = width(v);
            if vw == 0 || w_slots + vw <= budget || !spillable(v) {
                w.insert(v);
                w_slots += vw;
            } else {
                spilled.insert(v);
            }
        }

        let make_room = |w: &mut HashSet<VReg>,
                         w_slots: &mut u32,
                         needed: u32,
                         from: usize,
                         pinned: &[VReg],
                         spilled: &mut HashSet<VReg>| {
            while *w_slots + needed > budget {
                let victim = w
                    .iter()
                    .copied()
                    .filter(|&x| spillable(x) && !pinned.contains(&x))
                    .max_by_key(|&x| evict_key(x, from));
                match victim {
                    Some(x) => {
                        w.remove(&x);
                        *w_slots -= width(x);
                        spilled.insert(x);
                    }
                    // Nothing evictable: tolerate the overflow and let
                    // the coloring phase sort it out.
                    None => break,
                }
            }
        };

        for (j, inst) in block.insts.iter().enumerate() {
            let mut regs = inst.uses();
            if inst.is_conditional_def() {
                if let Some(d) = inst.def() {
                    regs.push(d);
                }
            }
            regs.sort_unstable();
            regs.dedup();

            // Reads of spilled values reload into ephemeral
            // temporaries (live-range splitting); everything else must
            // be resident.
            let resident: Vec<VReg> = regs
                .iter()
                .copied()
                .filter(|&u| !spilled.contains(&u) && width(u) > 0)
                .collect();
            for &u in &resident {
                if !w.contains(&u) {
                    make_room(&mut w, &mut w_slots, width(u), j, &resident, &mut spilled);
                    w.insert(u);
                    w_slots += width(u);
                }
            }
            // Values whose last read this was die here.
            for &u in &resident {
                if next_use(u, j + 1).is_none() && w.remove(&u) {
                    w_slots -= width(u);
                }
            }
            if let Some(d) = inst.def() {
                if spilled.contains(&d) || width(d) == 0 {
                    continue;
                }
                if next_use(d, j + 1).is_some() {
                    if !w.contains(&d) {
                        make_room(&mut w, &mut w_slots, width(d), j + 1, &[d], &mut spilled);
                        w.insert(d);
                        w_slots += width(d);
                    }
                } else if w.remove(&d) {
                    // Dead (re)definition: the previous value is gone.
                    w_slots -= width(d);
                }
            }
        }
    }

    let mut picks: Vec<VReg> = spilled.into_iter().filter(|&v| spillable(v)).collect();
    picks.sort_unstable();
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allocate, ShmSpillConfig};
    use crat_ptx::{KernelBuilder, Operand, Space};

    fn pressure_kernel(n: usize) -> Kernel {
        let mut b = KernelBuilder::new("pressure");
        let out = b.param_ptr("out");
        let accs: Vec<VReg> = (0..n)
            .map(|i| b.mov(Type::U32, Operand::Imm(i as i64)))
            .collect();
        let l = b.loop_range(0, Operand::Imm(32), 1);
        for &a in &accs {
            b.mad_to(Type::U32, a, a, Operand::Imm(3), l.counter);
        }
        b.end_loop(l);
        let mut total = accs[0];
        for &a in &accs[1..] {
            total = b.add(Type::U32, total, a);
        }
        let tid = b.special_tid_x(Type::U32);
        let addr = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, addr, total);
        b.finish()
    }

    #[test]
    fn generous_budget_avoids_spills() {
        let k = pressure_kernel(8);
        let a = allocate_ssa(&k, &AllocOptions::new(64)).unwrap();
        assert!(!a.spills.any_spills());
        assert!(a.slots_used <= 64);
        assert!(a.kernel.validate().is_ok());
    }

    #[test]
    fn tight_budget_spills_and_respects_limit() {
        let k = pressure_kernel(16);
        let generous = allocate_ssa(&k, &AllocOptions::new(64)).unwrap();
        let budget = generous.slots_used - 5;
        let a = allocate_ssa(&k, &AllocOptions::new(budget)).unwrap();
        assert!(a.spills.any_spills());
        assert!(a.slots_used <= budget, "{} > {}", a.slots_used, budget);
        assert!(a.kernel.validate().is_ok());
    }

    #[test]
    fn matches_briggs_when_pressure_is_low() {
        // With no spills to plan, both paths reduce to the same
        // coloring call.
        let k = pressure_kernel(6);
        let a = allocate_ssa(&k, &AllocOptions::new(64)).unwrap();
        let b = allocate(&k, &AllocOptions::new(64)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shared_context_matches_from_scratch() {
        let k = pressure_kernel(14);
        let ctx = AllocContext::build(&k);
        let generous = allocate_ssa(&k, &AllocOptions::new(64)).unwrap();
        for budget in [64, generous.slots_used - 2, generous.slots_used - 6] {
            let opts = AllocOptions::new(budget);
            let cold = allocate_ssa(&k, &opts).unwrap();
            let warm = allocate_ssa_with(&k, &ctx, &opts).unwrap();
            assert_eq!(cold, warm, "budget {budget}");
        }
    }

    #[test]
    fn shm_spilling_rehomes_substacks() {
        let k = pressure_kernel(16);
        let generous = allocate_ssa(&k, &AllocOptions::new(64)).unwrap();
        let budget = generous.slots_used - 6;
        let opts = AllocOptions::new(budget).with_shm_spill(ShmSpillConfig::new(48 * 1024, 128));
        let a = allocate_ssa(&k, &opts).unwrap();
        assert!(a.kernel.validate().is_ok());
        assert!(a.slots_used <= budget);
        assert!(
            a.spills.counts.total_shared() > 0,
            "expected shared spills: {:?}",
            a.spills.counts
        );
    }

    #[test]
    fn impossible_budget_errors() {
        let k = pressure_kernel(8);
        match allocate_ssa(&k, &AllocOptions::new(2)) {
            Err(AllocError::BudgetTooSmall { budget_slots: 2 }) => {}
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn is_deterministic() {
        let k = pressure_kernel(12);
        let generous = allocate_ssa(&k, &AllocOptions::new(64)).unwrap();
        let budget = generous.slots_used - 4;
        let a1 = allocate_ssa(&k, &AllocOptions::new(budget)).unwrap();
        let a2 = allocate_ssa(&k, &AllocOptions::new(budget)).unwrap();
        assert_eq!(a1, a2);
    }
}
