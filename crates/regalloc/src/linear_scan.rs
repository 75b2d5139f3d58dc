//! A linear-scan register allocator (Poletto & Sarkar style) over
//! conservative live-range hulls.
//!
//! This is the *reference* allocator the suite compares Chaitin–Briggs
//! against, playing the role of the undisclosed vendor allocator in
//! the paper's Figure 12 validation: an independent algorithm whose
//! spill behaviour should be similar but not identical. It spills to
//! local memory only (no shared-memory optimization).

use std::collections::HashMap;

use crat_ptx::{Cfg, Kernel, Liveness, Type, VReg};

use crate::coloring::ColorAssignment;
use crate::context::AllocContext;
use crate::spill::SpillState;
use crate::{briggs::rename_to_physical, AllocError, AllocOptions, Allocation, MAX_ITERATIONS};

/// Allocate registers by linear scan over live-interval hulls.
///
/// The [`AllocOptions::shm_spill`] option is ignored: this allocator
/// models a conventional tool-chain allocator without the paper's
/// spilling optimization.
///
/// # Errors
///
/// Same failure modes as [`crate::allocate`].
///
/// # Examples
///
/// ```
/// use crat_ptx::{KernelBuilder, Type, Operand};
/// use crat_regalloc::{allocate_linear_scan, AllocOptions};
///
/// let mut b = KernelBuilder::new("k");
/// let x = b.mov(Type::U32, Operand::Imm(1));
/// let y = b.mov(Type::U32, Operand::Imm(2));
/// let _z = b.add(Type::U32, x, y);
/// let alloc = allocate_linear_scan(&b.finish(), &AllocOptions::new(8))?;
/// assert!(alloc.slots_used <= 8);
/// # Ok::<(), crat_regalloc::AllocError>(())
/// ```
pub fn allocate_linear_scan(
    kernel: &Kernel,
    opts: &AllocOptions,
) -> Result<Allocation, AllocError> {
    run(kernel, None, opts)
}

/// [`allocate_linear_scan`] borrowing a shared [`AllocContext`] for
/// the first scan (the context's interference graph is unused — linear
/// scan only needs the CFG and live ranges). Results are bit-identical
/// to [`allocate_linear_scan`]; later iterations rebuild because spill
/// code changed the kernel.
///
/// # Errors
///
/// Same failure modes as [`allocate_linear_scan`].
pub fn allocate_linear_scan_with(
    kernel: &Kernel,
    ctx: &AllocContext,
    opts: &AllocOptions,
) -> Result<Allocation, AllocError> {
    run(kernel, Some(ctx), opts)
}

fn run(
    kernel: &Kernel,
    ctx: Option<&AllocContext>,
    opts: &AllocOptions,
) -> Result<Allocation, AllocError> {
    kernel.validate().map_err(AllocError::InvalidKernel)?;
    debug_assert!(
        ctx.is_none_or(|c| c.num_regs() == kernel.num_regs()),
        "AllocContext was built from a different kernel"
    );
    let budget = opts.budget_slots;
    let mut work = kernel.clone();
    let mut st = SpillState::default();

    let mut shared = ctx;
    for _ in 0..MAX_ITERATIONS {
        let owned;
        let (cfg, ranges): (&Cfg, &[crat_ptx::LiveRange]) = match shared.take() {
            Some(c) => (&c.cfg, &c.ranges),
            None => {
                let cfg = Cfg::build(&work);
                let lv = Liveness::compute(&work, &cfg);
                let ranges = lv.ranges(&work, &cfg);
                owned = (cfg, ranges);
                (&owned.0, &owned.1)
            }
        };

        // Nodes in increasing start order.
        let mut order: Vec<VReg> = (0..work.num_regs() as u32)
            .map(VReg)
            .filter(|&v| work.reg_ty(v) != Type::Pred && ranges[v.index()].accesses > 0)
            .collect();
        order.sort_by_key(|v| (ranges[v.index()].start, v.0));

        // Active intervals: (end, vreg, slot) over an occupancy map of
        // register slots. Expired intervals free their slots; a wide
        // value takes the lowest free aligned pair. Slots are untyped
        // here: hardware registers carry no types, and this allocator
        // models the vendor tool-chain operating below the PTX level.
        let mut active: Vec<(u32, VReg, u32)> = Vec::new();
        let mut occupied = vec![false; budget as usize];
        let mut slot_of: HashMap<VReg, u32> = HashMap::new();
        let mut slot_types: Vec<Option<Type>> = vec![None; budget as usize];
        let mut spills: Vec<VReg> = Vec::new();

        let spillable = |a: VReg| !st.unspillable.contains(&a) && ranges[a.index()].len() >= 2;
        let find_slot = |occupied: &[bool], width: u32| -> Option<u32> {
            let mut s = 0u32;
            while s + width <= budget {
                if (s..s + width).all(|k| !occupied[k as usize]) {
                    return Some(s);
                }
                s += width;
            }
            None
        };

        'nodes: for v in order {
            let r = ranges[v.index()];
            let ty = work.reg_ty(v);
            let width = ty.reg_slots().max(1);

            // Expire intervals that ended before this one starts.
            active.retain(|&(end, a, slot)| {
                if end < r.start {
                    let w = work.reg_ty(a).reg_slots().max(1);
                    for k in slot..slot + w {
                        occupied[k as usize] = false;
                    }
                    false
                } else {
                    true
                }
            });

            // Take the lowest free aligned run; spill farthest-ending
            // actives until one opens up.
            let slot = loop {
                if let Some(s) = find_slot(&occupied, width) {
                    break s;
                }
                let victim = active
                    .iter()
                    .filter(|&&(_, a, _)| spillable(a))
                    .max_by_key(|&&(end, a, _)| (end, a.0))
                    .copied();
                match victim {
                    // Classic furthest-end heuristic: spill this node
                    // itself when it out-lives every eviction candidate.
                    Some((vend, _, _)) if vend <= r.end && spillable(v) => {
                        spills.push(v);
                        continue 'nodes;
                    }
                    Some((_, va, vslot)) => {
                        spills.push(va);
                        slot_of.remove(&va);
                        active.retain(|&(_, a, _)| a != va);
                        let w = work.reg_ty(va).reg_slots().max(1);
                        for k in vslot..vslot + w {
                            occupied[k as usize] = false;
                        }
                    }
                    None if spillable(v) => {
                        spills.push(v);
                        continue 'nodes;
                    }
                    None => {
                        // Nothing to evict and this node cannot be
                        // spilled. If earlier rounds queued spills the
                        // next scan may still fit; otherwise give up.
                        if spills.is_empty() {
                            return Err(AllocError::BudgetTooSmall {
                                budget_slots: budget,
                            });
                        }
                        break 'nodes;
                    }
                }
            };
            for k in slot..slot + width {
                occupied[k as usize] = true;
                if slot_types[k as usize].is_none() {
                    slot_types[k as usize] = Some(ty);
                }
            }
            slot_of.insert(v, slot);
            active.push((r.end, v, slot));
        }

        if spills.is_empty() {
            let slots_used = slot_of
                .iter()
                .map(|(v, &s)| s + work.reg_ty(*v).reg_slots().max(1))
                .max()
                .unwrap_or(0);
            let assignment = ColorAssignment {
                slot_of,
                slot_types,
                slots_used,
            };
            let report = st.report(&work, cfg, 1);
            let (physical, pred_regs_used) = rename_to_physical(&work, &assignment);
            debug_assert_eq!(physical.validate(), Ok(()));
            return Ok(Allocation {
                kernel: physical,
                slots_used,
                pred_regs_used,
                spills: report,
            });
        }
        spills.sort_unstable();
        spills.dedup();
        st.spill_vregs(&mut work, &spills);
    }
    Err(AllocError::IterationLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allocate, AllocOptions};
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
        let a = allocate_linear_scan(&k, &AllocOptions::new(64)).unwrap();
        assert!(!a.spills.any_spills());
        assert!(a.kernel.validate().is_ok());
    }

    #[test]
    fn tight_budget_spills_and_respects_limit() {
        let k = pressure_kernel(16);
        let generous = allocate_linear_scan(&k, &AllocOptions::new(64)).unwrap();
        let budget = generous.slots_used - 4;
        let a = allocate_linear_scan(&k, &AllocOptions::new(budget)).unwrap();
        assert!(a.spills.any_spills());
        assert!(a.slots_used <= budget);
        assert!(a.kernel.validate().is_ok());
    }

    /// The two allocators are independent algorithms (one types its
    /// slots at the PTX level, one models untyped hardware registers):
    /// their spill behaviour should be in the same ballpark but not
    /// identical — the paper's Figure 12 relationship between CRAT and
    /// `nvcc`.
    #[test]
    fn allocators_comparable_but_independent() {
        for n in [10, 14, 18] {
            let k = pressure_kernel(n);
            let full = allocate_linear_scan(&k, &AllocOptions::new(64))
                .unwrap()
                .slots_used;
            for cut in [3, 5] {
                let budget = full.saturating_sub(cut).max(11);
                let briggs = allocate(&k, &AllocOptions::new(budget)).unwrap();
                let linear = allocate_linear_scan(&k, &AllocOptions::new(budget)).unwrap();
                assert!(briggs.slots_used <= budget);
                assert!(linear.slots_used <= budget);
                // Both feel the pressure...
                assert!(linear.spills.any_spills(), "n={n} budget={budget}");
                assert!(briggs.spills.any_spills(), "n={n} budget={budget}");
                // ...at a broadly similar magnitude.
                let (b, l) = (
                    briggs.spills.counts.total_memory_insts().max(1),
                    linear.spills.counts.total_memory_insts().max(1),
                );
                assert!(
                    b <= l * 8 && l <= b * 8,
                    "n={n} budget={budget}: briggs={b} linear={l}"
                );
            }
        }
    }

    #[test]
    fn shared_context_matches_from_scratch() {
        let k = pressure_kernel(14);
        let ctx = AllocContext::build(&k);
        let full = allocate_linear_scan(&k, &AllocOptions::new(64))
            .unwrap()
            .slots_used;
        for budget in [64, full - 2, full - 5] {
            let opts = AllocOptions::new(budget);
            let cold = allocate_linear_scan(&k, &opts).unwrap();
            let warm = allocate_linear_scan_with(&k, &ctx, &opts).unwrap();
            assert_eq!(cold, warm, "budget {budget}");
        }
    }

    #[test]
    fn deterministic() {
        let k = pressure_kernel(12);
        let full = allocate_linear_scan(&k, &AllocOptions::new(64))
            .unwrap()
            .slots_used;
        let a1 = allocate_linear_scan(&k, &AllocOptions::new(full - 3)).unwrap();
        let a2 = allocate_linear_scan(&k, &AllocOptions::new(full - 3)).unwrap();
        assert_eq!(a1.kernel, a2.kernel);
    }
}
