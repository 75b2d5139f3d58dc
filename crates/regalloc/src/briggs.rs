//! The Chaitin–Briggs register allocator (paper §5), driving the
//! build → color → spill loop and the shared-memory spill optimization.
//! The SSA spiller ([`crate::allocate_ssa`]) runs the same loop with
//! its Belady pre-pass switched on.

use std::collections::HashMap;

use crat_ptx::{Cfg, Kernel, LiveRange, Liveness, Type, VReg};

use crate::coloring::{try_color, ColorAssignment, ColorOutcome};
use crate::context::AllocContext;
use crate::interference::InterferenceGraph;
use crate::result::{Allocation, SpillHome};
use crate::shm_opt::{knapsack_select, SpillLayout};
use crate::spill::SpillState;
use crate::ssa_spill::belady_spill_picks;
use crate::{AllocError, AllocOptions, ShmSpillConfig, MAX_ITERATIONS};

/// Allocate `kernel`'s virtual registers into at most
/// `opts.budget_slots` 32-bit registers per thread using
/// Chaitin–Briggs graph coloring, spilling to local memory and — when
/// [`AllocOptions::shm_spill`] is set — re-homing the most profitable
/// spill sub-stacks into spare shared memory (Algorithm 1).
///
/// # Errors
///
/// * [`AllocError::InvalidKernel`] if the input fails validation;
/// * [`AllocError::BudgetTooSmall`] when even spill temporaries cannot
///   be colored within the budget;
/// * [`AllocError::IterationLimit`] if the spill loop fails to
///   converge (indicates a pathological input).
///
/// # Examples
///
/// ```
/// use crat_ptx::{KernelBuilder, Type, Operand};
/// use crat_regalloc::{allocate, AllocOptions};
///
/// let mut b = KernelBuilder::new("k");
/// let x = b.mov(Type::U32, Operand::Imm(1));
/// let y = b.mov(Type::U32, Operand::Imm(2));
/// let _z = b.add(Type::U32, x, y);
/// let kernel = b.finish();
///
/// let alloc = allocate(&kernel, &AllocOptions::new(8))?;
/// assert!(alloc.slots_used <= 8);
/// assert!(!alloc.spills.any_spills());
/// # Ok::<(), crat_regalloc::AllocError>(())
/// ```
pub fn allocate(kernel: &Kernel, opts: &AllocOptions) -> Result<Allocation, AllocError> {
    run_with_shm_fallback(kernel, None, opts, false)
}

/// [`allocate`] borrowing a shared [`AllocContext`] for the first
/// build–color–spill iteration.
///
/// The context must have been built from this exact `kernel` (the
/// engine caches contexts by the kernel's structural hash); later
/// iterations rebuild their analyses because spill code has changed
/// the kernel. Results are bit-identical to [`allocate`] — only the
/// redundant first-iteration analysis is skipped, which is the bulk of
/// the work for the common no-spill and few-spill budgets of a design-
/// point sweep.
///
/// # Errors
///
/// Same failure modes as [`allocate`].
pub fn allocate_with(
    kernel: &Kernel,
    ctx: &AllocContext,
    opts: &AllocOptions,
) -> Result<Allocation, AllocError> {
    run_with_shm_fallback(kernel, Some(ctx), opts, false)
}

/// The build–color–spill loop behind [`allocate`] and, with `belady`
/// set, [`crate::allocate_ssa`].
pub(crate) fn run_with_shm_fallback(
    kernel: &Kernel,
    ctx: Option<&AllocContext>,
    opts: &AllocOptions,
    belady: bool,
) -> Result<Allocation, AllocError> {
    match run(kernel, ctx, opts, true, belady) {
        Ok(a) => Ok(a),
        // If the budget only became infeasible after the shared-memory
        // rewrite added its address-setup registers, fall back to
        // local-only spilling rather than failing.
        Err((AllocError::BudgetTooSmall { .. }, true)) if opts.shm_spill.is_some() => {
            run(kernel, ctx, opts, false, belady).map_err(|(e, _)| e)
        }
        Err((e, _)) => Err(e),
    }
}

fn run(
    kernel: &Kernel,
    ctx: Option<&AllocContext>,
    opts: &AllocOptions,
    enable_shm: bool,
    belady: bool,
) -> Result<Allocation, (AllocError, bool)> {
    kernel
        .validate()
        .map_err(|e| (AllocError::InvalidKernel(e), false))?;
    debug_assert!(
        ctx.is_none_or(|c| c.num_regs() == kernel.num_regs()),
        "AllocContext was built from a different kernel"
    );

    let mut work = kernel.clone();
    let mut st = SpillState::default();
    let shm_enabled = if enable_shm { opts.shm_spill } else { None };
    let report_block_size = opts.shm_spill.map_or(1, |s| s.block_size);
    let mut rehomed = false;

    // The shared context stands in for the first iteration's analyses
    // (the kernel is still exactly the one it was built from); every
    // later iteration runs on spill-rewritten code and rebuilds.
    let mut shared = ctx;
    for _ in 0..MAX_ITERATIONS {
        let owned;
        let (cfg, lv, ranges, graph): (&Cfg, &Liveness, &[LiveRange], &InterferenceGraph) =
            match shared.take() {
                Some(c) => (&c.cfg, &c.liveness, &c.ranges, &c.graph),
                None => {
                    let cfg = Cfg::build(&work);
                    let lv = Liveness::compute(&work, &cfg);
                    let ranges = lv.ranges(&work, &cfg);
                    let graph = InterferenceGraph::build(&work, &cfg, &lv);
                    owned = (cfg, lv, ranges, graph);
                    (&owned.0, &owned.1, &owned.2, &owned.3)
                }
            };

        // The SSA spiller plans spills by furthest next use before
        // coloring; coloring stays the authoritative budget gate.
        if belady {
            let picks = belady_spill_picks(&work, lv, ranges, opts.budget_slots, &st.unspillable);
            if !picks.is_empty() {
                st.spill_vregs(&mut work, &picks);
                continue;
            }
        }

        match try_color(&work, graph, ranges, opts.budget_slots, &st.unspillable) {
            ColorOutcome::Colored(assignment) => {
                // Re-run Algorithm 1 whenever new local sub-stacks
                // exist and spare shared memory remains (later spill
                // rounds may create sub-stacks after the first
                // re-homing pass).
                if let Some(shm) = shm_enabled {
                    let used = st
                        .report(&work, cfg, shm.block_size)
                        .shared_spill_bytes_per_block;
                    let spare = shm.spare_bytes.saturating_sub(used);
                    let picks = plan_shared_rehoming(&st, &work, cfg, spare, &shm);
                    if !picks.is_empty() {
                        for (si, layout) in picks {
                            st.rehome_to_shared(&mut work, si, shm.block_size, layout);
                        }
                        rehomed = true;
                        continue; // re-color with the setup code in place
                    }
                }
                let spills = st.report(&work, cfg, report_block_size);
                let (physical, pred_regs_used) = rename_to_physical(&work, &assignment);
                debug_assert_eq!(physical.validate(), Ok(()));
                return Ok(Allocation {
                    kernel: physical,
                    slots_used: assignment.slots_used,
                    pred_regs_used,
                    spills,
                });
            }
            ColorOutcome::Spill(vregs) => {
                st.spill_vregs(&mut work, &vregs);
            }
            ColorOutcome::Fatal => {
                return Err((
                    AllocError::BudgetTooSmall {
                        budget_slots: opts.budget_slots,
                    },
                    rehomed,
                ))
            }
        }
    }
    Err((AllocError::IterationLimit, rehomed))
}

/// Decide which local sub-stacks move to shared memory and with which
/// layout: Algorithm 1, extended with bank-conflict-aware scoring.
///
/// Each candidate's gain is first discounted by the modeled conflict
/// serialization of its best layout (`choose_layout`); the knapsack
/// then selects over the adjusted gains. With `shm.bank == None` the
/// adjustment is the identity and the layout is always
/// warp-interleaved, reproducing the legacy plan exactly.
pub(crate) fn plan_shared_rehoming(
    st: &SpillState,
    work: &Kernel,
    cfg: &Cfg,
    spare_bytes: u32,
    shm: &ShmSpillConfig,
) -> Vec<(usize, SpillLayout)> {
    let block_size = shm.block_size;
    let report = st.report(work, cfg, block_size);
    let local: Vec<usize> = report
        .substacks
        .iter()
        .enumerate()
        .filter(|(_, s)| s.home == SpillHome::Local && s.slots > 0)
        .map(|(i, _)| i)
        .collect();
    if local.is_empty() {
        return Vec::new();
    }
    let weights: Vec<u64> = local
        .iter()
        .map(|&i| report.substacks[i].shared_bytes_per_block(block_size) as u64)
        .collect();
    let plans: Vec<(SpillLayout, u64)> = local
        .iter()
        .map(|&i| {
            let s = &report.substacks[i];
            crate::shm_opt::choose_layout(
                s.ty.size_bytes(),
                s.slots,
                s.gain_weighted,
                shm.bank.as_ref(),
                shm.layout,
            )
        })
        .collect();
    let gains: Vec<u64> = plans.iter().map(|&(_, g)| g).collect();
    let picks = knapsack_select(&weights, &gains, spare_bytes as u64);
    local
        .into_iter()
        .zip(plans)
        .zip(picks)
        .filter(|(_, p)| *p)
        .map(|((i, (layout, _)), _)| (i, layout))
        .collect()
}

/// Rewrite `work` over physical registers: every colored virtual
/// register becomes the physical register of its slot (same slot +
/// same type = same physical register), and predicates are compacted
/// into their own namespace. Returns the new kernel and the number of
/// predicate registers used.
pub(crate) fn rename_to_physical(work: &Kernel, assignment: &ColorAssignment) -> (Kernel, u32) {
    let mut out = Kernel::new(work.name());
    for p in work.params() {
        out.add_param(p.name.clone(), p.ty);
    }
    for v in work.vars() {
        out.add_var(v.clone());
    }

    let mut phys_of: HashMap<(u32, Type), VReg> = HashMap::new();
    let mut pred_of: HashMap<VReg, VReg> = HashMap::new();

    // Pre-create blocks so terminator targets stay valid.
    for _ in 1..work.blocks().len() {
        out.add_block();
    }
    for (&b, &t) in work.trip_hints() {
        out.set_trip_hint(b, t);
    }

    for block in work.blocks() {
        let mut insts = block.insts.clone();
        for inst in &mut insts {
            inst.map_regs(|v, _| {
                map_reg(work, assignment, &mut out, &mut phys_of, &mut pred_of, v)
            });
        }
        let mut term = block.terminator.clone();
        term.map_reg(|v| map_reg(work, assignment, &mut out, &mut phys_of, &mut pred_of, v));
        let ob = out.block_mut(block.id);
        ob.insts = insts;
        ob.terminator = term;
    }
    let preds = pred_of.len() as u32;
    (out, preds)
}

fn map_reg(
    work: &Kernel,
    assignment: &ColorAssignment,
    out: &mut Kernel,
    phys_of: &mut HashMap<(u32, Type), VReg>,
    pred_of: &mut HashMap<VReg, VReg>,
    v: VReg,
) -> VReg {
    let ty = work.reg_ty(v);
    if ty == Type::Pred {
        return *pred_of.entry(v).or_insert_with(|| out.new_reg(Type::Pred));
    }
    let slot = *assignment
        .slot_of
        .get(&v)
        .unwrap_or_else(|| panic!("register {v} appears in code but was not colored"));
    *phys_of.entry((slot, ty)).or_insert_with(|| out.new_reg(ty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShmSpillConfig;
    use crat_ptx::{KernelBuilder, Operand, Space};

    /// A kernel with `n` u32 accumulators all live across a loop.
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
        let a = allocate(&k, &AllocOptions::new(64)).unwrap();
        assert!(!a.spills.any_spills());
        assert!(a.slots_used <= 64);
        assert!(a.kernel.validate().is_ok());
        // Fewer physical registers than virtual ones.
        assert!(a.kernel.num_regs() < k.num_regs());
    }

    #[test]
    fn tight_budget_spills_and_respects_limit() {
        let k = pressure_kernel(16);
        let generous = allocate(&k, &AllocOptions::new(64)).unwrap();
        let needed = generous.slots_used;
        // Deep enough that rematerialization alone cannot absorb the
        // pressure and real stack spills appear.
        let budget = needed - 5;
        let a = allocate(&k, &AllocOptions::new(budget)).unwrap();
        assert!(a.spills.any_spills());
        assert!(a.slots_used <= budget, "{} > {}", a.slots_used, budget);
        assert!(a.kernel.validate().is_ok());
        assert!(a.spills.counts.total_local() > 0);
        assert!(a.spills.local_bytes_per_thread > 0);
    }

    #[test]
    fn tighter_budgets_spill_more() {
        let k = pressure_kernel(16);
        let generous = allocate(&k, &AllocOptions::new(64)).unwrap();
        let needed = generous.slots_used;
        let mild = allocate(&k, &AllocOptions::new(needed - 2)).unwrap();
        let harsh = allocate(&k, &AllocOptions::new(needed - 8)).unwrap();
        assert!(
            harsh.spills.counts.total_memory_insts() > mild.spills.counts.total_memory_insts(),
            "harsh {:?} vs mild {:?}",
            harsh.spills.counts,
            mild.spills.counts
        );
    }

    #[test]
    fn shm_spilling_moves_substack_when_space_allows() {
        let k = pressure_kernel(16);
        let generous = allocate(&k, &AllocOptions::new(64)).unwrap();
        let budget = generous.slots_used - 6;
        let local_only = allocate(&k, &AllocOptions::new(budget)).unwrap();
        assert!(local_only.spills.counts.total_local() > 0);

        let opts = AllocOptions::new(budget).with_shm_spill(ShmSpillConfig::new(48 * 1024, 128));
        let shm = allocate(&k, &opts).unwrap();
        assert!(shm.kernel.validate().is_ok());
        assert!(shm.slots_used <= budget);
        assert!(
            shm.spills.counts.total_shared() > 0,
            "expected shared spills: {:?}",
            shm.spills.counts
        );
        assert!(shm.spills.shared_spill_bytes_per_block > 0);
        assert!(
            shm.spills.counts.total_local_weighted()
                < local_only.spills.counts.total_local_weighted()
        );
    }

    #[test]
    fn no_spare_shm_means_no_shared_spills() {
        let k = pressure_kernel(16);
        let generous = allocate(&k, &AllocOptions::new(64)).unwrap();
        let budget = generous.slots_used - 6;
        let opts = AllocOptions::new(budget).with_shm_spill(ShmSpillConfig::new(0, 128));
        let a = allocate(&k, &opts).unwrap();
        assert_eq!(a.spills.counts.total_shared(), 0);
        assert!(a.spills.counts.total_local() > 0);
    }

    #[test]
    fn impossible_budget_errors() {
        let k = pressure_kernel(8);
        match allocate(&k, &AllocOptions::new(2)) {
            Err(AllocError::BudgetTooSmall { budget_slots: 2 }) => {}
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn allocation_is_deterministic() {
        let k = pressure_kernel(12);
        let generous = allocate(&k, &AllocOptions::new(64)).unwrap();
        let budget = generous.slots_used - 4;
        let a1 = allocate(&k, &AllocOptions::new(budget)).unwrap();
        let a2 = allocate(&k, &AllocOptions::new(budget)).unwrap();
        assert_eq!(a1.kernel, a2.kernel);
        assert_eq!(a1.slots_used, a2.slots_used);
    }

    #[test]
    fn renamed_kernel_round_trips_text() {
        let k = pressure_kernel(10);
        let generous = allocate(&k, &AllocOptions::new(64)).unwrap();
        let a = allocate(&k, &AllocOptions::new(generous.slots_used - 3)).unwrap();
        let text = a.kernel.to_ptx();
        let re = crat_ptx::parse(&text).unwrap();
        assert_eq!(re, a.kernel);
    }

    #[test]
    fn shared_context_matches_from_scratch() {
        let k = pressure_kernel(14);
        let ctx = AllocContext::build(&k);
        let generous = allocate(&k, &AllocOptions::new(64)).unwrap();
        for budget in [64, generous.slots_used - 2, generous.slots_used - 6] {
            let opts = AllocOptions::new(budget);
            let cold = allocate(&k, &opts).unwrap();
            let warm = allocate_with(&k, &ctx, &opts).unwrap();
            assert_eq!(cold, warm, "budget {budget}");
        }
        // The context survives the sweep untouched and stays valid.
        let again = allocate_with(&k, &ctx, &AllocOptions::new(64)).unwrap();
        assert_eq!(again, generous);
    }

    #[test]
    fn paper_listing2_compacts_to_three_registers() {
        let mut b = KernelBuilder::new("listing2");
        let tid = b.special_tid_x(Type::U32);
        let ctaid = b.special_ctaid_x(Type::U32);
        let ntid = b.special_ntid_x(Type::U32);
        let prod = b.mul(Type::U32, ntid, ctaid);
        let _gid = b.add(Type::U32, tid, prod);
        let k = b.finish();
        let a = allocate(&k, &AllocOptions::new(63)).unwrap();
        assert_eq!(a.slots_used, 3);
        assert!(!a.spills.any_spills());
    }
}
