//! The from-scratch reference allocator, preserved for differential
//! testing.
//!
//! This module keeps the pre-shared-context Chaitin–Briggs pipeline
//! byte-for-byte in behaviour: a hash-set interference graph rebuilt
//! on every build–color–spill iteration, a simplify loop that
//! recomputes weighted degrees on every scan, and no analysis reuse
//! across design points. [`reference_alloc`] is the oracle the
//! differential and property suites compare [`crate::allocate`] /
//! [`crate::allocate_with`] against — the same role
//! `crat_sim::reference` plays for the pre-decoded simulator IR.
//!
//! It shares the spill-code inserter, the shared-memory re-homing
//! planner, and the physical renaming with the production allocator on
//! purpose: those stages are driven entirely by the coloring outcome,
//! so any divergence the suites catch is isolated to the analysis
//! sharing or the graph representation — exactly the code this module
//! exists to check.

use std::collections::{HashMap, HashSet};

use crat_ptx::{Cfg, Instruction, Kernel, LiveRange, Liveness, Op, Operand, Type, VReg};

use crate::briggs::{plan_shared_rehoming, rename_to_physical};
use crate::coloring::{ColorAssignment, ColorOutcome};
use crate::result::Allocation;
use crate::spill::SpillState;
use crate::{AllocError, AllocOptions};

/// The original adjacency-set interference graph.
#[derive(Debug, Clone)]
struct RefGraph {
    adj: Vec<HashSet<u32>>,
    allocatable: Vec<bool>,
    widths: Vec<u32>,
}

impl RefGraph {
    fn build(kernel: &Kernel, liveness: &Liveness) -> RefGraph {
        let n = kernel.num_regs();
        let mut g = RefGraph {
            adj: vec![HashSet::new(); n],
            allocatable: (0..n)
                .map(|i| kernel.reg_ty(VReg(i as u32)) != Type::Pred)
                .collect(),
            widths: (0..n)
                .map(|i| kernel.reg_ty(VReg(i as u32)).reg_slots().max(1))
                .collect(),
        };

        let mut uses_buf = Vec::new();
        for block in kernel.blocks() {
            let mut live = liveness.live_out(block.id).clone();
            for inst in block.insts.iter().rev() {
                if let Some(d) = inst.def() {
                    let move_src = move_source(inst);
                    for l in live.iter() {
                        let l = VReg(l as u32);
                        if l != d && Some(l) != move_src {
                            g.add_edge(d, l);
                        }
                    }
                    if !inst.is_conditional_def() {
                        live.remove(d.index());
                    } else {
                        live.insert(d.index());
                    }
                }
                uses_buf.clear();
                inst.collect_uses(&mut uses_buf);
                for &u in &uses_buf {
                    live.insert(u.index());
                }
            }
        }
        g
    }

    fn add_edge(&mut self, a: VReg, b: VReg) {
        if a == b || !self.allocatable[a.index()] || !self.allocatable[b.index()] {
            return;
        }
        self.adj[a.index()].insert(b.0);
        self.adj[b.index()].insert(a.0);
    }

    fn is_allocatable(&self, v: VReg) -> bool {
        self.allocatable.get(v.index()).copied().unwrap_or(false)
    }

    fn width(&self, v: VReg) -> u32 {
        self.widths[v.index()]
    }

    fn neighbors(&self, v: VReg) -> impl Iterator<Item = VReg> + '_ {
        self.adj[v.index()].iter().map(|&i| VReg(i))
    }

    fn weighted_degree_among(&self, v: VReg, alive: &[bool]) -> u32 {
        self.adj[v.index()]
            .iter()
            .filter(|&&i| alive[i as usize])
            .map(|&i| self.widths[i as usize])
            .sum()
    }
}

fn move_source(inst: &Instruction) -> Option<VReg> {
    match &inst.op {
        Op::Mov {
            src: Operand::Reg(s),
            ..
        } => Some(*s),
        _ => None,
    }
}

/// The original coloring attempt: weighted degrees recomputed on every
/// simplify scan, straight from the adjacency sets.
fn ref_try_color(
    kernel: &Kernel,
    graph: &RefGraph,
    ranges: &[LiveRange],
    budget: u32,
    unspillable: &HashSet<VReg>,
) -> ColorOutcome {
    let n = kernel.num_regs();
    let is_node: Vec<bool> = (0..n)
        .map(|i| {
            let v = VReg(i as u32);
            graph.is_allocatable(v) && ranges[i].accesses > 0
        })
        .collect();

    let mut alive = is_node.clone();
    let mut remaining: usize = alive.iter().filter(|&&a| a).count();
    let mut stack: Vec<VReg> = Vec::with_capacity(remaining);

    while remaining > 0 {
        let mut picked = None;
        let mut picked_wide = None;
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            let v = VReg(i as u32);
            if graph.weighted_degree_among(v, &alive) + graph.width(v) <= budget {
                if graph.width(v) == 1 {
                    picked = Some(v);
                    break;
                }
                if picked_wide.is_none() {
                    picked_wide = Some(v);
                }
            }
        }
        let picked = picked.or(picked_wide);
        // `remaining` counts the alive nodes, so `find` always succeeds;
        // the oracle keeps the original pipeline's code as it was.
        #[allow(clippy::expect_used)]
        let v = match picked {
            Some(v) => v,
            None => match cheapest_spill_candidate(n, &alive, graph, ranges, unspillable) {
                Some(v) => v,
                None => (0..n)
                    .find(|&i| alive[i])
                    .map(|i| VReg(i as u32))
                    .expect("remaining > 0"),
            },
        };
        alive[v.index()] = false;
        remaining -= 1;
        stack.push(v);
    }

    let mut slot_of: HashMap<VReg, u32> = HashMap::new();
    let mut slot_types: Vec<Option<Type>> = vec![None; budget as usize];
    let mut spills: Vec<VReg> = Vec::new();
    let mut unspillable_failed = false;
    let mut forbidden = vec![false; budget as usize];

    while let Some(v) = stack.pop() {
        let ty = kernel.reg_ty(v);
        let width = graph.width(v);
        forbidden.fill(false);
        for nb in graph.neighbors(v) {
            if let Some(&s) = slot_of.get(&nb) {
                for k in s..s + graph.width(nb) {
                    forbidden[k as usize] = true;
                }
            }
        }
        match crate::coloring::find_slot(width, budget, &forbidden, &slot_types, ty) {
            Some(s) => {
                for k in s..s + width {
                    slot_types[k as usize] = Some(crate::coloring::slot_class(ty));
                }
                slot_of.insert(v, s);
            }
            None => {
                if unspillable.contains(&v) || ranges[v.index()].len() < 2 {
                    unspillable_failed = true;
                } else {
                    spills.push(v);
                }
            }
        }
    }

    if !spills.is_empty() {
        spills.sort_unstable();
        return ColorOutcome::Spill(spills);
    }
    if unspillable_failed {
        let mut colored_alive = vec![false; n];
        for v in slot_of.keys() {
            colored_alive[v.index()] = true;
        }
        return match cheapest_spill_candidate(n, &colored_alive, graph, ranges, unspillable) {
            Some(v) => ColorOutcome::Spill(vec![v]),
            None => ColorOutcome::Fatal,
        };
    }

    let slots_used = slot_of
        .iter()
        .map(|(v, &s)| s + graph.width(*v))
        .max()
        .unwrap_or(0);
    ColorOutcome::Colored(ColorAssignment {
        slot_of,
        slot_types,
        slots_used,
    })
}

fn cheapest_spill_candidate(
    n: usize,
    alive: &[bool],
    graph: &RefGraph,
    ranges: &[LiveRange],
    unspillable: &HashSet<VReg>,
) -> Option<VReg> {
    let mut best: Option<(f64, VReg)> = None;
    for i in 0..n {
        if !alive[i] {
            continue;
        }
        let v = VReg(i as u32);
        if unspillable.contains(&v) || ranges[i].len() < 2 {
            continue;
        }
        let degree = graph.weighted_degree_among(v, alive) as f64;
        if degree == 0.0 {
            continue;
        }
        let cost = ranges[i].weighted_accesses as f64;
        let score = cost / degree;
        let better = match best {
            None => true,
            Some((b, bv)) => score < b || (score == b && v < bv),
        };
        if better {
            best = Some((score, v));
        }
    }
    best.map(|(_, v)| v)
}

/// Allocate with the preserved from-scratch Chaitin–Briggs pipeline:
/// every iteration of every call rebuilds CFG, liveness, live ranges,
/// and the (hash-set) interference graph. Semantically identical to
/// [`crate::allocate`]; kept as the differential-testing oracle.
///
/// # Errors
///
/// Same failure modes as [`crate::allocate`].
pub fn reference_alloc(kernel: &Kernel, opts: &AllocOptions) -> Result<Allocation, AllocError> {
    match run(kernel, opts, true) {
        Ok(a) => Ok(a),
        Err((AllocError::BudgetTooSmall { .. }, true)) if opts.shm_spill.is_some() => {
            run(kernel, opts, false).map_err(|(e, _)| e)
        }
        Err((e, _)) => Err(e),
    }
}

fn run(
    kernel: &Kernel,
    opts: &AllocOptions,
    enable_shm: bool,
) -> Result<Allocation, (AllocError, bool)> {
    kernel
        .validate()
        .map_err(|e| (AllocError::InvalidKernel(e), false))?;

    let mut work = kernel.clone();
    let mut st = SpillState::with_split(opts.spill_split);
    let shm_enabled = if enable_shm { opts.shm_spill } else { None };
    let report_block_size = opts.shm_spill.map_or(1, |s| s.block_size);
    let mut rehomed = false;

    for _ in 0..opts.max_iterations {
        let cfg = Cfg::build(&work);
        let lv = Liveness::compute(&work, &cfg);
        let ranges = lv.ranges(&work, &cfg);
        let graph = RefGraph::build(&work, &lv);

        match ref_try_color(&work, &graph, &ranges, opts.budget_slots, &st.unspillable) {
            ColorOutcome::Colored(assignment) => {
                if let Some(shm) = shm_enabled {
                    let used = st
                        .report(&work, &cfg, shm.block_size)
                        .shared_spill_bytes_per_block;
                    let spare = shm.spare_bytes.saturating_sub(used);
                    let picks = plan_shared_rehoming(&st, &work, &cfg, spare, &shm);
                    if !picks.is_empty() {
                        for (si, layout) in picks {
                            st.rehome_to_shared(&mut work, si, shm.block_size, layout);
                        }
                        rehomed = true;
                        continue;
                    }
                }
                let spills = st.report(&work, &cfg, report_block_size);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allocate, allocate_with, AllocContext, ShmSpillConfig};
    use crat_ptx::{KernelBuilder, Space};

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
    fn reference_matches_production_across_budgets() {
        let k = pressure_kernel(14);
        let ctx = AllocContext::build(&k);
        let full = reference_alloc(&k, &AllocOptions::new(64))
            .unwrap()
            .slots_used;
        for cut in [0, 2, 4, 6] {
            let opts = AllocOptions::new(full - cut);
            let reference = reference_alloc(&k, &opts).unwrap();
            assert_eq!(allocate(&k, &opts).unwrap(), reference, "cut {cut}");
            assert_eq!(
                allocate_with(&k, &ctx, &opts).unwrap(),
                reference,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn reference_matches_production_with_shm_spilling() {
        let k = pressure_kernel(16);
        let full = reference_alloc(&k, &AllocOptions::new(64))
            .unwrap()
            .slots_used;
        let opts = AllocOptions::new(full - 6).with_shm_spill(ShmSpillConfig::new(48 * 1024, 128));
        let reference = reference_alloc(&k, &opts).unwrap();
        assert!(reference.spills.counts.total_shared() > 0);
        assert_eq!(allocate(&k, &opts).unwrap(), reference);
        let ctx = AllocContext::build(&k);
        assert_eq!(allocate_with(&k, &ctx, &opts).unwrap(), reference);
    }

    #[test]
    fn reference_reports_same_errors() {
        let k = pressure_kernel(8);
        match reference_alloc(&k, &AllocOptions::new(2)) {
            Err(AllocError::BudgetTooSmall { budget_slots: 2 }) => {}
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
    }
}
