//! Graph coloring over typed, width-aware register slots.
//!
//! Colors are 32-bit register *slots*; a 64-bit value takes an aligned
//! pair. Slots are type-locked once assigned: PTX registers are
//! declared with a type, so a slot that held a `.f32` can never be
//! reused for a `.u32` — the type-sensitivity waste the paper calls
//! out in §5.2.

use std::collections::{HashMap, HashSet};

use crat_ptx::{Kernel, LiveRange, Type, VReg};

use crate::interference::InterferenceGraph;

/// A successful coloring.
#[derive(Debug, Clone)]
pub struct ColorAssignment {
    /// Slot index (base of the aligned pair for wide registers) per
    /// colored virtual register.
    pub slot_of: HashMap<VReg, u32>,
    /// The type locked to each slot (`None` = never used).
    pub slot_types: Vec<Option<Type>>,
    /// Number of slots used (`max assigned slot + width`).
    pub slots_used: u32,
}

/// The outcome of one coloring attempt.
#[derive(Debug, Clone)]
pub enum ColorOutcome {
    /// Every node received a slot within the budget.
    Colored(ColorAssignment),
    /// These nodes could not be colored and must be spilled.
    Spill(Vec<VReg>),
    /// An unspillable node could not be colored: the budget cannot be
    /// met at all.
    Fatal,
}

/// Attempt a Chaitin–Briggs coloring of `kernel`'s allocatable
/// registers into `budget` slots.
///
/// `unspillable` registers (spill temporaries, spill-stack bases) are
/// never selected as spill candidates.
pub fn try_color(
    kernel: &Kernel,
    graph: &InterferenceGraph,
    ranges: &[LiveRange],
    budget: u32,
    unspillable: &HashSet<VReg>,
) -> ColorOutcome {
    let n = kernel.num_regs();
    // Nodes: allocatable registers that actually appear in the code.
    let is_node: Vec<bool> = (0..n)
        .map(|i| {
            let v = VReg(i as u32);
            graph.is_allocatable(v) && ranges[i].accesses > 0
        })
        .collect();

    let mut alive = is_node.clone();
    let mut remaining: usize = alive.iter().filter(|&&a| a).count();
    let mut stack: Vec<VReg> = Vec::with_capacity(remaining);

    // Weighted degrees among the alive set, maintained incrementally:
    // initialized in one pass over the adjacency arena, then each
    // removal subtracts the removed node's width from its live
    // neighbors. This keeps every simplify scan O(n) with O(1) degree
    // lookups — the values are at all times exactly
    // `graph.weighted_degree_among(v, &alive)`, so outcomes are
    // bit-identical to recomputing from scratch.
    let mut deg: Vec<u32> = (0..n)
        .map(|i| {
            if alive[i] {
                graph.weighted_degree_among(VReg(i as u32), &alive)
            } else {
                0
            }
        })
        .collect();

    // Simplify: peel trivially colorable nodes; when stuck, remove the
    // cheapest spill candidate optimistically (Briggs).
    while remaining > 0 {
        // Among trivially colorable nodes prefer narrow ones: wide
        // nodes then leave the graph last, get popped (colored) first,
        // and claim aligned pairs before 32-bit values fragment and
        // type-lock the slot space.
        let mut picked = None;
        let mut picked_wide = None;
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            let v = VReg(i as u32);
            if deg[i] + graph.width(v) <= budget {
                if graph.width(v) == 1 {
                    picked = Some(v);
                    break;
                }
                if picked_wide.is_none() {
                    picked_wide = Some(v);
                }
            }
        }
        let picked = picked
            .or(picked_wide)
            .or_else(|| cheapest_spill_candidate(n, &alive, |i| deg[i], ranges, unspillable))
            // Only unspillable nodes remain and none is trivially
            // colorable; push them optimistically anyway — select may
            // still succeed, and if not we report `Fatal`.
            .or_else(|| first_alive(n, &alive));
        // `remaining` counts the alive nodes, so one is always found.
        let Some(v) = picked else { break };
        alive[v.index()] = false;
        remaining -= 1;
        for &nb in graph.neighbor_ids(v) {
            if alive[nb as usize] {
                deg[nb as usize] -= graph.width(v);
            }
        }
        stack.push(v);
    }

    // Select: pop in reverse simplification order.
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
        match find_slot(width, budget, &forbidden, &slot_types, ty) {
            Some(s) => {
                for k in s..s + width {
                    slot_types[k as usize] = Some(slot_class(ty));
                }
                slot_of.insert(v, s);
            }
            None => {
                if unspillable.contains(&v) || ranges[v.index()].len() < 2 {
                    // Temporaries, stack bases, and one-shot values
                    // (address chains) must be colored: spilling them
                    // reloads immediately and relieves nothing. Defer:
                    // a cheap long-range node is force-spilled below.
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
        // Everything spillable got a color, yet a temporary did not
        // fit. Force-spill the cheapest colored node to make room; if
        // there is none, the budget is genuinely infeasible.
        let mut colored_alive = vec![false; n];
        for v in slot_of.keys() {
            colored_alive[v.index()] = true;
        }
        let deg_of = |i: usize| graph.weighted_degree_among(VReg(i as u32), &colored_alive);
        return match cheapest_spill_candidate(n, &colored_alive, deg_of, ranges, unspillable) {
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

/// The class a slot is locked to: one class per register width.
///
/// Virtual registers remain strictly typed in the IR (two registers of
/// different types sharing a slot become two *different* physical
/// registers after renaming — the type-sensitivity waste the paper
/// notes in §5.2 shows up as extra declared registers), but slots pack
/// by width so a dead `f32`'s slot can be reused by a `u32`, as the
/// hardware's untyped register file allows.
pub(crate) fn slot_class(ty: Type) -> Type {
    match ty.reg_slots() {
        2 => Type::U64,
        _ => Type::U32,
    }
}

fn first_alive(n: usize, alive: &[bool]) -> Option<VReg> {
    (0..n).find(|&i| alive[i]).map(|i| VReg(i as u32))
}

/// Chaitin's heuristic: spill the node with the lowest
/// `cost / degree`, where cost is the frequency-weighted access count
/// (spilling a rarely-accessed, highly-conflicting long range is
/// cheapest — the paper's FDTD example in §2.2). Registers with very
/// short ranges are excluded: reloading them immediately would not
/// reduce pressure. `deg_of` supplies the weighted degree among the
/// alive set (cached during simplify, recomputed for the one-shot
/// force-spill).
fn cheapest_spill_candidate(
    n: usize,
    alive: &[bool],
    deg_of: impl Fn(usize) -> u32,
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
        let degree = deg_of(i) as f64;
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

/// Feasible aligned slot for a node of `width` and type `ty`.
///
/// Hard constraints are interference (`forbidden`) and pair alignment
/// for wide values. The recorded slot class is only a packing
/// *preference*: reusing a slot last used by the same width class
/// keeps wide pairs together, but any free aligned run is acceptable —
/// hardware registers are untyped, so a dead value of any type frees
/// its slots for everyone.
pub(crate) fn find_slot(
    width: u32,
    budget: u32,
    forbidden: &[bool],
    slot_types: &[Option<Type>],
    ty: Type,
) -> Option<u32> {
    if width > budget {
        return None;
    }
    let class = slot_class(ty);
    let mut best: Option<(u32, u32)> = None; // (score, slot); lower wins
    let mut s = 0u32;
    while s + width <= budget {
        let free = (s..s + width).all(|k| !forbidden[k as usize]);
        if free {
            let class_ok = (s..s + width)
                .all(|k| slot_types[k as usize].is_none_or(|t| slot_class(t) == class));
            // 32-bit values prefer slots whose aligned partner is
            // already blocked ("half-broken pairs"), leaving whole
            // pairs free for 64-bit values under tight budgets.
            let partner_free = width == 1 && {
                let p = s ^ 1;
                // An out-of-range partner counts as free so the last
                // slot of an odd budget is not preferred over slot 0.
                p >= budget || !forbidden[p as usize]
            };
            let score = u32::from(partner_free) + 2 * u32::from(!class_ok);
            if score == 0 {
                return Some(s);
            }
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, s));
            }
        }
        s += width; // keeps wide values pair-aligned
    }
    best.map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_ptx::{Cfg, KernelBuilder, Liveness, Operand};

    fn color(kernel: &Kernel, budget: u32) -> ColorOutcome {
        let cfg = Cfg::build(kernel);
        let lv = Liveness::compute(kernel, &cfg);
        let ranges = lv.ranges(kernel, &cfg);
        let g = InterferenceGraph::build(kernel, &cfg, &lv);
        try_color(kernel, &g, &ranges, budget, &HashSet::new())
    }

    /// Three values live simultaneously need 3 slots; with 3 available
    /// coloring succeeds, with 2 something spills.
    #[test]
    fn coloring_respects_budget() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Type::U32, Operand::Imm(1));
        let y = b.mov(Type::U32, Operand::Imm(2));
        let z = b.mov(Type::U32, Operand::Imm(3));
        let s1 = b.add(Type::U32, x, y);
        let s2 = b.add(Type::U32, s1, z);
        let _s3 = b.add(Type::U32, s2, x);
        let k = b.finish();

        match color(&k, 3) {
            ColorOutcome::Colored(a) => assert!(a.slots_used <= 3),
            other => panic!("expected success with 3 slots, got {other:?}"),
        }
        match color(&k, 2) {
            ColorOutcome::Spill(s) => assert!(!s.is_empty()),
            other => panic!("expected spill with 2 slots, got {other:?}"),
        }
    }

    /// The paper's Listing 2→3 example: five virtual registers, three
    /// physical registers suffice.
    #[test]
    fn listing2_colors_with_three() {
        let mut b = KernelBuilder::new("k");
        let tid = b.special_tid_x(Type::U32);
        let ctaid = b.special_ctaid_x(Type::U32);
        let ntid = b.special_ntid_x(Type::U32);
        let prod = b.mul(Type::U32, ntid, ctaid);
        let _gid = b.add(Type::U32, tid, prod);
        let k = b.finish();
        match color(&k, 3) {
            ColorOutcome::Colored(a) => assert_eq!(a.slots_used, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn neighbors_get_distinct_slots() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Type::U32, Operand::Imm(1));
        let y = b.mov(Type::U32, Operand::Imm(2));
        let _s = b.add(Type::U32, x, y);
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let lv = Liveness::compute(&k, &cfg);
        let ranges = lv.ranges(&k, &cfg);
        let g = InterferenceGraph::build(&k, &cfg, &lv);
        match try_color(&k, &g, &ranges, 8, &HashSet::new()) {
            ColorOutcome::Colored(a) => {
                assert_ne!(a.slot_of[&x], a.slot_of[&y]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wide_values_take_aligned_pairs() {
        let mut b = KernelBuilder::new("k");
        let a = b.mov(Type::U64, Operand::Imm(0));
        let c = b.mov(Type::U64, Operand::Imm(1));
        let _d = b.add(Type::U64, a, c);
        let k = b.finish();
        match color(&k, 4) {
            ColorOutcome::Colored(asg) => {
                assert_eq!(asg.slot_of[&a] % 2, 0);
                assert_eq!(asg.slot_of[&c] % 2, 0);
                assert_ne!(asg.slot_of[&a], asg.slot_of[&c]);
                assert_eq!(asg.slots_used, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Slots pack by width class: a dead u32's slot can be reused by an
    /// f32 (the hardware register file is untyped), while a u64 pair
    /// never interleaves with 32-bit slots.
    #[test]
    fn width_classes_pack_but_do_not_interleave() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Type::U32, Operand::Imm(1));
        let xf = b.cvt(Type::F32, Type::U32, x); // x dies
        let _y = b.mul(Type::F32, xf, xf); // xf dies
        let k = b.finish();
        match color(&k, 8) {
            ColorOutcome::Colored(a) => {
                assert_eq!(a.slot_of[&x], a.slot_of[&xf]);
                assert_eq!(a.slots_used, 1);
            }
            other => panic!("{other:?}"),
        }

        // A wide value may not straddle slots already classed 32-bit.
        let mut b = KernelBuilder::new("k2");
        let n = b.mov(Type::U32, Operand::Imm(1));
        let w = b.mov(Type::U64, Operand::Imm(2));
        let n2 = b.cvt(Type::U64, Type::U32, n);
        let _s = b.add(Type::U64, w, n2);
        let k2 = b.finish();
        match color(&k2, 8) {
            ColorOutcome::Colored(a) => {
                assert_eq!(a.slot_of[&w] % 2, 0);
                assert_ne!(a.slot_of[&w], a.slot_of[&n]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn same_type_sequential_values_share_slot() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Type::U32, Operand::Imm(1));
        let y = b.add(Type::U32, x, Operand::Imm(1)); // x dies
        let _z = b.add(Type::U32, y, Operand::Imm(1)); // y dies
        let k = b.finish();
        match color(&k, 8) {
            ColorOutcome::Colored(a) => assert_eq!(a.slots_used, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fatal_when_unspillable_cannot_fit() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Type::U32, Operand::Imm(1));
        let y = b.mov(Type::U32, Operand::Imm(2));
        let z = b.mov(Type::U32, Operand::Imm(3));
        let s = b.add(Type::U32, x, y);
        let s2 = b.add(Type::U32, s, z);
        let _s3 = b.add(Type::U32, s2, x);
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let lv = Liveness::compute(&k, &cfg);
        let ranges = lv.ranges(&k, &cfg);
        let g = InterferenceGraph::build(&k, &cfg, &lv);
        let all: HashSet<VReg> = (0..k.num_regs() as u32).map(VReg).collect();
        match try_color(&k, &g, &ranges, 2, &all) {
            ColorOutcome::Fatal => {}
            other => panic!("expected fatal, got {other:?}"),
        }
    }

    #[test]
    fn spill_candidate_prefers_low_frequency() {
        // hot is accessed in a loop (high weight), cold is not; under
        // pressure the candidate must be cold.
        let mut b = KernelBuilder::new("k");
        let cold = b.mov(Type::U32, Operand::Imm(7));
        let hot = b.mov(Type::U32, Operand::Imm(0));
        let l = b.loop_range(0, Operand::Imm(100), 1);
        b.binary_to(crat_ptx::BinOp::Add, Type::U32, hot, hot, l.counter);
        b.end_loop(l);
        let _s = b.add(Type::U32, hot, cold);
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let lv = Liveness::compute(&k, &cfg);
        let ranges = lv.ranges(&k, &cfg);
        let g = InterferenceGraph::build(&k, &cfg, &lv);
        let alive = vec![true; k.num_regs()];
        let cand = cheapest_spill_candidate(
            k.num_regs(),
            &alive,
            |i| g.weighted_degree_among(VReg(i as u32), &alive),
            &ranges,
            &HashSet::new(),
        );
        assert_eq!(cand, Some(cold));
    }
}
