//! Spill-code insertion.
//!
//! Spilled variables live in *sub-stacks* (the paper splits the spill
//! stack "according to the data type and the width of the spilled
//! variables"; [`crate::SpillSplit`] offers the alternative splits the
//! paper left as future work). All local-memory sub-stacks share one
//! `.local` backing array addressed through a single 64-bit base
//! register materialized in the entry block (the paper's Listing 4
//! `mov.u64 %d0, SpillStack`). The knapsack optimization re-homes
//! whole sub-stacks to `.shared` memory, rewriting their accesses to a
//! lane-interleaved layout (`base = &shm + tid*width`, element `j` at
//! offset `j*width*block_size`).

use std::collections::{HashMap, HashSet};

use crat_ptx::{
    AddrBase, Address, Cfg, Instruction, Kernel, Op, Space, SpecialReg, Type, VReg, VarDecl,
};

use crate::result::{SpillCounts, SpillHome, SpillReport, SpilledVar, SubStackReport};
use crate::shm_opt::SpillLayout;

/// Name of the shared local-memory backing array.
const LOCAL_STACK_VAR: &str = "__spill";

/// One spill sub-stack.
#[derive(Debug, Clone)]
pub(crate) struct SubStack {
    pub ty: Type,
    pub slots: u32,
    pub home: SpillHome,
    /// Byte offset of each slot within the shared local array (valid
    /// while `home == Local`; identifies the accesses to rewrite when
    /// re-homing).
    pub slot_offsets: Vec<u32>,
    /// Base register of the shared-memory copy once re-homed.
    pub shm_base: Option<VReg>,
    /// Shared-memory arrangement chosen when re-homing (meaningful
    /// while `home == Shared`; warp-interleaved until then).
    pub layout: SpillLayout,
    /// Static count of auxiliary (non-ld/st) instructions serving this
    /// sub-stack once re-homed (5: address setup).
    pub aux_insts: u64,
}

impl SubStack {
    fn width(&self) -> u32 {
        self.ty.size_bytes()
    }
}

/// Mutable spilling state threaded through the allocator's iterations.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpillState {
    pub split: crate::SpillSplit,
    // (remaining fields below stay crate-private to this module)
    pub substacks: Vec<SubStack>,
    pub assigned: Vec<SpilledVar>,
    /// Registers that must never be chosen as spill candidates: spill
    /// temporaries and stack base registers.
    pub unspillable: HashSet<VReg>,
    /// The shared `.local` array's base register, once created.
    local_base: Option<VReg>,
    /// Next free byte in the shared local array.
    local_next_offset: u32,
    /// Static count of rematerialization instructions inserted.
    pub remat_static: u64,
    /// The same, weighted by block execution estimates.
    pub remat_weighted: u64,
}

/// The defining op of `v` if it is rematerializable: exactly one
/// unguarded def whose operands are all constants (immediates, special
/// registers, parameters, variable addresses).
fn remat_template(kernel: &Kernel, v: VReg) -> Option<Op> {
    let mut found: Option<Op> = None;
    for (_, _, inst) in kernel.insts() {
        if inst.def() != Some(v) {
            continue;
        }
        if found.is_some() || inst.guard.is_some() {
            return None;
        }
        match &inst.op {
            Op::Mov {
                src:
                    crat_ptx::Operand::Imm(_)
                    | crat_ptx::Operand::FImm(_)
                    | crat_ptx::Operand::Special(_),
                ..
            }
            | Op::MovVarAddr { .. }
            | Op::Ld {
                space: Space::Param,
                ..
            } => found = Some(inst.op.clone()),
            _ => return None,
        }
    }
    found
}

/// A clone of a rematerialization template with its destination
/// replaced by `dst`.
fn op_with_dst(op: &Op, new_dst: VReg) -> Op {
    let mut op = op.clone();
    match &mut op {
        Op::Mov { dst, .. } | Op::MovVarAddr { dst, .. } | Op::Ld { dst, .. } => *dst = new_dst,
        _ => unreachable!("not a remat template"),
    }
    op
}

impl SpillState {
    /// State using the given split strategy.
    pub fn with_split(split: crate::SpillSplit) -> SpillState {
        SpillState {
            split,
            ..SpillState::default()
        }
    }

    /// The shared local array's base register, creating the array and
    /// its entry-block address move on first use.
    fn local_base(&mut self, kernel: &mut Kernel) -> VReg {
        if let Some(b) = self.local_base {
            return b;
        }
        let base = kernel.new_reg(Type::U64);
        kernel.add_var(VarDecl {
            name: LOCAL_STACK_VAR.to_string(),
            space: Space::Local,
            align: 8,
            size: 0,
        });
        let entry = kernel.entry();
        kernel.block_mut(entry).insts.insert(
            0,
            Instruction::new(Op::MovVarAddr {
                dst: base,
                var: LOCAL_STACK_VAR.to_string(),
            }),
        );
        self.unspillable.insert(base);
        self.local_base = Some(base);
        base
    }

    /// Index of (or a fresh) sub-stack accepting a new `ty` slot.
    fn substack_for(&mut self, ty: Type) -> usize {
        // Only append to sub-stacks still in local memory: spills that
        // happen after a sub-stack was re-homed to shared memory (the
        // knapsack sized it exactly) go to a fresh local one.
        let matches = |s: &SubStack| match self.split {
            crate::SpillSplit::ByType => s.ty == ty,
            crate::SpillSplit::ByWidth => s.ty.reg_slots() == ty.reg_slots(),
            crate::SpillSplit::PerVariable => false,
        };
        if let Some(i) = self
            .substacks
            .iter()
            .position(|s| matches(s) && s.home == SpillHome::Local)
        {
            return i;
        }
        self.substacks.push(SubStack {
            ty,
            slots: 0,
            home: SpillHome::Local,
            slot_offsets: Vec::new(),
            shm_base: None,
            layout: SpillLayout::WarpInterleaved,
            aux_insts: 0,
        });
        self.substacks.len() - 1
    }

    /// Reserve a local slot in sub-stack `si`, declaring the local
    /// array on first use; returns the slot's index and address.
    fn push_slot(&mut self, kernel: &mut Kernel, si: usize) -> (u32, Address) {
        let base = self.local_base(kernel);
        let width = self.substacks[si].width();
        let offset = self.local_next_offset.div_ceil(width) * width;
        self.local_next_offset = offset + width;
        // `local_base` just declared the array, if it was not already.
        #[allow(clippy::expect_used)]
        let mut var = kernel
            .remove_var(LOCAL_STACK_VAR)
            .expect("local stack exists");
        var.size = self.local_next_offset;
        kernel.add_var(var);
        let sub = &mut self.substacks[si];
        sub.slot_offsets.push(offset);
        sub.slots += 1;
        (sub.slots - 1, Address::reg_offset(base, i64::from(offset)))
    }

    /// Spill `vregs` out of `kernel`: every use gets a preceding load
    /// into a fresh temporary, every def a following store.
    /// Rematerializable values are re-emitted at uses instead. Returns
    /// the temporaries created (already marked unspillable).
    ///
    /// # Panics
    ///
    /// Panics if a predicate register is requested (predicates are not
    /// allocatable and cannot be spilled to memory in this subset).
    pub fn spill_vregs(&mut self, kernel: &mut Kernel, vregs: &[VReg]) -> Vec<VReg> {
        // Block execution weights for rematerialization accounting.
        let weights: Vec<u64> = {
            let cfg = crat_ptx::Cfg::build(kernel);
            kernel
                .blocks()
                .iter()
                .map(|b| cfg.block_weight(b.id))
                .collect()
        };

        let mut dedup: Vec<VReg> = vregs.to_vec();
        dedup.sort_unstable();
        dedup.dedup();

        let mut slot_of: HashMap<VReg, (Address, Type)> = HashMap::new();
        let mut remat: HashMap<VReg, Op> = HashMap::new();
        for &v in &dedup {
            let ty = kernel.reg_ty(v);
            assert!(ty != Type::Pred, "cannot spill predicate register {v}");
            if let Some(template) = remat_template(kernel, v) {
                remat.insert(v, template);
                self.assigned.push(SpilledVar {
                    vreg: v,
                    ty,
                    kind: crate::result::SpillKind::Remat,
                });
                continue;
            }
            let si = self.substack_for(ty);
            let (slot, addr) = self.push_slot(kernel, si);
            slot_of.insert(v, (addr, ty));
            self.assigned.push(SpilledVar {
                vreg: v,
                ty,
                kind: crate::result::SpillKind::Stack { substack: si, slot },
            });
        }

        let spilled: HashSet<VReg> = slot_of.keys().chain(remat.keys()).copied().collect();
        let mut temps = Vec::new();

        for (bi, &block_weight) in weights.iter().enumerate() {
            let id = crat_ptx::BlockId(bi as u32);
            let old = std::mem::take(&mut kernel.block_mut(id).insts);
            let mut new_insts = Vec::with_capacity(old.len());
            for mut inst in old {
                // The single def of a rematerialized register is
                // deleted: its value is recreated at each use instead.
                if let Some(d) = inst.def() {
                    if remat.contains_key(&d) {
                        continue;
                    }
                }

                let mut uses: Vec<VReg> = inst
                    .uses()
                    .into_iter()
                    .filter(|u| spilled.contains(u))
                    .collect();
                uses.sort_unstable();
                uses.dedup();
                let def = inst.def().filter(|d| spilled.contains(d));

                // One temp per distinct spilled register at this
                // instruction; a register both read and written shares
                // its temp between the reload and the store.
                let mut tmp_of: HashMap<VReg, VReg> = HashMap::new();
                for &u in &uses {
                    let tmp = kernel.new_reg(kernel.reg_ty(u));
                    tmp_of.insert(u, tmp);
                    temps.push(tmp);
                    self.unspillable.insert(tmp);
                    if let Some(template) = remat.get(&u) {
                        new_insts.push(Instruction::new(op_with_dst(template, tmp)));
                        self.remat_static += 1;
                        self.remat_weighted = self.remat_weighted.saturating_add(block_weight);
                    } else {
                        let (addr, ty) = slot_of[&u].clone();
                        new_insts.push(Instruction::new(Self::slot_access(addr, ty, tmp, true)));
                    }
                }
                if let Some(d) = def {
                    if let std::collections::hash_map::Entry::Vacant(e) = tmp_of.entry(d) {
                        let tmp = kernel.new_reg(kernel.reg_ty(d));
                        e.insert(tmp);
                        temps.push(tmp);
                        self.unspillable.insert(tmp);
                    }
                }

                let guard = inst.guard;
                inst.map_regs(|v, _| tmp_of.get(&v).copied().unwrap_or(v));
                new_insts.push(inst);

                if let Some(d) = def {
                    let (addr, ty) = slot_of[&d].clone();
                    let tmp = tmp_of[&d];
                    // A guarded def stores under the same guard so the
                    // stack slot is only written when the def happens.
                    new_insts.push(Instruction {
                        guard,
                        op: Self::slot_access(addr, ty, tmp, false),
                    });
                }
            }
            kernel.block_mut(id).insts = new_insts;
        }
        temps
    }

    /// Build the load (`is_load`) or store access for a (still local)
    /// slot at `addr`.
    fn slot_access(addr: Address, ty: Type, tmp: VReg, is_load: bool) -> Op {
        if is_load {
            Op::Ld {
                space: Space::Local,
                ty,
                dst: tmp,
                addr,
            }
        } else {
            Op::St {
                space: Space::Local,
                ty,
                addr,
                src: crat_ptx::Operand::Reg(tmp),
            }
        }
    }

    /// Re-home sub-stack `si` from local to shared memory with the
    /// given `layout`.
    ///
    /// Rewrites the sub-stack's accesses to the chosen shared-memory
    /// arrangement — warp-interleaved (`base = &shm + tid*width`, slot
    /// `j` at `j*width*block_size`) or per-thread contiguous (`base =
    /// &shm + tid*slots*width`, slot `j` at `j*width`) — and frees the
    /// local backing array when no local sub-stack remains.
    pub fn rehome_to_shared(
        &mut self,
        kernel: &mut Kernel,
        si: usize,
        block_size: u32,
        layout: SpillLayout,
    ) {
        let (width, slots, offsets) = {
            let sub = &self.substacks[si];
            assert_eq!(sub.home, SpillHome::Local, "sub-stack already re-homed");
            (sub.width(), sub.slots, sub.slot_offsets.clone())
        };
        // A local sub-stack lives in the local array, so it exists.
        let Some(local_base) = self.local_base else {
            return;
        };
        // Byte distance between lanes and between a thread's slots.
        let (lane_stride, slot_stride) = match layout {
            SpillLayout::WarpInterleaved => (width, width * block_size),
            SpillLayout::PerThread => (slots * width, width),
        };
        let shm_name = format!("__sspill_{si}");
        kernel.add_var(VarDecl {
            name: shm_name.clone(),
            space: Space::Shared,
            align: width.max(4),
            size: slots * width * block_size,
        });

        // Address setup at the top of the entry block:
        // base = &shm + tid * lane_stride.
        let b0 = kernel.new_reg(Type::U64);
        let t = kernel.new_reg(Type::U32);
        let tw = kernel.new_reg(Type::U64);
        let tws = kernel.new_reg(Type::U64);
        let base = kernel.new_reg(Type::U64);
        for r in [b0, t, tw, tws, base] {
            self.unspillable.insert(r);
        }
        let setup = vec![
            Instruction::new(Op::MovVarAddr {
                dst: b0,
                var: shm_name,
            }),
            Instruction::new(Op::Mov {
                ty: Type::U32,
                dst: t,
                src: crat_ptx::Operand::Special(SpecialReg::TidX),
            }),
            Instruction::new(Op::Cvt {
                dst_ty: Type::U64,
                src_ty: Type::U32,
                dst: tw,
                src: crat_ptx::Operand::Reg(t),
            }),
            Instruction::new(Op::Binary {
                op: crat_ptx::BinOp::Mul,
                ty: Type::U64,
                dst: tws,
                a: crat_ptx::Operand::Reg(tw),
                b: crat_ptx::Operand::Imm(lane_stride as i64),
            }),
            Instruction::new(Op::Binary {
                op: crat_ptx::BinOp::Add,
                ty: Type::U64,
                dst: base,
                a: crat_ptx::Operand::Reg(b0),
                b: crat_ptx::Operand::Reg(tws),
            }),
        ];
        let entry = kernel.entry();
        // Insert after the local base mov so the stack pointer stays
        // first in the entry block.
        kernel.block_mut(entry).insts.splice(1..1, setup);

        // Rewrite this sub-stack's accesses: local offset → shared
        // offset under the chosen layout.
        let offset_to_slot: HashMap<i64, u32> = offsets
            .iter()
            .enumerate()
            .map(|(j, &o)| (o as i64, j as u32))
            .collect();
        for block in kernel.blocks_mut() {
            for inst in &mut block.insts {
                match &mut inst.op {
                    Op::Ld {
                        space: space @ Space::Local,
                        addr,
                        ..
                    }
                    | Op::St {
                        space: space @ Space::Local,
                        addr,
                        ..
                    } if addr.base == AddrBase::Reg(local_base)
                        && offset_to_slot.contains_key(&addr.offset) =>
                    {
                        *space = Space::Shared;
                        let slot = offset_to_slot[&addr.offset];
                        addr.base = AddrBase::Reg(base);
                        addr.offset = (slot * slot_stride) as i64;
                    }
                    _ => {}
                }
            }
        }

        {
            let sub = &mut self.substacks[si];
            sub.home = SpillHome::Shared;
            sub.shm_base = Some(base);
            sub.layout = layout;
            sub.aux_insts = 5;
        }

        // If nothing local remains, drop the local array and its base.
        if self.substacks.iter().all(|s| s.home == SpillHome::Shared) {
            kernel.remove_var(LOCAL_STACK_VAR);
            let entry = kernel.entry();
            kernel
                .block_mut(entry)
                .insts
                .retain(|i| !matches!(&i.op, Op::MovVarAddr { var, .. } if var == LOCAL_STACK_VAR));
            self.unspillable.remove(&local_base);
            self.local_base = None;
            self.local_next_offset = 0;
        }
    }

    /// Compute the final spill report by scanning `kernel` for the
    /// accesses addressing the spill stacks.
    pub fn report(&self, kernel: &Kernel, cfg: &Cfg, block_size: u32) -> SpillReport {
        // Local accesses classify by byte offset; shared by base reg.
        let mut offset_to_sub: HashMap<i64, usize> = HashMap::new();
        for (i, s) in self.substacks.iter().enumerate() {
            if s.home == SpillHome::Local {
                for &o in &s.slot_offsets {
                    offset_to_sub.insert(o as i64, i);
                }
            }
        }
        let shm_base_to_sub: HashMap<VReg, usize> = self
            .substacks
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.shm_base.map(|b| (b, i)))
            .collect();

        let mut counts = SpillCounts::default();
        let mut gain_static = vec![0u64; self.substacks.len()];
        let mut gain_weighted = vec![0u64; self.substacks.len()];

        for block in kernel.blocks() {
            let w = cfg.block_weight(block.id);
            for inst in &block.insts {
                let (is_load, space, addr, ty) = match &inst.op {
                    Op::Ld {
                        space, addr, ty, ..
                    } => (true, *space, addr, *ty),
                    Op::St {
                        space, addr, ty, ..
                    } => (false, *space, addr, *ty),
                    _ => continue,
                };
                let base = match addr.base {
                    AddrBase::Reg(r) => r,
                    _ => continue,
                };
                let si = if space == Space::Local && Some(base) == self.local_base {
                    match offset_to_sub.get(&addr.offset) {
                        Some(&si) => si,
                        None => continue,
                    }
                } else if space == Space::Shared {
                    match shm_base_to_sub.get(&base) {
                        Some(&si) => si,
                        None => continue,
                    }
                } else {
                    continue;
                };
                gain_static[si] += 1;
                gain_weighted[si] = gain_weighted[si].saturating_add(w);
                match (space, is_load) {
                    (Space::Local, true) => {
                        counts.loads_local += 1;
                        counts.loads_local_weighted += w;
                        counts.local_spill_bytes_weighted += w * ty.size_bytes() as u64;
                    }
                    (Space::Local, false) => {
                        counts.stores_local += 1;
                        counts.stores_local_weighted += w;
                        counts.local_spill_bytes_weighted += w * ty.size_bytes() as u64;
                    }
                    (Space::Shared, true) => {
                        counts.loads_shared += 1;
                        counts.loads_shared_weighted += w;
                    }
                    (Space::Shared, false) => {
                        counts.stores_shared += 1;
                        counts.stores_shared_weighted += w;
                    }
                    _ => {}
                }
            }
        }

        // Auxiliary instruction accounting: one local base mov (if the
        // local stack exists) plus each re-homed sub-stack's setup.
        if self.local_base.is_some() {
            counts.others += 1;
            counts.others_weighted += 1;
        }
        for sub in &self.substacks {
            counts.others += sub.aux_insts;
            counts.others_weighted += sub.aux_insts;
        }
        counts.others += self.remat_static;
        counts.others_weighted = counts.others_weighted.saturating_add(self.remat_weighted);

        let substacks: Vec<SubStackReport> = self
            .substacks
            .iter()
            .enumerate()
            .map(|(i, s)| SubStackReport {
                ty: s.ty,
                slots: s.slots,
                bytes_per_thread: s.slots * s.width(),
                home: s.home,
                layout: s.layout,
                gain_static: gain_static[i],
                gain_weighted: gain_weighted[i],
            })
            .collect();

        let local_bytes_per_thread = substacks
            .iter()
            .filter(|s| s.home == SpillHome::Local)
            .map(|s| s.bytes_per_thread)
            .sum();
        let shared_spill_bytes_per_block = substacks
            .iter()
            .filter(|s| s.home == SpillHome::Shared)
            .map(|s| s.bytes_per_thread * block_size)
            .sum();

        SpillReport {
            spilled: self.assigned.clone(),
            substacks,
            counts,
            local_bytes_per_thread,
            shared_spill_bytes_per_block,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_ptx::{KernelBuilder, Operand};

    fn simple_kernel() -> (Kernel, VReg, VReg) {
        let mut b = KernelBuilder::new("k");
        // x and y derive from tid so they cannot be rematerialized and
        // must go to the spill stack.
        let t = b.special_tid_x(Type::U32);
        let x = b.add(Type::U32, t, Operand::Imm(1));
        let y = b.add(Type::U32, t, Operand::Imm(2));
        let s = b.add(Type::U32, x, y);
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let a = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, a, s);
        (b.finish(), x, y)
    }

    #[test]
    fn spilling_removes_vreg_and_inserts_accesses() {
        let (mut k, x, _) = simple_kernel();
        let mut st = SpillState::default();
        let before = k.num_insts();
        st.spill_vregs(&mut k, &[x]);
        assert!(k.validate().is_ok());
        // x: 1 def -> store, 1 use -> load, plus base mov: 3 extra.
        assert_eq!(k.num_insts(), before + 3);
        // x never appears any more.
        for (_, _, inst) in k.insts() {
            assert_ne!(inst.def(), Some(x));
            assert!(!inst.uses().contains(&x));
        }
        assert_eq!(k.local_bytes(), 4);
        assert_eq!(k.var(LOCAL_STACK_VAR).unwrap().space, Space::Local);
    }

    #[test]
    fn same_type_spills_share_substack() {
        let (mut k, x, y) = simple_kernel();
        let mut st = SpillState::default();
        st.spill_vregs(&mut k, &[x, y]);
        assert!(k.validate().is_ok());
        assert_eq!(st.substacks.len(), 1);
        assert_eq!(st.substacks[0].slots, 2);
        assert_eq!(k.local_bytes(), 8);
    }

    #[test]
    fn report_counts_loads_and_stores() {
        let (mut k, x, _) = simple_kernel();
        let mut st = SpillState::default();
        st.spill_vregs(&mut k, &[x]);
        let cfg = Cfg::build(&k);
        let rep = st.report(&k, &cfg, 128);
        assert_eq!(rep.counts.loads_local, 1);
        assert_eq!(rep.counts.stores_local, 1);
        assert_eq!(rep.counts.others, 1);
        assert_eq!(rep.local_bytes_per_thread, 4);
        assert!(rep.any_spills());
    }

    #[test]
    fn rehoming_moves_substack_to_shared() {
        let (mut k, x, y) = simple_kernel();
        let mut st = SpillState::default();
        st.spill_vregs(&mut k, &[x, y]);
        st.rehome_to_shared(&mut k, 0, 64, SpillLayout::WarpInterleaved);
        assert!(k.validate().is_ok(), "{:?}", k.validate());
        // The local stack is gone entirely.
        assert_eq!(k.local_bytes(), 0);
        assert!(k.var(LOCAL_STACK_VAR).is_none());
        // 2 slots * 4 bytes * 64 threads.
        assert_eq!(k.shared_bytes(), 512);
        let cfg = Cfg::build(&k);
        let rep = st.report(&k, &cfg, 64);
        assert_eq!(rep.counts.total_local(), 0);
        assert_eq!(rep.counts.loads_shared, 2);
        assert_eq!(rep.counts.stores_shared, 2);
        assert_eq!(rep.counts.others, 5);
        assert_eq!(rep.shared_spill_bytes_per_block, 512);
        // Second slot's shared offset is scaled by the block size.
        let has_scaled = k.insts().any(|(_, _, i)| {
            matches!(&i.op, Op::Ld { space: Space::Shared, addr, .. } if addr.offset == 4 * 64)
        });
        assert!(has_scaled);
    }

    #[test]
    fn per_thread_rehoming_uses_contiguous_offsets() {
        let (mut k, x, y) = simple_kernel();
        let mut st = SpillState::default();
        st.spill_vregs(&mut k, &[x, y]);
        st.rehome_to_shared(&mut k, 0, 64, SpillLayout::PerThread);
        assert!(k.validate().is_ok(), "{:?}", k.validate());
        // Footprint is layout-independent: 2 slots * 4 bytes * 64
        // threads.
        assert_eq!(k.shared_bytes(), 512);
        assert_eq!(st.substacks[0].layout, SpillLayout::PerThread);
        // Slot 1 sits right after slot 0 within the thread's run, not
        // a block-size stride away.
        let has_contiguous = k.insts().any(|(_, _, i)| {
            matches!(&i.op, Op::Ld { space: Space::Shared, addr, .. } if addr.offset == 4)
        });
        assert!(has_contiguous);
        // The lane stride shows up as the tid multiplier: slots*width.
        let has_stride = k.insts().any(|(_, _, i)| {
            matches!(
                &i.op,
                Op::Binary {
                    op: crat_ptx::BinOp::Mul,
                    b: Operand::Imm(8),
                    ..
                }
            )
        });
        assert!(has_stride);
        let cfg = Cfg::build(&k);
        let rep = st.report(&k, &cfg, 64);
        assert_eq!(rep.substacks[0].layout, SpillLayout::PerThread);
        assert_eq!(rep.shared_spill_bytes_per_block, 512);
    }

    #[test]
    fn partial_rehoming_keeps_local_stack() {
        // One u32 and one u64 victim -> two sub-stacks; re-home only
        // the u32 one: the local stack must survive for the u64.
        let mut b = KernelBuilder::new("k");
        let t = b.special_tid_x(Type::U32);
        let x = b.add(Type::U32, t, Operand::Imm(1));
        let w0 = b.cvt(Type::U64, Type::U32, t);
        let w = b.binary(crat_ptx::BinOp::Add, Type::U64, w0, Operand::Imm(4));
        let xu = b.add(Type::U32, x, Operand::Imm(0));
        let wu = b.cvt(Type::U32, Type::U64, w);
        let s = b.add(Type::U32, xu, wu);
        let out = b.param_ptr("out");
        let a = b.wide_address(out, s, 4);
        b.st(Space::Global, Type::U32, a, s);
        let mut k = b.finish();

        let mut st = SpillState::default();
        st.spill_vregs(&mut k, &[x, w]);
        assert_eq!(st.substacks.len(), 2);
        st.rehome_to_shared(&mut k, 0, 32, SpillLayout::WarpInterleaved);
        assert!(k.validate().is_ok());
        assert!(
            k.var(LOCAL_STACK_VAR).is_some(),
            "u64 sub-stack still lives locally"
        );
        let cfg = Cfg::build(&k);
        let rep = st.report(&k, &cfg, 32);
        assert!(rep.counts.total_shared() > 0);
        assert!(rep.counts.total_local() > 0);
        // others: 1 local base + 5 shm setup.
        assert_eq!(rep.counts.others, 6);
    }

    #[test]
    fn spill_inside_loop_is_weighted() {
        let mut b = KernelBuilder::new("k");
        let acc = b.mov(Type::U32, Operand::Imm(0));
        let l = b.loop_range(0, Operand::Imm(50), 1);
        b.binary_to(crat_ptx::BinOp::Add, Type::U32, acc, acc, l.counter);
        b.end_loop(l);
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let a = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, a, acc);
        let mut k = b.finish();

        let mut st = SpillState::default();
        st.spill_vregs(&mut k, &[acc]);
        assert!(k.validate().is_ok());
        let cfg = Cfg::build(&k);
        let rep = st.report(&k, &cfg, 128);
        // The in-loop reload+store dominate the weighted counts.
        assert!(rep.counts.loads_local_weighted >= 50);
        assert!(rep.counts.stores_local_weighted >= 50);
        assert!(rep.counts.loads_local_weighted > rep.counts.loads_local);
    }

    #[test]
    fn guarded_def_spill_store_is_guarded() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Type::U32, Operand::Imm(1));
        let p = b.setp(crat_ptx::CmpOp::Eq, Type::U32, x, Operand::Imm(1));
        let y = b.fresh(Type::U32);
        b.push_guarded(
            Some(crat_ptx::Guard::when(p)),
            Op::Mov {
                ty: Type::U32,
                dst: y,
                src: Operand::Imm(7),
            },
        );
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let a = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, a, y);
        let mut k = b.finish();

        let mut st = SpillState::default();
        st.spill_vregs(&mut k, &[y]);
        assert!(k.validate().is_ok());
        let guarded_store = k.insts().any(|(_, _, i)| {
            i.guard.is_some()
                && matches!(
                    i.op,
                    Op::St {
                        space: Space::Local,
                        ..
                    }
                )
        });
        assert!(
            guarded_store,
            "spill store after a guarded def must carry the guard"
        );
    }

    #[test]
    #[should_panic(expected = "predicate")]
    fn spilling_predicate_panics() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Type::U32, Operand::Imm(1));
        let p = b.setp(crat_ptx::CmpOp::Eq, Type::U32, x, Operand::Imm(1));
        let _s = b.selp(Type::U32, x, Operand::Imm(0), p);
        let mut k = b.finish();
        let mut st = SpillState::default();
        st.spill_vregs(&mut k, &[p]);
    }
}

#[cfg(test)]
mod split_tests {
    use super::*;
    use crate::SpillSplit;
    use crat_ptx::{KernelBuilder, Operand};

    /// A kernel whose spill set mixes u32, f32, and u64 values.
    fn mixed_kernel() -> (Kernel, Vec<VReg>) {
        let mut b = KernelBuilder::new("mixed");
        let t = b.special_tid_x(Type::U32);
        let a = b.add(Type::U32, t, Operand::Imm(1));
        let f = b.cvt(Type::F32, Type::U32, t);
        let f2 = b.binary(crat_ptx::BinOp::Add, Type::F32, f, Operand::FImm(1.0));
        let w = b.cvt(Type::U64, Type::U32, t);
        let w2 = b.binary(crat_ptx::BinOp::Add, Type::U64, w, Operand::Imm(8));
        // Keep everything live to the end.
        let fu = b.cvt(Type::U32, Type::F32, f2);
        let wu = b.cvt(Type::U32, Type::U64, w2);
        let s1 = b.add(Type::U32, a, fu);
        let s2 = b.add(Type::U32, s1, wu);
        let out = b.param_ptr("out");
        let addr = b.wide_address(out, s2, 4);
        b.st(Space::Global, Type::U32, Address::reg(addr), s2);
        (b.finish(), vec![a, f2, w2])
    }

    fn substack_count(split: SpillSplit) -> usize {
        let (mut k, victims) = mixed_kernel();
        let mut st = SpillState {
            split,
            ..SpillState::default()
        };
        st.spill_vregs(&mut k, &victims);
        assert!(k.validate().is_ok(), "{split:?}");
        st.substacks.len()
    }

    #[test]
    fn by_type_separates_all_three_types() {
        assert_eq!(substack_count(SpillSplit::ByType), 3);
    }

    #[test]
    fn by_width_merges_same_width_types() {
        // u32 and f32 share one 4-byte sub-stack; u64 gets its own.
        assert_eq!(substack_count(SpillSplit::ByWidth), 2);
    }

    #[test]
    fn per_variable_gives_one_stack_each() {
        assert_eq!(substack_count(SpillSplit::PerVariable), 3);
    }

    #[test]
    fn per_variable_split_on_same_type_vars() {
        // Three same-typed victims: by-type shares one sub-stack,
        // per-variable splits into three -- with NO extra base
        // registers (all local sub-stacks share one).
        let build = || {
            let mut b = KernelBuilder::new("same");
            let t = b.special_tid_x(Type::U32);
            let v1 = b.add(Type::U32, t, Operand::Imm(1));
            let v2 = b.add(Type::U32, t, Operand::Imm(2));
            let v3 = b.add(Type::U32, t, Operand::Imm(3));
            let s1 = b.add(Type::U32, v1, v2);
            let s2 = b.add(Type::U32, s1, v3);
            let out = b.param_ptr("out");
            let addr = b.wide_address(out, s2, 4);
            b.st(Space::Global, Type::U32, Address::reg(addr), s2);
            (b.finish(), vec![v1, v2, v3])
        };
        let (mut k1, victims1) = build();
        let mut st = SpillState {
            split: SpillSplit::ByType,
            ..SpillState::default()
        };
        st.spill_vregs(&mut k1, &victims1);
        assert_eq!(st.substacks.len(), 1);

        let (mut k2, victims2) = build();
        let mut st = SpillState {
            split: SpillSplit::PerVariable,
            ..SpillState::default()
        };
        st.spill_vregs(&mut k2, &victims2);
        assert_eq!(st.substacks.len(), 3);
        assert!(st.substacks.iter().all(|s| s.slots == 1));
        // Exactly one base-address mov regardless of the split.
        let base_movs = k2
            .insts()
            .filter(
                |(_, _, i)| matches!(&i.op, Op::MovVarAddr { var, .. } if var == LOCAL_STACK_VAR),
            )
            .count();
        assert_eq!(base_movs, 1);
    }

    #[test]
    fn mixed_width_offsets_are_aligned() {
        let (mut k, victims) = mixed_kernel();
        let mut st = SpillState {
            split: SpillSplit::ByType,
            ..SpillState::default()
        };
        st.spill_vregs(&mut k, &victims);
        for s in &st.substacks {
            for &o in &s.slot_offsets {
                assert_eq!(o % s.width(), 0, "{:?} offset {o}", s.ty);
            }
        }
    }
}
