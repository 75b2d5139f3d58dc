//! The reference interpreter: the pre-decode cycle loop, preserved
//! verbatim for differential testing.
//!
//! This module is the simulator as it existed before the decode layer
//! ([`crate::decode`]): it walks the tree-shaped `crat_ptx` IR
//! directly, resolving operand names, variable layouts, and
//! reconvergence points on every issue. It is kept — always compiled,
//! not `cfg(test)`-gated — so the differential tests can prove that
//! the decoded fast path in [`crate::machine`] produces bit-identical
//! `SimStats` and captured global memory. Do not optimize this module;
//! its value is that it stays byte-for-byte the old semantics.
//!
//! One SM is simulated in detail with its share of the grid
//! (`ceil(grid_blocks / num_sms)` blocks); the other SMs run identical
//! work by symmetry, so whole-GPU time equals this SM's time and
//! whole-GPU counters scale by `num_sms`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crat_ptx::{
    AddrBase, BlockId, Cfg, Instruction, Kernel, Op, Operand, Space, SpecialReg, Terminator, Type,
    VReg,
};

use crate::config::{GpuConfig, LaunchConfig, SchedulerKind};
use crate::error::SimError;
use crate::memory::MemorySystem;
use crate::occupancy::occupancy;
use crate::stats::{SimStats, StallCause};
use crat_ptx::eval as interp;

/// Base of the synthetic address region local memory is mapped into
/// for cache timing (functional local data lives in per-block arrays).
const LOCAL_TIMING_BASE: u64 = 1 << 40;

/// Simulate `kernel` under `launch` on `cfg`, optionally capping the
/// resident blocks per SM at `tlp_cap` (thread throttling).
///
/// `regs_per_thread` is the per-thread register count used for
/// occupancy (the allocator's `slots_used`; pass the config's
/// `max_regs_per_thread` for unallocated kernels, which models the
/// "fits by construction" assumption).
///
/// # Errors
///
/// Fails on invalid kernels, unbound parameters, divergent branches
/// (the subset requires warp-uniform control flow), out-of-bounds
/// shared/local accesses, deadlock, or exceeding the cycle limit.
pub fn simulate(
    kernel: &Kernel,
    cfg: &GpuConfig,
    launch: &LaunchConfig,
    regs_per_thread: u32,
    tlp_cap: Option<u32>,
) -> Result<SimStats, SimError> {
    simulate_capture(kernel, cfg, launch, regs_per_thread, tlp_cap).map(|(s, _)| s)
}

/// Like [`simulate`], additionally returning the final global-memory
/// contents (address → raw value of every store). Used to check that
/// program transformations (register allocation, spill re-homing)
/// preserve observable behaviour.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_capture(
    kernel: &Kernel,
    cfg: &GpuConfig,
    launch: &LaunchConfig,
    regs_per_thread: u32,
    tlp_cap: Option<u32>,
) -> Result<(SimStats, HashMap<u64, u64>), SimError> {
    kernel.validate().map_err(SimError::InvalidKernel)?;
    if launch.grid_blocks == 0 {
        return Err(SimError::BadLaunch("grid has zero blocks".to_string()));
    }
    if launch.block_size == 0 || !launch.block_size.is_multiple_of(cfg.warp_size) {
        return Err(SimError::BadLaunch(format!(
            "block size {} is not a positive multiple of {}",
            launch.block_size, cfg.warp_size
        )));
    }
    for p in kernel.params() {
        if !launch.params.contains_key(&p.name) {
            return Err(SimError::MissingParam(p.name.clone()));
        }
    }

    let occ = occupancy(
        cfg,
        regs_per_thread,
        kernel.shared_bytes(),
        launch.block_size,
    );
    let mut resident = occ.blocks.min(tlp_cap.unwrap_or(u32::MAX));
    if resident == 0 {
        return Err(SimError::BadLaunch(format!(
            "kernel does not fit on the SM (limited by {:?})",
            occ.limiter
        )));
    }
    let blocks_this_sm = launch.grid_blocks.div_ceil(cfg.num_sms);
    resident = resident.min(blocks_this_sm);

    let mut m = Machine::new(kernel, cfg, launch, blocks_this_sm)?;
    m.stats.resident_blocks = u64::from(resident);
    for _ in 0..resident {
        m.launch_block()?;
    }
    m.run()?;
    Ok((m.stats, m.global))
}

/// Per-block runtime state.
struct BlockCtx {
    shared: Vec<u8>,
    local: Vec<u8>,
    live_warps: u32,
    barrier_arrived: u32,
}

/// One SIMT reconvergence-stack frame: a program counter, the active
/// lanes executing it, and the block at which they rejoin the frame
/// below (GPGPU-Sim's PC/RPC/mask stack).
#[derive(Debug, Clone, Copy)]
struct SimtFrame {
    pc_block: u32,
    pc_idx: usize,
    /// Reconvergence block; `u32::MAX` for the base frame.
    rpc_block: u32,
    /// Active lane mask.
    mask: u32,
}

/// Per-warp runtime state.
struct Warp {
    block_slot: usize,
    warp_in_block: u32,
    ctaid: u32,
    /// SIMT stack; never empty while the warp is live.
    stack: Vec<SimtFrame>,
    regs: Vec<[u64; 32]>,
    pending: Vec<bool>,
    pending_count: u32,
    at_barrier: bool,
    done: bool,
    age: u64,
    generation: u64,
}

impl Warp {
    fn frame(&self) -> &SimtFrame {
        self.stack.last().expect("live warp has a frame")
    }

    fn frame_mut(&mut self) -> &mut SimtFrame {
        self.stack.last_mut().expect("live warp has a frame")
    }

    /// Pop frames whose reconvergence point has been reached.
    fn reconverge(&mut self) {
        while self.stack.len() > 1 {
            let top = *self.frame();
            if top.pc_idx == 0 && top.pc_block == top.rpc_block {
                self.stack.pop();
            } else {
                break;
            }
        }
    }
}

enum IssueOutcome {
    Issued,
    Blocked,
    MemStall,
}

struct Machine<'a> {
    kernel: &'a Kernel,
    flow: Cfg,
    cfg: &'a GpuConfig,
    launch: &'a LaunchConfig,
    mem: MemorySystem,
    global: HashMap<u64, u64>,
    blocks: Vec<Option<BlockCtx>>,
    warps: Vec<Option<Warp>>,
    warps_per_block: u32,
    next_block_index: u32,
    blocks_total: u32,
    blocks_done: u32,
    shared_layout: HashMap<String, u64>,
    shared_bytes: u32,
    local_layout: HashMap<String, u64>,
    local_bytes: u32,
    /// (ready cycle, warp slot, generation, register).
    writebacks: BinaryHeap<Reverse<(u64, usize, u64, u32)>>,
    now: u64,
    age_counter: u64,
    generation_counter: u64,
    gto_current: Vec<Option<usize>>,
    lrr_next: Vec<usize>,
    /// Per-scheduler cause for the current cycle-loop iteration
    /// (mirrors the decoded machine's attribution exactly).
    slot_causes: Vec<StallCause>,
    /// Shared-memory bank model (mirrors the decoded machine; `None`
    /// keeps shared memory conflict-free).
    bank: Option<crate::config::ShmBankConfig>,
    /// Per-scheduler last cycle blocked by bank-conflict replays
    /// (inclusive; 0 = never busy).
    shm_busy_until: Vec<u64>,
    stats: SimStats,
}

impl<'a> Machine<'a> {
    fn new(
        kernel: &'a Kernel,
        cfg: &'a GpuConfig,
        launch: &'a LaunchConfig,
        blocks_total: u32,
    ) -> Result<Machine<'a>, SimError> {
        let (shared_layout, shared_bytes) = layout(kernel, Space::Shared);
        let (local_layout, local_bytes) = layout(kernel, Space::Local);
        Ok(Machine {
            kernel,
            flow: Cfg::build(kernel),
            cfg,
            launch,
            mem: MemorySystem::new(cfg),
            global: HashMap::new(),
            blocks: Vec::new(),
            warps: Vec::new(),
            warps_per_block: cfg.warps_per_block(launch.block_size),
            next_block_index: 0,
            blocks_total,
            blocks_done: 0,
            shared_layout,
            shared_bytes,
            local_layout,
            local_bytes,
            writebacks: BinaryHeap::new(),
            now: 0,
            age_counter: 0,
            generation_counter: 0,
            gto_current: vec![None; cfg.num_schedulers as usize],
            lrr_next: vec![0; cfg.num_schedulers as usize],
            slot_causes: vec![StallCause::Empty; cfg.num_schedulers as usize],
            bank: cfg.shm_banks,
            shm_busy_until: vec![0; cfg.num_schedulers as usize],
            stats: {
                let mut stats = SimStats::default();
                stats.attribution.init_schedulers(cfg.num_schedulers);
                stats
            },
        })
    }

    /// Launch the next pending block into a fresh slot (or reuse a
    /// finished block's slot).
    fn launch_block(&mut self) -> Result<(), SimError> {
        if self.next_block_index >= self.blocks_total {
            return Ok(());
        }
        // The i-th block launched on this SM models global block
        // `i * num_sms` (blocks are distributed round-robin), keeping
        // address patterns representative.
        let ctaid = (self.next_block_index * self.cfg.num_sms).min(self.launch.grid_blocks - 1);
        self.next_block_index += 1;

        let slot = self
            .blocks
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.blocks.push(None);
                self.blocks.len() - 1
            });
        self.blocks[slot] = Some(BlockCtx {
            shared: vec![0; self.shared_bytes as usize],
            local: vec![0; (self.local_bytes * self.launch.block_size) as usize],
            live_warps: self.warps_per_block,
            barrier_arrived: 0,
        });

        let nregs = self.kernel.num_regs();
        for w in 0..self.warps_per_block {
            self.generation_counter += 1;
            self.age_counter += 1;
            let warp = Warp {
                block_slot: slot,
                warp_in_block: w,
                ctaid,
                stack: vec![SimtFrame {
                    pc_block: 0,
                    pc_idx: 0,
                    rpc_block: u32::MAX,
                    mask: u32::MAX,
                }],
                regs: vec![[0u64; 32]; nregs],
                pending: vec![false; nregs],
                pending_count: 0,
                at_barrier: false,
                done: false,
                age: self.age_counter,
                generation: self.generation_counter,
            };
            // Warp slots are block-slot-aligned so that scheduler
            // assignment stays stable as blocks turn over.
            let wslot = slot * self.warps_per_block as usize + w as usize;
            if wslot >= self.warps.len() {
                self.warps.resize_with(wslot + 1, || None);
            }
            self.warps[wslot] = Some(warp);
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(), SimError> {
        while self.blocks_done < self.blocks_total {
            self.drain_writebacks();
            let mut issued_any = false;
            for s in 0..self.cfg.num_schedulers as usize {
                let cause = self.schedule_one(s)?;
                self.slot_causes[s] = cause;
                if cause == StallCause::Issued {
                    issued_any = true;
                }
            }
            if self.blocks_done >= self.blocks_total {
                // The final iteration only advances time when it is the
                // sole iteration (cycles = now.max(1) below).
                if self.now == 0 {
                    self.commit_slots(1);
                }
                break;
            }
            if issued_any {
                self.commit_slots(1);
                self.now += 1;
            } else {
                // Fast-forward to the next event that can change the
                // machine: a writeback, or (bank model only) the
                // expiry of a shared-memory busy window. If neither
                // exists, no instruction can ever become ready. The
                // machine state is frozen until that event, so each
                // scheduler's cause holds for the whole window.
                let mut event = match self.writebacks.peek() {
                    Some(&Reverse((t, _, _, _))) => t,
                    None => u64::MAX,
                };
                if self.bank.is_some() {
                    for s in 0..self.shm_busy_until.len() {
                        let busy_until = self.shm_busy_until[s];
                        if busy_until != 0 && busy_until >= self.now {
                            // The scheduler can issue again one cycle
                            // after its window closes.
                            event = event.min(busy_until + 1);
                        }
                    }
                }
                if event == u64::MAX {
                    return Err(SimError::Deadlock);
                }
                let skipped = event.max(self.now + 1) - self.now;
                self.commit_slots(skipped);
                self.now += skipped;
            }
            if self.now > self.cfg.max_cycles {
                return Err(SimError::CycleLimit { cycles: self.now });
            }
        }
        self.stats.cycles = self.now.max(1);
        Ok(())
    }

    /// Fold each scheduler's cause for the current iteration into the
    /// attribution, weighted by the `n` cycles the iteration covers.
    fn commit_slots(&mut self, n: u64) {
        for s in 0..self.slot_causes.len() {
            let cause = self.slot_causes[s];
            self.stats.attribution.per_scheduler[s][cause as usize] += n;
        }
    }

    fn drain_writebacks(&mut self) {
        while let Some(&Reverse((t, slot, generation, reg))) = self.writebacks.peek() {
            if t > self.now {
                break;
            }
            self.writebacks.pop();
            if let Some(w) = self.warps.get_mut(slot).and_then(Option::as_mut) {
                if w.generation == generation && w.pending[reg as usize] {
                    w.pending[reg as usize] = false;
                    w.pending_count -= 1;
                }
            }
        }
    }

    /// Let scheduler `s` issue at most one instruction. Returns the
    /// exclusive [`StallCause`] describing what the scheduler did this
    /// cycle.
    fn schedule_one(&mut self, s: usize) -> Result<StallCause, SimError> {
        // Bank-conflict serialization: while this scheduler's
        // shared-memory unit is replaying a conflicted access, it
        // cannot issue (mirrors the decoded machine exactly).
        if self.bank.is_some() {
            let busy_until = self.shm_busy_until[s];
            if busy_until != 0 && self.now <= busy_until {
                return Ok(StallCause::ShmBankConflict);
            }
        }
        // Candidate warp slots owned by this scheduler.
        let saw_barrier = (0..self.warps.len())
            .filter(|&i| i % self.cfg.num_schedulers as usize == s)
            .any(|i| {
                self.warps[i]
                    .as_ref()
                    .is_some_and(|w| !w.done && w.at_barrier)
            });
        let mut cands: Vec<usize> = (0..self.warps.len())
            .filter(|&i| i % self.cfg.num_schedulers as usize == s)
            .filter(|&i| {
                self.warps[i]
                    .as_ref()
                    .is_some_and(|w| !w.done && !w.at_barrier)
            })
            .collect();
        if cands.is_empty() {
            let cause = if saw_barrier {
                StallCause::Barrier
            } else if self.next_block_index >= self.blocks_total {
                StallCause::Drained
            } else {
                StallCause::Empty
            };
            return Ok(cause);
        }

        match self.cfg.scheduler {
            SchedulerKind::Gto => {
                // Greedy: current warp first; then oldest-first.
                cands.sort_by_key(|&i| {
                    let age = self.warps[i].as_ref().map_or(u64::MAX, |w| w.age);
                    (if Some(i) == self.gto_current[s] { 0 } else { 1 }, age)
                });
            }
            SchedulerKind::Lrr => {
                let start = self.lrr_next[s] % self.warps.len().max(1);
                cands.sort_by_key(|&i| (i + self.warps.len() - start) % self.warps.len());
            }
        }

        for &i in &cands {
            match self.try_issue(i)? {
                IssueOutcome::Issued => {
                    self.gto_current[s] = Some(i);
                    self.lrr_next[s] = i + 1;
                    return Ok(StallCause::Issued);
                }
                IssueOutcome::Blocked => continue,
                // A memory-path reservation failure blocks this
                // scheduler's load/store unit for the cycle.
                IssueOutcome::MemStall => {
                    self.gto_current[s] = Some(i);
                    return Ok(StallCause::MemStall);
                }
            }
        }
        // Every candidate is scoreboard-blocked. When all of them are
        // also mid-divergence, the exposed latency is a reconvergence
        // serialization cost rather than plain scoreboard pressure.
        let all_diverged = cands.iter().all(|&i| {
            self.warps[i]
                .as_ref()
                .expect("candidate exists")
                .stack
                .len()
                > 1
        });
        let cause = if all_diverged {
            StallCause::Reconverge
        } else {
            StallCause::Scoreboard
        };
        Ok(cause)
    }

    /// Attempt to issue the next instruction of warp slot `i`.
    fn try_issue(&mut self, i: usize) -> Result<IssueOutcome, SimError> {
        // Pop SIMT frames whose reconvergence point was reached.
        self.warps[i]
            .as_mut()
            .expect("candidate exists")
            .reconverge();
        let w = self.warps[i].as_ref().expect("candidate exists");
        let frame = *w.frame();
        let block = &self.kernel.blocks()[frame.pc_block as usize];

        if frame.pc_idx < block.insts.len() {
            let inst = &block.insts[frame.pc_idx];
            if self.scoreboard_blocks(w, inst) {
                return Ok(IssueOutcome::Blocked);
            }
            self.issue_instruction(i, frame.pc_block, frame.pc_idx)
        } else {
            // Terminator.
            if let Some(p) = block.terminator.used_reg() {
                if w.pending[p.index()] {
                    return Ok(IssueOutcome::Blocked);
                }
            }
            self.issue_terminator(i)?;
            Ok(IssueOutcome::Issued)
        }
    }

    fn scoreboard_blocks(&self, w: &Warp, inst: &Instruction) -> bool {
        if w.pending_count == 0 {
            return false;
        }
        let mut uses = Vec::with_capacity(4);
        inst.collect_uses(&mut uses);
        if uses.iter().any(|u| w.pending[u.index()]) {
            return true;
        }
        if let Some(d) = inst.def() {
            if w.pending[d.index()] {
                return true; // WAW
            }
        }
        false
    }

    fn issue_terminator(&mut self, i: usize) -> Result<(), SimError> {
        self.stats.warp_insts += 1;

        let w = self.warps[i].as_mut().expect("warp exists");
        let frame = *w.frame();
        self.stats.thread_insts += u64::from(frame.mask.count_ones());
        let term = self.kernel.blocks()[frame.pc_block as usize]
            .terminator
            .clone();
        match term {
            Terminator::Bra(t) => {
                let f = w.frame_mut();
                f.pc_block = t.0;
                f.pc_idx = 0;
            }
            Terminator::CondBra {
                pred,
                negated,
                taken,
                not_taken,
            } => {
                // Lane votes among the frame's active lanes.
                let mut taken_mask = 0u32;
                for lane in 0..32 {
                    if frame.mask & (1 << lane) != 0 {
                        let p = w.regs[pred.index()][lane] != 0;
                        if p != negated {
                            taken_mask |= 1 << lane;
                        }
                    }
                }
                if taken_mask == frame.mask || taken_mask == 0 {
                    // Uniform within the active lanes.
                    let t = if taken_mask != 0 { taken } else { not_taken };
                    let f = w.frame_mut();
                    f.pc_block = t.0;
                    f.pc_idx = 0;
                } else {
                    // Divergence: reconverge at the immediate
                    // post-dominator; execute taken lanes first.
                    let here = BlockId(frame.pc_block);
                    let Some(rpc) = self.flow.immediate_post_dominator(here) else {
                        return Err(SimError::UnstructuredDivergence {
                            block: here,
                            ctaid: w.ctaid,
                            warp: w.warp_in_block,
                        });
                    };
                    self.stats.divergent_branches += 1;
                    let not_taken_mask = frame.mask & !taken_mask;
                    {
                        let f = w.frame_mut();
                        f.pc_block = rpc.0;
                        f.pc_idx = 0;
                    }
                    w.stack.push(SimtFrame {
                        pc_block: not_taken.0,
                        pc_idx: 0,
                        rpc_block: rpc.0,
                        mask: not_taken_mask,
                    });
                    w.stack.push(SimtFrame {
                        pc_block: taken.0,
                        pc_idx: 0,
                        rpc_block: rpc.0,
                        mask: taken_mask,
                    });
                }
            }
            Terminator::Exit => {
                if w.stack.len() > 1 {
                    return Err(SimError::UnstructuredDivergence {
                        block: BlockId(frame.pc_block),
                        ctaid: w.ctaid,
                        warp: w.warp_in_block,
                    });
                }
                w.done = true;
                let slot = w.block_slot;
                let block = self.blocks[slot].as_mut().expect("block exists");
                block.live_warps -= 1;
                // A barrier can only be pending among still-live warps.
                if block.live_warps > 0 && block.barrier_arrived == block.live_warps {
                    self.release_barrier(slot);
                }
                if self.blocks[slot].as_ref().expect("block exists").live_warps == 0 {
                    self.blocks[slot] = None;
                    self.blocks_done += 1;
                    self.stats.blocks += 1;
                    self.launch_block()?;
                }
            }
        }
        Ok(())
    }

    fn release_barrier(&mut self, block_slot: usize) {
        if let Some(b) = self.blocks[block_slot].as_mut() {
            b.barrier_arrived = 0;
        }
        for w in self.warps.iter_mut().flatten() {
            if w.block_slot == block_slot && w.at_barrier {
                w.at_barrier = false;
            }
        }
    }

    /// Value of an operand in `lane`.
    fn operand(&self, w: &Warp, op: &Operand, lane: usize) -> u64 {
        match op {
            Operand::Reg(r) => w.regs[r.index()][lane],
            Operand::Imm(v) => *v as u64,
            Operand::FImm(v) => {
                // The consuming instruction's type decides f32 vs f64;
                // store as f64 bits and let typed reads reinterpret.
                v.to_bits()
            }
            Operand::Special(sr) => self.special(w, *sr, lane),
        }
    }

    /// Typed operand read: float immediates are converted to the width
    /// the instruction expects.
    fn operand_typed(&self, w: &Warp, op: &Operand, ty: Type, lane: usize) -> u64 {
        match op {
            Operand::FImm(v) => match ty {
                Type::F32 => (*v as f32).to_bits() as u64,
                _ => v.to_bits(),
            },
            _ => interp::truncate(ty, self.operand(w, op, lane)),
        }
    }

    fn special(&self, w: &Warp, sr: SpecialReg, lane: usize) -> u64 {
        match sr {
            SpecialReg::TidX => (w.warp_in_block * self.cfg.warp_size) as u64 + lane as u64,
            SpecialReg::NtidX => self.launch.block_size as u64,
            SpecialReg::CtaidX => w.ctaid as u64,
            SpecialReg::NctaidX => self.launch.grid_blocks as u64,
            SpecialReg::LaneId => lane as u64,
            SpecialReg::WarpId => w.warp_in_block as u64,
        }
    }

    /// Lanes enabled by the SIMT frame and the instruction's guard.
    fn active_mask(&self, w: &Warp, inst: &Instruction) -> [bool; 32] {
        let fmask = w.frame().mask;
        let mut m = [false; 32];
        for (lane, slot) in m.iter_mut().enumerate() {
            let mut on = fmask & (1 << lane) != 0;
            if on {
                if let Some(g) = &inst.guard {
                    let p = w.regs[g.pred.index()][lane] != 0;
                    on = p != g.negated;
                }
            }
            *slot = on;
        }
        m
    }

    /// The byte address accessed by `lane`, in the functional space of
    /// the instruction (param names resolve in [`Machine::exec_ld`]).
    fn resolve_addr(&self, w: &Warp, addr: &crat_ptx::Address, lane: usize) -> u64 {
        let base = match &addr.base {
            AddrBase::Reg(r) => w.regs[r.index()][lane],
            AddrBase::Var(name) => *self
                .shared_layout
                .get(name)
                .or_else(|| self.local_layout.get(name))
                .expect("validated variable"),
            AddrBase::Param(_) => 0,
        };
        base.wrapping_add(addr.offset as u64)
    }

    /// Map a per-thread local-memory offset to the interleaved global
    /// timing address (same-offset accesses across a warp coalesce, as
    /// on real hardware).
    fn local_timing_addr(&self, ctaid: u32, tid_in_block: u32, offset: u64) -> u64 {
        let words_per_block = (self.local_bytes as u64 / 4) * self.launch.block_size as u64;
        LOCAL_TIMING_BASE
            + (ctaid as u64 * words_per_block
                + (offset / 4) * self.launch.block_size as u64
                + tid_in_block as u64)
                * 4
    }

    /// Execute and issue the instruction at (`bi`, `idx`) for warp `i`.
    fn issue_instruction(
        &mut self,
        i: usize,
        bi: u32,
        idx: usize,
    ) -> Result<IssueOutcome, SimError> {
        let inst = self.kernel.blocks()[bi as usize].insts[idx].clone();

        // Memory instructions can fail to reserve resources; handle
        // them first so a stall has no side effects.
        if let Op::Ld {
            space,
            ty,
            dst,
            addr,
        } = &inst.op
        {
            return self.exec_ld(i, &inst, *space, *ty, *dst, addr);
        }
        if let Op::St {
            space,
            ty,
            addr,
            src,
        } = &inst.op
        {
            return self.exec_st(i, &inst, *space, *ty, addr, src);
        }

        self.stats.warp_insts += 1;
        let mask = {
            let w = self.warps[i].as_ref().expect("warp exists");
            self.active_mask(w, &inst)
        };
        let w = self.warps[i].as_mut().expect("warp exists");
        self.stats.thread_insts += mask.iter().filter(|&&b| b).count() as u64;

        let mut latency = self.cfg.lat.alu;
        match &inst.op {
            Op::BarSync => {
                if w.stack.len() > 1 {
                    return Err(SimError::UnstructuredDivergence {
                        block: BlockId(w.frame().pc_block),
                        ctaid: w.ctaid,
                        warp: w.warp_in_block,
                    });
                }
                self.stats.barrier_insts += 1;
                let slot = w.block_slot;
                w.at_barrier = true;
                w.frame_mut().pc_idx += 1;
                let block = self.blocks[slot].as_mut().expect("block exists");
                block.barrier_arrived += 1;
                if block.barrier_arrived == block.live_warps {
                    self.release_barrier(slot);
                }
                return Ok(IssueOutcome::Issued);
            }
            Op::Mov { ty, dst, src } => {
                for (lane, &active) in mask.iter().enumerate() {
                    if active {
                        let v = match src {
                            Operand::Reg(r) => w.regs[r.index()][lane],
                            Operand::Imm(v) => *v as u64,
                            Operand::FImm(v) => match ty {
                                Type::F32 => (*v as f32).to_bits() as u64,
                                _ => v.to_bits(),
                            },
                            Operand::Special(sr) => match sr {
                                SpecialReg::TidX => {
                                    (w.warp_in_block * self.cfg.warp_size) as u64 + lane as u64
                                }
                                SpecialReg::NtidX => self.launch.block_size as u64,
                                SpecialReg::CtaidX => w.ctaid as u64,
                                SpecialReg::NctaidX => self.launch.grid_blocks as u64,
                                SpecialReg::LaneId => lane as u64,
                                SpecialReg::WarpId => w.warp_in_block as u64,
                            },
                        };
                        w.regs[dst.index()][lane] = interp::truncate(*ty, v);
                    }
                }
                set_pending(w, *dst);
            }
            Op::MovVarAddr { dst, var } => {
                let base = *self
                    .shared_layout
                    .get(var)
                    .or_else(|| self.local_layout.get(var))
                    .expect("validated variable");
                for (lane, &active) in mask.iter().enumerate() {
                    if active {
                        w.regs[dst.index()][lane] = base;
                    }
                }
                set_pending(w, *dst);
            }
            Op::Unary { op, ty, dst, src } => {
                if inst.is_sfu() {
                    self.stats.sfu_insts += 1;
                    latency = self.cfg.lat.sfu;
                }
                for (lane, &active) in mask.iter().enumerate() {
                    if active {
                        let a = typed_operand(w, src, *ty, lane);
                        w.regs[dst.index()][lane] = interp::unary_op(*op, *ty, a);
                    }
                }
                set_pending(w, *dst);
            }
            Op::Binary { op, ty, dst, a, b } => {
                if inst.is_sfu() {
                    self.stats.sfu_insts += 1;
                    latency = self.cfg.lat.sfu;
                }
                for (lane, &active) in mask.iter().enumerate() {
                    if active {
                        let x = typed_operand(w, a, *ty, lane);
                        let y = typed_operand(w, b, *ty, lane);
                        w.regs[dst.index()][lane] = interp::binary_op(*op, *ty, x, y);
                    }
                }
                set_pending(w, *dst);
            }
            Op::Mad { ty, dst, a, b, c } | Op::Fma { ty, dst, a, b, c } => {
                for (lane, &active) in mask.iter().enumerate() {
                    if active {
                        let x = typed_operand(w, a, *ty, lane);
                        let y = typed_operand(w, b, *ty, lane);
                        let z = typed_operand(w, c, *ty, lane);
                        w.regs[dst.index()][lane] = interp::mad_op(*ty, x, y, z);
                    }
                }
                set_pending(w, *dst);
            }
            Op::Cvt {
                dst_ty,
                src_ty,
                dst,
                src,
            } => {
                for (lane, &active) in mask.iter().enumerate() {
                    if active {
                        let v = typed_operand(w, src, *src_ty, lane);
                        w.regs[dst.index()][lane] = interp::cvt_op(*dst_ty, *src_ty, v);
                    }
                }
                set_pending(w, *dst);
            }
            Op::Setp { cmp, ty, dst, a, b } => {
                for (lane, &active) in mask.iter().enumerate() {
                    if active {
                        let x = typed_operand(w, a, *ty, lane);
                        let y = typed_operand(w, b, *ty, lane);
                        w.regs[dst.index()][lane] = u64::from(interp::cmp_op(*cmp, *ty, x, y));
                    }
                }
                set_pending(w, *dst);
            }
            Op::Selp {
                ty,
                dst,
                a,
                b,
                pred,
            } => {
                for (lane, &active) in mask.iter().enumerate() {
                    if active {
                        let x = typed_operand(w, a, *ty, lane);
                        let y = typed_operand(w, b, *ty, lane);
                        let p = w.regs[pred.index()][lane] != 0;
                        w.regs[dst.index()][lane] = if p { x } else { y };
                    }
                }
                set_pending(w, *dst);
            }
            Op::Ld { .. } | Op::St { .. } => unreachable!("handled above"),
        }

        let dst = inst
            .def()
            .expect("non-memory ops with defs handled above; bar returns early");
        let (gen_, age_slot) = {
            let w = self.warps[i].as_ref().expect("warp exists");
            (w.generation, i)
        };
        self.writebacks
            .push(Reverse((self.now + latency as u64, age_slot, gen_, dst.0)));
        let w = self.warps[i].as_mut().expect("warp exists");
        w.frame_mut().pc_idx += 1;
        Ok(IssueOutcome::Issued)
    }

    fn exec_ld(
        &mut self,
        i: usize,
        inst: &Instruction,
        space: Space,
        ty: Type,
        dst: VReg,
        addr: &crat_ptx::Address,
    ) -> Result<IssueOutcome, SimError> {
        let w = self.warps[i].as_ref().expect("warp exists");
        let mask = self.active_mask(w, inst);
        let active: Vec<usize> = (0..32).filter(|&l| mask[l]).collect();
        let size = ty.size_bytes() as u64;

        // Resolve addresses first (no side effects yet).
        let mut lane_addrs = [0u64; 32];
        for &lane in &active {
            lane_addrs[lane] = self.resolve_addr(w, addr, lane);
        }

        // Timing (may stall).
        let ready_at = match space {
            Space::Param => self.now + self.cfg.lat.param as u64,
            Space::Shared => {
                self.stats.shared_insts += 1;
                let mut extra = 0u64;
                if let Some(bank) = self.bank {
                    let d = crate::memory::shm_conflict_degree(
                        &bank,
                        active.iter().map(|&l| (lane_addrs[l], ty.size_bytes())),
                    );
                    if d > 1 {
                        // Each replay pass delays the data and holds
                        // this scheduler's shared-memory unit.
                        extra = u64::from(d - 1) * u64::from(bank.conflict_penalty);
                        self.stats.shm_bank_conflicts += u64::from(d - 1);
                        let s = i % self.cfg.num_schedulers as usize;
                        self.shm_busy_until[s] = self.now + extra;
                    }
                }
                self.now + self.cfg.lat.shared as u64 + extra
            }
            Space::Global | Space::Local => {
                let tids: Vec<(usize, u64)> = active
                    .iter()
                    .map(|&l| {
                        let tid = w.warp_in_block * self.cfg.warp_size + l as u32;
                        let ta = if space == Space::Local {
                            self.local_timing_addr(w.ctaid, tid, lane_addrs[l])
                        } else {
                            lane_addrs[l]
                        };
                        (l, ta)
                    })
                    .collect();
                let lines = self.mem.coalesce(tids.iter().map(|&(_, a)| a));
                if lines.is_empty() {
                    self.now + self.cfg.lat.alu as u64
                } else {
                    let bypass = space == Space::Global && self.cfg.l1_bypass_global;
                    let outcome = if bypass {
                        self.mem.load_warp_bypass(&lines, self.now, &mut self.stats)
                    } else {
                        self.mem.load_warp(&lines, self.now, &mut self.stats)
                    };
                    match outcome {
                        Some(r) => r,
                        None => return Ok(IssueOutcome::MemStall),
                    }
                }
            }
        };
        match space {
            Space::Global => self.stats.global_insts += 1,
            Space::Local => {
                self.stats.local_insts += 1;
                self.stats.local_bytes += active.len() as u64 * size;
            }
            _ => {}
        }

        // Functional.
        let block_slot = w.block_slot;
        let warp_in_block = w.warp_in_block;
        let mut values = [0u64; 32];
        for &lane in &active {
            let a = lane_addrs[lane];
            values[lane] = match space {
                Space::Param => {
                    let name = match &addr.base {
                        AddrBase::Param(n) => n,
                        _ => unreachable!("validated param address"),
                    };
                    self.launch.params[name]
                }
                Space::Global => *self
                    .global
                    .get(&a)
                    .unwrap_or(&interp::default_memory_value(a)),
                Space::Shared => {
                    let b = self.blocks[block_slot].as_ref().expect("block exists");
                    read_bytes(&b.shared, a, size).ok_or(SimError::OutOfBounds {
                        space,
                        addr: a,
                        size: b.shared.len() as u64,
                    })?
                }
                Space::Local => {
                    let b = self.blocks[block_slot].as_ref().expect("block exists");
                    let tid = warp_in_block * self.cfg.warp_size + lane as u32;
                    let off = tid as u64 * self.local_bytes as u64 + a;
                    read_bytes(&b.local, off, size).ok_or(SimError::OutOfBounds {
                        space,
                        addr: a,
                        size: self.local_bytes as u64,
                    })?
                }
            };
            values[lane] = interp::truncate(ty, values[lane]);
        }

        self.stats.warp_insts += 1;
        self.stats.thread_insts += active.len() as u64;
        let generation = {
            let w = self.warps[i].as_mut().expect("warp exists");
            for &lane in &active {
                w.regs[dst.index()][lane] = values[lane];
            }
            set_pending(w, dst);
            w.frame_mut().pc_idx += 1;
            w.generation
        };
        self.writebacks
            .push(Reverse((ready_at, i, generation, dst.0)));
        Ok(IssueOutcome::Issued)
    }

    fn exec_st(
        &mut self,
        i: usize,
        inst: &Instruction,
        space: Space,
        ty: Type,
        addr: &crat_ptx::Address,
        src: &Operand,
    ) -> Result<IssueOutcome, SimError> {
        let w = self.warps[i].as_ref().expect("warp exists");
        let mask = self.active_mask(w, inst);
        let active: Vec<usize> = (0..32).filter(|&l| mask[l]).collect();
        let size = ty.size_bytes() as u64;

        let mut lane_addrs = [0u64; 32];
        let mut lane_vals = [0u64; 32];
        for &lane in &active {
            lane_addrs[lane] = self.resolve_addr(w, addr, lane);
            lane_vals[lane] = self.operand_typed(w, src, ty, lane);
        }

        match space {
            Space::Param => {
                return Err(SimError::BadLaunch("store to parameter space".to_string()))
            }
            Space::Shared => {
                self.stats.shared_insts += 1;
                if let Some(bank) = self.bank {
                    let d = crate::memory::shm_conflict_degree(
                        &bank,
                        active.iter().map(|&l| (lane_addrs[l], ty.size_bytes())),
                    );
                    if d > 1 {
                        // The store itself never blocks the warp, but
                        // its replay passes hold the scheduler's
                        // shared-memory unit.
                        let extra = u64::from(d - 1) * u64::from(bank.conflict_penalty);
                        self.stats.shm_bank_conflicts += u64::from(d - 1);
                        let s = i % self.cfg.num_schedulers as usize;
                        self.shm_busy_until[s] = self.now + extra;
                    }
                }
            }
            Space::Global => self.stats.global_insts += 1,
            Space::Local => {
                self.stats.local_insts += 1;
                self.stats.local_bytes += active.len() as u64 * size;
            }
        }

        // Timing: stores never block the warp.
        if matches!(space, Space::Global | Space::Local) {
            let tids: Vec<u64> = active
                .iter()
                .map(|&l| {
                    let tid = w.warp_in_block * self.cfg.warp_size + l as u32;
                    if space == Space::Local {
                        self.local_timing_addr(w.ctaid, tid, lane_addrs[l])
                    } else {
                        lane_addrs[l]
                    }
                })
                .collect();
            let lines = self.mem.coalesce(tids.into_iter());
            self.mem.store_warp(&lines, self.now, &mut self.stats);
        }

        // Functional.
        let block_slot = w.block_slot;
        let warp_in_block = w.warp_in_block;
        for &lane in &active {
            let a = lane_addrs[lane];
            let v = lane_vals[lane];
            match space {
                Space::Global => {
                    self.global.insert(a, v);
                }
                Space::Shared => {
                    let b = self.blocks[block_slot].as_mut().expect("block exists");
                    let len = b.shared.len() as u64;
                    write_bytes(&mut b.shared, a, size, v).ok_or(SimError::OutOfBounds {
                        space,
                        addr: a,
                        size: len,
                    })?;
                }
                Space::Local => {
                    let b = self.blocks[block_slot].as_mut().expect("block exists");
                    let tid = warp_in_block * self.cfg.warp_size + lane as u32;
                    let off = tid as u64 * self.local_bytes as u64 + a;
                    write_bytes(&mut b.local, off, size, v).ok_or(SimError::OutOfBounds {
                        space,
                        addr: a,
                        size: self.local_bytes as u64,
                    })?;
                }
                Space::Param => unreachable!("rejected above"),
            }
        }

        self.stats.warp_insts += 1;
        self.stats.thread_insts += active.len() as u64;
        let w = self.warps[i].as_mut().expect("warp exists");
        w.frame_mut().pc_idx += 1;
        Ok(IssueOutcome::Issued)
    }
}

/// Typed operand read used inside the big execute match, where `self`
/// is partially borrowed through `w` (special registers appear only in
/// `mov`, which reads them inline).
fn typed_operand(w: &Warp, op: &Operand, ty: Type, lane: usize) -> u64 {
    match op {
        Operand::Reg(r) => interp::truncate(ty, w.regs[r.index()][lane]),
        Operand::Imm(v) => interp::truncate(ty, *v as u64),
        Operand::FImm(v) => match ty {
            Type::F32 => (*v as f32).to_bits() as u64,
            _ => v.to_bits(),
        },
        Operand::Special(_) => unreachable!("special registers appear only in mov"),
    }
}

fn set_pending(w: &mut Warp, dst: VReg) {
    if !w.pending[dst.index()] {
        w.pending[dst.index()] = true;
        w.pending_count += 1;
    }
}

/// Lay out the kernel's variables of `space`, returning name → byte
/// offset and the total size.
fn layout(kernel: &Kernel, space: Space) -> (HashMap<String, u64>, u32) {
    let mut offsets = HashMap::new();
    let mut off = 0u32;
    for v in kernel.vars().iter().filter(|v| v.space == space) {
        let align = v.align.max(1);
        off = off.div_ceil(align) * align;
        offsets.insert(v.name.clone(), off as u64);
        off += v.size;
    }
    (offsets, off)
}

fn read_bytes(buf: &[u8], addr: u64, size: u64) -> Option<u64> {
    let end = addr.checked_add(size)?;
    if end as usize > buf.len() {
        return None;
    }
    let mut v = 0u64;
    for k in 0..size {
        v |= (buf[(addr + k) as usize] as u64) << (8 * k);
    }
    Some(v)
}

fn write_bytes(buf: &mut [u8], addr: u64, size: u64, v: u64) -> Option<()> {
    let end = addr.checked_add(size)?;
    if end as usize > buf.len() {
        return None;
    }
    for k in 0..size {
        buf[(addr + k) as usize] = (v >> (8 * k)) as u8;
    }
    Some(())
}
