//! The SM execution model: resident blocks, warps, scoreboard,
//! GTO/LRR issue, barriers, and the cycle loop — executing the decoded
//! IR of [`crate::decode`].
//!
//! The cycle loop runs entirely on borrowed [`DecodedInst`] values:
//! operands are dense register indices or pre-converted immediates,
//! variable layouts and reconvergence points were resolved at decode
//! time, scheduler and lane scratch live in per-[`Machine`] storage
//! (or on the stack), and functional global memory is the paged
//! [`GlobalMem`] — so issuing an instruction performs no heap
//! allocation. The pre-decode interpreter survives unchanged in
//! [`crate::reference`] and the differential tests hold the two paths
//! bit-identical.
//!
//! Execution is SIMD-wide: the issue path dispatches on the
//! decode-time [`OpClass`] tag, and vector-class instructions run as
//! whole-register-row kernels from [`crate::vexec`] — the opcode/type
//! match happens once per warp instruction, all 32 lanes compute in
//! chunked autovectorization-friendly loops, and a masked blend
//! commits only the active lanes. Lane-divergent work (gather/scatter
//! memory accesses, SFU transcendentals) keeps a scalar per-lane
//! fallback.
//!
//! A cycle in which no scheduler issues fast-forwards: the machine
//! state is frozen until the next write-back or bank busy-window
//! expiry ([`Machine::next_event_after`]), so `now` jumps straight
//! there and each scheduler's stall cause is charged for the whole
//! window in one O(1) attribution fold.
//!
//! One SM is simulated in detail with its share of the grid
//! (`ceil(grid_blocks / num_sms)` blocks); the other SMs run identical
//! work by symmetry, so whole-GPU time equals this SM's time and
//! whole-GPU counters scale by `num_sms`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Instant;

use crat_ptx::{BlockId, Kernel, Space, SpecialReg, Type};

use crate::config::{GpuConfig, LaunchConfig, SchedulerKind};
use crate::decode::{
    decode, DAddr, DAddrBase, DOp, DSrc, DTerm, DecodedInst, DecodedKernel, OpClass, NO_REG, NO_RPC,
};
use crate::error::SimError;
use crate::gmem::GlobalMem;
use crate::memory::MemorySystem;
use crate::occupancy::{check_launch, occupancy, resident_blocks};
use crate::stats::{SimStats, StallCause};
use crate::vexec;
use crat_ptx::eval as interp;

/// Base of the synthetic address region local memory is mapped into
/// for cache timing (functional local data lives in per-block arrays).
const LOCAL_TIMING_BASE: u64 = 1 << 40;

/// Sentinel warp slot for scheduler decisions that concern no warp.
const NO_WARP: u32 = u32::MAX;

/// "No event pending": the write-back watermark's unarmed value, so
/// `min` folds stay branch-free.
const NEVER: u64 = u64::MAX;

/// Simulate `kernel` under `launch` on `cfg`, optionally capping the
/// resident blocks per SM at `tlp_cap` (thread throttling).
///
/// Decodes the kernel first; callers simulating one kernel many times
/// (TLP sweeps, design-space search) should [`decode`] once and use
/// [`simulate_decoded`] instead.
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
    let dk = decode(kernel)?;
    simulate_decoded(&dk, cfg, launch, regs_per_thread, tlp_cap, None)
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
    let dk = decode(kernel)?;
    let m = run_machine(&dk, cfg, launch, regs_per_thread, tlp_cap, None)?;
    Ok((m.stats, m.global.into_map()))
}

/// [`simulate`] over an already-decoded kernel, skipping validation
/// and lowering. This is the hot entry point for evaluation engines
/// that cache [`DecodedKernel`]s across launches.
///
/// With `deadline: Some(t)` the cycle loop periodically compares
/// `Instant::now()` against `t` and, once it has passed, stops with
/// [`SimError::DeadlineExceeded`] instead of running to completion —
/// the cancellation hook behind the evaluation engine's per-job
/// budgets. With `None` the checks are skipped, not merely disarmed.
///
/// # Errors
///
/// Same as [`simulate`] (except invalid kernels are rejected by
/// [`decode`] up front), plus [`SimError::DeadlineExceeded`].
pub fn simulate_decoded(
    dk: &DecodedKernel,
    cfg: &GpuConfig,
    launch: &LaunchConfig,
    regs_per_thread: u32,
    tlp_cap: Option<u32>,
    deadline: Option<Instant>,
) -> Result<SimStats, SimError> {
    Ok(run_machine(dk, cfg, launch, regs_per_thread, tlp_cap, deadline)?.stats)
}

/// Validate the launch, fill the SM with its resident blocks, and run
/// the cycle loop to completion; the finished machine carries every
/// output the entry points return.
fn run_machine<'a>(
    dk: &'a DecodedKernel,
    cfg: &'a GpuConfig,
    launch: &'a LaunchConfig,
    regs_per_thread: u32,
    tlp_cap: Option<u32>,
    deadline: Option<Instant>,
) -> Result<Machine<'a>, SimError> {
    crate::config::fault::fire_sim_panic();
    check_launch(cfg, launch)?;
    for name in dk.param_names() {
        if !launch.params.contains_key(name) {
            return Err(SimError::MissingParam(name.clone()));
        }
    }

    let shmem = dk.shared_decl_bytes();
    let resident = resident_blocks(cfg, launch, regs_per_thread, shmem, tlp_cap);
    if resident == 0 {
        let occ = occupancy(cfg, regs_per_thread, shmem, launch.block_size);
        return Err(SimError::BadLaunch(format!(
            "kernel does not fit on the SM (limited by {:?})",
            occ.limiter
        )));
    }
    let blocks_this_sm = launch.grid_blocks.div_ceil(cfg.num_sms);

    let mut m = Machine::new(dk, cfg, launch, blocks_this_sm);
    m.deadline = deadline;
    m.stats.resident_blocks = resident;
    for _ in 0..resident {
        m.launch_block()?;
    }
    m.run()?;
    Ok(m)
}

/// Per-block runtime state. Retired contexts are pooled and reused so
/// block turnover reallocates nothing.
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

/// Per-warp runtime state. A slot's allocations (register file,
/// scoreboard, SIMT stack) are reused in place when a new block's warp
/// takes the slot over.
struct Warp {
    block_slot: usize,
    warp_in_block: u32,
    ctaid: u32,
    /// SIMT stack; never empty while the warp is live.
    stack: Vec<SimtFrame>,
    regs: Vec<[u64; 32]>,
    pending: Vec<bool>,
    pending_count: u32,
    /// Mirror of [`Warp::pending`] restricted to registers `< 64`, so
    /// the scoreboard check for instructions with a narrow footprint
    /// is a single mask test.
    pending_mask: u64,
    /// The scoreboard footprint ([`DecodedInst::use_def_mask`]) of the
    /// instruction whose issue attempt set [`Warp::sb_blocked`]. A
    /// drain wakes the warp only once the whole footprint has cleared
    /// (`block_need & pending_mask == 0`); `u64::MAX` wakes on every
    /// drain (wide-footprint fallback).
    block_need: u64,
    at_barrier: bool,
    done: bool,
    /// The last issue attempt returned `Blocked` and none of this
    /// warp's pending registers has drained since: the warp *cannot*
    /// issue (the scoreboard check is pure in unchanged state, and the
    /// attempt's reconvergence pops were already applied), so the
    /// scheduler scan skips it without re-attempting. Cleared on
    /// writeback drain, on issue, and on (re)launch.
    sb_blocked: bool,
    /// The warp is enqueued in its scheduler's ready queue
    /// ([`Machine::ready`]); guards against duplicate enqueues.
    in_ready: bool,
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

/// Iterate the set lanes of an active mask, ascending (bit `k` set →
/// lane `k` yielded). Public so mask-handling tests can pin its
/// semantics independently of the execution paths built on it.
pub struct Lanes(pub u32);

impl Iterator for Lanes {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

/// A scheduler's pool of possibly-issuable warps. The representation
/// follows the scheduler kind:
///
/// * **GTO** keeps an age-keyed min-heap. Ages are unique and static
///   for a warp's whole lifetime, and whenever the GTO scan runs the
///   remembered current warp is never an issuable candidate (the
///   greedy fast path already issued, mem-stalled, or blocked it), so
///   the scan order for the remaining candidates is exactly ascending
///   `(age, slot)` — the heap replaces the take/sort/requeue dance
///   with peek-and-pop under lazy invalidation. An entry carries the
///   age it was enqueued with; a mismatch with the warp's current age
///   marks a stale entry from before a slot relaunch (the relaunch
///   pushed its own fresh entry), which is dropped without touching
///   [`Warp::in_ready`].
/// * **LRR/TwoLevel** priorities depend on per-decision state
///   (`lrr_next`, the current warp), so the pool stays an unordered
///   vector that the scan sorts per decision.
enum ReadyQueue {
    Heap(BinaryHeap<Reverse<(u64, usize)>>),
    Scan(Vec<usize>),
}

impl ReadyQueue {
    /// Enqueue a warp that became issuable. The caller guards with
    /// [`Warp::in_ready`]: a fresh entry per slot at most.
    #[inline]
    fn enqueue(&mut self, slot: usize, age: u64) {
        match self {
            ReadyQueue::Heap(h) => h.push(Reverse((age, slot))),
            ReadyQueue::Scan(q) => q.push(slot),
        }
    }
}

struct Machine<'a> {
    dk: &'a DecodedKernel,
    cfg: &'a GpuConfig,
    launch: &'a LaunchConfig,
    mem: MemorySystem,
    global: GlobalMem,
    /// Parameter values in dense-index order.
    param_vals: Vec<u64>,
    blocks: Vec<Option<BlockCtx>>,
    warps: Vec<Option<Warp>>,
    warps_per_block: u32,
    next_block_index: u32,
    blocks_total: u32,
    blocks_done: u32,
    shared_bytes: u32,
    local_bytes: u32,
    /// Variable-latency in-flight write-backs (memory loads, whose
    /// ready time depends on the cache outcome), ordered by ready
    /// cycle: `(ready cycle, warp slot, generation, register)`.
    writebacks: BinaryHeap<Reverse<(u64, usize, u64, u32)>>,
    /// Fixed-latency write-back FIFOs for the ALU and SFU pipes. Each
    /// queue is fed from a single site that adds one constant latency
    /// to the monotone `now`, so ready times are monotone per queue
    /// and FIFO order replaces heap order. Same-cycle drains across
    /// queues commute: applying a write-back is an idempotent
    /// pending-bit clear with guarded re-enqueue, so the split is
    /// bit-identical to the single heap.
    wb_alu: VecDeque<(u64, usize, u64, u32)>,
    wb_sfu: VecDeque<(u64, usize, u64, u32)>,
    /// Write-back watermark: the earliest due time across the three
    /// queues above (`NEVER` when none is in flight), kept exact by
    /// every enqueue and every drain. With the bank-window expiries it
    /// bounds zero-issue fast-forward ([`Machine::next_event_after`]).
    wb_next: u64,
    now: u64,
    age_counter: u64,
    generation_counter: u64,
    gto_current: Vec<Option<usize>>,
    lrr_next: Vec<usize>,
    /// Scheduler candidate scratch (priority key, warp slot), reused
    /// every cycle.
    cand_scratch: Vec<((u64, u64, u64), usize)>,
    /// Retired block contexts awaiting reuse.
    block_pool: Vec<BlockCtx>,
    /// Per-scheduler `(cause, head warp)` for the current cycle-loop
    /// iteration; committed into the attribution once the window length
    /// is known. Reused every iteration — never reallocated.
    slot_causes: Vec<(StallCause, u32)>,
    /// Per-scheduler memoized stall decision: while `Some`, nothing
    /// that could change this scheduler's outcome has happened since
    /// the scan that produced it, so `schedule_one` returns it without
    /// rescanning. Invalidated by the only events that can unblock a
    /// stalled scheduler: a writeback draining one of its warps'
    /// pending bits, a barrier release, a block launch, or its own
    /// issue/mem-stall.
    sched_cached: Vec<Option<(StallCause, u32)>>,
    /// Per-scheduler memoized stall *classification* (cause + head
    /// warp). Longer-lived than [`Machine::sched_cached`]: write-back
    /// drains invalidate the issue decision (the drained warp may now
    /// issue) but not the classification, which depends only on the
    /// live set, priority keys, and divergence depths — all unchanged
    /// by a drain followed by failed issue attempts. Invalidated by
    /// this scheduler's own issue/mem-stall (priority keys move with
    /// `gto_current`, issues advance pc/stacks/done), block launches,
    /// and barrier releases.
    stall_cached: Vec<Option<(StallCause, u32)>>,
    /// Per-scheduler pool of warp slots that may be issuable (live,
    /// not at a barrier, not [`Warp::sb_blocked`]). The issue scan
    /// walks only this pool instead of every owned slot; stale
    /// entries are dropped lazily (clearing [`Warp::in_ready`]), and
    /// the events that make a warp issuable again (writeback drain,
    /// barrier release, block launch) re-enqueue it. GTO uses the
    /// age-keyed heap representation; see [`ReadyQueue`].
    ready: Vec<ReadyQueue>,
    /// Shared-memory bank model; `None` (every stock configuration)
    /// keeps shared memory conflict-free and every path below
    /// untouched.
    bank: Option<crate::config::ShmBankConfig>,
    /// Per-scheduler last cycle blocked by bank-conflict replays of a
    /// shared-memory access it issued (busy through this cycle
    /// inclusive; 0 = never busy, which is unambiguous because a
    /// window always ends at `issue cycle + extra ≥ 1`). Only written
    /// when `bank` is `Some`.
    shm_busy_until: Vec<u64>,
    /// Warp slot charged with each scheduler's busy window.
    shm_busy_head: Vec<u32>,
    /// Cooperative cancellation: wall-clock deadline checked every
    /// [`DEADLINE_CHECK_INTERVAL`] loop iterations (and on the first).
    deadline: Option<Instant>,
    /// Iterations until the next deadline check.
    deadline_countdown: u32,
    stats: SimStats,
    /// Reusable operand/result rows for the vector execute path.
    /// Allocated once: fresh stack rows would cost a 1 KiB zero-fill
    /// per instruction, and every consumer fully overwrites the rows
    /// it reads (kernels write all 32 lanes; immediate splats fill the
    /// scratch row), so stale lanes are never observed.
    exec_rows: ExecRows,
}

/// See [`Machine::exec_rows`].
#[derive(Default)]
struct ExecRows {
    tmp: vexec::Row,
    sa: vexec::Row,
    sb: vexec::Row,
    sc: vexec::Row,
}

/// Loop iterations between wall-clock deadline checks: rare enough
/// that `Instant::now()` is invisible in profiles, frequent enough
/// that an expired deadline stops the loop within microseconds.
const DEADLINE_CHECK_INTERVAL: u32 = 4096;

impl<'a> Machine<'a> {
    fn new(
        dk: &'a DecodedKernel,
        cfg: &'a GpuConfig,
        launch: &'a LaunchConfig,
        blocks_total: u32,
    ) -> Machine<'a> {
        Machine {
            dk,
            cfg,
            launch,
            mem: MemorySystem::new(cfg),
            global: GlobalMem::new(),
            param_vals: dk
                .param_names()
                .iter()
                .map(|n| launch.params[n.as_str()])
                .collect(),
            blocks: Vec::new(),
            warps: Vec::new(),
            warps_per_block: cfg.warps_per_block(launch.block_size),
            next_block_index: 0,
            blocks_total,
            blocks_done: 0,
            shared_bytes: dk.shared_frame_bytes(),
            local_bytes: dk.local_frame_bytes(),
            writebacks: BinaryHeap::new(),
            wb_alu: VecDeque::new(),
            wb_sfu: VecDeque::new(),
            wb_next: NEVER,
            now: 0,
            age_counter: 0,
            generation_counter: 0,
            gto_current: vec![None; cfg.num_schedulers as usize],
            lrr_next: vec![0; cfg.num_schedulers as usize],
            cand_scratch: Vec::new(),
            block_pool: Vec::new(),
            slot_causes: vec![(StallCause::Empty, NO_WARP); cfg.num_schedulers as usize],
            sched_cached: vec![None; cfg.num_schedulers as usize],
            stall_cached: vec![None; cfg.num_schedulers as usize],
            ready: (0..cfg.num_schedulers)
                .map(|_| match cfg.scheduler {
                    SchedulerKind::Gto => ReadyQueue::Heap(BinaryHeap::new()),
                    _ => ReadyQueue::Scan(Vec::new()),
                })
                .collect(),
            bank: cfg.shm_banks,
            shm_busy_until: vec![0; cfg.num_schedulers as usize],
            shm_busy_head: vec![NO_WARP; cfg.num_schedulers as usize],
            deadline: None,
            deadline_countdown: 0,
            stats: {
                let mut stats = SimStats::default();
                stats.attribution.init_schedulers(cfg.num_schedulers);
                stats
            },
            exec_rows: ExecRows::default(),
        }
    }

    /// Launch the next pending block into a fresh slot (or reuse a
    /// finished block's slot and pooled allocations).
    fn launch_block(&mut self) -> Result<(), SimError> {
        if self.next_block_index >= self.blocks_total {
            return Ok(());
        }
        // Fresh warps appear on every scheduler.
        self.sched_cached.fill(None);
        self.stall_cached.fill(None);
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
        let ctx = match self.block_pool.pop() {
            Some(mut b) => {
                b.shared.fill(0);
                b.local.fill(0);
                b.live_warps = self.warps_per_block;
                b.barrier_arrived = 0;
                b
            }
            None => BlockCtx {
                shared: vec![0; self.shared_bytes as usize],
                local: vec![0; (self.local_bytes * self.launch.block_size) as usize],
                live_warps: self.warps_per_block,
                barrier_arrived: 0,
            },
        };
        self.blocks[slot] = Some(ctx);

        let nregs = self.dk.num_regs();
        let nsched = self.sched_cached.len();
        for w in 0..self.warps_per_block {
            self.generation_counter += 1;
            self.age_counter += 1;
            let base = SimtFrame {
                pc_block: 0,
                pc_idx: 0,
                rpc_block: u32::MAX,
                mask: u32::MAX,
            };
            // Warp slots are block-slot-aligned so that scheduler
            // assignment stays stable as blocks turn over.
            let wslot = slot * self.warps_per_block as usize + w as usize;
            if wslot >= self.warps.len() {
                self.warps.resize_with(wslot + 1, || None);
            }
            match self.warps[wslot].as_mut() {
                Some(old) => {
                    // Reuse the retired warp's allocations in place;
                    // stale write-backs are fenced by the generation.
                    old.block_slot = slot;
                    old.warp_in_block = w;
                    old.ctaid = ctaid;
                    old.stack.clear();
                    old.stack.push(base);
                    old.regs.fill([0u64; 32]);
                    old.pending.fill(false);
                    old.pending_count = 0;
                    old.pending_mask = 0;
                    old.block_need = 0;
                    old.at_barrier = false;
                    old.done = false;
                    old.sb_blocked = false;
                    old.age = self.age_counter;
                    old.generation = self.generation_counter;
                    match &mut self.ready[wslot % nsched] {
                        // The relaunched warp's age is fresh, so any
                        // entry the slot still has in the heap carries
                        // a retired age and is stale: always push the
                        // fresh key.
                        ReadyQueue::Heap(h) => {
                            old.in_ready = true;
                            h.push(Reverse((self.age_counter, wslot)));
                        }
                        ReadyQueue::Scan(q) => {
                            if !old.in_ready {
                                old.in_ready = true;
                                q.push(wslot);
                            }
                        }
                    }
                }
                None => {
                    self.warps[wslot] = Some(Warp {
                        block_slot: slot,
                        warp_in_block: w,
                        ctaid,
                        stack: vec![base],
                        regs: vec![[0u64; 32]; nregs],
                        pending: vec![false; nregs],
                        pending_count: 0,
                        pending_mask: 0,
                        block_need: 0,
                        at_barrier: false,
                        done: false,
                        sb_blocked: false,
                        in_ready: true,
                        age: self.age_counter,
                        generation: self.generation_counter,
                    });
                    self.ready[wslot % nsched].enqueue(wslot, self.age_counter);
                }
            }
        }
        self.stats
            .attribution
            .ensure_slots(self.warps.len(), self.blocks.len());
        Ok(())
    }

    fn run(&mut self) -> Result<(), SimError> {
        while self.blocks_done < self.blocks_total {
            if let Some(deadline) = self.deadline {
                // Cooperative cancellation: countdown starts at zero, so
                // an already-expired deadline is caught before the first
                // cycle even on the shortest kernels.
                if self.deadline_countdown == 0 {
                    self.deadline_countdown = DEADLINE_CHECK_INTERVAL;
                    if Instant::now() >= deadline {
                        return Err(SimError::DeadlineExceeded { cycles: self.now });
                    }
                }
                self.deadline_countdown -= 1;
            }
            if self.wb_next <= self.now {
                self.drain_writebacks();
            }
            let mut issued_any = false;
            for s in 0..self.cfg.num_schedulers as usize {
                let decision = self.schedule_one(s)?;
                self.slot_causes[s] = decision;
                if decision.0 == StallCause::Issued {
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
                // Fast-forward to the next event (a write-back or the
                // expiry of a busy window). If none exists, no
                // instruction can ever become ready. The machine state
                // is frozen until that event, so each scheduler's cause
                // holds for the whole window.
                let event = self.next_event_after();
                if event == NEVER {
                    return Err(SimError::Deadlock);
                }
                let skipped = event.max(self.now + 1) - self.now;
                self.commit_slots(skipped);
                self.now += skipped;
                self.burn_deadline_countdown(skipped);
            }
            if self.now > self.cfg.max_cycles {
                return Err(SimError::CycleLimit { cycles: self.now });
            }
        }
        self.stats.cycles = self.now.max(1);
        Ok(())
    }

    /// Fold each scheduler's `(cause, head warp)` for the current
    /// iteration into the attribution, weighted by the `n` cycles the
    /// iteration covers.
    fn commit_slots(&mut self, n: u64) {
        for s in 0..self.slot_causes.len() {
            let (cause, head) = self.slot_causes[s];
            self.stats.attribution.charge(s, cause, head, n);
        }
    }

    /// The earliest cycle at which a zero-issue machine can change
    /// (`NEVER` if none): the write-back watermark, or the cycle after
    /// an unexpired shared-memory busy window frees its scheduler.
    /// Barrier releases are not timed events — a barrier releases
    /// synchronously with its last arriving warp's issue.
    fn next_event_after(&self) -> u64 {
        let mut next = self.wb_next;
        if self.bank.is_some() {
            for &busy_until in &self.shm_busy_until {
                if busy_until != 0 && self.now <= busy_until {
                    next = next.min(busy_until + 1);
                }
            }
        }
        next
    }

    /// A fast-forward window covered `cycles` cycles in one loop
    /// iteration: burn the cooperative-deadline countdown by the extra
    /// cycles so the wall-clock check still fires promptly (with
    /// `deadline: None` the countdown is dead state and stays
    /// untouched).
    #[inline]
    fn burn_deadline_countdown(&mut self, cycles: u64) {
        if self.deadline.is_some() && cycles > 1 {
            let extra = (cycles - 1).min(u64::from(u32::MAX)) as u32;
            self.deadline_countdown = self.deadline_countdown.saturating_sub(extra);
        }
    }

    fn drain_writebacks(&mut self) {
        // One pass: retire everything due and pick up the next due
        // time from each queue's surviving head (same-cycle drains
        // across queues commute — an apply is an idempotent
        // pending-bit clear).
        let now = self.now;
        let mut next = NEVER;
        while let Some(&(t, slot, generation, reg)) = self.wb_alu.front() {
            if t > now {
                next = next.min(t);
                break;
            }
            self.wb_alu.pop_front();
            self.apply_writeback(slot, generation, reg);
        }
        while let Some(&(t, slot, generation, reg)) = self.wb_sfu.front() {
            if t > now {
                next = next.min(t);
                break;
            }
            self.wb_sfu.pop_front();
            self.apply_writeback(slot, generation, reg);
        }
        while let Some(&Reverse((t, slot, generation, reg))) = self.writebacks.peek() {
            if t > now {
                next = next.min(t);
                break;
            }
            self.writebacks.pop();
            self.apply_writeback(slot, generation, reg);
        }
        self.wb_next = next;
    }

    /// Retire one write-back: clear the pending bit (generation-fenced
    /// against slot reuse) and wake the warp's scheduler.
    #[inline]
    fn apply_writeback(&mut self, slot: usize, generation: u64, reg: u32) {
        let nsched = self.sched_cached.len();
        if let Some(w) = self.warps.get_mut(slot).and_then(Option::as_mut) {
            if w.generation == generation && w.pending[reg as usize] {
                w.pending[reg as usize] = false;
                w.pending_count -= 1;
                if reg < 64 {
                    w.pending_mask &= !(1u64 << reg);
                }
                // Wake the warp only when this drain completes its
                // blocking footprint: a partial drain cannot flip the
                // scoreboard check (pure in the remaining pending
                // bits), so the memoized stall stays valid and the
                // futile re-attempt is skipped entirely.
                if w.sb_blocked && (w.block_need == u64::MAX || w.block_need & w.pending_mask == 0)
                {
                    w.sb_blocked = false;
                    if !w.in_ready {
                        w.in_ready = true;
                        let age = w.age;
                        self.ready[slot % nsched].enqueue(slot, age);
                    }
                    self.sched_cached[slot % nsched] = None;
                }
            }
        }
    }

    /// Let scheduler `s` issue at most one instruction. Returns the
    /// exclusive [`StallCause`] describing what the scheduler did this
    /// cycle and the head warp slot it concerns ([`NO_WARP`] when no
    /// single warp is responsible).
    fn schedule_one(&mut self, s: usize) -> Result<(StallCause, u32), SimError> {
        // Bank-conflict serialization: while this scheduler's
        // shared-memory unit is replaying a conflicted access, it
        // cannot issue. Checked before the memoized stall so the busy
        // window never pollutes (or reads) the stall caches.
        if self.bank.is_some() {
            let busy_until = self.shm_busy_until[s];
            if busy_until != 0 && self.now <= busy_until {
                return Ok((StallCause::ShmBankConflict, self.shm_busy_head[s]));
            }
        }
        // Memoized stall: if nothing that could unblock this scheduler
        // has happened since its last full scan (no writeback drained
        // for its warps, no barrier release, no block launch), the scan
        // would reproduce the same decision — and its side effects
        // (reconvergence pops) were already applied by that scan — so
        // return it without rescanning.
        if let Some(cached) = self.sched_cached[s] {
            return Ok(cached);
        }
        // Greedy fast path (GTO only): under GTO keys the remembered
        // current warp compares strictly below every other candidate
        // whenever it is schedulable, so try it before building and
        // sorting the candidate list — while that warp keeps issuing,
        // no cycle pays a scan. Issued/MemStall outcomes are
        // bit-identical to the full path (same warp, same
        // bookkeeping); when the warp is scoreboard-blocked, fall
        // through and rebuild the list, which retries it harmlessly
        // (`try_issue` is idempotent for blocked warps: reconvergence
        // pops are, and the scoreboard check is pure).
        if self.cfg.scheduler == SchedulerKind::Gto {
            if let Some(i) = self.gto_current[s] {
                if let Some(w) = self.warps.get(i).and_then(Option::as_ref) {
                    if !w.done && !w.at_barrier && !w.sb_blocked {
                        // Read the block slot before issuing: an Exit
                        // terminator may retire the block and relaunch
                        // into this very slot.
                        let bslot = w.block_slot;
                        match self.try_issue(i)? {
                            IssueOutcome::Issued => {
                                self.lrr_next[s] = i + 1;
                                self.stall_cached[s] = None;
                                self.stats.attribution.warp_issued[i] += 1;
                                self.stats.attribution.block_issued[bslot] += 1;
                                return Ok((StallCause::Issued, i as u32));
                            }
                            IssueOutcome::MemStall => {
                                self.stall_cached[s] = None;
                                return Ok((StallCause::MemStall, i as u32));
                            }
                            IssueOutcome::Blocked => {
                                let w = self.warps[i].as_mut().expect("warp exists");
                                w.sb_blocked = true;
                            }
                        }
                    }
                }
            }
        }
        match self.ready[s] {
            ReadyQueue::Heap(_) => self.schedule_scan_gto(s),
            ReadyQueue::Scan(_) => self.schedule_scan_sorted(s),
        }
    }

    /// GTO issue scan over the age-keyed ready heap: peek the oldest
    /// candidate, drop stale/no-longer-issuable entries lazily, and
    /// attempt candidates in ascending `(age, slot)` order — exactly
    /// the order the sorted scan would produce, because whenever this
    /// runs the remembered current warp is not an issuable candidate
    /// (the greedy fast path already handled it).
    fn schedule_scan_gto(&mut self, s: usize) -> Result<(StallCause, u32), SimError> {
        loop {
            let ReadyQueue::Heap(h) = &mut self.ready[s] else {
                unreachable!("GTO scheduler uses the heap pool")
            };
            let Some(&Reverse((age, i))) = h.peek() else {
                break;
            };
            match self.warps[i].as_ref() {
                Some(w) if w.age == age => {
                    if w.done || w.at_barrier || w.sb_blocked {
                        // Fresh entry, warp not issuable: drop it and
                        // clear `in_ready` so the unblocking event
                        // re-enqueues the warp.
                        h.pop();
                        self.warps[i].as_mut().expect("warp exists").in_ready = false;
                        continue;
                    }
                }
                // Stale entry from before a slot relaunch (the
                // relaunch pushed its own fresh key): drop it without
                // touching `in_ready`.
                _ => {
                    h.pop();
                    continue;
                }
            }
            // Read the block slot before issuing: an Exit terminator
            // may retire the block and relaunch into this very slot.
            let bslot = self.warps[i].as_ref().expect("candidate exists").block_slot;
            match self.try_issue(i)? {
                // The candidate stays pooled: an issuing or
                // mem-stalled warp remains issuable.
                IssueOutcome::Issued => {
                    self.gto_current[s] = Some(i);
                    self.lrr_next[s] = i + 1;
                    self.stall_cached[s] = None;
                    self.stats.attribution.warp_issued[i] += 1;
                    self.stats.attribution.block_issued[bslot] += 1;
                    return Ok((StallCause::Issued, i as u32));
                }
                IssueOutcome::Blocked => {
                    let w = self.warps[i].as_mut().expect("candidate exists");
                    w.sb_blocked = true;
                    w.in_ready = false;
                    let ReadyQueue::Heap(h) = &mut self.ready[s] else {
                        unreachable!("GTO scheduler uses the heap pool")
                    };
                    // A blocked attempt pushes nothing, so the popped
                    // minimum is still this candidate's entry.
                    h.pop();
                }
                // A memory-path reservation failure blocks this
                // scheduler's load/store unit for the cycle.
                IssueOutcome::MemStall => {
                    self.gto_current[s] = Some(i);
                    self.stall_cached[s] = None;
                    return Ok((StallCause::MemStall, i as u32));
                }
            }
        }
        Ok(self.classify_stall(s))
    }

    /// LRR/TwoLevel issue scan: detach the unordered ready pool, sort
    /// the issuable candidates by the per-decision priority key, and
    /// attempt them in order. Scratch storage is reused; a manual
    /// insertion sort keeps the hot loop allocation-free, and the full
    /// `(key, slot)` compare reproduces the ascending-slot order of
    /// equal keys that the old stable sort over the slot scan
    /// guaranteed.
    fn schedule_scan_sorted(&mut self, s: usize) -> Result<(StallCause, u32), SimError> {
        let ReadyQueue::Scan(pool) = &mut self.ready[s] else {
            unreachable!("non-GTO schedulers use the scan pool")
        };
        let mut q = std::mem::take(pool);
        let mut cands = std::mem::take(&mut self.cand_scratch);
        cands.clear();
        for &i in &q {
            let Some(w) = self.warps[i].as_mut() else {
                continue;
            };
            if w.done || w.at_barrier || w.sb_blocked {
                w.in_ready = false;
                continue;
            }
            let age = w.age;
            cands.push((self.sched_key(s, i, age), i));
        }
        q.clear();
        for n in 1..cands.len() {
            let mut j = n;
            while j > 0 && cands[j - 1] > cands[j] {
                cands.swap(j - 1, j);
                j -= 1;
            }
        }

        let mut k = 0;
        while k < cands.len() {
            let i = cands[k].1;
            k += 1;
            // Read the block slot before issuing: an Exit terminator
            // may retire the block and relaunch into this very slot.
            let bslot = self.warps[i].as_ref().expect("candidate exists").block_slot;
            match self.try_issue(i) {
                Ok(IssueOutcome::Issued) => {
                    self.gto_current[s] = Some(i);
                    self.lrr_next[s] = i + 1;
                    self.stall_cached[s] = None;
                    self.requeue(s, q, &cands);
                    self.stats.attribution.warp_issued[i] += 1;
                    self.stats.attribution.block_issued[bslot] += 1;
                    return Ok((StallCause::Issued, i as u32));
                }
                Ok(IssueOutcome::Blocked) => {
                    let w = self.warps[i].as_mut().expect("candidate exists");
                    w.sb_blocked = true;
                }
                // A memory-path reservation failure blocks this
                // scheduler's load/store unit for the cycle.
                Ok(IssueOutcome::MemStall) => {
                    self.gto_current[s] = Some(i);
                    self.stall_cached[s] = None;
                    self.requeue(s, q, &cands);
                    return Ok((StallCause::MemStall, i as u32));
                }
                Err(e) => {
                    self.requeue(s, q, &cands);
                    return Err(e);
                }
            }
        }
        self.requeue(s, q, &cands);
        Ok(self.classify_stall(s))
    }

    /// Nothing issued. Classify the stall with a full pass over the
    /// scheduler's slots — blocked and parked warps participate in
    /// the head/cause bookkeeping even though they were never
    /// attempted — and memoize it until an unblocking event. No
    /// issue happened on this path, so the live set and priority
    /// keys still match their pre-attempt values; only stack depths
    /// changed (reconvergence pops), and those are read after the
    /// attempts exactly as the old full-scan ordering did. The
    /// classification inputs (live set, keys, stack depths) are
    /// untouched by drains and failed attempts, so a still-valid
    /// classification from an earlier stall is reused as-is.
    fn classify_stall(&mut self, s: usize) -> (StallCause, u32) {
        let decision = match self.stall_cached[s] {
            Some(d) => d,
            None => {
                let d = self.stall_decision(s);
                self.stall_cached[s] = Some(d);
                d
            }
        };
        self.sched_cached[s] = Some(decision);
        decision
    }

    /// Scheduler priority key for warp slot `i` (lower issues first).
    #[inline]
    fn sched_key(&self, s: usize, i: usize, age: u64) -> (u64, u64, u64) {
        match self.cfg.scheduler {
            // Greedy: current warp first; then oldest-first.
            SchedulerKind::Gto => (u64::from(Some(i) != self.gto_current[s]), age, 0),
            SchedulerKind::Lrr => {
                let nwarps = self.warps.len();
                let start = self.lrr_next[s] % nwarps.max(1);
                (((i + nwarps - start) % nwarps) as u64, 0, 0)
            }
            // Lowest-numbered fetch group first, GTO within it.
            SchedulerKind::TwoLevel => (
                age / crate::config::TWO_LEVEL_GROUP,
                u64::from(Some(i) != self.gto_current[s]),
                age,
            ),
        }
    }

    /// Rebuild scheduler `s`'s ready queue after an issue scan: keep
    /// the still-issuable candidates (in queue order), drop the rest
    /// (clearing `in_ready` so the unblocking event re-enqueues them),
    /// and merge slots enqueued by side effects of the attempts (block
    /// relaunch after Exit, barrier release) — those accumulated in
    /// the empty vector left in `self.ready[s]` while `q` was
    /// detached, and never duplicate a candidate because candidates
    /// keep `in_ready` set for the whole scan.
    fn requeue(&mut self, s: usize, mut q: Vec<usize>, cands: &[((u64, u64, u64), usize)]) {
        for &(_, i) in cands {
            let w = self.warps[i].as_mut().expect("candidate exists");
            if w.done || w.at_barrier || w.sb_blocked {
                w.in_ready = false;
            } else {
                q.push(i);
            }
        }
        let ReadyQueue::Scan(pool) = &mut self.ready[s] else {
            unreachable!("requeue only runs for scan-pool schedulers")
        };
        let fresh = std::mem::replace(pool, q);
        pool.extend(fresh);
    }

    /// Classify a zero-issue cycle for scheduler `s`: one pass over
    /// all its warp slots — including the blocked and parked warps the
    /// ready queue excludes — yields the exclusive stall cause and the
    /// head warp charged with it. Only runs on stall outcomes, whose
    /// result is then memoized, so the full scan is off the issue
    /// path.
    fn stall_decision(&mut self, s: usize) -> (StallCause, u32) {
        let nsched = self.cfg.num_schedulers as usize;
        let nwarps = self.warps.len();
        let mut saw_barrier = false;
        let mut any_live = false;
        let mut all_diverged = true;
        let mut min_key = (u64::MAX, u64::MAX, u64::MAX);
        let mut min_slot = 0usize;
        for i in (s..nwarps).step_by(nsched.max(1)) {
            let Some(w) = self.warps[i].as_ref() else {
                continue;
            };
            if w.done {
                continue;
            }
            if w.at_barrier {
                saw_barrier = true;
                continue;
            }
            let key = self.sched_key(s, i, w.age);
            // Strict `<` so the lowest slot wins key ties, matching
            // the stable sort's ascending-slot push order.
            if !any_live || key < min_key {
                min_key = key;
                min_slot = i;
            }
            any_live = true;
            // When every live warp is mid-divergence, the exposed
            // latency is reconvergence serialization rather than plain
            // scoreboard pressure.
            all_diverged &= w.stack.len() > 1;
        }
        if !any_live {
            let cause = if saw_barrier {
                StallCause::Barrier
            } else if self.next_block_index >= self.blocks_total {
                StallCause::Drained
            } else {
                StallCause::Empty
            };
            return (cause, NO_WARP);
        }
        let cause = if all_diverged {
            StallCause::Reconverge
        } else {
            StallCause::Scoreboard
        };
        (cause, min_slot as u32)
    }

    /// Attempt to issue the next instruction of warp slot `i`.
    fn try_issue(&mut self, i: usize) -> Result<IssueOutcome, SimError> {
        let w = self.warps[i].as_mut().expect("candidate exists");
        // Pop SIMT frames whose reconvergence point was reached.
        w.reconverge();
        let frame = *w.frame();
        let w = &*w;
        // Detach the instruction borrow from `self`: the decoded
        // kernel outlives the machine, so `inst` does not pin `self`.
        let dk = self.dk;
        let dblock = &dk.blocks()[frame.pc_block as usize];

        if frame.pc_idx < dblock.insts.len() {
            let inst = &dblock.insts[frame.pc_idx];
            if scoreboard_blocks(w, inst) {
                // Record the footprint so drains wake the warp only
                // once every register it waits on has cleared.
                let need = inst.use_def_mask;
                self.warps[i].as_mut().expect("candidate exists").block_need = need;
                return Ok(IssueOutcome::Blocked);
            }
            self.issue_instruction(i, inst)
        } else {
            let term = dblock.term;
            if let Some(p) = term.used_reg() {
                if w.pending[p as usize] {
                    let need = if p < 64 { 1u64 << p } else { u64::MAX };
                    self.warps[i].as_mut().expect("candidate exists").block_need = need;
                    return Ok(IssueOutcome::Blocked);
                }
            }
            self.issue_terminator(i, term)?;
            Ok(IssueOutcome::Issued)
        }
    }

    fn issue_terminator(&mut self, i: usize, term: DTerm) -> Result<(), SimError> {
        self.stats.warp_insts += 1;

        let w = self.warps[i].as_mut().expect("warp exists");
        let frame = *w.frame();
        self.stats.thread_insts += u64::from(frame.mask.count_ones());
        match term {
            DTerm::Bra(t) => {
                let f = w.frame_mut();
                f.pc_block = t;
                f.pc_idx = 0;
            }
            DTerm::CondBra {
                pred,
                negated,
                taken,
                not_taken,
                rpc,
            } => {
                // Lane votes among the frame's active lanes: one
                // vectorized pass over the predicate row, then the
                // frame mask picks out the voting lanes.
                let nz = vexec::nonzero_mask(&w.regs[pred as usize]);
                let taken_mask = frame.mask & if negated { !nz } else { nz };
                if taken_mask == frame.mask || taken_mask == 0 {
                    // Uniform within the active lanes.
                    let t = if taken_mask != 0 { taken } else { not_taken };
                    let f = w.frame_mut();
                    f.pc_block = t;
                    f.pc_idx = 0;
                } else {
                    // Divergence: reconverge at the precomputed
                    // immediate post-dominator; taken lanes run first.
                    if rpc == NO_RPC {
                        return Err(SimError::UnstructuredDivergence {
                            block: BlockId(frame.pc_block),
                            ctaid: w.ctaid,
                            warp: w.warp_in_block,
                        });
                    }
                    self.stats.divergent_branches += 1;
                    let not_taken_mask = frame.mask & !taken_mask;
                    {
                        let f = w.frame_mut();
                        f.pc_block = rpc;
                        f.pc_idx = 0;
                    }
                    w.stack.push(SimtFrame {
                        pc_block: not_taken,
                        pc_idx: 0,
                        rpc_block: rpc,
                        mask: not_taken_mask,
                    });
                    w.stack.push(SimtFrame {
                        pc_block: taken,
                        pc_idx: 0,
                        rpc_block: rpc,
                        mask: taken_mask,
                    });
                }
            }
            DTerm::Exit => {
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
                    let retired = self.blocks[slot].take().expect("block exists");
                    self.block_pool.push(retired);
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
        let nsched = self.sched_cached.len();
        for i in 0..self.warps.len() {
            let Some(w) = self.warps[i].as_mut() else {
                continue;
            };
            if w.block_slot == block_slot && w.at_barrier {
                w.at_barrier = false;
                if !w.in_ready {
                    w.in_ready = true;
                    let age = w.age;
                    self.ready[i % nsched].enqueue(i, age);
                }
            }
        }
        // Released warps span schedulers.
        self.sched_cached.fill(None);
        self.stall_cached.fill(None);
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

    /// A store's source value in `lane` (special registers allowed).
    /// Materialize a store source as a whole row: register sources
    /// truncate vector-wide, immediates splat, and (rare) special
    /// registers fall back to a per-active-lane read.
    fn store_src_rows(&self, w: &Warp, src: DSrc, ty: Type, mask: u32, out: &mut [u64; 32]) {
        match src {
            DSrc::Reg(r) => vexec::trunc_rows(ty, &w.regs[r as usize], out),
            DSrc::Val(v) => *out = [v; 32],
            DSrc::Special(sr) => {
                for lane in Lanes(mask) {
                    out[lane] = interp::truncate(ty, self.special(w, sr, lane));
                }
            }
        }
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

    /// Execute and issue `inst` for warp `i`, dispatching once on the
    /// decode-time [`OpClass`] tag (no per-op probing in the hot path).
    fn issue_instruction(
        &mut self,
        i: usize,
        inst: &DecodedInst,
    ) -> Result<IssueOutcome, SimError> {
        match inst.class {
            OpClass::Alu => self.exec_alu(i, inst),
            // Memory instructions can fail to reserve resources; their
            // handlers commit no side effects before the stall point.
            OpClass::Mem => match inst.op {
                DOp::Ld {
                    space,
                    ty,
                    dst,
                    addr,
                } => self.exec_ld(i, inst, space, ty, dst, addr),
                DOp::St {
                    space,
                    ty,
                    addr,
                    src,
                } => self.exec_st(i, inst, space, ty, addr, src),
                _ => unreachable!("mem class covers exactly ld/st"),
            },
            OpClass::Sfu => self.exec_sfu(i, inst),
            OpClass::Bar => self.exec_bar(i, inst),
        }
    }

    /// Execute a vector-class instruction: the whole-row kernels of
    /// [`crate::vexec`] compute all 32 lanes at once (every operation
    /// is total, so inactive lanes are safe to compute). Fully-active
    /// non-aliasing ops write the destination row in place; otherwise
    /// the kernel targets a temporary row and a masked blend commits
    /// only the active lanes — bit-identical to the per-lane loop it
    /// replaces either way.
    fn exec_alu(&mut self, i: usize, inst: &DecodedInst) -> Result<IssueOutcome, SimError> {
        self.stats.warp_insts += 1;
        let warp_size = self.cfg.warp_size;
        let block_size = self.launch.block_size;
        let grid_blocks = self.launch.grid_blocks;
        let ExecRows { tmp, sa, sb, sc } = &mut self.exec_rows;
        let w = self.warps[i].as_mut().expect("warp exists");
        let mask = active_mask(w, inst);
        self.stats.thread_insts += u64::from(mask.count_ones());

        debug_assert!(inst.def != NO_REG, "vector ops define a register");
        // With every lane active and no source aliasing the define,
        // the blend would copy the whole temporary row verbatim — so
        // point the kernel straight at the destination row instead.
        let direct = mask == u32::MAX && !inst.dst_alias;
        // SAFETY (for the `&mut *out` below): when `direct`, the
        // pointer names `regs[inst.def]` and `dst_alias == false`
        // guarantees no arm reads that row (sources, guard, and selp
        // predicate are all in `uses`); the shared source-row borrows
        // are therefore disjoint from it. When not `direct`, it names
        // the scratch row outside the register file.
        let out_ptr: *mut [u64; 32] = if direct {
            &mut w.regs[inst.def as usize]
        } else {
            tmp
        };
        let out = unsafe { &mut *out_ptr };
        match inst.op {
            DOp::Mov { ty, dst, src } => {
                match src {
                    // Converted and truncated at decode time.
                    DSrc::Val(v) => *out = [v; 32],
                    DSrc::Reg(r) => vexec::trunc_rows(ty, &w.regs[r as usize], out),
                    DSrc::Special(sr) => match sr {
                        // Lane-varying specials are affine in the lane
                        // index; the rest splat a uniform value.
                        SpecialReg::TidX => {
                            let base = (w.warp_in_block * warp_size) as u64;
                            for (k, t) in out.iter_mut().enumerate() {
                                *t = interp::truncate(ty, base + k as u64);
                            }
                        }
                        SpecialReg::LaneId => {
                            for (k, t) in out.iter_mut().enumerate() {
                                *t = interp::truncate(ty, k as u64);
                            }
                        }
                        SpecialReg::NtidX => *out = [interp::truncate(ty, block_size as u64); 32],
                        SpecialReg::CtaidX => *out = [interp::truncate(ty, w.ctaid as u64); 32],
                        SpecialReg::NctaidX => {
                            *out = [interp::truncate(ty, grid_blocks as u64); 32];
                        }
                        SpecialReg::WarpId => {
                            *out = [interp::truncate(ty, w.warp_in_block as u64); 32];
                        }
                    },
                }
                if !direct {
                    vexec::blend(&mut w.regs[dst as usize], out, mask);
                }
                set_pending(w, dst);
            }
            DOp::Unary { op, ty, dst, src } => {
                let ar = src_row(&w.regs, src, sa);
                vexec::unary_rows(op, ty, ar, out);
                if !direct {
                    vexec::blend(&mut w.regs[dst as usize], out, mask);
                }
                set_pending(w, dst);
            }
            DOp::Binary { op, ty, dst, a, b } => {
                let ar = src_row(&w.regs, a, sa);
                let br = src_row(&w.regs, b, sb);
                vexec::binary_rows(op, ty, ar, br, out);
                if !direct {
                    vexec::blend(&mut w.regs[dst as usize], out, mask);
                }
                set_pending(w, dst);
            }
            DOp::Mad { ty, dst, a, b, c } => {
                let ar = src_row(&w.regs, a, sa);
                let br = src_row(&w.regs, b, sb);
                let cr = src_row(&w.regs, c, sc);
                vexec::mad_rows(ty, ar, br, cr, out);
                if !direct {
                    vexec::blend(&mut w.regs[dst as usize], out, mask);
                }
                set_pending(w, dst);
            }
            DOp::Cvt {
                dst_ty,
                src_ty,
                dst,
                src,
            } => {
                let ar = src_row(&w.regs, src, sa);
                vexec::cvt_rows(dst_ty, src_ty, ar, out);
                if !direct {
                    vexec::blend(&mut w.regs[dst as usize], out, mask);
                }
                set_pending(w, dst);
            }
            DOp::Setp { cmp, ty, dst, a, b } => {
                let ar = src_row(&w.regs, a, sa);
                let br = src_row(&w.regs, b, sb);
                vexec::setp_rows(cmp, ty, ar, br, out);
                if !direct {
                    vexec::blend(&mut w.regs[dst as usize], out, mask);
                }
                set_pending(w, dst);
            }
            DOp::Selp {
                ty,
                dst,
                a,
                b,
                pred,
            } => {
                let ar = src_row(&w.regs, a, sa);
                let br = src_row(&w.regs, b, sb);
                vexec::selp_rows(ty, ar, br, &w.regs[pred as usize], out);
                if !direct {
                    vexec::blend(&mut w.regs[dst as usize], out, mask);
                }
                set_pending(w, dst);
            }
            DOp::Ld { .. } | DOp::St { .. } | DOp::Bar => {
                unreachable!("not vector-class operations")
            }
        }

        let generation = w.generation;
        w.frame_mut().pc_idx += 1;
        let due = self.now + self.cfg.lat.alu as u64;
        self.wb_next = self.wb_next.min(due);
        self.wb_alu.push_back((due, i, generation, inst.def));
        Ok(IssueOutcome::Issued)
    }

    /// Scalar SFU fallback: transcendental unaries and integer div/rem
    /// execute one active lane at a time (per-lane libm / checked
    /// division does not vectorize) at SFU latency.
    fn exec_sfu(&mut self, i: usize, inst: &DecodedInst) -> Result<IssueOutcome, SimError> {
        self.stats.warp_insts += 1;
        let w = self.warps[i].as_mut().expect("warp exists");
        let mask = active_mask(w, inst);
        self.stats.thread_insts += u64::from(mask.count_ones());
        self.stats.sfu_insts += 1;

        match inst.op {
            DOp::Unary { op, ty, dst, src } => {
                for lane in Lanes(mask) {
                    let a = typed_src(w, src, ty, lane);
                    w.regs[dst as usize][lane] = interp::unary_op(op, ty, a);
                }
                set_pending(w, dst);
            }
            DOp::Binary { op, ty, dst, a, b } => {
                for lane in Lanes(mask) {
                    let x = typed_src(w, a, ty, lane);
                    let y = typed_src(w, b, ty, lane);
                    w.regs[dst as usize][lane] = interp::binary_op(op, ty, x, y);
                }
                set_pending(w, dst);
            }
            _ => unreachable!("SFU class covers unary and binary ops"),
        }

        let generation = w.generation;
        w.frame_mut().pc_idx += 1;
        let due = self.now + self.cfg.lat.sfu as u64;
        self.wb_next = self.wb_next.min(due);
        self.wb_sfu.push_back((due, i, generation, inst.def));
        Ok(IssueOutcome::Issued)
    }

    /// Block-wide barrier.
    fn exec_bar(&mut self, i: usize, inst: &DecodedInst) -> Result<IssueOutcome, SimError> {
        self.stats.warp_insts += 1;
        let w = self.warps[i].as_mut().expect("warp exists");
        let mask = active_mask(w, inst);
        self.stats.thread_insts += u64::from(mask.count_ones());

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
        Ok(IssueOutcome::Issued)
    }

    fn exec_ld(
        &mut self,
        i: usize,
        inst: &DecodedInst,
        space: Space,
        ty: Type,
        dst: u32,
        addr: DAddr,
    ) -> Result<IssueOutcome, SimError> {
        let w = self.warps[i].as_ref().expect("warp exists");
        let mask = active_mask(w, inst);
        let nactive = u64::from(mask.count_ones());
        let size = ty.size_bytes() as u64;

        // Resolve addresses first (no side effects yet). The whole row
        // is computed vector-wide; inactive lanes produce values that
        // are never read.
        let mut lane_addrs = [0u64; 32];
        resolve_addrs(w, addr, &mut lane_addrs);

        // Timing (may stall).
        let ready_at = match space {
            Space::Param => self.now + self.cfg.lat.param as u64,
            Space::Shared => {
                self.stats.shared_insts += 1;
                let mut extra = 0u64;
                if let Some(bank) = self.bank {
                    let d = crate::memory::shm_conflict_degree(
                        &bank,
                        Lanes(mask).map(|l| (lane_addrs[l], size as u32)),
                    );
                    if d > 1 {
                        // Each replay pass delays the data and holds
                        // this scheduler's shared-memory unit.
                        extra = u64::from(d - 1) * u64::from(bank.conflict_penalty);
                        self.stats.shm_bank_conflicts += u64::from(d - 1);
                        let s = i % self.cfg.num_schedulers as usize;
                        self.shm_busy_until[s] = self.now + extra;
                        self.shm_busy_head[s] = i as u32;
                    }
                }
                self.now + self.cfg.lat.shared as u64 + extra
            }
            Space::Global | Space::Local => {
                let line_bytes = self.mem.line_bytes();
                let mut lines = [0u64; 32];
                let mut n = 0;
                for lane in Lanes(mask) {
                    let tid = w.warp_in_block * self.cfg.warp_size + lane as u32;
                    let ta = if space == Space::Local {
                        self.local_timing_addr(w.ctaid, tid, lane_addrs[lane])
                    } else {
                        lane_addrs[lane]
                    };
                    lines[n] = ta / line_bytes * line_bytes;
                    n += 1;
                }
                let lines = coalesce_in_place(&mut lines, n);
                if lines.is_empty() {
                    self.now + self.cfg.lat.alu as u64
                } else {
                    let bypass = space == Space::Global && self.cfg.l1_bypass_global;
                    let outcome = if bypass {
                        self.mem.load_warp_bypass(lines, self.now, &mut self.stats)
                    } else {
                        self.mem.load_warp(lines, self.now, &mut self.stats)
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
                self.stats.local_bytes += nactive * size;
            }
            _ => {}
        }

        // Functional.
        let block_slot = w.block_slot;
        let warp_in_block = w.warp_in_block;
        let mut values = [0u64; 32];
        for lane in Lanes(mask) {
            let a = lane_addrs[lane];
            values[lane] = match space {
                Space::Param => {
                    let DAddrBase::Param(pi) = addr.base else {
                        unreachable!("validated param address")
                    };
                    self.param_vals[pi as usize]
                }
                Space::Global => self.global.load(a),
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
        self.stats.thread_insts += nactive;
        let generation = {
            let w = self.warps[i].as_mut().expect("warp exists");
            vexec::blend(&mut w.regs[dst as usize], &values, mask);
            set_pending(w, dst);
            w.frame_mut().pc_idx += 1;
            w.generation
        };
        self.wb_next = self.wb_next.min(ready_at);
        self.writebacks
            .push(Reverse((ready_at, i, generation, dst)));
        Ok(IssueOutcome::Issued)
    }

    fn exec_st(
        &mut self,
        i: usize,
        inst: &DecodedInst,
        space: Space,
        ty: Type,
        addr: DAddr,
        src: DSrc,
    ) -> Result<IssueOutcome, SimError> {
        let w = self.warps[i].as_ref().expect("warp exists");
        let mask = active_mask(w, inst);
        let nactive = u64::from(mask.count_ones());
        let size = ty.size_bytes() as u64;

        let mut lane_addrs = [0u64; 32];
        let mut lane_vals = [0u64; 32];
        resolve_addrs(w, addr, &mut lane_addrs);
        self.store_src_rows(w, src, ty, mask, &mut lane_vals);

        match space {
            Space::Param => {
                return Err(SimError::BadLaunch("store to parameter space".to_string()))
            }
            Space::Shared => {
                self.stats.shared_insts += 1;
                if let Some(bank) = self.bank {
                    let d = crate::memory::shm_conflict_degree(
                        &bank,
                        Lanes(mask).map(|l| (lane_addrs[l], size as u32)),
                    );
                    if d > 1 {
                        // The store itself never blocks the warp, but
                        // its replay passes hold the scheduler's
                        // shared-memory unit.
                        let extra = u64::from(d - 1) * u64::from(bank.conflict_penalty);
                        self.stats.shm_bank_conflicts += u64::from(d - 1);
                        let s = i % self.cfg.num_schedulers as usize;
                        self.shm_busy_until[s] = self.now + extra;
                        self.shm_busy_head[s] = i as u32;
                    }
                }
            }
            Space::Global => self.stats.global_insts += 1,
            Space::Local => {
                self.stats.local_insts += 1;
                self.stats.local_bytes += nactive * size;
            }
        }

        // Timing: stores never block the warp.
        if matches!(space, Space::Global | Space::Local) {
            let line_bytes = self.mem.line_bytes();
            let mut lines = [0u64; 32];
            let mut n = 0;
            for lane in Lanes(mask) {
                let tid = w.warp_in_block * self.cfg.warp_size + lane as u32;
                let ta = if space == Space::Local {
                    self.local_timing_addr(w.ctaid, tid, lane_addrs[lane])
                } else {
                    lane_addrs[lane]
                };
                lines[n] = ta / line_bytes * line_bytes;
                n += 1;
            }
            let lines = coalesce_in_place(&mut lines, n);
            self.mem.store_warp(lines, self.now, &mut self.stats);
        }

        // Functional.
        let block_slot = w.block_slot;
        let warp_in_block = w.warp_in_block;
        for lane in Lanes(mask) {
            let a = lane_addrs[lane];
            let v = lane_vals[lane];
            match space {
                Space::Global => {
                    self.global.store(a, v);
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
        self.stats.thread_insts += nactive;
        let w = self.warps[i].as_mut().expect("warp exists");
        w.frame_mut().pc_idx += 1;
        Ok(IssueOutcome::Issued)
    }
}

/// Typed source read used inside the execute match, where the machine
/// is partially borrowed through `w` (special registers appear only in
/// `mov` and store sources, which read them with machine context).
#[inline]
fn typed_src(w: &Warp, s: DSrc, ty: Type, lane: usize) -> u64 {
    match s {
        DSrc::Reg(r) => interp::truncate(ty, w.regs[r as usize][lane]),
        // Converted to this type at decode time.
        DSrc::Val(v) => v,
        DSrc::Special(_) => unreachable!("special registers appear only in mov"),
    }
}

/// The byte addresses accessed by each lane, computed vector-wide
/// (param bases resolve to their dense index in `exec_ld`, the address
/// itself is unused; inactive lanes are never read downstream).
#[inline]
fn resolve_addrs(w: &Warp, addr: DAddr, out: &mut [u64; 32]) {
    let off = addr.offset as u64;
    match addr.base {
        DAddrBase::Reg(r) => vexec::add_imm_rows(&w.regs[r as usize], off, out),
        DAddrBase::Frame(base) => *out = [base.wrapping_add(off); 32],
        DAddrBase::Param(_) => *out = [off; 32],
    }
}

/// Borrow an operand as a whole register row: register sources borrow
/// the row directly (raw, untruncated — the vector kernels subsume the
/// per-type truncation), immediates splat into `scratch`.
#[inline]
fn src_row<'a>(regs: &'a [[u64; 32]], s: DSrc, scratch: &'a mut [u64; 32]) -> &'a [u64; 32] {
    match s {
        DSrc::Reg(r) => &regs[r as usize],
        // Converted to the operand type at decode time.
        DSrc::Val(v) => {
            *scratch = [v; 32];
            scratch
        }
        DSrc::Special(_) => unreachable!("special registers appear only in mov"),
    }
}

/// Sort and dedup the first `n` line addresses in place, returning the
/// unique prefix — the stack-array equivalent of
/// [`MemorySystem::coalesce`].
fn coalesce_in_place(lines: &mut [u64; 32], n: usize) -> &[u64] {
    lines[..n].sort_unstable();
    let mut m = 0;
    for k in 0..n {
        if m == 0 || lines[k] != lines[m - 1] {
            lines[m] = lines[k];
            m += 1;
        }
    }
    &lines[..m]
}

/// Lanes enabled by the SIMT frame and the instruction's guard.
/// Unguarded instructions return the frame mask without touching
/// the register file; guarded ones read the guard register row
/// exactly once (a vectorized non-zero scan), not per lane.
fn scoreboard_blocks(w: &Warp, inst: &DecodedInst) -> bool {
    if w.pending_count == 0 {
        return false;
    }
    // Narrow-footprint fast path: one mask test covers every read
    // plus the WAW check on the define.
    if inst.use_def_mask != u64::MAX {
        return inst.use_def_mask & w.pending_mask != 0;
    }
    if inst.uses().iter().any(|&u| w.pending[u as usize]) {
        return true;
    }
    // WAW.
    inst.def != NO_REG && w.pending[inst.def as usize]
}

fn active_mask(w: &Warp, inst: &DecodedInst) -> u32 {
    let fmask = w.frame().mask;
    if inst.guard == NO_REG {
        return fmask;
    }
    let nz = vexec::nonzero_mask(&w.regs[inst.guard as usize]);
    fmask & if inst.guard_negated { !nz } else { nz }
}

fn set_pending(w: &mut Warp, dst: u32) {
    if !w.pending[dst as usize] {
        w.pending[dst as usize] = true;
        w.pending_count += 1;
        if dst < 64 {
            w.pending_mask |= 1u64 << dst;
        }
    }
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
#[cfg(test)]
mod tests {
    use super::*;
    use crat_ptx::{KernelBuilder, Op};

    fn fermi() -> GpuConfig {
        GpuConfig::fermi()
    }

    /// out[gid] = gid for every thread.
    fn write_gid_kernel() -> Kernel {
        let mut b = KernelBuilder::new("wgid");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let ctaid = b.special_ctaid_x(Type::U32);
        let ntid = b.special_ntid_x(Type::U32);
        let prod = b.mul(Type::U32, ctaid, ntid);
        let gid = b.add(Type::U32, tid, prod);
        let a = b.wide_address(out, gid, 4);
        b.st(Space::Global, Type::U32, a, gid);
        b.finish()
    }

    #[test]
    fn simulates_simple_store_kernel() {
        let k = write_gid_kernel();
        let launch = LaunchConfig::new(30, 128).with_param("out", 0x10_0000);
        let stats = simulate(&k, &fermi(), &launch, 16, None).unwrap();
        // 30 blocks / 15 SMs = 2 blocks on this SM.
        assert_eq!(stats.blocks, 2);
        assert!(stats.cycles > 0);
        assert!(stats.warp_insts > 0);
        assert_eq!(stats.global_insts, 2 * 4); // 4 warps per block, 1 store each
    }

    #[test]
    fn missing_param_is_reported() {
        let k = write_gid_kernel();
        let launch = LaunchConfig::new(30, 128);
        match simulate(&k, &fermi(), &launch, 16, None) {
            Err(SimError::MissingParam(p)) => assert_eq!(p, "out"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_block_size_is_reported() {
        let k = write_gid_kernel();
        let launch = LaunchConfig::new(30, 100).with_param("out", 0);
        assert!(matches!(
            simulate(&k, &fermi(), &launch, 16, None),
            Err(SimError::BadLaunch(_))
        ));
    }

    #[test]
    fn tlp_cap_reduces_resident_blocks() {
        let k = write_gid_kernel();
        let launch = LaunchConfig::new(240, 128).with_param("out", 0x10_0000);
        let free = simulate(&k, &fermi(), &launch, 16, None).unwrap();
        let capped = simulate(&k, &fermi(), &launch, 16, Some(2)).unwrap();
        assert_eq!(free.resident_blocks, 8);
        assert_eq!(capped.resident_blocks, 2);
        assert_eq!(free.blocks, capped.blocks);
    }

    #[test]
    fn loop_kernel_executes_expected_instructions() {
        let mut b = KernelBuilder::new("loop");
        let out = b.param_ptr("out");
        let acc = b.mov(Type::U32, crat_ptx::Operand::Imm(0));
        let l = b.loop_range(0, crat_ptx::Operand::Imm(10), 1);
        b.binary_to(crat_ptx::BinOp::Add, Type::U32, acc, acc, l.counter);
        b.end_loop(l);
        let tid = b.special_tid_x(Type::U32);
        let a = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, a, acc);
        let k = b.finish();

        let launch = LaunchConfig::new(15, 32).with_param("out", 0x10_0000);
        let stats = simulate(&k, &fermi(), &launch, 16, None).unwrap();
        assert_eq!(stats.blocks, 1);
        // Loop executed 10 times by the single warp: 10 adds at least.
        assert!(stats.warp_insts >= 10 + 10); // body + header per iteration
    }

    #[test]
    fn barrier_synchronizes_block() {
        // Warp 0 writes shared[0]; all warps barrier; all read it back
        // and store to out. Without the barrier the read could race —
        // here we just check the simulation completes and produces the
        // value deterministically.
        let mut b = KernelBuilder::new("bar");
        b.shared_var("s", 128);
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let answer = b.mov(Type::U32, crat_ptx::Operand::Imm(42));
        // Every thread writes its value to shared[tid%32 *4]... warp 0 writes s[0]=42.
        let base = b.fresh(Type::U64);
        b.push_guarded(
            None,
            Op::MovVarAddr {
                dst: base,
                var: "s".to_string(),
            },
        );
        let lane4 = b.mul(Type::U32, tid, crat_ptx::Operand::Imm(0));
        let lane4w = b.cvt(Type::U64, Type::U32, lane4);
        let slot = b.add(Type::U64, base, lane4w);
        b.st(
            Space::Shared,
            Type::U32,
            crat_ptx::Address::reg(slot),
            answer,
        );
        b.bar_sync();
        let v = b.ld(Space::Shared, Type::U32, crat_ptx::Address::reg(slot));
        let a = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, a, v);
        let k = b.finish();

        let launch = LaunchConfig::new(15, 128).with_param("out", 0x10_0000);
        let stats = simulate(&k, &fermi(), &launch, 16, None).unwrap();
        assert_eq!(stats.blocks, 1);
        assert_eq!(stats.barrier_insts, 4); // one per warp
    }

    /// Divergent if/else: lanes with tid < 16 add 100, the others add
    /// 200; all reconverge and store. The SIMT stack must serialize
    /// both paths and produce exact per-lane results.
    #[test]
    fn divergent_branch_executes_both_paths() {
        let mut b = KernelBuilder::new("div");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let acc = b.add(Type::U32, tid, crat_ptx::Operand::Imm(0));
        let p = b.setp(
            crat_ptx::CmpOp::Lt,
            Type::U32,
            tid,
            crat_ptx::Operand::Imm(16),
        );
        let then_b = b.new_block();
        let else_b = b.new_block();
        let join = b.new_block();
        b.cond_branch(p, then_b, else_b);
        b.switch_to(then_b);
        b.binary_to(
            crat_ptx::BinOp::Add,
            Type::U32,
            acc,
            acc,
            crat_ptx::Operand::Imm(100),
        );
        b.branch(join);
        b.switch_to(else_b);
        b.binary_to(
            crat_ptx::BinOp::Add,
            Type::U32,
            acc,
            acc,
            crat_ptx::Operand::Imm(200),
        );
        b.branch(join);
        b.switch_to(join);
        let a = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, crat_ptx::Address::reg(a), acc);
        let k = b.finish();

        let launch = LaunchConfig::new(15, 32).with_param("out", 0x10_0000);
        let (stats, mem) =
            crate::machine::simulate_capture(&k, &fermi(), &launch, 16, None).unwrap();
        assert_eq!(stats.divergent_branches, 1);
        for tid in 0..32u64 {
            let expect = tid + if tid < 16 { 100 } else { 200 };
            assert_eq!(mem.get(&(0x10_0000 + tid * 4)), Some(&expect), "tid {tid}");
        }
    }

    /// A divergent branch straight into exits has no reconvergence
    /// point inside the kernel: reported as unstructured.
    #[test]
    fn unstructured_divergence_is_detected() {
        let mut b = KernelBuilder::new("div");
        let tid = b.special_tid_x(Type::U32);
        let p = b.setp(
            crat_ptx::CmpOp::Lt,
            Type::U32,
            tid,
            crat_ptx::Operand::Imm(16),
        );
        let t1 = b.new_block();
        let t2 = b.new_block();
        b.cond_branch(p, t1, t2);
        b.switch_to(t1);
        b.exit();
        b.switch_to(t2);
        b.exit();
        let k = b.finish();
        let launch = LaunchConfig::new(15, 32);
        assert!(matches!(
            simulate(&k, &fermi(), &launch, 16, None),
            Err(SimError::UnstructuredDivergence { .. })
        ));
    }

    /// Nested divergence: an inner if within the outer then-branch.
    #[test]
    fn nested_divergence_reconverges() {
        let mut b = KernelBuilder::new("nest");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let acc = b.add(Type::U32, tid, crat_ptx::Operand::Imm(0));
        let outer_p = b.setp(
            crat_ptx::CmpOp::Lt,
            Type::U32,
            tid,
            crat_ptx::Operand::Imm(24),
        );
        let outer_then = b.new_block();
        let outer_join = b.new_block();
        b.cond_branch(outer_p, outer_then, outer_join);
        b.switch_to(outer_then);
        // Inner: tid < 8 adds 1000, others add 10.
        let inner_p = b.setp(
            crat_ptx::CmpOp::Lt,
            Type::U32,
            tid,
            crat_ptx::Operand::Imm(8),
        );
        let inner_then = b.new_block();
        let inner_else = b.new_block();
        let inner_join = b.new_block();
        b.cond_branch(inner_p, inner_then, inner_else);
        b.switch_to(inner_then);
        b.binary_to(
            crat_ptx::BinOp::Add,
            Type::U32,
            acc,
            acc,
            crat_ptx::Operand::Imm(1000),
        );
        b.branch(inner_join);
        b.switch_to(inner_else);
        b.binary_to(
            crat_ptx::BinOp::Add,
            Type::U32,
            acc,
            acc,
            crat_ptx::Operand::Imm(10),
        );
        b.branch(inner_join);
        b.switch_to(inner_join);
        b.branch(outer_join);
        b.switch_to(outer_join);
        let a = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, crat_ptx::Address::reg(a), acc);
        let k = b.finish();

        let launch = LaunchConfig::new(15, 32).with_param("out", 0x10_0000);
        let (stats, mem) =
            crate::machine::simulate_capture(&k, &fermi(), &launch, 16, None).unwrap();
        assert_eq!(stats.divergent_branches, 2);
        for tid in 0..32u64 {
            let expect = tid
                + if tid < 8 {
                    1000
                } else if tid < 24 {
                    10
                } else {
                    0
                };
            assert_eq!(mem.get(&(0x10_0000 + tid * 4)), Some(&expect), "tid {tid}");
        }
    }

    /// Divergence inside a loop: odd lanes do extra work each
    /// iteration; everything reconverges at the loop latch.
    #[test]
    fn divergence_inside_loop() {
        let mut b = KernelBuilder::new("dloop");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let acc = b.add(Type::U32, tid, crat_ptx::Operand::Imm(0));
        let parity = b.and(Type::U32, tid, crat_ptx::Operand::Imm(1));
        let l = b.loop_range(0, crat_ptx::Operand::Imm(5), 1);
        let p = b.setp(
            crat_ptx::CmpOp::Eq,
            Type::U32,
            parity,
            crat_ptx::Operand::Imm(1),
        );
        let odd_b = b.new_block();
        let cont = b.new_block();
        b.cond_branch(p, odd_b, cont);
        b.switch_to(odd_b);
        b.binary_to(
            crat_ptx::BinOp::Add,
            Type::U32,
            acc,
            acc,
            crat_ptx::Operand::Imm(7),
        );
        b.branch(cont);
        b.switch_to(cont);
        b.end_loop(l);
        let a = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, crat_ptx::Address::reg(a), acc);
        let k = b.finish();

        let launch = LaunchConfig::new(15, 32).with_param("out", 0x10_0000);
        let (stats, mem) =
            crate::machine::simulate_capture(&k, &fermi(), &launch, 16, None).unwrap();
        assert_eq!(stats.divergent_branches, 5, "one divergence per iteration");
        for tid in 0..32u64 {
            let expect = tid + if tid % 2 == 1 { 35 } else { 0 };
            assert_eq!(mem.get(&(0x10_0000 + tid * 4)), Some(&expect), "tid {tid}");
        }
    }

    #[test]
    fn local_memory_round_trips_per_thread() {
        // Each thread stores tid to its local slot and reads it back.
        let mut b = KernelBuilder::new("local");
        b.local_var("scratch", 4);
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let base = b.fresh(Type::U64);
        b.push_guarded(
            None,
            Op::MovVarAddr {
                dst: base,
                var: "scratch".to_string(),
            },
        );
        b.st(Space::Local, Type::U32, crat_ptx::Address::reg(base), tid);
        let v = b.ld(Space::Local, Type::U32, crat_ptx::Address::reg(base));
        let a = b.wide_address(out, v, 4);
        b.st(Space::Global, Type::U32, a, v);
        let k = b.finish();

        let launch = LaunchConfig::new(15, 64).with_param("out", 0x10_0000);
        let stats = simulate(&k, &fermi(), &launch, 16, None).unwrap();
        assert_eq!(stats.local_insts, 2 * 2); // 2 warps × (1 ld + 1 st)
        assert_eq!(stats.local_bytes, (64 * 4 * 2) as u64);
    }

    #[test]
    fn deterministic_simulation() {
        let k = write_gid_kernel();
        let launch = LaunchConfig::new(60, 128).with_param("out", 0x10_0000);
        let a = simulate(&k, &fermi(), &launch, 16, None).unwrap();
        let b = simulate(&k, &fermi(), &launch, 16, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lrr_and_gto_both_complete() {
        let k = write_gid_kernel();
        let launch = LaunchConfig::new(60, 128).with_param("out", 0x10_0000);
        let gto = simulate(&k, &fermi(), &launch, 16, None).unwrap();
        let mut cfg = fermi();
        cfg.scheduler = SchedulerKind::Lrr;
        let lrr = simulate(&k, &cfg, &launch, 16, None).unwrap();
        assert_eq!(gto.blocks, lrr.blocks);
        assert_eq!(gto.warp_insts, lrr.warp_insts);
    }
}

#[cfg(test)]
mod turnover_tests {
    use super::*;
    use crat_ptx::KernelBuilder;

    /// A kernel mixing loads with a divergent branch, so attribution
    /// sees issue, scoreboard, and reconvergence activity.
    fn divergent_kernel() -> Kernel {
        let mut b = KernelBuilder::new("divmix");
        let inp = b.param_ptr("input");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let a = b.wide_address(inp, tid, 4);
        let v = b.ld(Space::Global, Type::U32, crat_ptx::Address::reg(a));
        let acc = b.add(Type::U32, v, tid);
        let p = b.setp(
            crat_ptx::CmpOp::Lt,
            Type::U32,
            tid,
            crat_ptx::Operand::Imm(16),
        );
        let then_b = b.new_block();
        let else_b = b.new_block();
        let join = b.new_block();
        b.cond_branch(p, then_b, else_b);
        b.switch_to(then_b);
        let a2 = b.wide_address(inp, acc, 4);
        let v2 = b.ld(Space::Global, Type::U32, crat_ptx::Address::reg(a2));
        b.binary_to(crat_ptx::BinOp::Add, Type::U32, acc, acc, v2);
        b.branch(join);
        b.switch_to(else_b);
        b.binary_to(
            crat_ptx::BinOp::Add,
            Type::U32,
            acc,
            acc,
            crat_ptx::Operand::Imm(7),
        );
        b.branch(join);
        b.switch_to(join);
        let oa = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, crat_ptx::Address::reg(oa), acc);
        b.finish()
    }

    /// Block turnover with loads still in flight: a finished warp's
    /// pending write-backs must not leak into the warp that reuses its
    /// slot (the generation-tag mechanism).
    #[test]
    fn block_turnover_with_inflight_loads() {
        let mut b = KernelBuilder::new("turnover");
        let inp = b.param_ptr("input");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let ctaid = b.special_ctaid_x(Type::U32);
        let a = b.wide_address(inp, tid, 4);
        // Load whose value is stored immediately; plus one load whose
        // result is never used (its write-back may outlive the warp).
        let v = b.ld(Space::Global, Type::U32, crat_ptx::Address::reg(a));
        let _unused = b.ld(
            Space::Global,
            Type::U32,
            crat_ptx::Address::reg_offset(a, 256),
        );
        let sum = b.add(Type::U32, v, ctaid);
        let oa = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, crat_ptx::Address::reg(oa), sum);
        let k = b.finish();

        // Many more blocks than can be resident: lots of slot reuse.
        let launch = LaunchConfig::new(30 * 15, 32)
            .with_param("input", 0x100_0000)
            .with_param("out", 0x200_0000);
        let s1 = simulate(&k, &GpuConfig::fermi(), &launch, 8, Some(2)).unwrap();
        let s2 = simulate(&k, &GpuConfig::fermi(), &launch, 8, Some(2)).unwrap();
        assert_eq!(s1.blocks, 30);
        assert_eq!(s1, s2, "block turnover must stay deterministic");
    }

    /// The cycle fast-forward path must not change results relative to
    /// a throttled run that exercises it differently.
    #[test]
    fn single_warp_long_latency_chain() {
        let mut b = KernelBuilder::new("chain");
        let inp = b.param_ptr("input");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let mut addr = b.wide_address(inp, tid, 4);
        // Pointer-chase-like dependent loads: nothing to overlap.
        let mut v = b.ld(Space::Global, Type::U32, crat_ptx::Address::reg(addr));
        for _ in 0..4 {
            let masked = b.and(Type::U32, v, crat_ptx::Operand::Imm(0xFF));
            addr = b.wide_address(inp, masked, 4);
            v = b.ld(Space::Global, Type::U32, crat_ptx::Address::reg(addr));
        }
        let oa = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, crat_ptx::Address::reg(oa), v);
        let k = b.finish();

        let launch = LaunchConfig::new(15, 32)
            .with_param("input", 0x100_0000)
            .with_param("out", 0x200_0000);
        let stats = simulate(&k, &GpuConfig::fermi(), &launch, 16, None).unwrap();
        // 5 dependent loads, each hundreds of cycles: the run is
        // dominated by scoreboard stalls the fast-forward must skip.
        assert!(stats.cycles > 1000);
        stats.attribution.check(stats.cycles).unwrap();
        assert!(stats.attribution.cause(StallCause::Scoreboard) > stats.cycles / 2);
    }

    /// The attribution invariant (per-scheduler cause counts sum to
    /// cycles) holds, and issue aggregation reconciles with the global
    /// instruction counter.
    #[test]
    fn attribution_invariant_and_issue_aggregation() {
        let k = divergent_kernel();
        let launch = LaunchConfig::new(12, 64)
            .with_param("input", 0x100_0000)
            .with_param("out", 0x200_0000);
        let stats = simulate(&k, &GpuConfig::fermi(), &launch, 20, None).unwrap();
        stats.attribution.check(stats.cycles).unwrap();
        let issued: u64 = stats.attribution.warp_issued.iter().sum();
        assert_eq!(issued, stats.warp_insts);
        let block_issued: u64 = stats.attribution.block_issued.iter().sum();
        assert_eq!(block_issued, stats.warp_insts);
        // The final cycle-loop iteration issues the last Exit but does
        // not advance time, so issued-slot cycles may undercount the
        // instruction total by at most one iteration (one slot per
        // scheduler).
        let issued_slots = stats.attribution.cause(StallCause::Issued);
        assert!(issued_slots <= stats.warp_insts);
        assert!(
            stats.warp_insts - issued_slots <= 2,
            "fermi has 2 schedulers"
        );
    }

    /// A kernel where one warp reaches the barrier late must report
    /// barrier-wait scheduler cycles for the schedulers whose warps all
    /// arrived early.
    #[test]
    fn barrier_wait_is_attributed() {
        let mut b = KernelBuilder::new("bar");
        let inp = b.param_ptr("input");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        // Warp 0 (tid < 32) runs a dependent-load chain; the other
        // warps branch straight to the barrier and wait there. The
        // branch is uniform within every warp, so no divergence.
        let p = b.setp(
            crat_ptx::CmpOp::Lt,
            Type::U32,
            tid,
            crat_ptx::Operand::Imm(32),
        );
        let slow = b.new_block();
        let join = b.new_block();
        let v0 = b.mov(Type::U32, crat_ptx::Operand::Imm(0));
        b.cond_branch(p, slow, join);
        b.switch_to(slow);
        let mut addr = b.wide_address(inp, tid, 4);
        let mut v = b.ld(Space::Global, Type::U32, crat_ptx::Address::reg(addr));
        for _ in 0..3 {
            let masked = b.and(Type::U32, v, crat_ptx::Operand::Imm(0xFF));
            addr = b.wide_address(inp, masked, 4);
            v = b.ld(Space::Global, Type::U32, crat_ptx::Address::reg(addr));
        }
        b.binary_to(
            crat_ptx::BinOp::Add,
            Type::U32,
            v0,
            v,
            crat_ptx::Operand::Imm(0),
        );
        b.branch(join);
        b.switch_to(join);
        b.bar_sync();
        let sum = b.add(Type::U32, v0, tid);
        let oa = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, crat_ptx::Address::reg(oa), sum);
        let k = b.finish();

        let launch = LaunchConfig::new(15, 128)
            .with_param("input", 0x100_0000)
            .with_param("out", 0x200_0000);
        let stats = simulate(&k, &GpuConfig::fermi(), &launch, 20, Some(1)).unwrap();
        stats.attribution.check(stats.cycles).unwrap();
        assert!(stats.barrier_insts > 0);
        assert!(
            stats.attribution.cause(StallCause::Barrier) > 0,
            "schedulers whose warps all arrived early must be seen waiting: {:?}",
            stats.attribution.per_scheduler
        );
    }
}

#[cfg(test)]
mod scheduler_tests {
    use super::*;
    use crat_ptx::KernelBuilder;

    fn memory_kernel() -> Kernel {
        let mut b = KernelBuilder::new("m");
        let inp = b.param_ptr("input");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let ctaid = b.special_ctaid_x(Type::U32);
        let ntid = b.special_ntid_x(Type::U32);
        let base = b.mul(Type::U32, ctaid, ntid);
        let gid = b.add(Type::U32, tid, base);
        let acc = b.add(Type::U32, tid, ctaid);
        let l = b.loop_range(0, crat_ptx::Operand::Imm(16), 1);
        let idx = b.add(Type::U32, acc, l.counter);
        let masked = b.and(Type::U32, idx, crat_ptx::Operand::Imm(0xFF));
        let a = b.wide_address(inp, masked, 4);
        let v = b.ld(Space::Global, Type::U32, crat_ptx::Address::reg(a));
        b.binary_to(crat_ptx::BinOp::Add, Type::U32, acc, acc, v);
        b.end_loop(l);
        let oa = b.wide_address(out, gid, 4);
        b.st(Space::Global, Type::U32, crat_ptx::Address::reg(oa), acc);
        b.finish()
    }

    /// All three schedulers complete the same work with identical
    /// functional results and instruction counts.
    #[test]
    fn all_schedulers_agree_functionally() {
        let k = memory_kernel();
        let launch = LaunchConfig::new(60, 64)
            .with_param("input", 0x100_0000)
            .with_param("out", 0x200_0000);
        let mut results = Vec::new();
        for sched in [
            SchedulerKind::Gto,
            SchedulerKind::Lrr,
            SchedulerKind::TwoLevel,
        ] {
            let mut cfg = GpuConfig::fermi();
            cfg.scheduler = sched;
            let (stats, mem) =
                crate::machine::simulate_capture(&k, &cfg, &launch, 16, None).unwrap();
            results.push((sched, stats.warp_insts, mem));
        }
        assert_eq!(results[0].1, results[1].1);
        assert_eq!(results[0].1, results[2].1);
        assert_eq!(results[0].2, results[1].2);
        assert_eq!(results[0].2, results[2].2);
    }
}
