//! Scheduler-overhead microkernels.
//!
//! Two deliberately extreme kernels that isolate the simulator's
//! *scheduling* cost from its memory and functional modeling, so the
//! per-decision overhead of the cycle loop is measurable on its own
//! (the throughput probe's `--micro` mode; `tests/decode_differential.rs`
//! holds both bit-identical to the reference interpreter):
//!
//! * [`empty_alu_kernel`] — a counted loop whose body is straight-line
//!   independent ALU. Launched as a single 32-thread block with a TLP
//!   cap of 1, exactly one warp is ever resident: one scheduler holds
//!   the warp and the other reports `Empty`, so every cycle pays the
//!   full issue path (scheduler decision, scoreboard check, row
//!   kernel, write-back) for one instruction.
//! * [`stall_heavy_kernel`] — per-iteration chains of two dependent
//!   global loads (the second load's address derives from the first's
//!   value) across many warps. Nearly every cycle is a stall on some
//!   scheduler, so the run exercises idle fast-forward: warps park on
//!   the scoreboard, the ready queue churns as write-backs drain, and
//!   whole-machine stall windows fast-forward in one jump.
//!
//! Body width stays well under 64 virtual registers so every body
//! instruction carries an exact scoreboard footprint
//! (`DecodedInst::use_def_mask`), the one-mask-test scoreboard path.

use crat_ptx::{Address, BinOp, Kernel, KernelBuilder, Operand, Space, Type};
use crat_sim::LaunchConfig;

use crate::generator::{INPUT_BASE, OUTPUT_BASE};

/// Independent ALU instructions per loop body of the empty-ALU kernel.
pub const EMPTY_ALU_BODY: u32 = 40;
/// Loop trips of the empty-ALU kernel.
pub const EMPTY_ALU_TRIPS: u32 = 2000;
/// Loop trips of the stall-heavy kernel.
pub const STALL_TRIPS: u32 = 64;
/// Input window the stall-heavy kernel's loads stride over (large
/// enough that the striding access pattern misses in L1).
const STALL_WINDOW_BYTES: u64 = 1 << 20;

/// See the module docs: a counted loop of [`EMPTY_ALU_BODY`]
/// independent single-cycle-issue ALU instructions, no memory traffic.
pub fn empty_alu_kernel() -> Kernel {
    let mut b = KernelBuilder::new("micro_empty_alu");
    let tid = b.special_tid_x(Type::U32);
    let l = b.loop_range(0, Operand::Imm(i64::from(EMPTY_ALU_TRIPS)), 1);
    // Every body instruction reads only `tid` (pending just once, at
    // warm-up) and redefines its own slot from the previous trip ~40
    // issues earlier — past the ALU write-back latency, so the body
    // runs hazard-free at steady state.
    for j in 0..EMPTY_ALU_BODY {
        b.add(Type::U32, tid, Operand::Imm(i64::from(j) + 1));
    }
    b.end_loop(l);
    let k = b.finish();
    debug_assert_eq!(k.validate(), Ok(()));
    k
}

/// Launch for [`empty_alu_kernel`]: one 32-thread block. Pair with a
/// TLP cap of 1 so exactly one warp is resident.
pub fn empty_alu_launch() -> LaunchConfig {
    LaunchConfig::new(1, 32)
}

/// See the module docs: per-iteration serial chains of two dependent
/// global loads feeding an accumulator.
pub fn stall_heavy_kernel() -> Kernel {
    let mask = (STALL_WINDOW_BYTES - 1) as i64 & !3;
    let mut b = KernelBuilder::new("micro_stall_heavy");
    let input = b.param_ptr("input");
    let out = b.param_ptr("out");
    let tid = b.special_tid_x(Type::U32);
    let ctaid = b.special_ctaid_x(Type::U32);
    let ntid = b.special_ntid_x(Type::U32);
    let prod = b.mul(Type::U32, ctaid, ntid);
    let gid = b.add(Type::U32, tid, prod);
    let acc = b.add(Type::U32, gid, Operand::Imm(1));

    let l = b.loop_range(0, Operand::Imm(i64::from(STALL_TRIPS)), 1);
    // First load: a large-prime stride keeps successive iterations (and
    // warps) on distinct lines across the window.
    let scaled = b.mul(Type::U32, l.counter, Operand::Imm(4093));
    let mixed = b.add(Type::U32, scaled, gid);
    let bytes = b.mul(Type::U32, mixed, Operand::Imm(4));
    let off = b.and(Type::U32, bytes, Operand::Imm(mask));
    let offw = b.cvt(Type::U64, Type::U32, off);
    let a1 = b.add(Type::U64, input, offw);
    let v1 = b.ld(Space::Global, Type::U32, Address::reg(a1));
    // Second load's address derives from the first load's value: the
    // full memory latency is exposed twice per iteration, serially.
    let bytes2 = b.mul(Type::U32, v1, Operand::Imm(4));
    let off2 = b.and(Type::U32, bytes2, Operand::Imm(mask));
    let off2w = b.cvt(Type::U64, Type::U32, off2);
    let a2 = b.add(Type::U64, input, off2w);
    let v2 = b.ld(Space::Global, Type::U32, Address::reg(a2));
    b.binary_to(BinOp::Add, Type::U32, acc, acc, v2);
    b.end_loop(l);

    let oaddr = b.wide_address(out, gid, 4);
    b.st(Space::Global, Type::U32, Address::reg(oaddr), acc);
    let k = b.finish();
    debug_assert_eq!(k.validate(), Ok(()));
    k
}

/// Launch for [`stall_heavy_kernel`]: 256-thread blocks (8 warps, 4
/// per scheduler) so stalled warps pile up on both schedulers.
pub fn stall_heavy_launch(grid_blocks: u32) -> LaunchConfig {
    LaunchConfig::new(grid_blocks, 256)
        .with_param("input", INPUT_BASE)
        .with_param("out", OUTPUT_BASE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_sim::{simulate, GpuConfig};

    #[test]
    fn micro_kernels_build_and_run() {
        let gpu = GpuConfig::fermi();
        let ea = empty_alu_kernel();
        assert!(ea.validate().is_ok());
        let s = simulate(&ea, &gpu, &empty_alu_launch(), 21, Some(1)).unwrap();
        // One warp issuing one instruction per cycle at steady state.
        assert!(s.warp_insts > u64::from(EMPTY_ALU_BODY * EMPTY_ALU_TRIPS));
        assert!(s.cycles >= s.warp_insts);

        let sh = stall_heavy_kernel();
        assert!(sh.validate().is_ok());
        let s = simulate(&sh, &gpu, &stall_heavy_launch(4), 21, None).unwrap();
        // Dependent load chains leave the machine mostly stalled.
        assert!(s.cycles > 4 * s.warp_insts, "expected stall-dominated run");
    }
}
