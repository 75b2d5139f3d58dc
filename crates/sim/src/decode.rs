//! The decode layer: lowering a validated [`Kernel`] into a flat,
//! cache-friendly [`DecodedKernel`] the cycle loop can execute without
//! touching the heap.
//!
//! The tree-shaped `crat_ptx` IR is convenient for building and
//! transforming kernels but expensive to interpret per issue slot:
//! operand names resolve through enums of heap-backed variants,
//! shared/local variables and parameters resolve through string
//! hashing, scoreboard checks re-collect register uses into fresh
//! vectors, and reconvergence points require CFG queries. Decoding
//! performs all of that exactly once per kernel:
//!
//! * every operand becomes a [`DSrc`] — a dense register index, a
//!   pre-truncated immediate (`Imm`/`FImm` conversion to the consuming
//!   instruction's type happens at decode time), or a special register;
//! * `.shared`/`.local` variable names become numeric frame offsets,
//!   parameter names become dense parameter indices;
//! * register uses (guard and address bases included) and the def are
//!   flattened into fixed arrays, so the scoreboard never allocates;
//! * each conditional branch carries its precomputed immediate
//!   post-dominator, so divergence handling needs no CFG at run time;
//! * each instruction carries its value-slice bit
//!   ([`DecodedInst::feeds_stats`]), so a stats-only simulation computes
//!   only the lane values a branch, a guard or an address can see.
//!
//! Decoding is deterministic and total over validated kernels, so the
//! decoded program is a pure function of the kernel's structural hash —
//! which is what lets `crat-core`'s evaluation engine cache
//! `DecodedKernel`s across the launches and TLP caps of a sweep.

use crat_ptx::{AddrBase, Cfg, Instruction, Kernel, Op, Operand, SpecialReg, Terminator, Type};

use crate::error::SimError;
use crat_ptx::eval as interp;

/// Sentinel for "no register" in [`DecodedInst::def`] and guard slots.
pub const NO_REG: u32 = u32::MAX;

/// Sentinel for "no reconvergence point" in [`DTerm::CondBra`].
pub const NO_RPC: u32 = u32::MAX;

/// A decoded source operand. Immediates are already converted to the
/// bit pattern the consuming instruction reads (the `Imm`/`FImm`
/// typing rules of the interpreter applied at decode time).
#[derive(Debug, Clone, Copy)]
pub enum DSrc {
    /// A register, by dense index.
    Reg(u32),
    /// A pre-converted immediate bit pattern.
    Val(u64),
    /// A built-in special register (appears only in `mov`).
    Special(SpecialReg),
}

/// The base of a decoded address.
#[derive(Debug, Clone, Copy)]
pub enum DAddrBase {
    /// A (64-bit) register, by dense index.
    Reg(u32),
    /// A `.shared`/`.local` variable resolved to its frame offset.
    Frame(u64),
    /// A kernel parameter, by dense index (for `ld.param`).
    Param(u32),
}

/// A decoded address: base plus constant byte offset.
#[derive(Debug, Clone, Copy)]
pub struct DAddr {
    /// The address base.
    pub base: DAddrBase,
    /// Constant byte offset added to the base.
    pub offset: i64,
}

/// A decoded operation. Mirrors [`crat_ptx::Op`] with operands
/// resolved; `MovVarAddr` lowers to a plain `Mov` of the variable's
/// frame offset, and `Mad`/`Fma` share one variant (their value
/// semantics are identical).
#[derive(Debug, Clone, Copy)]
pub enum DOp {
    /// Copy (covers `mov`, special-register reads, and `MovVarAddr`).
    Mov {
        /// Destination type.
        ty: Type,
        /// Destination register.
        dst: u32,
        /// Source.
        src: DSrc,
    },
    /// Unary arithmetic.
    Unary {
        /// The operation.
        op: crat_ptx::UnOp,
        /// Operand type.
        ty: Type,
        /// Destination register.
        dst: u32,
        /// Source.
        src: DSrc,
    },
    /// Binary arithmetic/logic.
    Binary {
        /// The operation.
        op: crat_ptx::BinOp,
        /// Operand type.
        ty: Type,
        /// Destination register.
        dst: u32,
        /// Left operand.
        a: DSrc,
        /// Right operand.
        b: DSrc,
    },
    /// Multiply-add (`mad` and `fma`).
    Mad {
        /// Operand type.
        ty: Type,
        /// Destination register.
        dst: u32,
        /// Multiplicand.
        a: DSrc,
        /// Multiplier.
        b: DSrc,
        /// Addend.
        c: DSrc,
    },
    /// Type conversion.
    Cvt {
        /// Destination type.
        dst_ty: Type,
        /// Source type.
        src_ty: Type,
        /// Destination register.
        dst: u32,
        /// Source.
        src: DSrc,
    },
    /// Compare, producing a predicate.
    Setp {
        /// The comparison.
        cmp: crat_ptx::CmpOp,
        /// Operand type.
        ty: Type,
        /// Destination register.
        dst: u32,
        /// Left operand.
        a: DSrc,
        /// Right operand.
        b: DSrc,
    },
    /// Select on a predicate.
    Selp {
        /// Operand type.
        ty: Type,
        /// Destination register.
        dst: u32,
        /// Value if the predicate is true.
        a: DSrc,
        /// Value if the predicate is false.
        b: DSrc,
        /// The predicate register.
        pred: u32,
    },
    /// Load.
    Ld {
        /// The state space.
        space: crat_ptx::Space,
        /// Element type.
        ty: Type,
        /// Destination register.
        dst: u32,
        /// The address.
        addr: DAddr,
    },
    /// Store.
    St {
        /// The state space.
        space: crat_ptx::Space,
        /// Element type.
        ty: Type,
        /// The address.
        addr: DAddr,
        /// The stored value.
        src: DSrc,
    },
    /// Block-wide barrier.
    Bar,
}

/// Execution class of a decoded instruction, assigned at decode time
/// so the issue path dispatches on one tag instead of re-probing the
/// operation shape.
///
/// The class determines which execution path runs the instruction:
/// [`OpClass::Alu`] work is lane-uniform and executes through the
/// whole-row vector kernels of [`crate::vexec`]; the other classes are
/// lane-divergent (gather/scatter addresses, per-lane libm calls) or
/// warp-synchronizing and keep the scalar per-lane fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpClass {
    /// Uniform arithmetic/logic/move/select/compare/convert work:
    /// executes as whole-register-row vector kernels.
    Alu = 0,
    /// Special-function-unit work (transcendental unaries, integer
    /// div/rem): scalar fallback, one libm/div call per active lane.
    Sfu = 1,
    /// Loads and stores: scalar fallback for the functional access
    /// (lane-divergent addresses), vectorized address resolution.
    Mem = 2,
    /// Block-wide barrier.
    Bar = 3,
}

/// A decoded instruction: the operation plus everything the issue path
/// needs without walking the operand tree again.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInst {
    /// The operation.
    pub op: DOp,
    /// Guard predicate register ([`NO_REG`] when unguarded).
    pub guard: u32,
    /// Whether the guard is negated (`@!%p`).
    pub guard_negated: bool,
    /// Register defined ([`NO_REG`] when none).
    pub def: u32,
    /// Registers read (guard and address bases included); only the
    /// first [`DecodedInst::nuses`] entries are meaningful.
    pub uses: [u32; 4],
    /// Number of valid entries in [`DecodedInst::uses`].
    pub nuses: u8,
    /// Whether the instruction executes on the special function unit.
    pub sfu: bool,
    /// Execution class (vector dispatch).
    pub class: OpClass,
    /// Scoreboard footprint: bitmask over registers `< 64` of every
    /// read ([`DecodedInst::uses`], guard and address bases included)
    /// plus the define (WAW). `u64::MAX` when any footprint register
    /// is `>= 64`, telling callers to fall back to the exact per-slot
    /// walk.
    pub use_def_mask: u64,
    /// Whether the lane values this instruction computes (its define,
    /// or a store's bytes) can reach a branch, a guard or an address,
    /// and so the [`crate::SimStats`]. Off, a stats-only simulation
    /// skips the lane work and keeps every timing effect; see
    /// `mark_value_slice`. Always off for barriers.
    pub feeds_stats: bool,
}

impl DecodedInst {
    /// The registers this instruction reads.
    pub fn uses(&self) -> &[u32] {
        &self.uses[..self.nuses as usize]
    }
}

/// A decoded terminator. `Copy`, so the issue path never clones.
#[derive(Debug, Clone, Copy)]
pub enum DTerm {
    /// Unconditional branch.
    Bra(u32),
    /// Conditional branch with its reconvergence point precomputed.
    CondBra {
        /// Predicate register.
        pred: u32,
        /// Whether the branch fires on a false predicate.
        negated: bool,
        /// Successor when the predicate fires.
        taken: u32,
        /// Successor otherwise.
        not_taken: u32,
        /// Immediate post-dominator of the branching block, or
        /// [`NO_RPC`] when divergence here would be unstructured.
        rpc: u32,
    },
    /// Thread exit.
    Exit,
}

impl DTerm {
    /// The predicate register this terminator reads, if any.
    pub fn used_reg(&self) -> Option<u32> {
        match self {
            DTerm::CondBra { pred, .. } => Some(*pred),
            _ => None,
        }
    }
}

/// A decoded basic block: flat instructions plus the terminator.
#[derive(Debug, Clone)]
pub struct DBlock {
    /// The block's instructions, in program order.
    pub insts: Vec<DecodedInst>,
    /// How control leaves the block.
    pub term: DTerm,
}

/// A kernel lowered for execution: flat per-block instruction arrays,
/// numeric frame offsets, dense parameter indices, and precomputed
/// reconvergence points. Built once per kernel by [`decode`]; the
/// machine executes it by reference with zero per-issue allocation.
#[derive(Debug, Clone)]
pub struct DecodedKernel {
    /// The kernel's name (diagnostics only).
    name: String,
    /// Decoded blocks; indices equal the kernel's block ids.
    blocks: Vec<DBlock>,
    /// Number of virtual registers.
    num_regs: usize,
    /// Parameter names in dense-index order.
    param_names: Vec<String>,
    /// Declared `.shared` bytes (unpadded sum, as occupancy counts it).
    shared_decl_bytes: u32,
    /// Laid-out `.shared` frame size (alignment padding included).
    shared_frame_bytes: u32,
    /// Laid-out per-thread `.local` frame size.
    local_frame_bytes: u32,
}

impl DecodedKernel {
    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The decoded blocks; indices equal the source block ids.
    pub fn blocks(&self) -> &[DBlock] {
        &self.blocks
    }

    /// Number of virtual registers.
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Parameter names in dense-index order.
    pub fn param_names(&self) -> &[String] {
        &self.param_names
    }

    /// Declared `.shared` bytes (what occupancy charges).
    pub fn shared_decl_bytes(&self) -> u32 {
        self.shared_decl_bytes
    }

    /// Laid-out `.shared` frame size in bytes.
    pub fn shared_frame_bytes(&self) -> u32 {
        self.shared_frame_bytes
    }

    /// Laid-out per-thread `.local` frame size in bytes.
    pub fn local_frame_bytes(&self) -> u32 {
        self.local_frame_bytes
    }

    /// Total decoded instruction count (terminators excluded).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// Validate `kernel` and lower it to a [`DecodedKernel`].
///
/// # Errors
///
/// [`SimError::InvalidKernel`] when validation fails; decoding itself
/// is total over validated kernels.
pub fn decode(kernel: &Kernel) -> Result<DecodedKernel, SimError> {
    kernel.validate().map_err(SimError::InvalidKernel)?;

    let (shared_offsets, shared_frame_bytes) = layout(kernel, crat_ptx::Space::Shared);
    let (local_offsets, local_frame_bytes) = layout(kernel, crat_ptx::Space::Local);
    let flow = Cfg::build(kernel);

    let var_offset = |name: &str| -> u64 {
        let idx = kernel.var_index(name).expect("validated variable");
        let v = &kernel.vars()[idx];
        match v.space {
            crat_ptx::Space::Shared => shared_offsets[idx],
            _ => local_offsets[idx],
        }
    };

    let mut blocks: Vec<DBlock> = kernel
        .blocks()
        .iter()
        .map(|b| {
            let insts: Vec<DecodedInst> = b
                .insts
                .iter()
                .map(|inst| decode_inst(kernel, inst, &var_offset))
                .collect();
            let term = match &b.terminator {
                Terminator::Bra(t) => DTerm::Bra(t.0),
                Terminator::CondBra {
                    pred,
                    negated,
                    taken,
                    not_taken,
                } => DTerm::CondBra {
                    pred: pred.0,
                    negated: *negated,
                    taken: taken.0,
                    not_taken: not_taken.0,
                    rpc: flow.immediate_post_dominator(b.id).map_or(NO_RPC, |r| r.0),
                },
                Terminator::Exit => DTerm::Exit,
            };
            DBlock { insts, term }
        })
        .collect();
    mark_value_slice(&mut blocks, kernel.num_regs(), local_frame_bytes);

    Ok(DecodedKernel {
        name: kernel.name().to_string(),
        blocks,
        num_regs: kernel.num_regs(),
        param_names: kernel.params().iter().map(|p| p.name.clone()).collect(),
        shared_decl_bytes: kernel.shared_bytes(),
        shared_frame_bytes,
        local_frame_bytes,
    })
}

/// Lay out the kernel's variables of `space`: per-declaration byte
/// offsets (indexed like [`Kernel::vars`]; entries of other spaces are
/// unused) and the total frame size. Declaration order with natural
/// alignment, matching the interpreter's historical layout.
fn layout(kernel: &Kernel, space: crat_ptx::Space) -> (Vec<u64>, u32) {
    let mut offsets = vec![0u64; kernel.vars().len()];
    let mut off = 0u32;
    for (i, v) in kernel.vars().iter().enumerate() {
        if v.space != space {
            continue;
        }
        let align = v.align.max(1);
        off = off.div_ceil(align) * align;
        offsets[i] = off as u64;
        off += v.size;
    }
    (offsets, off)
}

/// Convert an operand read in a typed position, applying the
/// interpreter's immediate rules at decode time: integer immediates
/// truncate to the type's width, float immediates convert to `f32`
/// bits for `f32` positions and `f64` bits otherwise.
fn typed_src(op: &Operand, ty: Type) -> DSrc {
    match op {
        Operand::Reg(r) => DSrc::Reg(r.0),
        Operand::Imm(v) => DSrc::Val(interp::truncate(ty, *v as u64)),
        Operand::FImm(v) => DSrc::Val(match ty {
            Type::F32 => (*v as f32).to_bits() as u64,
            _ => v.to_bits(),
        }),
        Operand::Special(sr) => DSrc::Special(*sr),
    }
}

/// Convert a `mov` source: like [`typed_src`], but the result is
/// additionally truncated to the destination type (the interpreter
/// truncates every `mov` write).
fn mov_src(op: &Operand, ty: Type) -> DSrc {
    match typed_src(op, ty) {
        DSrc::Val(v) => DSrc::Val(interp::truncate(ty, v)),
        other => other,
    }
}

fn decode_addr(
    kernel: &Kernel,
    addr: &crat_ptx::Address,
    var_offset: &impl Fn(&str) -> u64,
) -> DAddr {
    let base = match &addr.base {
        AddrBase::Reg(r) => DAddrBase::Reg(r.0),
        AddrBase::Var(name) => DAddrBase::Frame(var_offset(name)),
        AddrBase::Param(name) => {
            DAddrBase::Param(kernel.param_index(name).expect("validated param") as u32)
        }
    };
    DAddr {
        base,
        offset: addr.offset,
    }
}

fn decode_inst(
    kernel: &Kernel,
    inst: &Instruction,
    var_offset: &impl Fn(&str) -> u64,
) -> DecodedInst {
    let op = match &inst.op {
        Op::Mov { ty, dst, src } => DOp::Mov {
            ty: *ty,
            dst: dst.0,
            src: mov_src(src, *ty),
        },
        // `MovVarAddr` writes the variable's frame base; the
        // destination is validated `u64`, so no truncation applies.
        Op::MovVarAddr { dst, var } => DOp::Mov {
            ty: Type::U64,
            dst: dst.0,
            src: DSrc::Val(var_offset(var)),
        },
        Op::Unary { op, ty, dst, src } => DOp::Unary {
            op: *op,
            ty: *ty,
            dst: dst.0,
            src: typed_src(src, *ty),
        },
        Op::Binary { op, ty, dst, a, b } => DOp::Binary {
            op: *op,
            ty: *ty,
            dst: dst.0,
            a: typed_src(a, *ty),
            b: typed_src(b, *ty),
        },
        Op::Mad { ty, dst, a, b, c } | Op::Fma { ty, dst, a, b, c } => DOp::Mad {
            ty: *ty,
            dst: dst.0,
            a: typed_src(a, *ty),
            b: typed_src(b, *ty),
            c: typed_src(c, *ty),
        },
        Op::Cvt {
            dst_ty,
            src_ty,
            dst,
            src,
        } => DOp::Cvt {
            dst_ty: *dst_ty,
            src_ty: *src_ty,
            dst: dst.0,
            src: typed_src(src, *src_ty),
        },
        Op::Setp { cmp, ty, dst, a, b } => DOp::Setp {
            cmp: *cmp,
            ty: *ty,
            dst: dst.0,
            a: typed_src(a, *ty),
            b: typed_src(b, *ty),
        },
        Op::Selp {
            ty,
            dst,
            a,
            b,
            pred,
        } => DOp::Selp {
            ty: *ty,
            dst: dst.0,
            a: typed_src(a, *ty),
            b: typed_src(b, *ty),
            pred: pred.0,
        },
        Op::Ld {
            space,
            ty,
            dst,
            addr,
        } => DOp::Ld {
            space: *space,
            ty: *ty,
            dst: dst.0,
            addr: decode_addr(kernel, addr, var_offset),
        },
        Op::St {
            space,
            ty,
            addr,
            src,
        } => DOp::St {
            space: *space,
            ty: *ty,
            addr: decode_addr(kernel, addr, var_offset),
            src: typed_src(src, *ty),
        },
        Op::BarSync => DOp::Bar,
    };

    let mut use_regs = Vec::with_capacity(4);
    inst.collect_uses(&mut use_regs);
    let mut uses = [NO_REG; 4];
    for (slot, r) in uses.iter_mut().zip(&use_regs) {
        *slot = r.0;
    }

    let sfu = inst.is_sfu();
    let class = match op {
        DOp::Ld { .. } | DOp::St { .. } => OpClass::Mem,
        DOp::Bar => OpClass::Bar,
        _ if sfu => OpClass::Sfu,
        _ => OpClass::Alu,
    };
    let mut use_def_mask = 0u64;
    for r in use_regs.iter().map(|r| r.0).chain(inst.def().map(|d| d.0)) {
        if r < 64 {
            use_def_mask |= 1u64 << r;
        } else {
            use_def_mask = u64::MAX;
            break;
        }
    }
    let def = inst.def().map_or(NO_REG, |d| d.0);
    DecodedInst {
        op,
        guard: inst.guard.map_or(NO_REG, |g| g.pred.0),
        guard_negated: inst.guard.is_some_and(|g| g.negated),
        def,
        uses,
        nuses: use_regs.len() as u8,
        sfu,
        class,
        use_def_mask,
        feeds_stats: false,
    }
}

/// Where a `.local` access lands, as far as decode can tell.
#[derive(Debug, Clone, Copy)]
enum Footprint {
    /// The byte range `[lo, hi)` of the accessing thread's own frame.
    Frame(u64, u64),
    /// Anywhere in the block's local buffer.
    Any,
}

impl Footprint {
    fn overlaps(self, other: Footprint) -> bool {
        match (self, other) {
            (Footprint::Frame(lo, hi), Footprint::Frame(olo, ohi)) => lo < ohi && olo < hi,
            _ => true,
        }
    }
}

/// The memory the needed loads found so far may read.
#[derive(Default)]
struct NeededReads {
    global: bool,
    shared: bool,
    local: Vec<Footprint>,
}

impl NeededReads {
    fn note(&mut self, space: crat_ptx::Space, fp: Footprint) {
        match space {
            crat_ptx::Space::Global => self.global = true,
            crat_ptx::Space::Shared => self.shared = true,
            crat_ptx::Space::Local => self.local.push(fp),
            // Parameters are launch constants, not memory.
            crat_ptx::Space::Param => {}
        }
    }

    /// Whether a needed load may read what a store to `space` at `fp`
    /// writes.
    fn may_read(&self, space: crat_ptx::Space, fp: Footprint) -> bool {
        match space {
            crat_ptx::Space::Global => self.global,
            crat_ptx::Space::Shared => self.shared,
            crat_ptx::Space::Local => self.local.iter().any(|&r| r.overlaps(fp)),
            crat_ptx::Space::Param => false,
        }
    }
}

/// Calls `f` on each register `op` reads lane values from. Guards and
/// address bases are left out: they are roots of the value slice.
fn value_regs(op: &DOp, mut f: impl FnMut(u32)) {
    let mut src = |s: DSrc| {
        if let DSrc::Reg(r) = s {
            f(r);
        }
    };
    match *op {
        DOp::Mov { src: s, .. }
        | DOp::Unary { src: s, .. }
        | DOp::Cvt { src: s, .. }
        | DOp::St { src: s, .. } => src(s),
        DOp::Binary { a, b, .. } | DOp::Setp { a, b, .. } => {
            src(a);
            src(b);
        }
        DOp::Mad { a, b, c, .. } => {
            src(a);
            src(b);
            src(c);
        }
        DOp::Selp { a, b, pred, .. } => {
            src(a);
            src(b);
            src(DSrc::Reg(pred));
        }
        DOp::Ld { .. } | DOp::Bar => {}
    }
}

/// The registers that hold one constant in every lane wherever they are
/// read: the sole define is an unguarded `mov` of an immediate at the
/// top of the entry block (before any read of the register), and no
/// branch re-enters that block. Warps start there with all 32 lanes
/// active, so the move writes every lane before any read. Spill code's
/// `__local_stack` base is one.
fn constant_regs(blocks: &[DBlock], num_regs: usize) -> Vec<Option<u64>> {
    let mut defs = vec![0u32; num_regs];
    for inst in blocks.iter().flat_map(|b| &b.insts) {
        if inst.def != NO_REG {
            defs[inst.def as usize] += 1;
        }
    }
    let mut constant = vec![None; num_regs];
    let reentered = blocks.iter().any(|b| match b.term {
        DTerm::Bra(t) => t == 0,
        DTerm::CondBra {
            taken, not_taken, ..
        } => taken == 0 || not_taken == 0,
        DTerm::Exit => false,
    });
    let Some(entry) = blocks.first().filter(|_| !reentered) else {
        return constant;
    };
    let mut read = vec![false; num_regs];
    for inst in &entry.insts {
        if let DOp::Mov {
            dst,
            src: DSrc::Val(v),
            ..
        } = inst.op
        {
            if inst.guard == NO_REG && defs[dst as usize] == 1 && !read[dst as usize] {
                constant[dst as usize] = Some(v);
            }
        }
        for &r in inst.uses() {
            read[r as usize] = true;
        }
    }
    constant
}

/// Set [`DecodedInst::feeds_stats`] on every instruction whose lane
/// values can reach the [`crate::SimStats`].
///
/// The statistics see lane values only through branch predicates and
/// guards (masks, divergence) and address bases (coalescing, banks,
/// bounds). Those registers are the roots. The closure is
/// flow-insensitive and uses no kills: once a register is needed, every
/// define of it is live, because a define under a partial SIMT mask or
/// a false guard keeps the other lanes' older values. A live
/// instruction's value sources are needed in turn. A needed load makes
/// live every store it may read: any store to its space for `.global`
/// and `.shared`; for `.local`, the stores whose constant frame byte
/// range overlaps the load's, plus every store whose address is not
/// such a range (and a load without one makes every `.local` store
/// live). `ld.param` reads no memory.
fn mark_value_slice(blocks: &mut [DBlock], num_regs: usize, local_frame_bytes: u32) {
    let constant = constant_regs(blocks, num_regs);
    let local_footprint = |addr: DAddr, ty: Type| -> Footprint {
        let base = match addr.base {
            DAddrBase::Frame(b) => Some(b),
            DAddrBase::Reg(r) => constant[r as usize],
            DAddrBase::Param(_) => None,
        };
        // Only a range inside the thread's own frame is private to
        // it: the buffer holds every thread's frame back to back.
        base.map(|b| b.wrapping_add(addr.offset as u64))
            .and_then(|lo| Some((lo, lo.checked_add(ty.size_bytes() as u64)?)))
            .filter(|&(_, hi)| hi <= u64::from(local_frame_bytes))
            .map_or(Footprint::Any, |(lo, hi)| Footprint::Frame(lo, hi))
    };

    let mut needed = vec![false; num_regs];
    for b in blocks.iter() {
        for inst in &b.insts {
            if inst.guard != NO_REG {
                needed[inst.guard as usize] = true;
            }
            if let DOp::Ld { addr, .. } | DOp::St { addr, .. } = inst.op {
                if let DAddrBase::Reg(r) = addr.base {
                    needed[r as usize] = true;
                }
            }
        }
        if let Some(p) = b.term.used_reg() {
            needed[p as usize] = true;
        }
    }

    let mut reads = NeededReads::default();
    loop {
        let mut grew = false;
        for inst in blocks.iter_mut().flat_map(|b| &mut b.insts) {
            if inst.feeds_stats {
                continue;
            }
            let live = match inst.op {
                DOp::St {
                    space, ty, addr, ..
                } => reads.may_read(space, local_footprint(addr, ty)),
                DOp::Bar => false,
                _ => needed[inst.def as usize],
            };
            if !live {
                continue;
            }
            inst.feeds_stats = true;
            grew = true;
            value_regs(&inst.op, |r| needed[r as usize] = true);
            if let DOp::Ld {
                space, ty, addr, ..
            } = inst.op
            {
                reads.note(space, local_footprint(addr, ty));
            }
        }
        if !grew {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_ptx::{Address, KernelBuilder, Space};

    #[test]
    fn decode_resolves_operands_and_uses() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let sum = b.add(Type::U32, tid, Operand::Imm(-1));
        let a = b.wide_address(out, sum, 4);
        b.st(Space::Global, Type::U32, a, sum);
        let k = b.finish();

        let dk = decode(&k).unwrap();
        assert_eq!(dk.num_regs(), k.num_regs());
        assert_eq!(dk.num_insts(), k.num_insts());
        assert_eq!(dk.param_names(), &["out".to_string()]);

        // The add's immediate is pre-truncated to u32 width.
        let add = dk.blocks()[0]
            .insts
            .iter()
            .find_map(|i| match i.op {
                DOp::Binary {
                    op: crat_ptx::BinOp::Add,
                    b: DSrc::Val(v),
                    ..
                } => Some(v),
                _ => None,
            })
            .expect("decoded add");
        assert_eq!(add, 0xFFFF_FFFF);
    }

    #[test]
    fn decode_precomputes_reconvergence() {
        let mut b = KernelBuilder::new("k");
        let tid = b.special_tid_x(Type::U32);
        let p = b.setp(crat_ptx::CmpOp::Lt, Type::U32, tid, Operand::Imm(16));
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_branch(p, t, e);
        b.switch_to(t);
        b.branch(j);
        b.switch_to(e);
        b.branch(j);
        b.switch_to(j);
        let k = b.finish();

        let dk = decode(&k).unwrap();
        match dk.blocks()[0].term {
            DTerm::CondBra { rpc, .. } => assert_eq!(rpc, j.0),
            ref other => panic!("expected CondBra, got {other:?}"),
        }
    }

    #[test]
    fn decode_lays_out_variables_in_declaration_order() {
        let mut b = KernelBuilder::new("k");
        b.shared_var("a", 6); // padded to align 4 → next offset 8
        b.shared_var("c", 8);
        b.local_var("l", 12);
        let base = b.fresh(Type::U64);
        b.push_guarded(
            None,
            Op::MovVarAddr {
                dst: base,
                var: "c".to_string(),
            },
        );
        let k = b.finish();

        let dk = decode(&k).unwrap();
        assert_eq!(dk.local_frame_bytes(), 12);
        assert!(dk.shared_frame_bytes() >= dk.shared_decl_bytes());
        let off = dk.blocks()[0]
            .insts
            .iter()
            .find_map(|i| match i.op {
                DOp::Mov {
                    src: DSrc::Val(v), ..
                } => Some(v),
                _ => None,
            })
            .expect("decoded mov-var-addr");
        assert!(off >= 6, "`c` is laid out after `a`, got offset {off}");
    }

    #[test]
    fn decode_tags_classes() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let x = b.add(Type::U32, tid, Operand::Imm(1));
        let f = b.cvt(Type::F32, Type::U32, x);
        let s = b.unary(crat_ptx::UnOp::Sqrt, Type::F32, f);
        let y = b.cvt(Type::U32, Type::F32, s);
        let a = b.wide_address(out, y, 4);
        b.st(Space::Global, Type::U32, a, y);
        let k = b.finish();
        let dk = decode(&k).unwrap();

        let insts = &dk.blocks()[0].insts;
        // Classes follow the op shape: sqrt is SFU, st is memory,
        // everything else here is vector ALU work.
        for i in insts {
            let expected = match i.op {
                DOp::St { .. } | DOp::Ld { .. } => OpClass::Mem,
                DOp::Unary { .. } if i.sfu => OpClass::Sfu,
                _ => OpClass::Alu,
            };
            assert_eq!(i.class, expected, "{:?}", i.op);
        }
        assert!(insts.iter().any(|i| i.class == OpClass::Sfu));
        assert!(insts.iter().any(|i| i.class == OpClass::Mem));
    }

    #[test]
    fn decode_widens_footprints_past_register_63() {
        // A footprint register >= 64 does not fit the mask: it widens
        // to all ones, telling the scoreboard to walk the exact slots.
        let mut wide = KernelBuilder::new("wide");
        let t = wide.special_tid_x(Type::U32);
        let mut regs = vec![t];
        for j in 0..70 {
            regs.push(wide.add(Type::U32, regs[j], Operand::Imm(1)));
        }
        let dkw = decode(&wide.finish()).unwrap();
        let insts = &dkw.blocks()[0].insts;
        assert_ne!(
            insts[1].use_def_mask,
            u64::MAX,
            "narrow footprint stays exact"
        );
        let tail = insts.last().unwrap();
        assert_eq!(tail.class, OpClass::Alu);
        assert_eq!(tail.use_def_mask, u64::MAX, "vreg >= 64 must widen");
    }

    /// Whether the instructions defining `r` are on the value slice
    /// (they must all agree: the closure has no kills).
    fn def_live(dk: &DecodedKernel, r: crat_ptx::VReg) -> bool {
        let defs: Vec<bool> = dk
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| i.def == r.0)
            .map(|i| i.feeds_stats)
            .collect();
        assert!(!defs.is_empty(), "no define of {r:?}");
        assert!(defs.iter().all(|&l| l == defs[0]), "{r:?}: {defs:?}");
        defs[0]
    }

    /// The slice bits of the stores to `space`, by address offset.
    fn stores_live(dk: &DecodedKernel, space: Space) -> Vec<(i64, bool)> {
        dk.blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i.op {
                DOp::St { space: s, addr, .. } if s == space => Some((addr.offset, i.feeds_stats)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn slice_drops_a_dead_accumulator_chain() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let x = b.mul(Type::U32, tid, Operand::Imm(3));
        let y = b.add(Type::U32, x, Operand::Imm(7));
        let acc = b.mad(Type::U32, y, y, x);
        let a = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, a, acc);
        let dk = decode(&b.finish()).unwrap();

        // The address is a root; the stored chain reaches nothing.
        assert!(def_live(&dk, tid) && def_live(&dk, a));
        for r in [x, y, acc] {
            assert!(!def_live(&dk, r), "{r:?} feeds only a store");
        }
        assert_eq!(stores_live(&dk, Space::Global), vec![(0, false)]);
    }

    #[test]
    fn slice_keeps_global_stores_when_a_loaded_value_steers_a_branch() {
        let mut b = KernelBuilder::new("k");
        let inp = b.param_ptr("inp");
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let acc = b.mul(Type::U32, tid, Operand::Imm(3));
        let a = b.wide_address(out, tid, 4);
        b.st(Space::Global, Type::U32, a, acc);
        let ia = b.wide_address(inp, tid, 4);
        let v = b.ld(Space::Global, Type::U32, ia);
        let p = b.setp(crat_ptx::CmpOp::Lt, Type::U32, v, Operand::Imm(5));
        let (t, j) = (b.new_block(), b.new_block());
        b.cond_branch(p, t, j);
        b.switch_to(t);
        b.branch(j);
        b.switch_to(j);
        let dk = decode(&b.finish()).unwrap();

        // The load may read what the store wrote, so the stored value
        // joins the slice.
        assert!(def_live(&dk, v) && def_live(&dk, acc));
        assert_eq!(stores_live(&dk, Space::Global), vec![(0, true)]);
    }

    #[test]
    fn slice_follows_shared_memory_across_a_barrier_into_an_address() {
        let mut b = KernelBuilder::new("k");
        b.shared_var("stage", 128);
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let sbase = b.fresh(Type::U64);
        b.push_guarded(
            None,
            Op::MovVarAddr {
                dst: sbase,
                var: "stage".to_string(),
            },
        );
        let toff = b.mul(Type::U32, tid, Operand::Imm(4));
        let tmask = b.and(Type::U32, toff, Operand::Imm(124));
        let tw = b.cvt(Type::U64, Type::U32, tmask);
        let slot = b.add(Type::U64, sbase, tw);
        let v = b.mul(Type::U32, tid, Operand::Imm(8));
        b.st(Space::Shared, Type::U32, slot, v);
        b.bar_sync();
        let back = b.ld(Space::Shared, Type::U32, slot);
        let a = b.wide_address(out, back, 4);
        b.st(Space::Global, Type::U32, a, tid);
        let dk = decode(&b.finish()).unwrap();

        assert!(def_live(&dk, back) && def_live(&dk, v));
        assert_eq!(stores_live(&dk, Space::Shared), vec![(0, true)]);
        assert_eq!(stores_live(&dk, Space::Global), vec![(0, false)]);
    }

    /// A kernel spilling two values to a `.local` array through `base`
    /// (set up by `set_base`) and reloading one into an address from
    /// `load_base(b, base)`; returns the kernel and the two values.
    fn local_spill_kernel(
        set_base: impl FnOnce(&mut KernelBuilder, crat_ptx::VReg),
        load_base: impl FnOnce(&mut KernelBuilder, crat_ptx::VReg) -> crat_ptx::VReg,
    ) -> (Kernel, crat_ptx::VReg, crat_ptx::VReg) {
        let mut b = KernelBuilder::new("k");
        b.local_var("slots", 8);
        let base = b.fresh(Type::U64);
        set_base(&mut b, base);
        let out = b.param_ptr("out");
        let tid = b.special_tid_x(Type::U32);
        let kept = b.add(Type::U32, tid, Operand::Imm(1));
        b.st(Space::Local, Type::U32, Address::reg_offset(base, 0), kept);
        let other = b.add(Type::U32, tid, Operand::Imm(2));
        b.st(Space::Local, Type::U32, Address::reg_offset(base, 4), other);
        let from = load_base(&mut b, base);
        let back = b.ld(Space::Local, Type::U32, Address::reg_offset(from, 0));
        let a = b.wide_address(out, back, 4);
        b.st(Space::Global, Type::U32, a, tid);
        (b.finish(), kept, other)
    }

    fn mov_slots(b: &mut KernelBuilder, base: crat_ptx::VReg) {
        b.push_guarded(
            None,
            Op::MovVarAddr {
                dst: base,
                var: "slots".to_string(),
            },
        );
    }

    #[test]
    fn slice_keeps_only_the_spill_slot_a_constant_base_reload_reads() {
        let (k, kept, other) = local_spill_kernel(mov_slots, |_, base| base);
        let dk = decode(&k).unwrap();
        assert!(def_live(&dk, kept));
        assert!(!def_live(&dk, other), "slot +4 is never reloaded");
        assert_eq!(stores_live(&dk, Space::Local), vec![(0, true), (4, false)]);
    }

    #[test]
    fn slice_keeps_every_local_store_for_a_register_addressed_reload() {
        let (k, kept, other) =
            local_spill_kernel(mov_slots, |b, base| b.add(Type::U64, base, Operand::Imm(0)));
        let dk = decode(&k).unwrap();
        assert!(def_live(&dk, kept) && def_live(&dk, other));
        assert_eq!(stores_live(&dk, Space::Local), vec![(0, true), (4, true)]);
    }

    #[test]
    fn slice_treats_a_guarded_constant_mov_as_no_constant_base() {
        // A false guard would leave the base at its old value, so the
        // accesses through it may land anywhere.
        let guarded = |b: &mut KernelBuilder, base| {
            let tid = b.special_tid_x(Type::U32);
            let p = b.setp(crat_ptx::CmpOp::Lt, Type::U32, tid, Operand::Imm(1 << 20));
            b.push_guarded(
                Some(crat_ptx::Guard::when(p)),
                Op::MovVarAddr {
                    dst: base,
                    var: "slots".to_string(),
                },
            );
        };
        let (k, kept, other) = local_spill_kernel(guarded, |_, base| base);
        let dk = decode(&k).unwrap();
        assert!(def_live(&dk, kept) && def_live(&dk, other));
        assert_eq!(stores_live(&dk, Space::Local), vec![(0, true), (4, true)]);
    }

    #[test]
    fn decode_rejects_invalid_kernels() {
        let mut k = Kernel::new("k");
        k.block_mut(crat_ptx::BlockId(0)).terminator =
            crat_ptx::Terminator::Bra(crat_ptx::BlockId(7));
        assert!(matches!(decode(&k), Err(SimError::InvalidKernel(_))));
    }
}
