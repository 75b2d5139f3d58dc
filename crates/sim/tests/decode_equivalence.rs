//! Differential tests: the decoded-IR cycle loop must be bit-identical
//! to the reference interpreter ([`crat_sim::reference`], the
//! pre-decode implementation preserved verbatim) — same [`SimStats`],
//! same captured global memory, same errors — on hand-built kernels
//! covering every operand and control-flow shape, and on randomly
//! generated straight-line and branching kernels. The stats-only entry
//! point, which computes only the value slice's lane values, must
//! return the same statistics and errors.

use proptest::prelude::*;

use crat_ptx::{Address, BinOp, CmpOp, Guard, KernelBuilder, Op, Operand, Space, Type, UnOp, VReg};
use crat_sim::{GpuConfig, Lanes, LaunchConfig, SchedulerKind};

/// Run both interpreters at one operating point and demand identical
/// results, including identical errors; the value-sliced `simulate`
/// must match the reference's statistics and errors too.
fn assert_identical(
    kernel: &crat_ptx::Kernel,
    cfg: &GpuConfig,
    launch: &LaunchConfig,
    regs: u32,
    tlp: Option<u32>,
) {
    let new = crat_sim::simulate_capture(kernel, cfg, launch, regs, tlp);
    let old = crat_sim::reference::simulate_capture(kernel, cfg, launch, regs, tlp);
    let sliced = crat_sim::simulate(kernel, cfg, launch, regs, tlp);
    assert_eq!(
        sliced,
        old.clone().map(|(s, _)| s),
        "value-sliced outcome diverges for `{}`",
        kernel.name()
    );
    match (new, old) {
        (Ok((ns, nm)), Ok((os, om))) => {
            // Attribution must satisfy its own invariant in both
            // interpreters *and* be bit-identical between them (the
            // SimStats equality below covers the latter).
            ns.attribution
                .check(ns.cycles)
                .unwrap_or_else(|e| panic!("decoded attribution for `{}`: {e}", kernel.name()));
            os.attribution
                .check(os.cycles)
                .unwrap_or_else(|e| panic!("reference attribution for `{}`: {e}", kernel.name()));
            assert!(
                ns == os,
                "SimStats diverge for `{}`:\n  {}",
                kernel.name(),
                ns.diff(&os).join("\n  ")
            );
            assert_eq!(nm, om, "final memory diverges for `{}`", kernel.name());
        }
        (new, old) => assert_eq!(
            new.map(|(s, _)| s),
            old.map(|(s, _)| s),
            "outcomes diverge for `{}`",
            kernel.name()
        ),
    }
}

/// ... at several operating points: each scheduler, capped and
/// uncapped TLP, and two register budgets.
fn assert_identical_everywhere(kernel: &crat_ptx::Kernel, launch: &LaunchConfig) {
    for sched in [SchedulerKind::Gto, SchedulerKind::Lrr] {
        let mut cfg = GpuConfig::fermi();
        cfg.scheduler = sched;
        for tlp in [None, Some(1), Some(3)] {
            for regs in [16, 32] {
                assert_identical(kernel, &cfg, launch, regs, tlp);
            }
        }
    }
}

/// A kernel touching every decoded operand shape: negative and float
/// immediates, special registers (as ALU inputs and store sources),
/// guarded instructions, SFU ops, cvt, setp/selp, mad, shared and
/// local variables, barriers.
fn kitchen_sink() -> crat_ptx::Kernel {
    let mut b = KernelBuilder::new("sink");
    b.shared_var("stage", 256);
    b.local_var("scratch", 64);
    let inp = b.param_ptr("inp");
    let out = b.param_ptr("out");
    let tid = b.special_tid_x(Type::U32);
    let ctaid = b.special_ctaid_x(Type::U32);
    let ntid = b.special_ntid_x(Type::U32);
    let prod = b.mul(Type::U32, ctaid, ntid);
    let gid = b.add(Type::U32, tid, prod);

    // Immediates that exercise decode-time truncation.
    let neg = b.mov(Type::U32, Operand::Imm(-1));
    let fimm = b.mov(Type::F32, Operand::FImm(1.5));
    let wide = b.mov(Type::U64, Operand::Imm(i64::MAX));

    // Special register straight into an ALU op and into a store.
    let sum = b.add(Type::U32, gid, neg);

    // Load, SFU chain, cvt, mad.
    let addr = b.wide_address(inp, gid, 4);
    let x = b.ld(Space::Global, Type::F32, addr);
    let r = b.unary(UnOp::Rsqrt, Type::F32, x);
    let s = b.unary(UnOp::Sin, Type::F32, r);
    let xi = b.cvt(Type::U32, Type::F32, s);
    let m = b.mad(Type::U32, xi, sum, gid);

    // Predication: setp / selp / a guarded mov.
    let p = b.setp(CmpOp::Lt, Type::U32, tid, Operand::Imm(16));
    let sel = b.selp(Type::U32, m, sum, p);
    let g = b.fresh(Type::U32);
    b.mov_to(Type::U32, g, Operand::Imm(7));
    b.push_guarded(
        Some(Guard::when(p)),
        Op::Mov {
            ty: Type::U32,
            dst: g,
            src: Operand::Imm(99),
        },
    );

    // Shared staging with barriers; local scratch round-trip.
    let toff = b.mul(Type::U32, tid, Operand::Imm(4));
    let tmask = b.and(Type::U32, toff, Operand::Imm(252));
    let tw = b.cvt(Type::U64, Type::U32, tmask);
    let sbase = b.fresh(Type::U64);
    b.push_guarded(
        None,
        Op::MovVarAddr {
            dst: sbase,
            var: "stage".to_string(),
        },
    );
    let saddr = b.add(Type::U64, sbase, tw);
    b.st(Space::Shared, Type::U32, saddr, sel);
    b.bar_sync();
    let back = b.ld(Space::Shared, Type::U32, saddr);
    let lbase = b.fresh(Type::U64);
    b.push_guarded(
        None,
        Op::MovVarAddr {
            dst: lbase,
            var: "scratch".to_string(),
        },
    );
    b.st(Space::Local, Type::U32, lbase, g);
    let lg = b.ld(Space::Local, Type::U32, lbase);

    // Fold everything into the output, including raw specials and
    // the float/wide immediates.
    let acc = b.add(Type::U32, back, lg);
    let fcast = b.cvt(Type::U32, Type::F32, fimm);
    let wcast = b.cvt(Type::U32, Type::U64, wide);
    let acc2 = b.add(Type::U32, acc, fcast);
    let acc3 = b.add(Type::U32, acc2, wcast);
    let oaddr = b.wide_address(out, gid, 4);
    b.st(Space::Global, Type::U32, oaddr, acc3);
    b.st(Space::Global, Type::U32, oaddr, tid);
    b.finish()
}

#[test]
fn kitchen_sink_is_bit_identical() {
    let k = kitchen_sink();
    let launch = LaunchConfig::new(6, 64)
        .with_param("inp", 0x10_0000)
        .with_param("out", 0x20_0000);
    assert_identical_everywhere(&k, &launch);
}

#[test]
fn branching_kernels_are_bit_identical() {
    // A counted loop around a uniform diamond.
    let mut b = KernelBuilder::new("branchy");
    let out = b.param_ptr("out");
    let tid = b.special_tid_x(Type::U32);
    let ctaid = b.special_ctaid_x(Type::U32);
    let acc = b.mov(Type::U32, Operand::Imm(0));
    let l = b.loop_range(0, 5, 1);
    {
        let even = b.and(Type::U32, ctaid, Operand::Imm(1));
        let p = b.setp(CmpOp::Eq, Type::U32, even, Operand::Imm(0));
        let then_b = b.new_block();
        let else_b = b.new_block();
        let join = b.new_block();
        b.cond_branch(p, then_b, else_b);
        b.switch_to(then_b);
        let t = b.add(Type::U32, acc, Operand::Imm(3));
        b.mov_to(Type::U32, acc, t);
        b.branch(join);
        b.switch_to(else_b);
        let e = b.add(Type::U32, acc, tid);
        b.mov_to(Type::U32, acc, e);
        b.branch(join);
        b.switch_to(join);
    }
    b.end_loop(l);
    let oaddr = b.wide_address(out, tid, 4);
    b.st(Space::Global, Type::U32, oaddr, acc);
    let k = b.finish();
    let launch = LaunchConfig::new(8, 32).with_param("out", 0x30_0000);
    assert_identical_everywhere(&k, &launch);
}

#[test]
fn errors_are_bit_identical() {
    let k = kitchen_sink();
    let cfg = GpuConfig::fermi();
    let good = LaunchConfig::new(2, 64)
        .with_param("inp", 0x10_0000)
        .with_param("out", 0x20_0000);
    // Zero grid, bad block size, missing param, infeasible occupancy.
    assert_identical(&k, &cfg, &LaunchConfig::new(0, 64), 16, None);
    assert_identical(&k, &cfg, &LaunchConfig::new(2, 63), 16, None);
    assert_identical(
        &k,
        &cfg,
        &LaunchConfig::new(2, 64).with_param("inp", 0x10_0000),
        16,
        None,
    );
    assert_identical(&k, &cfg, &good, 10_000, None);
    // An invalid kernel (address of an undeclared shared variable).
    let mut b = KernelBuilder::new("invalid");
    let _ = b.param_ptr("inp");
    let _ = b.param_ptr("out");
    let base = b.fresh(Type::U64);
    b.push_guarded(
        None,
        Op::MovVarAddr {
            dst: base,
            var: "nosuchvar".to_string(),
        },
    );
    assert_identical(&b.finish(), &cfg, &good, 16, None);
}

/// Value-dead shared and local loads and stores skip their lane work
/// but not their bounds checks: each fails with the reference's error,
/// at the first active lane out of bounds (the guard leaves only odd
/// lanes active, so that is not the first lane past the bound).
#[test]
fn value_dead_accesses_fail_out_of_bounds_like_the_reference() {
    let cfg = GpuConfig::fermi();
    let launch = LaunchConfig::new(2, 64).with_param("out", 0x20_0000);
    for space in [Space::Shared, Space::Local] {
        for store in [false, true] {
            let mut b = KernelBuilder::new("oob");
            b.shared_var("stage", 64);
            b.local_var("slots", 16);
            let out = b.param_ptr("out");
            let tid = b.special_tid_x(Type::U32);
            let base = b.fresh(Type::U64);
            let var = if space == Space::Shared {
                "stage"
            } else {
                "slots"
            };
            b.push_guarded(
                None,
                Op::MovVarAddr {
                    dst: base,
                    var: var.to_string(),
                },
            );
            let off = b.mul(Type::U32, tid, Operand::Imm(4));
            let offw = b.cvt(Type::U64, Type::U32, off);
            let addr = Address::reg(b.add(Type::U64, base, offw));
            let low = b.and(Type::U32, tid, Operand::Imm(1));
            let odd = b.setp(CmpOp::Eq, Type::U32, low, Operand::Imm(1));
            let op = if store {
                Op::St {
                    space,
                    ty: Type::U32,
                    addr,
                    src: Operand::Reg(tid),
                }
            } else {
                let dst = b.fresh(Type::U32);
                Op::Ld {
                    space,
                    ty: Type::U32,
                    dst,
                    addr,
                }
            };
            b.push_guarded(Some(Guard::when(odd)), op);
            let oaddr = b.wide_address(out, tid, 4);
            b.st(Space::Global, Type::U32, oaddr, tid);
            let k = b.finish();

            let dk = crat_sim::decode(&k).unwrap();
            let access = dk
                .blocks()
                .iter()
                .flat_map(|blk| &blk.insts)
                .find(|i| i.guard != crat_sim::decode::NO_REG)
                .expect("the guarded access");
            assert!(!access.feeds_stats, "{space:?} access must be value-dead");
            let sliced = crat_sim::simulate(&k, &cfg, &launch, 16, None);
            assert!(
                matches!(sliced, Err(crat_sim::SimError::OutOfBounds { .. })),
                "{space:?} store={store}: {sliced:?}"
            );
            assert_identical(&k, &cfg, &launch, 16, None);
        }
    }
}

/// A kernel whose guarded instructions all execute under the lane mask
/// shaped by `make_pred`: a guarded mov (masked vector blend into an
/// existing row), a guarded self-referential add (`dst` aliases a
/// source, which forbids the full-mask in-place fast path), a guarded
/// SFU op (per-lane scalar fallback), and a guarded store (masked
/// scatter). Both polarities of the guard are exercised.
fn guard_edge_kernel(
    name: &str,
    make_pred: impl FnOnce(&mut KernelBuilder, VReg) -> VReg,
) -> crat_ptx::Kernel {
    let mut b = KernelBuilder::new(name);
    let out = b.param_ptr("out");
    let tid = b.special_tid_x(Type::U32);
    let ctaid = b.special_ctaid_x(Type::U32);
    let ntid = b.special_ntid_x(Type::U32);
    let prod = b.mul(Type::U32, ctaid, ntid);
    let gid = b.add(Type::U32, tid, prod);
    let p = make_pred(&mut b, tid);

    let acc = b.mov(Type::U32, Operand::Imm(100));
    b.push_guarded(
        Some(Guard::when(p)),
        Op::Mov {
            ty: Type::U32,
            dst: acc,
            src: Operand::Imm(7),
        },
    );
    b.push_guarded(
        Some(Guard::unless(p)),
        Op::Binary {
            op: BinOp::Add,
            ty: Type::U32,
            dst: acc,
            a: Operand::Reg(acc),
            b: Operand::Reg(gid),
        },
    );
    let f = b.cvt(Type::F32, Type::U32, gid);
    let r = b.mov(Type::F32, Operand::FImm(2.0));
    b.push_guarded(
        Some(Guard::when(p)),
        Op::Unary {
            op: UnOp::Rsqrt,
            ty: Type::F32,
            dst: r,
            src: Operand::Reg(f),
        },
    );
    let ri = b.cvt(Type::U32, Type::F32, r);
    let sum = b.add(Type::U32, acc, ri);
    let oaddr = b.wide_address(out, gid, 4);
    b.st(Space::Global, Type::U32, oaddr, sum);
    b.push_guarded(
        Some(Guard::when(p)),
        Op::St {
            space: Space::Global,
            ty: Type::U32,
            addr: Address::reg(oaddr),
            src: Operand::Reg(tid),
        },
    );
    b.finish()
}

/// Vector/scalar equivalence at the degenerate guard masks — empty,
/// full, single lane (first warp and last), and both alternating
/// parities — across every scheduler and several operating points.
type PredBuilder = Box<dyn FnOnce(&mut KernelBuilder, VReg) -> VReg>;

#[test]
fn guard_mask_edge_cases_are_bit_identical() {
    let launch = LaunchConfig::new(3, 64).with_param("out", 0x40_0000);
    let cases: Vec<(&str, PredBuilder)> = vec![
        (
            "mask_empty",
            Box::new(|b, tid| b.setp(CmpOp::Eq, Type::U32, tid, Operand::Imm(9999))),
        ),
        (
            "mask_full",
            Box::new(|b, tid| b.setp(CmpOp::Lt, Type::U32, tid, Operand::Imm(1 << 20))),
        ),
        (
            "mask_single",
            Box::new(|b, tid| b.setp(CmpOp::Eq, Type::U32, tid, Operand::Imm(5))),
        ),
        (
            "mask_single_last",
            Box::new(|b, tid| b.setp(CmpOp::Eq, Type::U32, tid, Operand::Imm(63))),
        ),
        (
            "mask_even",
            Box::new(|b, tid| {
                let low = b.and(Type::U32, tid, Operand::Imm(1));
                b.setp(CmpOp::Eq, Type::U32, low, Operand::Imm(0))
            }),
        ),
        (
            "mask_odd",
            Box::new(|b, tid| {
                let low = b.and(Type::U32, tid, Operand::Imm(1));
                b.setp(CmpOp::Eq, Type::U32, low, Operand::Imm(1))
            }),
        ),
    ];
    for (name, make_pred) in cases {
        let k = guard_edge_kernel(name, make_pred);
        assert_identical_everywhere(&k, &launch);
    }
}

/// Pin the `Lanes` iterator semantics at the mask edges the vector
/// paths rely on: empty and full masks, single lanes at both ends, and
/// the alternating patterns.
#[test]
fn lanes_edge_masks() {
    assert_eq!(Lanes(0).next(), None);
    assert_eq!(
        Lanes(u32::MAX).collect::<Vec<_>>(),
        (0..32).collect::<Vec<_>>()
    );
    assert_eq!(Lanes(1).collect::<Vec<_>>(), vec![0]);
    assert_eq!(Lanes(1 << 31).collect::<Vec<_>>(), vec![31]);
    assert_eq!(
        Lanes(0x5555_5555).collect::<Vec<_>>(),
        (0..32).step_by(2).collect::<Vec<_>>()
    );
    assert_eq!(
        Lanes(0xAAAA_AAAA).collect::<Vec<_>>(),
        (1..32).step_by(2).collect::<Vec<_>>()
    );
}

/// Recipe for a random kernel: a straight line of mixed ops (local
/// spill slots behind a constant base and shared staging included),
/// optionally wrapped in a counted loop and split by a uniform diamond.
#[derive(Debug, Clone)]
struct Recipe {
    ops: Vec<u8>,
    trips: u8,
    diamond: bool,
    looped: bool,
    guard_period: u8,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        prop::collection::vec(0u8..10, 1..20),
        1u8..6,
        any::<bool>(),
        any::<bool>(),
        1u8..5,
    )
        .prop_map(|(ops, trips, diamond, looped, guard_period)| Recipe {
            ops,
            trips,
            diamond,
            looped,
            guard_period,
        })
}

fn build(r: &Recipe) -> crat_ptx::Kernel {
    let mut b = KernelBuilder::new("rand");
    b.local_var("slots", 16);
    b.shared_var("stage", 256);
    // Spill code's shape: the local base is a constant set up first.
    let lbase = b.fresh(Type::U64);
    b.push_guarded(
        None,
        Op::MovVarAddr {
            dst: lbase,
            var: "slots".to_string(),
        },
    );
    let inp = b.param_ptr("inp");
    let out = b.param_ptr("out");
    let tid = b.special_tid_x(Type::U32);
    let ctaid = b.special_ctaid_x(Type::U32);
    let ntid = b.special_ntid_x(Type::U32);
    let prod = b.mul(Type::U32, ctaid, ntid);
    let gid = b.add(Type::U32, tid, prod);
    let mut acc = b.mov(Type::U32, Operand::Imm(1));
    let sbase = b.fresh(Type::U64);
    b.push_guarded(
        None,
        Op::MovVarAddr {
            dst: sbase,
            var: "stage".to_string(),
        },
    );
    let soff = b.wide_address(sbase, tid, 4);

    let l = r.looped.then(|| b.loop_range(0, r.trips as i64, 1));
    let body = |b: &mut KernelBuilder, acc: &mut crat_ptx::VReg| {
        for (i, &op) in r.ops.iter().enumerate() {
            let v = match op {
                0 => b.add(Type::U32, *acc, gid),
                1 => b.sub(Type::U32, *acc, Operand::Imm(i as i64 + 1)),
                2 => b.mul(Type::U32, *acc, Operand::Imm(3)),
                3 => b.and(Type::U32, *acc, Operand::Imm(0xFFFF)),
                4 => {
                    let a = b.wide_address(inp, *acc, 4);
                    let x = b.ld(Space::Global, Type::U32, a);
                    b.add(Type::U32, *acc, x)
                }
                5 => {
                    let f = b.cvt(Type::F32, Type::U32, *acc);
                    let s = b.unary(UnOp::Rsqrt, Type::F32, f);
                    b.cvt(Type::U32, Type::F32, s)
                }
                6 => {
                    let p = b.setp(CmpOp::Lt, Type::U32, *acc, Operand::Imm(1000));
                    b.selp(Type::U32, *acc, gid, p)
                }
                7 => b.mad(Type::U32, *acc, Operand::Imm(5), gid),
                8 => {
                    // Spill to one slot, reload another (maybe unwritten).
                    let slot = |k: usize| Address::reg_offset(lbase, 4 * (k % 4) as i64);
                    b.st(Space::Local, Type::U32, slot(i), *acc);
                    let x = b.ld(Space::Local, Type::U32, slot(i + 1));
                    b.add(Type::U32, *acc, x)
                }
                _ => {
                    b.st(Space::Shared, Type::U32, soff, *acc);
                    b.bar_sync();
                    let x = b.ld(Space::Shared, Type::U32, soff);
                    b.mul(Type::U32, x, Operand::Imm(7))
                }
            };
            if (i as u8).is_multiple_of(r.guard_period) {
                let p = b.setp(CmpOp::Lt, Type::U32, tid, Operand::Imm(16));
                let d = b.mov(Type::U32, v);
                b.push_guarded(
                    Some(Guard::unless(p)),
                    Op::Mov {
                        ty: Type::U32,
                        dst: d,
                        src: Operand::Reg(*acc),
                    },
                );
                *acc = d;
            } else {
                *acc = v;
            }
        }
    };
    if r.diamond {
        let even = b.and(Type::U32, ctaid, Operand::Imm(1));
        let p = b.setp(CmpOp::Eq, Type::U32, even, Operand::Imm(0));
        let then_b = b.new_block();
        let else_b = b.new_block();
        let join = b.new_block();
        b.cond_branch(p, then_b, else_b);
        b.switch_to(then_b);
        body(&mut b, &mut acc);
        let t = acc;
        b.branch(join);
        b.switch_to(else_b);
        let e = b.add(Type::U32, acc, Operand::Imm(17));
        b.branch(join);
        b.switch_to(join);
        // Re-merge along a uniform path: both sides wrote different
        // registers; pick by the same uniform predicate.
        acc = b.selp(Type::U32, t, e, p);
    } else {
        body(&mut b, &mut acc);
    }
    if let Some(l) = l {
        b.end_loop(l);
    }
    let oaddr = b.wide_address(out, gid, 4);
    b.st(Space::Global, Type::U32, oaddr, acc);
    b.finish()
}

/// Pin idle fast-forward's interaction with an *immediate* event: a
/// barrier release happens synchronously with the arriving warp's
/// issue, and ALU write-backs from the pre-barrier work are still in
/// flight — some due the very cycle of the release. Sweeping
/// the amount of pre-barrier work slides the write-back due times
/// across the release cycle, so some shape in the sweep lands each
/// alignment, including release-and-drain on the same cycle. The
/// decoded event-driven loop must match the per-cycle reference
/// bit-for-bit through all of them.
#[test]
fn barrier_release_and_writeback_same_cycle() {
    for work in 1..10u32 {
        for trips in [1i64, 3] {
            let mut b = KernelBuilder::new("bar_wb");
            b.shared_var("stage", 1024);
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
            let tmask = b.and(Type::U32, toff, Operand::Imm(1020));
            let tw = b.cvt(Type::U64, Type::U32, tmask);
            let saddr = b.add(Type::U64, sbase, tw);
            let mut acc = b.mov(Type::U32, Operand::Imm(0));
            let l = b.loop_range(0, trips, 1);
            {
                // `work` dependent ALU ops leave a chain of write-backs
                // in flight when the warp reaches the barrier.
                for j in 0..work {
                    acc = b.add(Type::U32, acc, Operand::Imm(i64::from(j) + 1));
                }
                b.st(Space::Shared, Type::U32, saddr, acc);
                b.bar_sync();
                let back = b.ld(Space::Shared, Type::U32, saddr);
                acc = b.add(Type::U32, acc, back);
            }
            b.end_loop(l);
            let oaddr = b.wide_address(out, tid, 4);
            b.st(Space::Global, Type::U32, oaddr, acc);
            let k = b.finish();
            // Multi-warp blocks so releases wake warps on both
            // schedulers; TLP-capped points give sole-warp windows.
            let launch = LaunchConfig::new(4, 128).with_param("out", 0x50_0000);
            assert_identical_everywhere(&k, &launch);
        }
    }
}

/// The cooperative deadline must fire promptly even when the
/// event-driven loop crosses thousands of cycles per iteration
/// (fast-forward jumps over dependent-load stall windows burn the
/// check countdown by the cycles they skip, not by loop iterations).
#[test]
fn deadline_fires_promptly_under_large_fast_forward_jumps() {
    use std::time::Instant;

    // One warp chasing dependent global loads: nearly every simulated
    // cycle sits inside a stall window the loop jumps over.
    let mut b = KernelBuilder::new("jumpy");
    let inp = b.param_ptr("inp");
    let out = b.param_ptr("out");
    let tid = b.special_tid_x(Type::U32);
    let acc = b.add(Type::U32, tid, Operand::Imm(1));
    let l = b.loop_range(0, 64, 1);
    {
        let scaled = b.mul(Type::U32, l.counter, Operand::Imm(4093));
        let bytes = b.mul(Type::U32, scaled, Operand::Imm(4));
        let off = b.and(Type::U32, bytes, Operand::Imm(0xF_FFFC));
        let offw = b.cvt(Type::U64, Type::U32, off);
        let a1 = b.add(Type::U64, inp, offw);
        let v1 = b.ld(Space::Global, Type::U32, a1);
        let bytes2 = b.mul(Type::U32, v1, Operand::Imm(4));
        let off2 = b.and(Type::U32, bytes2, Operand::Imm(0xF_FFFC));
        let off2w = b.cvt(Type::U64, Type::U32, off2);
        let a2 = b.add(Type::U64, inp, off2w);
        let v2 = b.ld(Space::Global, Type::U32, a2);
        b.binary_to(BinOp::Add, Type::U32, acc, acc, v2);
    }
    b.end_loop(l);
    let oaddr = b.wide_address(out, tid, 4);
    b.st(Space::Global, Type::U32, oaddr, acc);
    let k = b.finish();

    let cfg = GpuConfig::fermi();
    let launch = LaunchConfig::new(1, 32)
        .with_param("inp", 0x10_0000)
        .with_param("out", 0x20_0000);
    let dk = crat_sim::decode(&k).unwrap();
    let full = crat_sim::simulate_decoded(&dk, &cfg, &launch, 24, Some(1), None).unwrap();
    assert!(
        full.cycles > 20_000,
        "kernel too short ({} cycles) to exercise large jumps",
        full.cycles
    );

    // An already-expired deadline: the very first countdown expiry must
    // cancel the run, no matter how far single iterations jump.
    let res = crat_sim::simulate_decoded(&dk, &cfg, &launch, 24, Some(1), Some(Instant::now()));
    match res {
        Err(crat_sim::SimError::DeadlineExceeded { cycles }) => {
            // One check interval plus at most one stall-window jump —
            // far from the full run.
            assert!(
                cycles < full.cycles / 2,
                "deadline fired at cycle {cycles} of {}: not prompt",
                full.cycles
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Lanes` yields exactly the set bits of its mask, in ascending
    /// order, for arbitrary masks.
    #[test]
    fn lanes_iterates_set_bits_ascending(mask in any::<u32>()) {
        let got: Vec<usize> = Lanes(mask).collect();
        let want: Vec<usize> = (0..32).filter(|&i| mask >> i & 1 == 1).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(Lanes(mask).count(), mask.count_ones() as usize);
    }

    #[test]
    fn random_kernels_are_bit_identical(r in recipe()) {
        let k = build(&r);
        let launch = LaunchConfig::new(4, 64)
            .with_param("inp", 0x10_0000)
            .with_param("out", 0x20_0000);
        let cfg = GpuConfig::fermi();
        let new = crat_sim::simulate_capture(&k, &cfg, &launch, 24, Some(2));
        let old = crat_sim::reference::simulate_capture(&k, &cfg, &launch, 24, Some(2));
        prop_assert_eq!(new, old);
        // The value-sliced path skips the lane work the statistics
        // cannot see; the reference computes every lane.
        let sliced = crat_sim::simulate(&k, &cfg, &launch, 24, Some(2));
        let full = crat_sim::reference::simulate(&k, &cfg, &launch, 24, Some(2));
        prop_assert_eq!(sliced, full);
    }

    /// Bulk attribution folding (fast-forward jumps charging N cycles
    /// in one O(1) step) must be bit-identical to the reference
    /// interpreter's cycle-at-a-time attribution, on random kernels,
    /// across every scheduler. `Some(1)` pins the sole-resident-warp
    /// shape; uncapped TLP exercises multi-warp wake ordering through
    /// the ready queues.
    #[test]
    fn bulk_attribution_matches_per_cycle_on_random_kernels(r in recipe()) {
        let k = build(&r);
        let launch = LaunchConfig::new(4, 64)
            .with_param("inp", 0x10_0000)
            .with_param("out", 0x20_0000);
        for sched in [SchedulerKind::Gto, SchedulerKind::Lrr] {
            let mut cfg = GpuConfig::fermi();
            cfg.scheduler = sched;
            for tlp in [None, Some(1)] {
                let new = crat_sim::simulate(&k, &cfg, &launch, 24, tlp);
                let old = crat_sim::reference::simulate(&k, &cfg, &launch, 24, tlp);
                match (&new, &old) {
                    (Ok(ns), Ok(os)) => {
                        if let Err(e) = ns.attribution.check(ns.cycles) {
                            return Err(TestCaseError::fail(format!("{sched:?}/{tlp:?}: {e}")));
                        }
                        prop_assert!(
                            ns == os,
                            "SimStats diverge under {:?}/{:?}:\n  {}",
                            sched, tlp, ns.diff(os).join("\n  ")
                        );
                    }
                    _ => prop_assert_eq!(new, old),
                }
            }
        }
    }

    /// The attribution invariant on random kernels, across every
    /// scheduler and both capped and uncapped TLP: each scheduler's
    /// cause counts are exclusive and sum exactly to `cycles`, and
    /// issued slots reconcile with `warp_insts`.
    #[test]
    fn attribution_invariant_on_random_kernels(r in recipe()) {
        let k = build(&r);
        let launch = LaunchConfig::new(4, 64)
            .with_param("inp", 0x10_0000)
            .with_param("out", 0x20_0000);
        for sched in [SchedulerKind::Gto, SchedulerKind::Lrr] {
            let mut cfg = GpuConfig::fermi();
            cfg.scheduler = sched;
            for tlp in [None, Some(2)] {
                let stats = crat_sim::simulate(&k, &cfg, &launch, 24, tlp).unwrap();
                if let Err(e) = stats.attribution.check(stats.cycles) {
                    return Err(TestCaseError::fail(format!("{sched:?}/{tlp:?}: {e}")));
                }
                let issued = stats.attribution.cause(crat_sim::StallCause::Issued);
                prop_assert!(issued <= stats.warp_insts);
                // The final scheduler iteration (the one that retires
                // the last block) is only committed on zero-cycle runs,
                // so issued slots may trail warp_insts by at most one
                // slot per scheduler.
                prop_assert!(stats.warp_insts - issued <= u64::from(cfg.num_schedulers));
            }
        }
    }
}
