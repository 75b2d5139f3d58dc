//! Vector lane execution: whole-register-row kernels for the decoded
//! cycle loop.
//!
//! The register file is lane-major (`[u64; 32]` per virtual register),
//! so a warp instruction can execute as one pass over full rows instead
//! of a scalar `for lane in mask` loop that re-dispatches the opcode
//! and type match per lane. Every kernel here hoists that match out of
//! the loop: the `(op, ty)` pair is resolved once per warp instruction,
//! and each match arm runs a fixed-size chunked loop (4 × u64 lanes per
//! chunk) that LLVM turns into SIMD code for the baseline target (SSE2
//! on x86-64) on stable Rust — no `std::simd`, no intrinsics, and no
//! runtime CPU-feature dispatch: an AVX2 clone of every kernel, picked
//! per call, measured no faster end to end.
//!
//! Masking: kernels always compute all 32 lanes into a caller-provided
//! temporary row, and [`blend`] commits only the active lanes. This is
//! bit-identical to the scalar per-lane loop because every operation in
//! [`crat_ptx::eval`] is total and deterministic (division by zero
//! yields 0, float ops produce IEEE results on any bit pattern), each
//! lane's output depends only on that lane's inputs, and inactive
//! lanes' results are discarded by the blend. The one freedom IEEE
//! leaves, which operand's payload a NaN result carries, the compiler
//! may spend differently in vector and scalar code; `first_nan_f32`
//! pins it where that happens. Kernels take *raw* rows:
//! the width truncation `typed_src` applies on the scalar path is
//! subsumed by each arm's own casts (`as u32`, `f32::from_bits(v as
//! u32)`, `!= 0`), which is the same normalization.
//!
//! What stays scalar (the fallback the dispatcher in `machine.rs`
//! takes): SFU work (transcendental unaries and integer div/rem — one
//! libm/checked-div call per lane), and the functional half of memory
//! instructions (gather/scatter at lane-divergent addresses). Memory
//! *address resolution* is vectorized via [`add_imm_rows`].

#[cfg(test)]
use crat_ptx::eval as interp;
use crat_ptx::{BinOp, CmpOp, Type, UnOp};

/// One register row: the 32 lanes' raw bit patterns.
pub type Row = [u64; 32];

/// Warp width.
pub const WARP: usize = 32;

/// Lanes per vectorization chunk: four `u64`s, two 128-bit SSE2
/// vectors on the baseline x86-64 target.
const CHUNK: usize = 4;

/// Apply `f` lane-wise over one source row. The closure is monomorphic
/// per call site (one per match arm), so each instance compiles to its
/// own chunked loop with `f` inlined.
#[inline(always)]
fn map1(a: &Row, out: &mut Row, f: impl Fn(u64) -> u64) {
    for c in 0..WARP / CHUNK {
        for k in c * CHUNK..(c + 1) * CHUNK {
            out[k] = f(a[k]);
        }
    }
}

/// Apply `f` lane-wise over two source rows.
#[inline(always)]
fn map2(a: &Row, b: &Row, out: &mut Row, f: impl Fn(u64, u64) -> u64) {
    for c in 0..WARP / CHUNK {
        for k in c * CHUNK..(c + 1) * CHUNK {
            out[k] = f(a[k], b[k]);
        }
    }
}

/// Apply `f` lane-wise over three source rows.
#[inline(always)]
fn map3(a: &Row, b: &Row, c_: &Row, out: &mut Row, f: impl Fn(u64, u64, u64) -> u64) {
    for c in 0..WARP / CHUNK {
        for k in c * CHUNK..(c + 1) * CHUNK {
            out[k] = f(a[k], b[k], c_[k]);
        }
    }
}

/// Commit `tmp` into `dst` under `mask`: lane `k` takes `tmp[k]` when
/// bit `k` is set and keeps `dst[k]` otherwise. A fully-active warp is
/// a plain row copy; partial masks use a branch-free select so the
/// blend itself vectorizes.
pub fn blend(dst: &mut Row, tmp: &Row, mask: u32) {
    if mask == u32::MAX {
        *dst = *tmp;
        return;
    }
    for c in 0..WARP / CHUNK {
        for k in c * CHUNK..(c + 1) * CHUNK {
            let take = 0u64.wrapping_sub(u64::from((mask >> k) & 1));
            dst[k] = (tmp[k] & take) | (dst[k] & !take);
        }
    }
}

/// The lanes of `row` holding a non-zero value, as a bit mask. One
/// vectorized pass over the row — this is how guard predicates and
/// branch votes read a predicate register once instead of per lane.
pub fn nonzero_mask(row: &Row) -> u32 {
    let mut m = 0u32;
    for (k, &v) in row.iter().enumerate() {
        m |= u32::from(v != 0) << k;
    }
    m
}

/// `out[k] = base[k] + imm` (wrapping): vectorized address resolution
/// for register-based memory operands.
pub fn add_imm_rows(base: &Row, imm: u64, out: &mut Row) {
    map1(base, out, |v| v.wrapping_add(imm));
}

/// `out[k] = truncate(ty, a[k])`: the register-to-register `mov` and
/// store-source normalization.
pub fn trunc_rows(ty: Type, a: &Row, out: &mut Row) {
    match ty {
        Type::U32 | Type::S32 | Type::F32 => map1(a, out, |v| v & 0xFFFF_FFFF),
        Type::U64 | Type::F64 => *out = *a,
        Type::Pred => map1(a, out, |v| u64::from(v != 0)),
    }
}

macro_rules! int_binary_arms {
    ($op:expr, $a:expr, $b:expr, $out:expr, $lane:ty, $full:ty, $shift_mask:expr) => {{
        // One chunked loop per opcode: the match runs once per warp
        // instruction, not per lane.
        match $op {
            BinOp::Add => map2($a, $b, $out, |x, y| {
                (x as $lane).wrapping_add(y as $lane) as $full as u64
            }),
            BinOp::Sub => map2($a, $b, $out, |x, y| {
                (x as $lane).wrapping_sub(y as $lane) as $full as u64
            }),
            BinOp::Mul => map2($a, $b, $out, |x, y| {
                (x as $lane).wrapping_mul(y as $lane) as $full as u64
            }),
            BinOp::Div => map2($a, $b, $out, |x, y| {
                (x as $lane).checked_div(y as $lane).unwrap_or(0) as $full as u64
            }),
            BinOp::Rem => map2($a, $b, $out, |x, y| {
                (x as $lane).checked_rem(y as $lane).unwrap_or(0) as $full as u64
            }),
            BinOp::Min => map2($a, $b, $out, |x, y| {
                (x as $lane).min(y as $lane) as $full as u64
            }),
            BinOp::Max => map2($a, $b, $out, |x, y| {
                (x as $lane).max(y as $lane) as $full as u64
            }),
            BinOp::And => map2($a, $b, $out, |x, y| {
                ((x as $lane) & (y as $lane)) as $full as u64
            }),
            BinOp::Or => map2($a, $b, $out, |x, y| {
                ((x as $lane) | (y as $lane)) as $full as u64
            }),
            BinOp::Xor => map2($a, $b, $out, |x, y| {
                ((x as $lane) ^ (y as $lane)) as $full as u64
            }),
            BinOp::Shl => map2($a, $b, $out, |x, y| {
                (x as $lane).wrapping_shl((y as $full as u64 & $shift_mask) as u32) as $full as u64
            }),
            BinOp::Shr => map2($a, $b, $out, |x, y| {
                (x as $lane).wrapping_shr((y as $full as u64 & $shift_mask) as u32) as $full as u64
            }),
        }
    }};
}

macro_rules! float_binary_arms {
    ($op:expr, $a:expr, $b:expr, $out:expr, $of:path, $to:path, $first_nan:path) => {{
        match $op {
            BinOp::Add => map2($a, $b, $out, |x, y| {
                $to($first_nan($of(x), $of(x) + $of(y)))
            }),
            BinOp::Sub => map2($a, $b, $out, |x, y| $to($of(x) - $of(y))),
            BinOp::Mul => map2($a, $b, $out, |x, y| {
                $to($first_nan($of(x), $of(x) * $of(y)))
            }),
            BinOp::Div => map2($a, $b, $out, |x, y| $to($of(x) / $of(y))),
            BinOp::Rem => map2($a, $b, $out, |x, y| $to($of(x) % $of(y))),
            BinOp::Min => map2($a, $b, $out, |x, y| $to($of(x).min($of(y)))),
            BinOp::Max => map2($a, $b, $out, |x, y| $to($of(x).max($of(y)))),
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
                unreachable!("bitwise op on float rejected by validation")
            }
        }
    }};
}

/// `r`, or the quieted `x` when `x` is NaN. The scalar path's `x + y`
/// and `x * y` compile to one x86 instruction with `x` first, which
/// returns `x` (quieted) whenever it is NaN. LLVM treats both ops as
/// commutative, and the vectorized loops compiled for the baseline
/// target swap the operands, so a lane where both are NaN would carry
/// `y`'s payload instead; this pins the scalar result. (Sub and div
/// are not commutative and keep their order; min, max and mad already
/// match.)
#[inline(always)]
fn first_nan_f32(x: f32, r: f32) -> f32 {
    if x.is_nan() {
        f32::from_bits(x.to_bits() | 0x0040_0000)
    } else {
        r
    }
}

/// [`first_nan_f32`] for `f64`.
#[inline(always)]
fn first_nan_f64(x: f64, r: f64) -> f64 {
    if x.is_nan() {
        f64::from_bits(x.to_bits() | 0x0008_0000_0000_0000)
    } else {
        r
    }
}

#[inline]
fn f32_of(v: u64) -> f32 {
    f32::from_bits(v as u32)
}

#[inline]
fn of_f32(v: f32) -> u64 {
    v.to_bits() as u64
}

#[inline]
fn f64_of(v: u64) -> f64 {
    f64::from_bits(v)
}

#[inline]
fn of_f64(v: f64) -> u64 {
    v.to_bits()
}

/// Whole-row [`interp::binary_op`]: `out[k] = binary_op(op, ty, a[k],
/// b[k])` for all 32 lanes.
pub fn binary_rows(op: BinOp, ty: Type, a: &Row, b: &Row, out: &mut Row) {
    match ty {
        Type::U32 => int_binary_arms!(op, a, b, out, u32, u32, 31),
        Type::S32 => int_binary_arms!(op, a, b, out, i32, u32, 31),
        Type::U64 => int_binary_arms!(op, a, b, out, u64, u64, 63),
        Type::F32 => float_binary_arms!(op, a, b, out, f32_of, of_f32, first_nan_f32),
        Type::F64 => float_binary_arms!(op, a, b, out, f64_of, of_f64, first_nan_f64),
        Type::Pred => match op {
            BinOp::And => map2(a, b, out, |x, y| u64::from((x != 0) & (y != 0))),
            BinOp::Or => map2(a, b, out, |x, y| u64::from((x != 0) | (y != 0))),
            BinOp::Xor => map2(a, b, out, |x, y| u64::from((x != 0) ^ (y != 0))),
            // Other ops on predicates are rejected by validation; the
            // scalar semantics pass the (normalized) left operand
            // through, so mirror that.
            _ => map1(a, out, |x| u64::from(x != 0)),
        },
    }
}

/// Whole-row non-SFU [`interp::unary_op`] (`neg`/`abs`/`not`; the
/// transcendental ops take the scalar SFU fallback in `machine.rs`).
pub fn unary_rows(op: UnOp, ty: Type, a: &Row, out: &mut Row) {
    match ty {
        Type::U32 | Type::S32 => match op {
            UnOp::Neg => map1(a, out, |v| (v as i32).wrapping_neg() as u32 as u64),
            UnOp::Not => map1(a, out, |v| !(v as u32) as u64),
            UnOp::Abs => map1(a, out, |v| (v as i32).wrapping_abs() as u32 as u64),
            _ => map1(a, out, |v| (v as u32) as u64),
        },
        Type::U64 => match op {
            UnOp::Neg => map1(a, out, |v| (v as i64).wrapping_neg() as u64),
            UnOp::Not => map1(a, out, |v| !v),
            UnOp::Abs => map1(a, out, |v| (v as i64).wrapping_abs() as u64),
            _ => *out = *a,
        },
        Type::F32 => match op {
            UnOp::Neg => map1(a, out, |v| of_f32(-f32_of(v))),
            UnOp::Abs => map1(a, out, |v| of_f32(f32_of(v).abs())),
            _ => unreachable!("transcendental f32 unary takes the SFU fallback"),
        },
        Type::F64 => match op {
            UnOp::Neg => map1(a, out, |v| of_f64(-f64_of(v))),
            UnOp::Abs => map1(a, out, |v| of_f64(f64_of(v).abs())),
            _ => unreachable!("transcendental f64 unary takes the SFU fallback"),
        },
        Type::Pred => map1(a, out, |v| u64::from(v == 0)),
    }
}

/// Whole-row [`interp::mad_op`]: integer mad is mul-then-add with the
/// type's wrapping semantics; float mad is a fused `mul_add`, exactly
/// as on the scalar path.
pub fn mad_rows(ty: Type, a: &Row, b: &Row, c: &Row, out: &mut Row) {
    match ty {
        Type::F32 => map3(a, b, c, out, |x, y, z| {
            of_f32(crat_ptx::eval::fma_f32(f32_of(x), f32_of(y), f32_of(z)))
        }),
        Type::F64 => map3(a, b, c, out, |x, y, z| {
            of_f64(crat_ptx::eval::fma_f64(f64_of(x), f64_of(y), f64_of(z)))
        }),
        Type::U32 | Type::S32 => map3(a, b, c, out, |x, y, z| {
            (x as u32).wrapping_mul(y as u32).wrapping_add(z as u32) as u64
        }),
        Type::U64 => map3(a, b, c, out, |x, y, z| x.wrapping_mul(y).wrapping_add(z)),
        // Validation rejects mad on predicates; mirror the scalar
        // composition (mul passes the left operand through, add too).
        Type::Pred => map1(a, out, |x| u64::from(x != 0)),
    }
}

macro_rules! cmp_arms {
    ($cmp:expr, $a:expr, $b:expr, $out:expr, $conv:expr) => {{
        let conv = $conv;
        match $cmp {
            CmpOp::Eq => map2($a, $b, $out, |x, y| u64::from(conv(x) == conv(y))),
            CmpOp::Ne => map2($a, $b, $out, |x, y| u64::from(conv(x) != conv(y))),
            CmpOp::Lt => map2($a, $b, $out, |x, y| u64::from(conv(x) < conv(y))),
            CmpOp::Le => map2($a, $b, $out, |x, y| u64::from(conv(x) <= conv(y))),
            CmpOp::Gt => map2($a, $b, $out, |x, y| u64::from(conv(x) > conv(y))),
            CmpOp::Ge => map2($a, $b, $out, |x, y| u64::from(conv(x) >= conv(y))),
        }
    }};
}

/// Whole-row [`interp::cmp_op`], writing `1`/`0` predicates.
pub fn setp_rows(cmp: CmpOp, ty: Type, a: &Row, b: &Row, out: &mut Row) {
    match ty {
        Type::U32 => cmp_arms!(cmp, a, b, out, |v: u64| v as u32),
        Type::S32 => cmp_arms!(cmp, a, b, out, |v: u64| v as u32 as i32),
        Type::U64 => cmp_arms!(cmp, a, b, out, |v: u64| v),
        // The scalar path widens f32 comparisons to f64; keep that.
        Type::F32 => cmp_arms!(cmp, a, b, out, |v: u64| f32_of(v) as f64),
        Type::F64 => cmp_arms!(cmp, a, b, out, |v: u64| f64_of(v)),
        Type::Pred => cmp_arms!(cmp, a, b, out, |v: u64| u64::from(v != 0)),
    }
}

/// Whole-row `selp`: `out[k] = truncate(ty, if pred[k] != 0 { a[k] }
/// else { b[k] })` (the scalar path truncates the operands before the
/// select; selecting first and truncating after is the same value).
pub fn selp_rows(ty: Type, a: &Row, b: &Row, pred: &Row, out: &mut Row) {
    match ty {
        Type::U32 | Type::S32 | Type::F32 => map3(a, b, pred, out, |x, y, p| {
            (if p != 0 { x } else { y }) & 0xFFFF_FFFF
        }),
        Type::U64 | Type::F64 => map3(a, b, pred, out, |x, y, p| if p != 0 { x } else { y }),
        Type::Pred => map3(a, b, pred, out, |x, y, p| {
            u64::from((if p != 0 { x } else { y }) != 0)
        }),
    }
}

/// Whole-row [`interp::cvt_op`]: the `(dst_ty, src_ty)` pair is matched
/// once, then one chunked loop converts all lanes.
pub fn cvt_rows(dst_ty: Type, src_ty: Type, a: &Row, out: &mut Row) {
    match (src_ty, dst_ty) {
        (s, d) if s == d => trunc_rows(d, a, out),
        (Type::U32, Type::U64) => map1(a, out, |v| v & 0xFFFF_FFFF),
        (Type::S32, Type::U64) => map1(a, out, |v| (v as u32 as i32) as i64 as u64),
        (Type::U64, Type::U32)
        | (Type::U32, Type::S32)
        | (Type::S32, Type::U32)
        | (Type::U64, Type::S32) => map1(a, out, |v| v & 0xFFFF_FFFF),
        (Type::U32, Type::F32) => map1(a, out, |v| of_f32(v as u32 as f32)),
        (Type::S32, Type::F32) => map1(a, out, |v| of_f32((v as u32 as i32) as f32)),
        (Type::U32, Type::F64) => map1(a, out, |v| of_f64(v as u32 as f64)),
        (Type::S32, Type::F64) => map1(a, out, |v| of_f64((v as u32 as i32) as f64)),
        (Type::U64, Type::F32) => map1(a, out, |v| of_f32(v as f32)),
        (Type::U64, Type::F64) => map1(a, out, |v| of_f64(v as f64)),
        (Type::F32, Type::U32) => map1(a, out, |v| (f32_of(v).max(0.0) as u32) as u64),
        (Type::F32, Type::S32) => map1(a, out, |v| (f32_of(v) as i32) as u32 as u64),
        (Type::F32, Type::U64) => map1(a, out, |v| f32_of(v).max(0.0) as u64),
        (Type::F32, Type::F64) => map1(a, out, |v| of_f64(f32_of(v) as f64)),
        (Type::F64, Type::U32) => map1(a, out, |v| (f64_of(v).max(0.0) as u32) as u64),
        (Type::F64, Type::S32) => map1(a, out, |v| (f64_of(v) as i32) as u32 as u64),
        (Type::F64, Type::U64) => map1(a, out, |v| f64_of(v).max(0.0) as u64),
        (Type::F64, Type::F32) => map1(a, out, |v| of_f32(f64_of(v) as f32)),
        (Type::Pred, d) => {
            let mut norm = [0u64; WARP];
            map1(a, &mut norm, |v| u64::from(v != 0));
            trunc_rows(d, &norm, out);
        }
        (s, Type::Pred) => {
            let mut norm = [0u64; WARP];
            trunc_rows(s, a, &mut norm);
            map1(&norm, out, |v| u64::from(v != 0));
        }
        // Unreachable (same-type pairs hit the guard arm), mirrored
        // from the scalar match to stay exhaustive.
        (_, d) => trunc_rows(d, a, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row exercising every interesting bit pattern: zeros, all-ones,
    /// sign bits, float payloads, NaN-ish patterns, and garbage in the
    /// upper 32 bits (raw rows may carry wide values read narrowly).
    fn patterned_row(seed: u64) -> Row {
        let mut r = [0u64; WARP];
        for (k, v) in r.iter_mut().enumerate() {
            *v = interp::default_memory_value(seed.wrapping_add(k as u64 * 17));
        }
        r[0] = 0;
        r[1] = u64::MAX;
        r[2] = 1 << 31;
        r[3] = 0xFFFF_FFFF;
        r[4] = (-3.5f32).to_bits() as u64;
        r[5] = 2.0f64.to_bits();
        r[6] = f32::NAN.to_bits() as u64 | 0xDEAD_0000_0000_0000;
        r[7] = 7;
        r
    }

    const ALL_TYPES: [Type; 6] = [
        Type::U32,
        Type::S32,
        Type::U64,
        Type::F32,
        Type::F64,
        Type::Pred,
    ];

    #[test]
    fn binary_rows_match_scalar_semantics() {
        let mut a = patterned_row(1);
        let mut b = patterned_row(2);
        // Lanes where both operands are NaN with different payloads
        // (f32 in lane 6, f64 in lane 8): the scalar path returns the
        // first one, quieted. Only optimized builds vectorize the rows,
        // so only `cargo test --release` can see a swapped operand.
        b[6] = 0xFFE5_03C9;
        a[8] = 0x7FF4_0000_0000_0001;
        b[8] = 0xFFF8_0000_0000_1234;
        for ty in ALL_TYPES {
            for op in [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Rem,
                BinOp::Min,
                BinOp::Max,
                BinOp::And,
                BinOp::Or,
                BinOp::Xor,
                BinOp::Shl,
                BinOp::Shr,
            ] {
                let float = matches!(ty, Type::F32 | Type::F64);
                let bitwise = matches!(
                    op,
                    BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                );
                if float && bitwise {
                    continue; // rejected by validation
                }
                let mut out = [0u64; WARP];
                binary_rows(op, ty, &a, &b, &mut out);
                for k in 0..WARP {
                    let x = interp::truncate(ty, a[k]);
                    let y = interp::truncate(ty, b[k]);
                    assert_eq!(
                        out[k],
                        interp::binary_op(op, ty, x, y),
                        "{op:?} {ty:?} lane {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn unary_rows_match_scalar_semantics() {
        let a = patterned_row(3);
        for ty in ALL_TYPES {
            for op in [UnOp::Neg, UnOp::Not, UnOp::Abs] {
                if matches!(ty, Type::F32 | Type::F64) && op == UnOp::Not {
                    continue; // rejected by validation
                }
                let mut out = [0u64; WARP];
                unary_rows(op, ty, &a, &mut out);
                for k in 0..WARP {
                    let x = interp::truncate(ty, a[k]);
                    assert_eq!(
                        out[k],
                        interp::unary_op(op, ty, x),
                        "{op:?} {ty:?} lane {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn mad_rows_match_scalar_semantics() {
        let a = patterned_row(4);
        let b = patterned_row(5);
        let c = patterned_row(6);
        for ty in [Type::U32, Type::S32, Type::U64, Type::F32, Type::F64] {
            let mut out = [0u64; WARP];
            mad_rows(ty, &a, &b, &c, &mut out);
            for k in 0..WARP {
                let x = interp::truncate(ty, a[k]);
                let y = interp::truncate(ty, b[k]);
                let z = interp::truncate(ty, c[k]);
                assert_eq!(out[k], interp::mad_op(ty, x, y, z), "{ty:?} lane {k}");
            }
        }
    }

    #[test]
    fn setp_rows_match_scalar_semantics() {
        let a = patterned_row(7);
        let b = patterned_row(8);
        for ty in ALL_TYPES {
            for cmp in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                let mut out = [0u64; WARP];
                setp_rows(cmp, ty, &a, &b, &mut out);
                for k in 0..WARP {
                    let x = interp::truncate(ty, a[k]);
                    let y = interp::truncate(ty, b[k]);
                    assert_eq!(
                        out[k],
                        u64::from(interp::cmp_op(cmp, ty, x, y)),
                        "{cmp:?} {ty:?} lane {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn selp_rows_match_scalar_semantics() {
        let a = patterned_row(9);
        let b = patterned_row(10);
        let p = patterned_row(11);
        for ty in ALL_TYPES {
            let mut out = [0u64; WARP];
            selp_rows(ty, &a, &b, &p, &mut out);
            for k in 0..WARP {
                let x = interp::truncate(ty, a[k]);
                let y = interp::truncate(ty, b[k]);
                let expect = if p[k] != 0 { x } else { y };
                assert_eq!(out[k], expect, "{ty:?} lane {k}");
            }
        }
    }

    #[test]
    fn cvt_rows_match_scalar_semantics() {
        let a = patterned_row(12);
        for src in ALL_TYPES {
            for dst in ALL_TYPES {
                let mut out = [0u64; WARP];
                cvt_rows(dst, src, &a, &mut out);
                for k in 0..WARP {
                    let v = interp::truncate(src, a[k]);
                    assert_eq!(
                        out[k],
                        interp::cvt_op(dst, src, v),
                        "{src:?} -> {dst:?} lane {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn trunc_rows_matches_truncate() {
        let a = patterned_row(13);
        for ty in ALL_TYPES {
            let mut out = [0u64; WARP];
            trunc_rows(ty, &a, &mut out);
            for k in 0..WARP {
                assert_eq!(out[k], interp::truncate(ty, a[k]), "{ty:?} lane {k}");
            }
        }
    }

    #[test]
    fn int_shift_semantics_mask_like_scalar() {
        // Shift counts mask to the lane width (31 / 63), with S32
        // shifting arithmetically — the corners the macro must keep.
        let mut a = [0u64; WARP];
        let mut b = [0u64; WARP];
        a[0] = 1;
        b[0] = 33; // u32: masked to 1
        a[1] = (-2i32) as u32 as u64;
        b[1] = 1; // s32: arithmetic shr
        a[2] = 1;
        b[2] = 64 + 3; // u64: masked to 3
        let mut out = [0u64; WARP];
        binary_rows(BinOp::Shl, Type::U32, &a, &b, &mut out);
        assert_eq!(out[0], 2);
        binary_rows(BinOp::Shr, Type::S32, &a, &b, &mut out);
        assert_eq!(out[1], (-1i32) as u32 as u64);
        binary_rows(BinOp::Shl, Type::U64, &a, &b, &mut out);
        assert_eq!(out[2], 8);
    }

    #[test]
    fn blend_commits_only_masked_lanes() {
        let dst0 = patterned_row(14);
        let tmp = patterned_row(15);
        for mask in [0u32, u32::MAX, 1, 1 << 31, 0x5555_5555, 0xAAAA_AAAA] {
            let mut dst = dst0;
            blend(&mut dst, &tmp, mask);
            for k in 0..WARP {
                let expect = if mask & (1 << k) != 0 {
                    tmp[k]
                } else {
                    dst0[k]
                };
                assert_eq!(dst[k], expect, "mask {mask:#x} lane {k}");
            }
        }
    }

    #[test]
    fn nonzero_mask_reads_all_lanes() {
        let mut row = [0u64; WARP];
        assert_eq!(nonzero_mask(&row), 0);
        row[0] = 1;
        row[5] = u64::MAX;
        row[31] = 0x1_0000_0000; // non-zero only above bit 31
        assert_eq!(nonzero_mask(&row), 1 | (1 << 5) | (1 << 31));
    }

    #[test]
    fn add_imm_rows_wraps() {
        let mut base = [0u64; WARP];
        base[0] = u64::MAX;
        base[1] = 100;
        let mut out = [0u64; WARP];
        add_imm_rows(&base, 8, &mut out);
        assert_eq!(out[0], 7);
        assert_eq!(out[1], 108);
        // Negative decoded offsets arrive as two's-complement u64.
        add_imm_rows(&base, (-4i64) as u64, &mut out);
        assert_eq!(out[1], 96);
    }
}
