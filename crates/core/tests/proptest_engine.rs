//! Property test for the evaluation engine's memo cache: for randomly
//! generated kernels and operating points, a cache hit — including one
//! reached through an equivalent TLP cap — returns exactly what a fresh
//! simulation would.

use proptest::prelude::*;

use crat_core::engine::EvalEngine;
use crat_ptx::{Address, BinOp, KernelBuilder, Operand, Space, Type};
use crat_sim::{GpuConfig, LaunchConfig};

/// One straight-line kernel-building step.
#[derive(Debug, Clone)]
enum Step {
    /// Binary op on the two freshest values.
    Binary(BinOp),
    /// Materialize an immediate.
    Imm(i64),
    /// Global load at a small offset.
    Load(u8),
    /// Global store of the freshest value at a small offset.
    Store(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        prop::sample::select(vec![BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And])
            .prop_map(Step::Binary),
        (-1000i64..1000).prop_map(Step::Imm),
        any::<u8>().prop_map(Step::Load),
        any::<u8>().prop_map(Step::Store),
    ]
}

/// Build a small, valid, straight-line kernel from the steps: every
/// step consumes the freshest `u32` values, so any step list yields a
/// well-formed kernel.
fn build(steps: &[Step]) -> crat_ptx::Kernel {
    let mut b = KernelBuilder::new("prop_engine");
    let ptr = b.param_ptr("p");
    let tid = b.special_tid_x(Type::U32);
    let mut vals = vec![tid];
    for step in steps {
        match *step {
            Step::Imm(v) => vals.push(b.mov(Type::U32, Operand::Imm(v))),
            Step::Binary(op) => {
                let x = vals[vals.len() - 1];
                let y = vals[vals.len().saturating_sub(2)];
                vals.push(b.binary(op, Type::U32, x, y));
            }
            Step::Load(off) => vals.push(b.ld(
                Space::Global,
                Type::U32,
                Address::reg_offset(ptr, off as i64 * 4),
            )),
            Step::Store(off) => {
                let x = *vals.last().expect("tid seeds the list");
                b.st(
                    Space::Global,
                    Type::U32,
                    Address::reg_offset(ptr, off as i64 * 4),
                    x,
                );
            }
        }
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_hit_equals_fresh_simulation(
        steps in prop::collection::vec(step_strategy(), 1..24),
        grid in 1u32..16,
        regs in 8u32..24,
        tlp in prop::option::of(1u32..4),
    ) {
        let kernel = build(&steps);
        prop_assert_eq!(kernel.validate(), Ok(()));
        let gpu = GpuConfig::fermi();
        let launch = LaunchConfig::new(grid, 64).with_param("p", 0x1000_0000);

        let engine = EvalEngine::serial();
        let cold = engine.simulate(&kernel, &gpu, &launch, regs, tlp);
        let warm = engine.simulate(&kernel, &gpu, &launch, regs, tlp);
        // The cap that names the resident blocks outright is the same
        // operating point, so it is a hit on the same slot.
        let resident = crat_sim::resident_blocks(&gpu, &launch, regs, kernel.shared_bytes(), tlp);
        let equivalent = engine.simulate(&kernel, &gpu, &launch, regs, Some(resident));
        let fresh = crat_sim::simulate(&kernel, &gpu, &launch, regs, tlp)
            .map_err(crat_core::CratError::Sim);
        prop_assert_eq!(&cold, &warm, "cache hit diverged from the cached run");
        prop_assert_eq!(&warm, &fresh, "cache hit diverged from a fresh simulation");
        prop_assert_eq!(&equivalent, &fresh, "equivalent cap diverged from a fresh simulation");

        let stats = engine.stats();
        prop_assert_eq!(stats.sims_executed, 1);
        prop_assert_eq!(stats.cache_hits, 2);
    }
}
