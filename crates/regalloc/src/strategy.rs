//! The allocator roster's one dispatch point.
//!
//! The TPSC winner is decided by *how few registers an allocator can
//! reach at acceptable spill cost*, a knob different algorithms turn
//! differently, so the design-point sweep runs a roster of strategies
//! per point and keeps the best. [`StrategyKind`] names them and
//! [`StrategyKind::allocate`] runs one:
//!
//! * [`StrategyKind::Briggs`] — the build–color–spill allocator
//!   ([`crate::allocate`]), today's default;
//! * [`StrategyKind::SchedBriggs`] — the min-reg pre-scheduler
//!   ([`crate::min_reg_schedule`]) composed with Briggs;
//! * [`StrategyKind::Ssa`] — Braun–Hack-style spill minimization
//!   ([`crate::allocate_ssa`]): Briggs' loop with a Belady pre-pass
//!   that picks spill candidates by furthest next use before coloring;
//! * [`StrategyKind::LinearScan`] — the Poletto–Sarkar scan
//!   ([`crate::allocate_linear_scan`]), kept as the degradation rung
//!   rather than a roster member.
//!
//! Each allocation asks its caller for the budget-independent
//! analyses ([`AllocContext`]) of the kernel it allocates, so a
//! caching engine (crat-core's `EvalEngine`) can share one context
//! across every strategy and budget that allocates the same kernel.

use std::fmt;
use std::sync::Arc;

use crat_ptx::Kernel;

use crate::context::AllocContext;
use crate::sched::min_reg_schedule;
use crate::{
    allocate_linear_scan_with, allocate_ssa_with, allocate_with, AllocError, AllocOptions,
    Allocation,
};

/// Identifies one allocation strategy.
///
/// This is the per-strategy identifier shared by the whole stack: the
/// roster in `crat-core`'s pipeline, the engine's per-strategy
/// counters, the CLI's `--alloc-strategy` flag and report columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Chaitin–Briggs build–color–spill ([`crate::allocate`]).
    Briggs,
    /// Min-reg pre-scheduling followed by Briggs.
    SchedBriggs,
    /// Braun–Hack SSA spill minimization ([`crate::allocate_ssa`]).
    Ssa,
    /// Linear scan ([`crate::allocate_linear_scan`]); the degradation
    /// rung, not a roster member.
    LinearScan,
}

impl StrategyKind {
    /// Every strategy, in counter-index order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Briggs,
        StrategyKind::SchedBriggs,
        StrategyKind::Ssa,
        StrategyKind::LinearScan,
    ];

    /// The default competition roster, in escalation order.
    pub const ROSTER: [StrategyKind; 3] = [
        StrategyKind::Briggs,
        StrategyKind::SchedBriggs,
        StrategyKind::Ssa,
    ];

    /// A dense index for per-strategy counter arrays.
    pub fn index(self) -> usize {
        match self {
            StrategyKind::Briggs => 0,
            StrategyKind::SchedBriggs => 1,
            StrategyKind::Ssa => 2,
            StrategyKind::LinearScan => 3,
        }
    }

    /// Human-readable label used in reports and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Briggs => "briggs",
            StrategyKind::SchedBriggs => "sched+briggs",
            StrategyKind::Ssa => "ssa",
            StrategyKind::LinearScan => "linear-scan",
        }
    }

    /// A snake_case identifier for machine-readable exports (JSON
    /// keys, CSV stat names): [`label`](Self::label) with `+`/`-`
    /// normalized to `_`. Stable — metrics documents and the
    /// persistent store key on it.
    pub fn json_key(self) -> &'static str {
        match self {
            StrategyKind::Briggs => "briggs",
            StrategyKind::SchedBriggs => "sched_briggs",
            StrategyKind::Ssa => "ssa",
            StrategyKind::LinearScan => "linear_scan",
        }
    }

    /// Parse a CLI spelling (`briggs`, `sched-briggs`, `ssa`,
    /// `linear-scan`); `sched+briggs` is accepted as an alias.
    pub fn parse(s: &str) -> Option<StrategyKind> {
        match s {
            "briggs" => Some(StrategyKind::Briggs),
            "sched-briggs" | "sched+briggs" => Some(StrategyKind::SchedBriggs),
            "ssa" => Some(StrategyKind::Ssa),
            "linear-scan" => Some(StrategyKind::LinearScan),
            _ => None,
        }
    }

    /// Allocate `kernel` within `opts` with this strategy. `ctx`
    /// returns the [`AllocContext`] of the kernel it is handed, which
    /// is the kernel actually allocated: the scheduled one for
    /// [`StrategyKind::SchedBriggs`]. It is called once per
    /// allocation.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`crate::allocate`].
    pub fn allocate(
        self,
        kernel: &Kernel,
        ctx: impl FnOnce(&Kernel) -> Arc<AllocContext>,
        opts: &AllocOptions,
    ) -> Result<Allocation, AllocError> {
        match self {
            StrategyKind::Briggs => allocate_with(kernel, &ctx(kernel), opts),
            StrategyKind::SchedBriggs => {
                let (scheduled, _report) = min_reg_schedule(kernel);
                allocate_with(&scheduled, &ctx(&scheduled), opts)
            }
            StrategyKind::Ssa => allocate_ssa_with(kernel, &ctx(kernel), opts),
            StrategyKind::LinearScan => allocate_linear_scan_with(kernel, &ctx(kernel), opts),
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_ptx::{KernelBuilder, Operand, Type};

    fn small_kernel() -> Kernel {
        let mut b = KernelBuilder::new("strategy_smoke");
        let accs: Vec<_> = (0..8).map(|i| b.mov(Type::U32, Operand::Imm(i))).collect();
        let mut sum = accs[0];
        for &a in &accs[1..] {
            sum = b.add(Type::U32, sum, a);
        }
        b.finish()
    }

    #[test]
    fn kinds_round_trip_labels() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(StrategyKind::parse("nope"), None);
        assert_eq!(
            StrategyKind::parse("sched-briggs"),
            Some(StrategyKind::SchedBriggs)
        );
    }

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, kind) in StrategyKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    fn fresh(kernel: &Kernel) -> Arc<AllocContext> {
        Arc::new(AllocContext::build(kernel))
    }

    #[test]
    fn every_strategy_allocates_a_small_kernel() {
        let k = small_kernel();
        for kind in StrategyKind::ALL {
            let a = kind
                .allocate(&k, fresh, &AllocOptions::new(16))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(a.slots_used <= 16, "{kind}");
            assert!(a.kernel.validate().is_ok(), "{kind}");
        }
    }

    #[test]
    fn briggs_strategy_matches_direct_allocate() {
        let k = small_kernel();
        let direct = crate::allocate(&k, &AllocOptions::new(6)).unwrap();
        let via = StrategyKind::Briggs
            .allocate(&k, fresh, &AllocOptions::new(6))
            .unwrap();
        assert_eq!(direct, via);
    }
}
