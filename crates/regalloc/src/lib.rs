//! Register allocation for PTX kernels, as required by the CRAT
//! framework (Xie et al., MICRO 2015, §5).
//!
//! Real PTX assumes an infinite register set; CRAT extends the
//! tool-chain with the ability to allocate registers *given a
//! per-thread register limit*, because the limit is exactly the knob
//! the coordinated optimization sweeps. This crate provides:
//!
//! * [`allocate`] — a Chaitin–Briggs graph-coloring allocator with
//!   iterative spill-code insertion, typed register slots (PTX
//!   registers are type-locked), and wide-register pair alignment;
//! * the paper's **spilling optimization** (Algorithm 1): the spill
//!   stack splits into per-type sub-stacks and a 0-1 knapsack
//!   ([`knapsack_select`]) re-homes the most frequently accessed
//!   sub-stacks into spare shared memory, rewriting their accesses to
//!   a lane-interleaved layout;
//! * [`allocate_linear_scan`] — an independent reference allocator for
//!   validating spill behaviour (the paper's Figure 12 compares its
//!   allocator against `nvcc`'s);
//! * detailed [`SpillReport`]s feeding the paper's `Spill_cost` term
//!   of the TPSC selection metric.
//!
//! # Example
//!
//! ```
//! use crat_ptx::{KernelBuilder, Type, Operand};
//! use crat_regalloc::{allocate, AllocOptions, ShmSpillConfig};
//!
//! // Eight simultaneously-live accumulators, squeezed into 6 slots:
//! let mut b = KernelBuilder::new("squeeze");
//! let accs: Vec<_> = (0..8).map(|i| b.mov(Type::U32, Operand::Imm(i))).collect();
//! let mut sum = accs[0];
//! for &a in &accs[1..] {
//!     sum = b.add(Type::U32, sum, a);
//! }
//! let kernel = b.finish();
//!
//! let opts = AllocOptions::new(6)
//!     .with_shm_spill(ShmSpillConfig::new(4096, 128));
//! let alloc = allocate(&kernel, &opts)?;
//! assert!(alloc.slots_used <= 6);
//! # Ok::<(), crat_regalloc::AllocError>(())
//! ```

// Robustness gate (DESIGN.md §7): non-test code in this crate must
// surface failures as structured errors, not aborts. Survivors carry a
// local `#[allow]` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod briggs;
mod coloring;
mod context;
mod interference;
mod linear_scan;
mod reference;
mod result;
mod sched;
mod shm_opt;
mod spill;
mod ssa_spill;
mod strategy;

use std::error::Error;
use std::fmt;

pub use briggs::{allocate, allocate_with};
pub use coloring::{try_color, ColorAssignment, ColorOutcome};
pub use context::AllocContext;
pub use interference::InterferenceGraph;
pub use linear_scan::{allocate_linear_scan, allocate_linear_scan_with};
pub use reference::reference_alloc;
pub use result::{
    Allocation, SpillCounts, SpillHome, SpillKind, SpillReport, SpilledVar, SubStackReport,
};
pub use sched::{min_reg_schedule, SchedReport};
pub use shm_opt::{
    choose_layout, conflict_ways, knapsack_select, selection_gain, selection_weight, LayoutPolicy,
    ShmBankParams, SpillLayout,
};
pub use ssa_spill::{allocate_ssa, allocate_ssa_with};
pub use strategy::{strategy, AllocatorStrategy, ContextSource, FreshContext, StrategyKind};

/// Configuration for the shared-memory spilling optimization
/// (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmSpillConfig {
    /// Spare shared-memory bytes per thread block available for spill
    /// sub-stacks (computed by the CRAT pipeline so the TLP is not
    /// reduced).
    pub spare_bytes: u32,
    /// Threads per block, which scales a sub-stack's footprint.
    pub block_size: u32,
    /// Shared-memory bank geometry for conflict-aware layout and
    /// selection scoring. `None` keeps the legacy conflict-blind
    /// knapsack with warp-interleaved layout, bit-identical to the
    /// pre-bank-model pipeline.
    pub bank: Option<ShmBankParams>,
    /// How a re-homed sub-stack's shared-memory layout is chosen.
    pub layout: LayoutPolicy,
}

impl ShmSpillConfig {
    /// Legacy configuration: conflict-blind knapsack, automatic
    /// (warp-interleaved) layout.
    pub fn new(spare_bytes: u32, block_size: u32) -> ShmSpillConfig {
        ShmSpillConfig {
            spare_bytes,
            block_size,
            bank: None,
            layout: LayoutPolicy::default(),
        }
    }

    /// Score layouts and selection with the given bank geometry.
    pub fn with_bank(mut self, bank: ShmBankParams) -> ShmSpillConfig {
        self.bank = Some(bank);
        self
    }

    /// Force or automate the layout choice.
    pub fn with_layout(mut self, layout: LayoutPolicy) -> ShmSpillConfig {
        self.layout = layout;
        self
    }
}

/// How the spill stack splits into sub-stacks for Algorithm 1.
///
/// The paper splits "according to the data type and the width of the
/// spilled variables" and leaves alternative methods as future work;
/// all three are implemented here (see the `ablation_split` binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillSplit {
    /// One sub-stack per PTX type (the paper's method).
    #[default]
    ByType,
    /// One sub-stack per register width (coarser: all 32-bit types
    /// share, all 64-bit types share).
    ByWidth,
    /// One sub-stack per spilled variable (finest granularity: the
    /// knapsack decides variable by variable).
    PerVariable,
}

/// Options for the register allocators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocOptions {
    /// Available 32-bit register slots per thread (the design point's
    /// `reg`).
    pub budget_slots: u32,
    /// Enable the shared-memory spilling optimization.
    pub shm_spill: Option<ShmSpillConfig>,
    /// How the spill stack splits into sub-stacks.
    pub spill_split: SpillSplit,
    /// Maximum build–color–spill iterations before giving up.
    pub max_iterations: u32,
}

impl AllocOptions {
    /// Options with the given register budget, local-memory spilling
    /// only.
    pub fn new(budget_slots: u32) -> AllocOptions {
        AllocOptions {
            budget_slots,
            shm_spill: None,
            spill_split: SpillSplit::ByType,
            max_iterations: 64,
        }
    }

    /// Enable spilling to spare shared memory.
    pub fn with_shm_spill(mut self, cfg: ShmSpillConfig) -> AllocOptions {
        self.shm_spill = Some(cfg);
        self
    }

    /// Choose a spill-stack split strategy.
    pub fn with_spill_split(mut self, split: SpillSplit) -> AllocOptions {
        self.spill_split = split;
        self
    }
}

/// Errors produced by the allocators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The kernel failed IR validation before allocation.
    InvalidKernel(crat_ptx::ValidateError),
    /// Even spill temporaries cannot fit in the budget.
    BudgetTooSmall {
        /// The budget that was requested.
        budget_slots: u32,
    },
    /// The spill loop did not converge within
    /// [`AllocOptions::max_iterations`].
    IterationLimit,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            AllocError::BudgetTooSmall { budget_slots } => {
                write!(
                    f,
                    "register budget of {budget_slots} slots cannot hold spill temporaries"
                )
            }
            AllocError::IterationLimit => f.write_str("spill loop failed to converge"),
        }
    }
}

impl Error for AllocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AllocError::InvalidKernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crat_ptx::ValidateError> for AllocError {
    fn from(e: crat_ptx::ValidateError) -> AllocError {
        AllocError::InvalidKernel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builder() {
        let o = AllocOptions::new(32);
        assert_eq!(o.budget_slots, 32);
        assert!(o.shm_spill.is_none());
        let o = o.with_shm_spill(ShmSpillConfig::new(1024, 64));
        assert_eq!(o.shm_spill.unwrap().spare_bytes, 1024);
        assert!(o.shm_spill.unwrap().bank.is_none());
        assert_eq!(o.shm_spill.unwrap().layout, LayoutPolicy::Auto);
    }

    #[test]
    fn errors_display() {
        assert!(AllocError::BudgetTooSmall { budget_slots: 3 }
            .to_string()
            .contains('3'));
        assert!(!AllocError::IterationLimit.to_string().is_empty());
    }
}
