//! A GPU timing simulator for PTX-subset kernels.
//!
//! This crate is the evaluation substrate of the CRAT reproduction,
//! standing in for GPGPU-Sim 3.2.3 (the paper's §7.1 platform). It
//! executes kernels *functionally* at warp granularity — every lane
//! carries real values, so memory addresses and therefore cache
//! behaviour are exact — and models timing with:
//!
//! * SMs with configurable warp schedulers (GTO or loose round-robin),
//!   per-warp scoreboards, and barrier synchronization;
//! * a coalescer, a set-associative LRU L1 with finite MSHRs (whose
//!   exhaustion produces the reservation-failure stalls the paper's
//!   Figure 5b measures), an L2 slice, and bandwidth-limited DRAM;
//! * occupancy computation over threads / blocks / registers / shared
//!   memory, with an explicit TLP cap for thread throttling;
//! * a GPUWattch-style event-based energy model.
//!
//! One SM is simulated in detail with its share of the grid; see
//! `DESIGN.md` for the substitution argument.
//!
//! # Example
//!
//! ```
//! use crat_ptx::{KernelBuilder, Type, Space};
//! use crat_sim::{simulate, GpuConfig, LaunchConfig};
//!
//! let mut b = KernelBuilder::new("copy");
//! let src = b.param_ptr("src");
//! let dst = b.param_ptr("dst");
//! let tid = b.special_tid_x(Type::U32);
//! let sa = b.wide_address(src, tid, 4);
//! let v = b.ld(Space::Global, Type::F32, sa);
//! let da = b.wide_address(dst, tid, 4);
//! b.st(Space::Global, Type::F32, da, v);
//! let kernel = b.finish();
//!
//! let launch = LaunchConfig::new(30, 128)
//!     .with_param("src", 0x100_0000)
//!     .with_param("dst", 0x200_0000);
//! let stats = simulate(&kernel, &GpuConfig::fermi(), &launch, 16, None)?;
//! assert!(stats.cycles > 0);
//! # Ok::<(), crat_sim::SimError>(())
//! ```

mod cache;
mod config;
pub mod decode;
mod energy;
mod error;
mod gmem;
/// Value semantics (re-exported from [`crat_ptx::eval`]).
pub mod interp {
    pub use crat_ptx::eval::*;
}
mod machine;
mod memory;
mod occupancy;
pub mod reference;
mod stats;
pub mod vexec;

pub use cache::{Cache, CacheDecision};
pub use config::fault::{self, FaultPlan};
pub use config::{
    CacheConfig, GpuConfig, LatencyConfig, LaunchConfig, SchedulerKind, ShmBankConfig,
    TWO_LEVEL_GROUP,
};
pub use decode::{decode, DecodedKernel, OpClass};
pub use energy::{estimate_energy, EnergyCoefficients, EnergyReport};
pub use error::SimError;
pub use machine::{simulate, simulate_capture, simulate_decoded, Lanes};
pub use memory::{shm_conflict_degree, MemorySystem};
pub use occupancy::{
    check_launch, max_regs_for_tlp, occupancy, resident_blocks, LimitingResource, Occupancy,
};
pub use stats::{CycleAttribution, SimStats, StallCause, NUM_CAUSES};
