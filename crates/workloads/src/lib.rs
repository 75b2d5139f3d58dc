//! Synthetic GPU workloads modeled after the benchmark suite of the
//! CRAT paper (Table 3): all 22 kernels from Rodinia, Parboil, and the
//! NVIDIA SDK, each reproduced as a parameterized PTX kernel whose
//! register demand, cache working set, arithmetic intensity, and
//! shared-memory usage match the regime the paper reports.
//!
//! # Example
//!
//! ```
//! use crat_workloads::{build_kernel, launch, suite};
//! use crat_sim::{simulate, GpuConfig};
//!
//! let app = suite::spec("CFD");
//! let kernel = build_kernel(app);
//! let stats = simulate(&kernel, &GpuConfig::fermi(), &launch(app), 21, None)?;
//! assert!(stats.l1_accesses > 0);
//! # Ok::<(), crat_sim::SimError>(())
//! ```

// Robustness gate (DESIGN.md §7): non-test code in this crate must
// surface failures as structured errors, not aborts.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod generator;
mod inputs;
pub mod micro;
mod spec;
pub mod suite;

pub use generator::{build_kernel, launch, launch_sized, INPUT_BASE, OUTPUT_BASE};
pub use inputs::{inputs, InputVariant};
pub use spec::{AppSpec, Category};
