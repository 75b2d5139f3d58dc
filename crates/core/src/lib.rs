//! CRAT: Coordinated Register Allocation and Thread-level parallelism
//! optimization — the primary contribution of Xie et al. (MICRO 2015),
//! reproduced in Rust.
//!
//! Given a PTX kernel, a GPU configuration, and a launch, CRAT:
//!
//! 1. **analyzes resource usage** ([`analyze`]): `MaxReg` from live-
//!    variable analysis, `MinReg` from the architecture, block size,
//!    `MaxTLP`, and shared-memory usage (paper §4.1);
//! 2. **finds `OptTLP`** either by profiling ([`profile_opt_tlp`]) or
//!    by static GTO-schedule mimicry ([`estimate_opt_tlp`], Figure 10);
//! 3. **prunes the design space** ([`prune`]) to the rightmost point
//!    of each occupancy stair with `TLP ≤ OptTLP` (§4.2, Figure 11);
//! 4. **allocates registers** for every candidate through
//!    [`crat_regalloc`], spilling to spare shared memory when
//!    profitable (Algorithm 1);
//! 5. **selects** the best tradeoff with the TPSC metric ([`tpsc`],
//!    §6).
//!
//! [`evaluate`] runs the paper's comparison techniques (`MaxTLP`,
//! `OptTLP`, `CRAT-local`, `CRAT`, `CRAT-static`) end to end on the
//! simulator.
//!
//! # Example
//!
//! ```no_run
//! use crat_core::{optimize, CratOptions};
//! use crat_sim::GpuConfig;
//! use crat_workloads::{build_kernel, launch, suite};
//!
//! let app = suite::spec("CFD");
//! let kernel = build_kernel(app);
//! let solution = optimize(&kernel, &GpuConfig::fermi(), &launch(app), &CratOptions::new())?;
//! println!("CRAT chose reg={} TLP={}", solution.point().reg, solution.point().tlp);
//! # Ok::<(), crat_core::CratError>(())
//! ```

// Robustness gate (DESIGN.md §7): non-test code in this crate must
// surface failures as structured errors, not aborts. Survivors carry a
// local `#[allow]` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod design_space;
pub mod engine;
pub mod metrics;
mod pipeline;
mod profile_tlp;
mod resource;
mod segments;
mod static_tlp;
pub mod store;
mod techniques;
mod tpsc;

use std::error::Error;
use std::fmt;

pub use design_space::{prune, staircase, DesignPoint, ALLOC_FLOOR};
pub use engine::{EngineStats, EvalBudget, EvalEngine, SimJob, StrategyStats};
pub use metrics::{
    engine_to_csv, engine_to_json, metrics_document, stats_from_json, stats_to_json, Json,
    MetricsPoint,
};
pub use pipeline::{
    optimize, optimize_oracle, optimize_oracle_with, optimize_with, AllocStrategy, Candidate,
    CratOptions, CratSolution, OptTlpSource, SkippedPoint, StrategyRoster,
};
pub use profile_tlp::{profile_opt_tlp, profile_opt_tlp_with, TlpProfile};
pub use resource::{analyze, ResourceUsage};
pub use segments::{segment_kernel, Segment};
pub use static_tlp::estimate_opt_tlp;
pub use store::{parse_byte_limit, RecordKey, ResultStore, StoreConfig, StoreStats};
pub use techniques::{
    evaluate, evaluate_with, evaluate_with_options, evaluate_with_roster, Evaluation, Technique,
    STATIC_L1_HIT_RATE,
};
pub use tpsc::{tlp_gain, tpsc};

/// Errors of the CRAT pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CratError {
    /// Register allocation failed.
    Alloc(crat_regalloc::AllocError),
    /// A profiling or evaluation simulation failed.
    Sim(crat_sim::SimError),
    /// Pruning left no candidate design points.
    NoCandidates,
    /// A worker panicked while evaluating a job. The panic was caught
    /// at the engine boundary and converted into this structured
    /// error; the process stays alive and the engine stays usable.
    Internal {
        /// Human-readable description of the job that panicked.
        job: String,
        /// The panic payload, downcast to a string where possible.
        payload: String,
    },
}

impl fmt::Display for CratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CratError::Alloc(e) => write!(f, "register allocation failed: {e}"),
            CratError::Sim(e) => write!(f, "simulation failed: {e}"),
            CratError::NoCandidates => f.write_str("design-space pruning left no candidates"),
            CratError::Internal { job, payload } => {
                write!(f, "internal error evaluating {job}: {payload}")
            }
        }
    }
}

impl Error for CratError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CratError::Alloc(e) => Some(e),
            CratError::Sim(e) => Some(e),
            CratError::NoCandidates | CratError::Internal { .. } => None,
        }
    }
}

impl From<crat_regalloc::AllocError> for CratError {
    fn from(e: crat_regalloc::AllocError) -> CratError {
        CratError::Alloc(e)
    }
}

impl From<crat_sim::SimError> for CratError {
    fn from(e: crat_sim::SimError) -> CratError {
        CratError::Sim(e)
    }
}
