//! Simulator errors.

use std::error::Error;
use std::fmt;

use crat_ptx::{BlockId, Space, ValidateError};

/// Failure modes of [`crate::simulate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The kernel failed IR validation.
    InvalidKernel(ValidateError),
    /// A kernel parameter was not bound by the launch.
    MissingParam(String),
    /// The launch configuration is unusable (zero grid, bad block
    /// size, kernel does not fit on the SM, ...).
    BadLaunch(String),
    /// A warp needed a reconvergence point that does not exist (a
    /// divergent branch whose post-dominator is the kernel exit, an
    /// exit inside a divergent region, or a barrier under divergence).
    UnstructuredDivergence {
        /// Basic block where the problem arose.
        block: BlockId,
        /// The block (CTA) id of the offending warp.
        ctaid: u32,
        /// Warp index within the CTA.
        warp: u32,
    },
    /// A shared- or local-memory access fell outside its allocation.
    OutOfBounds {
        /// The accessed space.
        space: Space,
        /// The offending byte offset.
        addr: u64,
        /// The size of the allocation.
        size: u64,
    },
    /// No warp could ever issue again (e.g. a barrier that can never
    /// be satisfied).
    Deadlock,
    /// The configured cycle limit was exceeded.
    CycleLimit {
        /// The cycle count at which simulation stopped.
        cycles: u64,
    },
    /// The caller's wall-clock deadline expired and the simulation
    /// cancelled itself cooperatively (see
    /// [`simulate_decoded`](crate::simulate_decoded)).
    /// Unlike every other variant this one depends on wall time, so it
    /// must never be memoized.
    DeadlineExceeded {
        /// The cycle count at which simulation stopped.
        cycles: u64,
    },
}

impl SimError {
    /// A stable, machine-readable code for this variant. Part of the
    /// persistent result store's on-disk record format (crat-core's
    /// `store` module tags serialized errors with it), so codes must
    /// never be renamed or reused once shipped.
    pub fn stable_code(&self) -> &'static str {
        match self {
            SimError::InvalidKernel(_) => "invalid_kernel",
            SimError::MissingParam(_) => "missing_param",
            SimError::BadLaunch(_) => "bad_launch",
            SimError::UnstructuredDivergence { .. } => "unstructured_divergence",
            SimError::OutOfBounds { .. } => "out_of_bounds",
            SimError::Deadlock => "deadlock",
            SimError::CycleLimit { .. } => "cycle_limit",
            SimError::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            SimError::MissingParam(p) => write!(f, "kernel parameter `{p}` is not bound"),
            SimError::BadLaunch(m) => write!(f, "bad launch: {m}"),
            SimError::UnstructuredDivergence { block, ctaid, warp } => write!(
                f,
                "unstructured divergence in {block} (cta {ctaid}, warp {warp}): no in-kernel reconvergence point (or a barrier/exit under divergence)"
            ),
            SimError::OutOfBounds { space, addr, size } => {
                write!(f, "{space} access at offset {addr} outside allocation of {size} bytes")
            }
            SimError::Deadlock => f.write_str("simulation deadlocked: no warp can ever issue"),
            SimError::CycleLimit { cycles } => {
                write!(f, "cycle limit exceeded after {cycles} cycles")
            }
            SimError::DeadlineExceeded { cycles } => {
                write!(f, "evaluation deadline expired after {cycles} simulated cycles")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidKernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for SimError {
    fn from(e: ValidateError) -> SimError {
        SimError::InvalidKernel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::MissingParam("out".to_string());
        assert!(e.to_string().contains("out"));
        let e = SimError::CycleLimit { cycles: 9 };
        assert!(e.to_string().contains('9'));
        let e = SimError::DeadlineExceeded { cycles: 77 };
        assert!(e.to_string().contains("77"));
        assert!(e.to_string().contains("deadline"));
        let e = SimError::OutOfBounds {
            space: Space::Shared,
            addr: 128,
            size: 64,
        };
        assert!(e.to_string().contains("128"));
    }

    #[test]
    fn stable_codes_are_distinct_and_snake_case() {
        let codes = [
            SimError::MissingParam(String::new()).stable_code(),
            SimError::BadLaunch(String::new()).stable_code(),
            SimError::Deadlock.stable_code(),
            SimError::CycleLimit { cycles: 0 }.stable_code(),
            SimError::DeadlineExceeded { cycles: 0 }.stable_code(),
            SimError::OutOfBounds {
                space: Space::Shared,
                addr: 0,
                size: 0,
            }
            .stable_code(),
        ];
        for (i, a) in codes.iter().enumerate() {
            assert!(a.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            for b in &codes[i + 1..] {
                assert_ne!(a, b, "stable codes must be unique");
            }
        }
        assert_eq!(
            SimError::CycleLimit { cycles: 1 }.stable_code(),
            "cycle_limit"
        );
    }
}
