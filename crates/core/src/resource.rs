//! Resource-usage analysis (paper §4.1, Table 1).

use crat_ptx::{Cfg, Kernel, Liveness};
use crat_sim::{occupancy, GpuConfig, LaunchConfig};

/// The parameters CRAT collects from a kernel (the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Registers per thread needed to hold every variable (`MaxReg`),
    /// from live-variable analysis.
    pub max_reg: u32,
    /// Registers per thread below which TLP is no longer limited by
    /// the register file (`MinReg = NumRegister / MaxThreads`).
    pub min_reg: u32,
    /// Threads per block (`BlockSize`).
    pub block_size: u32,
    /// Maximum allowed TLP given resources and hardware limits.
    pub max_tlp: u32,
    /// Shared memory requested per block (`ShmSize`), bytes.
    pub shm_size: u32,
    /// The register count the conventional tool-chain would pick: it
    /// targets maximal occupancy, so it never exceeds `MinReg` (the
    /// paper's CFD example: default = 32 = MinReg on a Kepler-class
    /// part, while `MaxReg` is above 50).
    pub default_reg: u32,
}

impl ResourceUsage {
    /// The register range the design space sweeps.
    pub fn reg_range(&self) -> std::ops::RangeInclusive<u32> {
        self.min_reg.min(self.max_reg)..=self.max_reg
    }
}

/// Analyze `kernel` under `launch` on `gpu`.
///
/// # Examples
///
/// ```
/// use crat_core::analyze;
/// use crat_sim::{GpuConfig, LaunchConfig};
/// use crat_workloads::{build_kernel, suite};
///
/// let app = suite::spec("CFD");
/// let usage = analyze(
///     &build_kernel(app),
///     &GpuConfig::fermi(),
///     &LaunchConfig::new(120, app.block_size),
/// );
/// assert!(usage.max_reg > usage.min_reg, "CFD is register-hungry");
/// assert_eq!(usage.default_reg, usage.min_reg, "tool-chain targets occupancy");
/// ```
///
/// # Panics
///
/// If `launch.block_size` is not a positive multiple of the warp size.
/// Check untrusted launches with [`crat_sim::check_launch`] first, as
/// [`optimize_with`](crate::optimize_with) and
/// [`evaluate_with`](crate::evaluate_with) do.
pub fn analyze(kernel: &Kernel, gpu: &GpuConfig, launch: &LaunchConfig) -> ResourceUsage {
    let cfg = Cfg::build(kernel);
    let liveness = Liveness::compute(kernel, &cfg);
    let max_reg = liveness
        .max_live_slots(kernel)
        .min(gpu.max_regs_per_thread)
        .max(1);
    let min_reg = gpu.min_reg();
    let shm_size = kernel.shared_bytes();
    let default_reg = max_reg.min(min_reg);
    // The TLP upper bound uses the most permissive register choice.
    let max_tlp = occupancy(gpu, default_reg.min(min_reg), shm_size, launch.block_size).blocks;
    ResourceUsage {
        max_reg,
        min_reg,
        block_size: launch.block_size,
        max_tlp,
        shm_size,
        default_reg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_ptx::{KernelBuilder, Operand, Type};

    fn kernel_with_live(n: usize) -> Kernel {
        let mut b = KernelBuilder::new("k");
        let tid = b.special_tid_x(Type::U32);
        let vals: Vec<_> = (0..n)
            .map(|i| b.add(Type::U32, tid, Operand::Imm(i as i64)))
            .collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.add(Type::U32, acc, v);
        }
        let out = b.param_ptr("out");
        let a = b.wide_address(out, acc, 4);
        b.st(crat_ptx::Space::Global, Type::U32, a, acc);
        b.finish()
    }

    #[test]
    fn fermi_min_reg_is_21() {
        let k = kernel_with_live(4);
        let u = analyze(&k, &GpuConfig::fermi(), &LaunchConfig::new(60, 128));
        assert_eq!(u.min_reg, 21);
        assert_eq!(u.block_size, 128);
    }

    #[test]
    fn max_reg_scales_with_pressure() {
        let gpu = GpuConfig::fermi();
        let launch = LaunchConfig::new(60, 128);
        let small = analyze(&kernel_with_live(4), &gpu, &launch);
        let big = analyze(&kernel_with_live(40), &gpu, &launch);
        assert!(big.max_reg > small.max_reg + 30);
    }

    #[test]
    fn default_reg_is_capped_at_min_reg() {
        let gpu = GpuConfig::fermi();
        let launch = LaunchConfig::new(60, 128);
        let big = analyze(&kernel_with_live(40), &gpu, &launch);
        assert_eq!(big.default_reg, 21);
        let small = analyze(&kernel_with_live(3), &gpu, &launch);
        assert_eq!(small.default_reg, small.max_reg);
        assert!(small.default_reg < 21);
    }

    #[test]
    fn max_tlp_respects_block_limit() {
        let k = kernel_with_live(4);
        let u = analyze(&k, &GpuConfig::fermi(), &LaunchConfig::new(60, 128));
        assert_eq!(u.max_tlp, 8); // block limit on Fermi
    }

    #[test]
    fn reg_range_is_well_formed() {
        let k = kernel_with_live(40);
        let u = analyze(&k, &GpuConfig::fermi(), &LaunchConfig::new(60, 128));
        assert!(u.reg_range().contains(&u.max_reg));
        assert!(*u.reg_range().start() <= *u.reg_range().end());
    }
}
