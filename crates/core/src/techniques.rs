//! The techniques compared throughout the paper's evaluation (§7.2):
//! `MaxTLP`, `OptTLP`, `CRAT-local`, `CRAT`, and `CRAT-static`.

use std::fmt;
use std::sync::Arc;

use crat_ptx::Kernel;
use crat_regalloc::Allocation;
use crat_sim::{
    estimate_energy, EnergyCoefficients, EnergyReport, GpuConfig, LaunchConfig, SimStats,
};

use crate::design_space::ALLOC_FLOOR;
use crate::engine::EvalEngine;
use crate::pipeline::{allocate_degraded, optimize_with, CratOptions, OptTlpSource};
use crate::profile_tlp::profile_opt_tlp_with;
use crate::resource::analyze;
use crate::CratError;

/// A technique under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Default register allocation, as many resident blocks as fit.
    MaxTlp,
    /// Default register allocation, TLP throttled to the profiled
    /// optimum (Kayıran et al.).
    OptTlp,
    /// CRAT without the shared-memory spilling optimization.
    CratLocal,
    /// Full CRAT with profiled OptTLP.
    Crat,
    /// Full CRAT with statically estimated OptTLP.
    CratStatic,
}

impl Technique {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Technique::MaxTlp => "MaxTLP",
            Technique::OptTlp => "OptTLP",
            Technique::CratLocal => "CRAT-local",
            Technique::Crat => "CRAT",
            Technique::CratStatic => "CRAT-static",
        }
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of running one technique on one application.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Which technique ran.
    pub technique: Technique,
    /// Registers per thread of the final binary.
    pub reg: u32,
    /// The TLP cap applied (resident blocks per SM).
    pub tlp: u32,
    /// Simulated performance.
    pub stats: SimStats,
    /// Estimated energy.
    pub energy: EnergyReport,
    /// The register allocation used.
    pub allocation: Allocation,
}

impl Evaluation {
    /// Fraction of the SM's register file used by resident threads —
    /// the paper's register utilization (Figures 1b and 15).
    pub fn register_utilization(&self, gpu: &GpuConfig, block_size: u32) -> f64 {
        let used = self.reg as u64 * block_size as u64 * self.stats.resident_blocks;
        (used as f64 / gpu.registers_per_sm as f64).min(1.0)
    }

    /// Fraction of shared memory used by resident blocks (Figure 7).
    pub fn shared_utilization(&self, gpu: &GpuConfig) -> f64 {
        let per_block = self.allocation.kernel.shared_bytes() as u64;
        let used = per_block * self.stats.resident_blocks;
        (used as f64 / gpu.shmem_per_sm as f64).min(1.0)
    }
}

/// The assumed hit rate handed to the static analysis when no
/// profiling information exists (stands in for the paper's empirical
/// measurement).
pub const STATIC_L1_HIT_RATE: f64 = 0.6;

/// Run `technique` on `kernel` and simulate the result. Every
/// simulation the technique needs — the final run, the profiling
/// sweep, CRAT's internal profiling — goes through `engine`'s memo
/// cache and worker pool, so techniques that share work (e.g. `OptTlp`
/// and `Crat` profiling the same default binary) pay for it once per
/// engine.
///
/// # Errors
///
/// As [`evaluate_with_options`].
pub fn evaluate_with(
    engine: &EvalEngine,
    kernel: &Kernel,
    gpu: &GpuConfig,
    launch: &LaunchConfig,
    technique: Technique,
) -> Result<Evaluation, CratError> {
    evaluate_with_options(engine, kernel, gpu, launch, technique, &CratOptions::new())
}

/// [`evaluate_with`] with a full base [`CratOptions`] for the CRAT
/// variants: the roster and spill-layout policy come from `base`, while
/// the technique still decides its own OptTLP source and whether
/// shared-memory spilling runs at all (`CratLocal` forces it off,
/// `CratStatic` forces the static L1 model). `MaxTlp` and `OptTlp` use
/// the default allocation path and ignore `base`.
///
/// # Errors
///
/// [`crat_sim::SimError::BadLaunch`] on a launch
/// [`crat_sim::check_launch`] rejects; otherwise propagates allocation
/// and simulation failures.
pub fn evaluate_with_options(
    engine: &EvalEngine,
    kernel: &Kernel,
    gpu: &GpuConfig,
    launch: &LaunchConfig,
    technique: Technique,
    base: &CratOptions,
) -> Result<Evaluation, CratError> {
    crat_sim::check_launch(gpu, launch)?;
    let usage = analyze(kernel, gpu, launch);
    let default_budget = usage.default_reg.max(ALLOC_FLOOR);
    let coeff = EnergyCoefficients::default();

    let (allocation, tlp, stats) = match technique {
        Technique::MaxTlp => {
            let alloc = allocate_degraded(engine, kernel, default_budget)?;
            let stats = engine.simulate(&alloc.kernel, gpu, launch, alloc.slots_used, None)?;
            // The simulator records the u32 `crat_sim::resident_blocks`.
            let tlp = stats.resident_blocks as u32;
            (Arc::unwrap_or_clone(alloc), tlp, stats)
        }
        Technique::OptTlp => {
            let alloc = allocate_degraded(engine, kernel, default_budget)?;
            let profile =
                profile_opt_tlp_with(engine, &alloc.kernel, gpu, launch, alloc.slots_used)?;
            let stats = profile.best().clone();
            (Arc::unwrap_or_clone(alloc), profile.opt_tlp, stats)
        }
        Technique::CratLocal | Technique::Crat | Technique::CratStatic => {
            let opts = match technique {
                Technique::CratLocal => CratOptions {
                    shm_spill: false,
                    ..*base
                },
                Technique::Crat => *base,
                _ => CratOptions {
                    opt_tlp: OptTlpSource::Static {
                        l1_hit_rate: STATIC_L1_HIT_RATE,
                    },
                    ..*base
                },
            };
            let solution = optimize_with(engine, kernel, gpu, launch, &opts)?;
            let winner = solution.winner().clone();
            let stats = engine.simulate(
                &winner.allocation.kernel,
                gpu,
                launch,
                winner.allocation.slots_used,
                Some(winner.achieved_tlp),
            )?;
            (winner.allocation, winner.achieved_tlp, stats)
        }
    };

    let energy = estimate_energy(gpu, &stats, &coeff);
    Ok(Evaluation {
        technique,
        reg: allocation.slots_used,
        tlp,
        stats,
        energy,
        allocation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_workloads::{build_kernel, launch_sized, suite};

    fn run(engine: &EvalEngine, abbr: &str, grid: u32, t: Technique) -> Evaluation {
        let app = suite::spec(abbr);
        let kernel = build_kernel(app);
        evaluate_with(
            engine,
            &kernel,
            &GpuConfig::fermi(),
            &launch_sized(app, grid),
            t,
        )
        .unwrap()
    }

    #[test]
    fn opt_tlp_beats_or_matches_max_tlp_on_thrashing_app() {
        let engine = EvalEngine::default();
        let max = run(&engine, "KMN", 60, Technique::MaxTlp);
        let opt = run(&engine, "KMN", 60, Technique::OptTlp);
        assert!(
            opt.stats.cycles <= max.stats.cycles,
            "throttling must not hurt KMN: {} vs {}",
            opt.stats.cycles,
            max.stats.cycles
        );
        assert!(opt.tlp <= max.tlp);
    }

    #[test]
    fn crat_beats_or_matches_opt_tlp_on_register_hungry_app() {
        let engine = EvalEngine::default();
        let opt = run(&engine, "CFD", 60, Technique::OptTlp);
        let crat = run(&engine, "CFD", 60, Technique::Crat);
        assert!(
            crat.stats.cycles <= opt.stats.cycles,
            "CRAT must not lose to OptTLP on CFD: {} vs {}",
            crat.stats.cycles,
            opt.stats.cycles
        );
        // CRAT allocates more registers per thread than the default.
        assert!(
            crat.reg > opt.reg,
            "crat reg {} vs opt {}",
            crat.reg,
            opt.reg
        );
    }

    #[test]
    fn crat_register_utilization_is_at_least_opt_tlps() {
        let gpu = GpuConfig::fermi();
        let app = suite::spec("CFD");
        let engine = EvalEngine::default();
        let opt = run(&engine, "CFD", 60, Technique::OptTlp);
        let crat = run(&engine, "CFD", 60, Technique::Crat);
        let u_opt = opt.register_utilization(&gpu, app.block_size);
        let u_crat = crat.register_utilization(&gpu, app.block_size);
        assert!(
            u_crat >= u_opt - 1e-9,
            "register utilization should improve: {u_crat:.3} vs {u_opt:.3}"
        );
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Technique::Crat.label(), "CRAT");
        assert_eq!(Technique::OptTlp.to_string(), "OptTLP");
        assert_eq!(Technique::CratLocal.label(), "CRAT-local");
    }
}
