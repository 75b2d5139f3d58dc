//! Profiled `OptTLP`: run the application once per TLP level and pick
//! the fastest (the paper's thread-throttling baseline, Kayıran et
//! al. PACT'13, determined "offline by exhaustively testing all the
//! possible TLPs" — a small space, at most `MaxTLP` runs).

use crat_ptx::Kernel;
use crat_sim::{GpuConfig, LaunchConfig, SimStats};

use crate::engine::{EvalEngine, SimJob};
use crate::CratError;

/// The outcome of the TLP profiling sweep.
#[derive(Debug, Clone)]
pub struct TlpProfile {
    /// The fastest TLP found.
    pub opt_tlp: u32,
    /// Statistics per TLP level `(tlp, stats)`, ascending.
    pub runs: Vec<(u32, SimStats)>,
}

impl TlpProfile {
    /// The stats of the winning run.
    ///
    /// # Panics
    ///
    /// Panics if the profile is empty (cannot happen for values
    /// produced by [`profile_opt_tlp_with`]).
    pub fn best(&self) -> &SimStats {
        match self.runs.iter().find(|(t, _)| *t == self.opt_tlp) {
            Some((_, stats)) => stats,
            None => panic!("winning run recorded"),
        }
    }
}

/// Sweep TLP from 1 to the kernel's occupancy limit and return the
/// fastest level. `regs_per_thread` must match the allocation being
/// profiled (the paper profiles with the default allocation). The
/// sweep's runs are independent, so they are submitted to `engine` as
/// one batch and evaluated concurrently. Results come back in TLP
/// order, so the winner (the *earliest* strict minimum) and any
/// propagated error are identical to a serial sweep's.
///
/// # Errors
///
/// [`crat_sim::SimError::BadLaunch`] on a launch
/// [`crat_sim::check_launch`] rejects; otherwise the first simulation
/// failure (lowest failing TLP).
pub fn profile_opt_tlp_with(
    engine: &EvalEngine,
    kernel: &Kernel,
    gpu: &GpuConfig,
    launch: &LaunchConfig,
    regs_per_thread: u32,
) -> Result<TlpProfile, CratError> {
    crat_sim::check_launch(gpu, launch)?;
    let max = crat_sim::occupancy(
        gpu,
        regs_per_thread,
        kernel.shared_bytes(),
        launch.block_size,
    )
    .blocks
    .max(1);
    let jobs: Vec<SimJob<'_>> = (1..=max)
        .map(|tlp| SimJob {
            kernel,
            gpu,
            launch,
            regs_per_thread,
            tlp_cap: Some(tlp),
        })
        .collect();
    let mut runs = Vec::with_capacity(max as usize);
    let mut best = (1u32, u64::MAX);
    for (tlp, result) in (1..=max).zip(engine.simulate_batch(&jobs)) {
        let stats = result?;
        if stats.cycles < best.1 {
            best = (tlp, stats.cycles);
        }
        runs.push((tlp, stats));
    }
    Ok(TlpProfile {
        opt_tlp: best.0,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_workloads::{build_kernel, launch_sized, suite};

    fn profile(k: &Kernel, gpu: &GpuConfig, launch: &LaunchConfig, regs: u32) -> TlpProfile {
        profile_opt_tlp_with(&EvalEngine::default(), k, gpu, launch, regs).unwrap()
    }

    #[test]
    fn cache_thrasher_prefers_low_tlp() {
        let app = suite::spec("KMN");
        let k = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 60);
        let p = profile(&k, &gpu, &launch, 21);
        let max_tlp = p.runs.last().unwrap().0;
        assert!(
            p.opt_tlp < max_tlp,
            "KMN should be throttled: opt {} of max {max_tlp}",
            p.opt_tlp
        );
        assert_eq!(
            p.best().cycles,
            p.runs.iter().map(|(_, s)| s.cycles).min().unwrap()
        );
    }

    #[test]
    fn insensitive_app_prefers_high_tlp() {
        let app = suite::spec("BAK");
        let k = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 60);
        let p = profile(&k, &gpu, &launch, 16);
        // Running at full TLP must be about as fast as the optimum:
        // the app does not benefit from throttling (paper Figure 19).
        let full = &p.runs.last().unwrap().1;
        let best = p.best();
        assert!(
            full.cycles as f64 <= best.cycles as f64 * 1.05,
            "full TLP ({}) should match the optimum ({})",
            full.cycles,
            best.cycles
        );
    }

    #[test]
    fn profile_covers_every_tlp() {
        let app = suite::spec("BAK");
        let k = build_kernel(app);
        let p = profile(&k, &GpuConfig::fermi(), &launch_sized(app, 60), 16);
        let tlps: Vec<u32> = p.runs.iter().map(|(t, _)| *t).collect();
        let expected: Vec<u32> = (1..=*tlps.last().unwrap()).collect();
        assert_eq!(tlps, expected);
    }
}
