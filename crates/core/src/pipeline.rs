//! The end-to-end CRAT optimizer (paper Figure 9): resource analysis →
//! design-space pruning → per-candidate register allocation (with the
//! shared-memory spilling optimization) → TPSC selection.
//!
//! Each design point runs a configurable *roster* of allocator
//! strategies (see [`StrategyRoster`]; default: Briggs, min-reg
//! scheduling + Briggs, and SSA spill minimization) and keeps the
//! best-scoring allocation, so the register/TLP sweep also coordinates
//! with *how* registers are allocated.
//!
//! The pipeline degrades gracefully instead of aborting: when every
//! roster strategy fails at a point, the linear-scan rung is tried
//! (recorded as [`AllocStrategy::LinearScan`]); a candidate whose
//! allocation or simulation errors is dropped with a recorded
//! [`SkippedPoint`], and TPSC selection runs over the survivors. The
//! whole optimize fails only when *no* candidate survives.

use std::sync::Arc;

use crat_ptx::{Cfg, Kernel, Space};
use crat_regalloc::{
    allocate_linear_scan_with, allocate_with, AllocError, AllocOptions, Allocation, LayoutPolicy,
    ShmBankParams, ShmSpillConfig,
};
use crat_sim::{occupancy, GpuConfig, LaunchConfig};

use crate::design_space::{prune, DesignPoint};
use crate::engine::EvalEngine;
use crate::profile_tlp::profile_opt_tlp_with;
use crate::resource::{analyze, ResourceUsage};
use crate::static_tlp::estimate_opt_tlp;
use crate::tpsc::tpsc;
use crate::CratError;

/// How the optimizer obtains `OptTLP`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptTlpSource {
    /// Profile: run the default-allocation kernel once per TLP level
    /// (the paper's `CRAT-profile`).
    Profiled,
    /// Static code analysis with the given assumed L1 hit rate (the
    /// paper's `CRAT-static`; the ratio plays the role of the
    /// empirically measured hit rate of §4.1).
    Static {
        /// Assumed L1 hit rate in `[0, 1]`.
        l1_hit_rate: f64,
    },
    /// Caller-provided value (for experiments).
    Given(u32),
}

/// Optimizer options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CratOptions {
    /// Where `OptTLP` comes from.
    pub opt_tlp: OptTlpSource,
    /// Enable Algorithm 1 (spilling to spare shared memory). Disabled
    /// gives the paper's `CRAT-local` variant.
    pub shm_spill: bool,
    /// Which allocator strategies compete at each design point.
    pub roster: StrategyRoster,
    /// How the shared-memory layout of re-homed spill sub-stacks is
    /// chosen. Only consequential when the GPU models bank conflicts
    /// ([`GpuConfig::shm_banks`]): without a bank model every layout
    /// costs the same and `Auto` keeps the legacy warp-interleaved
    /// arrangement.
    pub shm_layout: LayoutPolicy,
}

impl Default for CratOptions {
    fn default() -> CratOptions {
        CratOptions {
            opt_tlp: OptTlpSource::Profiled,
            shm_spill: true,
            roster: StrategyRoster::Default,
            shm_layout: LayoutPolicy::Auto,
        }
    }
}

impl CratOptions {
    /// The paper's `CRAT` configuration (profiled OptTLP, shared-memory
    /// spilling on).
    pub fn new() -> CratOptions {
        CratOptions::default()
    }

    /// The paper's `CRAT-local`: no shared-memory spilling.
    pub fn local_only() -> CratOptions {
        CratOptions {
            shm_spill: false,
            ..CratOptions::default()
        }
    }

    /// The paper's `CRAT-static`: OptTLP from static analysis.
    pub fn static_analysis(l1_hit_rate: f64) -> CratOptions {
        CratOptions {
            opt_tlp: OptTlpSource::Static { l1_hit_rate },
            ..CratOptions::default()
        }
    }
}

/// Which allocator produced a candidate's allocation.
///
/// This is [`crat_regalloc::StrategyKind`] re-exported under the name
/// the pipeline has always used. [`AllocStrategy::LinearScan`] plays
/// the old `Fallback` role: it is not a roster member but the last
/// degradation rung, tried only after every roster strategy failed at
/// a point (linear scan ignores the shared-memory spill configuration,
/// so such allocations spill to local memory only — a degraded but
/// valid binary).
pub use crat_regalloc::StrategyKind as AllocStrategy;

/// The set of allocator strategies competing at each design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyRoster {
    /// The default competition roster
    /// ([`crat_regalloc::StrategyKind::ROSTER`]): Briggs, min-reg
    /// scheduling + Briggs, and SSA spill minimization, with the best
    /// TPSC score winning each point.
    Default,
    /// A single pinned strategy — no competition. `Pinned(Briggs)`
    /// reproduces the pre-roster pipeline bit-identically.
    Pinned(AllocStrategy),
}

impl StrategyRoster {
    /// The strategies to run at each point, in escalation order.
    pub fn strategies(self) -> &'static [AllocStrategy] {
        match self {
            StrategyRoster::Default => &AllocStrategy::ROSTER,
            StrategyRoster::Pinned(AllocStrategy::Briggs) => &[AllocStrategy::Briggs],
            StrategyRoster::Pinned(AllocStrategy::SchedBriggs) => &[AllocStrategy::SchedBriggs],
            StrategyRoster::Pinned(AllocStrategy::Ssa) => &[AllocStrategy::Ssa],
            StrategyRoster::Pinned(AllocStrategy::LinearScan) => &[AllocStrategy::LinearScan],
        }
    }

    /// Parse a CLI spelling: `roster`/`default`, or a pinnable
    /// strategy name (`briggs`, `sched-briggs`, `ssa`). Linear scan is
    /// degradation-only and cannot be pinned.
    pub fn parse(s: &str) -> Option<StrategyRoster> {
        match s {
            "roster" | "default" => Some(StrategyRoster::Default),
            _ => match AllocStrategy::parse(s) {
                Some(AllocStrategy::LinearScan) | None => None,
                Some(k) => Some(StrategyRoster::Pinned(k)),
            },
        }
    }
}

impl std::fmt::Display for StrategyRoster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyRoster::Default => f.write_str("roster"),
            StrategyRoster::Pinned(k) => f.write_str(k.label()),
        }
    }
}

/// One evaluated candidate design point.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The design point.
    pub point: DesignPoint,
    /// The TLP actually achievable after allocation (normally equals
    /// `point.tlp`).
    pub achieved_tlp: u32,
    /// Its TPSC score (smaller is better).
    pub tpsc: f64,
    /// The register allocation performed for it.
    pub allocation: Allocation,
    /// Which allocator produced it.
    pub strategy: AllocStrategy,
}

/// A design point the optimizer dropped instead of aborting on.
#[derive(Debug, Clone)]
pub struct SkippedPoint {
    /// The dropped point.
    pub point: DesignPoint,
    /// Why it was dropped.
    pub reason: CratError,
}

/// The optimizer's output.
#[derive(Debug, Clone)]
pub struct CratSolution {
    /// The resource analysis.
    pub usage: ResourceUsage,
    /// The OptTLP used for pruning.
    pub opt_tlp: u32,
    /// All surviving candidates, in TLP order.
    pub candidates: Vec<Candidate>,
    /// Index of the chosen candidate.
    pub chosen: usize,
    /// Design points dropped by graceful degradation (allocation or
    /// simulation failed); empty on a healthy run.
    pub skipped: Vec<SkippedPoint>,
}

impl CratSolution {
    /// The winning candidate.
    pub fn winner(&self) -> &Candidate {
        &self.candidates[self.chosen]
    }

    /// The chosen `(reg, TLP)` point.
    pub fn point(&self) -> DesignPoint {
        self.winner().point
    }

    /// Candidates produced by the linear-scan degradation rung (every
    /// roster strategy failed at those points).
    pub fn fallback_count(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| c.strategy == AllocStrategy::LinearScan)
            .count()
    }

    /// True when any degradation path fired (skipped points or
    /// fallback allocations). Healthy inputs must report `false`.
    pub fn is_degraded(&self) -> bool {
        !self.skipped.is_empty() || self.fallback_count() > 0
    }
}

/// Rough per-thread execution cost of `kernel` in cycles (static
/// latencies weighted by trip counts). Used to normalize the TPSC
/// spill term; computed on the pre-allocation kernel so every
/// candidate shares the same denominator. The CFG comes from the
/// kernel's shared [`crat_regalloc::AllocContext`] — one more analysis
/// the sweep no longer repeats.
fn thread_work_cycles(
    kernel: &Kernel,
    cfg: &Cfg,
    gpu: &GpuConfig,
    cost_local: f64,
    cost_shm: f64,
) -> f64 {
    kernel
        .blocks()
        .iter()
        .map(|b| {
            let w = cfg.block_weight(b.id) as f64;
            let sum: f64 = b
                .insts
                .iter()
                .map(|i| match i.memory_space() {
                    Some(Space::Global) | Some(Space::Local) => cost_local,
                    Some(Space::Shared) => cost_shm,
                    Some(Space::Param) => gpu.lat.param as f64,
                    None => {
                        if i.is_sfu() {
                            gpu.lat.sfu as f64
                        } else {
                            gpu.lat.alu as f64
                        }
                    }
                })
                .sum();
            w * (sum + gpu.lat.alu as f64)
        })
        .sum()
}

/// Allocate with escalating budgets: structural effects (pair
/// alignment, spill temporaries) can push a kernel slightly past a
/// tight budget, so nudge upward rather than fail. Every attempt
/// borrows the engine's cached [`crat_regalloc::AllocContext`] for the
/// kernel — the whole ladder (and the whole design-point sweep above
/// it) shares one liveness/interference analysis.
fn robust_allocate(
    engine: &EvalEngine,
    kernel: &Kernel,
    budget: u32,
) -> Result<Allocation, AllocError> {
    let ctx = engine.alloc_context(kernel);
    escalate(
        budget,
        |opts| {
            engine.bump(|c| c.allocs_run += 1);
            allocate_with(kernel, &ctx, opts)
        },
        None,
    )
    .map(|(a, _)| a)
}

/// Run one allocator under the `+2` budget-escalation ladder.
fn escalate<F>(
    budget: u32,
    mut alloc: F,
    shm: Option<ShmSpillConfig>,
) -> Result<(Allocation, u32), AllocError>
where
    F: FnMut(&AllocOptions) -> Result<Allocation, AllocError>,
{
    let mut budget = budget;
    for attempt in 0..7 {
        let mut opts = AllocOptions::new(budget);
        if let Some(s) = shm {
            opts = opts.with_shm_spill(s);
        }
        match alloc(&opts) {
            Ok(a) => return Ok((a, budget)),
            Err(AllocError::BudgetTooSmall { .. }) if attempt < 6 => budget += 2,
            Err(e) => return Err(e),
        }
    }
    unreachable!("the final attempt either succeeds or returns its error")
}

/// The tool chain's *default allocation* of `kernel` (local spills
/// only), which OptTLP profiling and static analysis and the
/// MaxTlp/OptTlp baselines all start from: Briggs first, and on *any*
/// Briggs failure the same budget ladder with the linear-scan
/// fallback. Only when both allocators fail does the original Briggs
/// error propagate. The design-point sweep itself runs the strategy
/// roster instead (see [`optimize_with`]).
///
/// The engine memoizes the Briggs result, so every technique on one
/// engine allocates an app's default binary once; a fallback is
/// rebuilt on each call and never memoized. The
/// `fault::take_briggs_failure` hook lets the fault-injection harness
/// force the Briggs rung to fail deterministically; it is polled only
/// when Briggs would really run, not on a memo hit.
pub(crate) fn allocate_degraded(
    engine: &EvalEngine,
    kernel: &Kernel,
    budget: u32,
) -> Result<Arc<Allocation>, AllocError> {
    let briggs = engine.default_allocation(kernel, budget, || {
        if crat_sim::fault::take_briggs_failure() {
            Err(AllocError::IterationLimit)
        } else {
            robust_allocate(engine, kernel, budget)
        }
    });
    briggs.or_else(|primary| {
        // The fallback reuses the same cached context (a hit, not a
        // rebuild): linear scan reads only its CFG and ranges.
        let ctx = engine.alloc_context(kernel);
        escalate(
            budget,
            |opts| {
                engine.bump(|c| c.allocs_run += 1);
                allocate_linear_scan_with(kernel, &ctx, opts)
            },
            None,
        )
        .map(|(a, _)| Arc::new(a))
        .map_err(|_| primary)
    })
}

/// Poll the fault-injection hook for `kind`: test-only, always false
/// in production (the disarmed path is one relaxed atomic load).
fn strategy_fault_injected(kind: AllocStrategy) -> bool {
    match kind {
        AllocStrategy::Briggs => crat_sim::fault::take_briggs_failure(),
        AllocStrategy::Ssa => crat_sim::fault::take_ssa_failure(),
        _ => false,
    }
}

/// Run one roster strategy under the `+2` budget-escalation ladder,
/// drawing shared analyses from the engine's context cache. Every
/// attempt fetches the context of the kernel it allocates and credits
/// a cache hit to `kind`; the scheduled kernel of `sched+briggs` keys
/// by its own hash, so an unchanged schedule shares the plain
/// kernel's context.
fn run_strategy(
    engine: &EvalEngine,
    kernel: &Kernel,
    kind: AllocStrategy,
    budget: u32,
    shm: Option<ShmSpillConfig>,
) -> Result<(Allocation, u32), AllocError> {
    let ctx = |k: &Kernel| {
        let (ctx, hit) = engine.alloc_context_tracked(k);
        if hit {
            engine.bump(|c| c.strategies[kind.index()].ctx_reuse += 1);
        }
        ctx
    };
    escalate(
        budget,
        |opts| {
            engine.bump(|c| c.allocs_run += 1);
            kind.allocate(kernel, ctx, opts)
        },
        shm,
    )
}

/// Run the CRAT pipeline on one kernel. Profiling runs go through
/// `engine`'s memo cache and worker pool, and the per-candidate
/// allocation-and-scoring loop fans out across the pool (allocation is
/// pure CPU work and candidates are independent). Candidate order,
/// error propagation (lowest failing TLP first), and the TPSC
/// tie-break are identical to a serial evaluation.
///
/// # Errors
///
/// Fails with [`crat_sim::SimError::BadLaunch`] on a launch
/// [`crat_sim::check_launch`] rejects, if allocation fails at every
/// candidate, if profiling simulation fails, or if pruning leaves no
/// candidates.
pub fn optimize_with(
    engine: &EvalEngine,
    kernel: &Kernel,
    gpu: &GpuConfig,
    launch: &LaunchConfig,
    opts: &CratOptions,
) -> Result<CratSolution, CratError> {
    crat_sim::check_launch(gpu, launch)?;
    let usage = analyze(kernel, gpu, launch);
    // Per-access costs of local and shared memory in the TPSC spill
    // term, from the GPU's latencies.
    let cost_local = (gpu.lat.l1_hit + (gpu.lat.l2 + gpu.lat.dram) / 2) as f64;
    let cost_shm = gpu.lat.shared as f64;

    let opt_tlp = match opts.opt_tlp {
        OptTlpSource::Given(t) => t.clamp(1, usage.max_tlp.max(1)),
        OptTlpSource::Static { l1_hit_rate } => {
            // Analyze the *default-allocated* kernel so spill traffic
            // is visible — the profiled path throttles the same
            // binary, and consistency matters (paper §4.1 measures
            // with the tool-chain's allocation in place).
            let default_alloc = allocate_degraded(
                engine,
                kernel,
                usage.default_reg.max(crate::design_space::ALLOC_FLOOR),
            )?;
            estimate_opt_tlp(
                &default_alloc.kernel,
                gpu,
                usage.max_tlp,
                gpu.warps_per_block(usage.block_size),
                l1_hit_rate,
            )
        }
        OptTlpSource::Profiled => {
            let default_alloc = allocate_degraded(
                engine,
                kernel,
                usage.default_reg.max(crate::design_space::ALLOC_FLOOR),
            )?;
            profile_opt_tlp_with(
                engine,
                &default_alloc.kernel,
                gpu,
                launch,
                default_alloc.slots_used,
            )?
            .opt_tlp
        }
    };

    let points = prune(&usage, gpu, opt_tlp);
    if points.is_empty() {
        return Err(CratError::NoCandidates);
    }

    // One shared analysis for the whole sweep: prefetch the kernel's
    // allocation context so every candidate (and every escalation
    // attempt within one) borrows it instead of rebuilding liveness
    // and the interference graph. `prune` returns the staircase with
    // TLP ascending — i.e. register targets in *descending* order —
    // so the sweep walks from the loosest budget down, each point
    // ranking its spill candidates off the same shared spill-weight
    // seed (a per-point carry-over of actual spill *decisions* would
    // break bit-identical equality with the from-scratch allocator,
    // so only budget-independent analyses are shared).
    let ctx = engine.alloc_context(kernel);
    let work = thread_work_cycles(kernel, &ctx.cfg, gpu, cost_local, cost_shm).max(1.0);
    // The simulator's bank geometry, if modeled, feeds the layout-aware
    // knapsack as plain numbers (regalloc has no sim dependency).
    let bank = gpu.shm_banks.map(|b| ShmBankParams {
        banks: b.banks,
        word_bytes: b.word_bytes,
        conflict_penalty: b.conflict_penalty,
    });
    let results = engine.try_par_map(&points, |&point| -> Result<Candidate, CratError> {
        // Spare shared memory at this TLP, leaving the app's own
        // usage untouched (Algorithm 1's SpareShmSize). A small
        // margin covers the 128-byte allocation rounding.
        let shm = if opts.shm_spill {
            let per_block = gpu.shmem_per_sm / point.tlp.max(1);
            let spare = per_block
                .saturating_sub(usage.shm_size.div_ceil(128) * 128)
                .saturating_sub(128);
            Some(ShmSpillConfig {
                spare_bytes: spare,
                block_size: usage.block_size,
                bank,
                layout: opts.shm_layout,
            })
        } else {
            None
        };

        let score_of = |allocation: &Allocation| {
            let total_shm = usage.shm_size + allocation.spills.shared_spill_bytes_per_block;
            let achieved_tlp = occupancy(gpu, allocation.slots_used, total_shm, usage.block_size)
                .blocks
                .min(point.tlp);
            let score = tpsc(
                achieved_tlp.max(1),
                usage.block_size,
                gpu.max_threads_per_sm,
                allocation.spill_cost(cost_local, cost_shm) / work,
            );
            (achieved_tlp, score)
        };

        // Every roster strategy competes at this point; the best TPSC
        // score wins (ties break toward fewer register slots, then
        // toward roster order). A strategy failure only degrades the
        // point if *every* strategy fails.
        let mut best: Option<Candidate> = None;
        let mut primary_err: Option<AllocError> = None;
        for &kind in opts.roster.strategies() {
            engine.bump(|c| c.strategies[kind.index()].attempts += 1);
            let result = if strategy_fault_injected(kind) {
                Err(AllocError::IterationLimit)
            } else {
                run_strategy(engine, kernel, kind, point.reg, shm)
            };
            match result {
                Ok((allocation, _)) => {
                    let (achieved_tlp, score) = score_of(&allocation);
                    let better = best.as_ref().is_none_or(|b| {
                        score < b.tpsc
                            || (score == b.tpsc && allocation.slots_used < b.allocation.slots_used)
                    });
                    if better {
                        best = Some(Candidate {
                            point,
                            achieved_tlp,
                            tpsc: score,
                            allocation,
                            strategy: kind,
                        });
                    }
                }
                Err(e) => {
                    primary_err.get_or_insert(e);
                }
            }
        }
        let cand = match best {
            Some(c) => c,
            None => {
                // Degradation rung: every roster strategy failed here.
                // Try linear scan before skipping the point; if it
                // also fails, propagate the primary (first) error.
                let primary = primary_err.unwrap_or(AllocError::IterationLimit);
                engine.bump(|c| c.strategies[AllocStrategy::LinearScan.index()].attempts += 1);
                let (allocation, _) =
                    run_strategy(engine, kernel, AllocStrategy::LinearScan, point.reg, shm)
                        .map_err(|_| primary)?;
                let (achieved_tlp, score) = score_of(&allocation);
                Candidate {
                    point,
                    achieved_tlp,
                    tpsc: score,
                    allocation,
                    strategy: AllocStrategy::LinearScan,
                }
            }
        };
        let spill_bytes = u64::from(cand.allocation.spills.local_bytes_per_thread)
            + u64::from(cand.allocation.spills.shared_spill_bytes_per_block);
        let (wi, pt) = cand
            .allocation
            .spills
            .substacks
            .iter()
            .filter(|s| s.home == crat_regalloc::SpillHome::Shared)
            .fold((0u64, 0u64), |(wi, pt), s| match s.layout {
                crat_regalloc::SpillLayout::WarpInterleaved => (wi + 1, pt),
                crat_regalloc::SpillLayout::PerThread => (wi, pt + 1),
            });
        engine.bump(|c| {
            let won = &mut c.strategies[cand.strategy.index()];
            won.wins += 1;
            won.spill_bytes += spill_bytes;
            c.shm_warp_interleaved += wi;
            c.shm_per_thread += pt;
        });
        Ok(cand)
    });

    // Graceful degradation: a failing point is dropped (recorded in
    // `skipped`) and TPSC runs over the survivors; only an empty
    // survivor set fails the run, with the first failure (lowest TLP)
    // as the cause — matching the old abort-on-first-error order.
    let mut candidates = Vec::with_capacity(points.len());
    let mut skipped = Vec::new();
    for (point, result) in points.iter().zip(results) {
        match result.and_then(|r| r) {
            Ok(c) => candidates.push(c),
            Err(reason) => skipped.push(SkippedPoint {
                point: *point,
                reason,
            }),
        }
    }
    if candidates.is_empty() {
        return Err(match skipped.into_iter().next() {
            Some(s) => s.reason,
            None => CratError::NoCandidates,
        });
    }

    // Smallest TPSC wins; ties break toward more parallelism, then
    // more registers.
    let chosen = (0..candidates.len())
        .min_by(|&a, &b| {
            let (ca, cb) = (&candidates[a], &candidates[b]);
            ca.tpsc
                .partial_cmp(&cb.tpsc)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(cb.achieved_tlp.cmp(&ca.achieved_tlp))
                .then(cb.point.reg.cmp(&ca.point.reg))
        })
        .unwrap_or(0);

    Ok(CratSolution {
        usage,
        opt_tlp,
        candidates,
        chosen,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_workloads::{build_kernel, launch_sized, suite};

    fn optimize(
        kernel: &Kernel,
        gpu: &GpuConfig,
        launch: &LaunchConfig,
        opts: &CratOptions,
    ) -> Result<CratSolution, CratError> {
        optimize_with(&EvalEngine::default(), kernel, gpu, launch, opts)
    }

    #[test]
    fn cfd_chooses_more_registers_than_default() {
        let app = suite::spec("CFD");
        let kernel = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 60);
        let sol = optimize(&kernel, &gpu, &launch, &CratOptions::new()).unwrap();
        // The paper's central claim for register-hungry apps: CRAT
        // allocates more registers per thread than the occupancy-
        // oriented default (21 on this configuration).
        assert!(
            sol.point().reg > sol.usage.default_reg,
            "CRAT chose {:?} vs default {}",
            sol.point(),
            sol.usage.default_reg
        );
        assert!(sol.point().tlp <= sol.opt_tlp);
        assert!(!sol.candidates.is_empty());
    }

    #[test]
    fn kmn_keeps_default_registers() {
        // KMN's default allocation is already optimal (paper §7.2):
        // its MaxReg is below MinReg, so the only knob is TLP.
        let app = suite::spec("KMN");
        let kernel = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 60);
        let sol = optimize(&kernel, &gpu, &launch, &CratOptions::new()).unwrap();
        assert!(sol.point().reg <= sol.usage.max_reg.max(crate::design_space::ALLOC_FLOOR));
        assert!(sol.opt_tlp < sol.usage.max_tlp, "KMN must be throttled");
    }

    #[test]
    fn candidates_respect_pruning() {
        let app = suite::spec("FDTD");
        let kernel = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 45);
        let sol = optimize(&kernel, &gpu, &launch, &CratOptions::new()).unwrap();
        for c in &sol.candidates {
            assert!(c.point.tlp <= sol.opt_tlp);
            assert!(c.allocation.slots_used <= c.point.reg + 12);
        }
        let min = sol
            .candidates
            .iter()
            .map(|c| c.tpsc)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(sol.winner().tpsc, min);
    }

    #[test]
    fn static_and_given_sources_work() {
        let app = suite::spec("STE");
        let kernel = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 60);
        let s = optimize(&kernel, &gpu, &launch, &CratOptions::static_analysis(0.6)).unwrap();
        assert!(s.opt_tlp >= 1);
        let g = optimize(
            &kernel,
            &gpu,
            &launch,
            &CratOptions {
                opt_tlp: OptTlpSource::Given(2),
                ..CratOptions::new()
            },
        )
        .unwrap();
        assert_eq!(g.opt_tlp, 2);
        assert!(g.candidates.iter().all(|c| c.point.tlp <= 2));
    }

    #[test]
    fn local_only_never_uses_shared_spills() {
        let app = suite::spec("CFD");
        let kernel = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 60);
        let sol = optimize(&kernel, &gpu, &launch, &CratOptions::local_only()).unwrap();
        for c in &sol.candidates {
            assert_eq!(c.allocation.spills.counts.total_shared(), 0);
        }
    }
}
