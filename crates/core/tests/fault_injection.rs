//! The fault-injection harness (ISSUE 4): deterministic, seed-driven
//! adversarial inputs thrown at every pipeline layer — mutated PTX at
//! the parser, hostile launches and shrunken GPUs at the simulator,
//! starved budgets at the allocator, and injected panics at the
//! engine's workers. Every seed must produce a structured error or a
//! degraded-but-valid result: no process panic, no hang, no deadline
//! overrun.
//!
//! The fault hooks (`crat_sim::fault`) are process-global, so every
//! test that arms them (or asserts on an engine's panic counters)
//! serializes on [`FAULT_LOCK`].

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crat_core::{
    evaluate_with, optimize_with, profile_opt_tlp_with, AllocStrategy, CratError, CratOptions,
    EvalBudget, EvalEngine, OptTlpSource, SimJob, StrategyRoster, Technique,
};
use crat_ptx::parse;
use crat_regalloc::{
    allocate, allocate_linear_scan, AllocOptions, LayoutPolicy, ShmBankParams, ShmSpillConfig,
};
use crat_sim::{fault, fault::FaultPlan, GpuConfig, LaunchConfig, ShmBankConfig, SimError};
use crat_workloads::{build_kernel, launch_sized, suite};

/// Serializes tests that touch the process-global fault hooks.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_guard() -> MutexGuard<'static, ()> {
    // A poisoned lock means an earlier test failed; the hooks may be
    // left armed, so disarm before running.
    let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::disarm_all();
    guard
}

/// Wall-clock ceiling for one seeded scenario. Generous — a healthy
/// scenario finishes in milliseconds — but bounded, so a hang fails
/// the suite instead of wedging it.
const SCENARIO_DEADLINE: Duration = Duration::from_secs(30);

/// Run one seeded scenario under the wall-clock ceiling.
fn scenario<F: FnOnce()>(seed: u64, f: F) {
    let started = Instant::now();
    f();
    let elapsed = started.elapsed();
    assert!(
        elapsed < SCENARIO_DEADLINE,
        "seed {seed} exceeded its deadline: {elapsed:?}"
    );
}

fn app_for_seed(seed: u64) -> &'static crat_workloads::AppSpec {
    &suite::APPS[(seed as usize) % suite::APPS.len()]
}

/// Parser layer: 80 seeds of mutated-valid workload PTX. Parsing must
/// return (Ok for benign mutations, Err for the rest) — never panic.
#[test]
fn parser_survives_mutated_workload_ptx() {
    let mut parsed_ok = 0u32;
    let mut rejected = 0u32;
    for seed in 0..80u64 {
        scenario(seed, || {
            let mut plan = FaultPlan::new(seed);
            let app = app_for_seed(seed);
            let src = build_kernel(app).to_ptx();
            // Stack up to 3 mutations so later seeds drift further
            // from valid syntax.
            let mut text = src;
            for _ in 0..=plan.next_range(3) {
                text = plan.mutate_ptx(&text);
            }
            match parse(&text) {
                Ok(k) => {
                    parsed_ok += 1;
                    // A benign mutation must still yield a printable
                    // kernel (no panicking accessors).
                    let _ = k.to_ptx();
                }
                Err(e) => {
                    rejected += 1;
                    assert!(!e.to_string().is_empty());
                }
            }
        });
    }
    assert_eq!(parsed_ok + rejected, 80);
    assert!(rejected > 0, "mutations should break at least one kernel");
}

/// Simulator layer: 48 seeds of adversarial launch geometry and
/// shrunken GPU configurations, run through a budgeted engine. Every
/// outcome is a structured success or `CratError`, inside its budget.
#[test]
fn simulator_survives_adversarial_configs() {
    let _guard = fault_guard();
    let engine = EvalEngine::new(2);
    let mut ok = 0u32;
    let mut structured_err = 0u32;
    for seed in 0..48u64 {
        scenario(seed, || {
            let mut plan = FaultPlan::new(seed ^ 0xad5);
            let app = app_for_seed(seed);
            let kernel = build_kernel(app);
            let gpu = plan.adversarial_gpu(&GpuConfig::fermi());
            let mut launch = plan.adversarial_launch(gpu.warp_size);
            // Keep the app's own params bound half the time, so some
            // seeds exercise MissingParam and some run real code.
            if plan.chance(1, 2) {
                for p in kernel.params() {
                    launch = launch.with_param(&p.name, 0x1000_0000);
                }
            }
            let budget = EvalBudget::none()
                .with_max_cycles(200_000)
                .with_deadline(Instant::now() + Duration::from_secs(20));
            let regs = 1 + plan.next_range(64) as u32;
            match engine.simulate_budgeted(&kernel, &gpu, &launch, regs, None, budget) {
                Ok(stats) => {
                    ok += 1;
                    assert!(stats.cycles <= 200_000 + 1);
                }
                Err(CratError::Internal { payload, .. }) => {
                    panic!("adversarial config must not panic the simulator: {payload}")
                }
                Err(e) => {
                    structured_err += 1;
                    assert!(!e.to_string().is_empty());
                }
            }
        });
    }
    assert_eq!(ok + structured_err, 48);
    assert!(structured_err > 0, "hostile launches should be rejected");
    assert_eq!(engine.stats().panics_caught, 0);
}

/// Launch layer: 5 invalid launches (block sizes 0, 1, 48 and 63, and
/// an empty grid) through every entry point that analyzes a kernel
/// before simulating it — `optimize_with` under both OptTLP sources,
/// every technique, and the profiling sweep. Each must return the
/// error `crat_sim::simulate` returns for the same launch, not panic.
#[test]
fn invalid_launches_fail_as_the_simulator_does() {
    let _guard = fault_guard();
    let engine = EvalEngine::new(2);
    let gpu = GpuConfig::fermi();
    let app = suite::spec("BAK");
    let kernel = build_kernel(app);
    let shapes = [(12, 0), (12, 1), (12, 48), (12, 63), (0, app.block_size)];
    for (seed, (grid_blocks, block_size)) in shapes.into_iter().enumerate() {
        scenario(seed as u64, || {
            let launch = LaunchConfig {
                grid_blocks,
                block_size,
                ..launch_sized(app, 12)
            };
            let expected = crat_sim::simulate(&kernel, &gpu, &launch, 21, None)
                .map_err(CratError::Sim)
                .expect_err("the simulator rejects the launch");
            assert!(matches!(expected, CratError::Sim(SimError::BadLaunch(_))));
            for opt_tlp in [
                OptTlpSource::Profiled,
                OptTlpSource::Static { l1_hit_rate: 0.6 },
            ] {
                let opts = CratOptions {
                    opt_tlp,
                    ..CratOptions::new()
                };
                let r = optimize_with(&engine, &kernel, &gpu, &launch, &opts);
                assert_eq!(r.err(), Some(expected.clone()), "optimize {opt_tlp:?}");
            }
            for t in [
                Technique::MaxTlp,
                Technique::OptTlp,
                Technique::CratLocal,
                Technique::Crat,
                Technique::CratStatic,
            ] {
                let r = evaluate_with(&engine, &kernel, &gpu, &launch, t);
                assert_eq!(r.err(), Some(expected.clone()), "evaluate {t}");
            }
            let r = profile_opt_tlp_with(&engine, &kernel, &gpu, &launch, 21);
            assert_eq!(r.err(), Some(expected), "profile");
        });
    }
    assert_eq!(engine.stats().panics_caught, 0);
}

/// Default-allocation memo: a forced Briggs failure on a fresh engine
/// lands on a real allocation, and its linear-scan fallback is not
/// memoized — once disarmed, the same engine returns the allocation a
/// healthy fresh engine does.
#[test]
fn degraded_default_allocation_is_not_memoized() {
    let _guard = fault_guard();
    let gpu = GpuConfig::fermi();
    for (seed, abbr) in ["CFD", "FDTD", "BAK"].into_iter().enumerate() {
        scenario(seed as u64, || {
            let app = suite::spec(abbr);
            let kernel = build_kernel(app);
            let launch = launch_sized(app, 30);
            let max_tlp = |engine: &EvalEngine| {
                evaluate_with(engine, &kernel, &gpu, &launch, Technique::MaxTlp)
                    .expect("MaxTLP evaluates")
            };
            let healthy = max_tlp(&EvalEngine::serial());

            let engine = EvalEngine::serial();
            fault::arm_briggs_failures(1);
            let degraded = max_tlp(&engine);
            assert_ne!(
                degraded.allocation, healthy.allocation,
                "{abbr}: linear scan allocates differently"
            );
            assert!(
                !fault::take_briggs_failure(),
                "{abbr}: the armed failure must land on the default allocation"
            );
            fault::disarm_all();
            let again = max_tlp(&engine);
            assert_eq!(again.allocation, healthy.allocation, "{abbr}");
            assert_eq!(again.stats, healthy.stats, "{abbr}");
        });
    }
}

/// Allocator layer: 40 seeds of starved register budgets (including
/// forced spill-stack exhaustion near the floor) against both
/// allocators. Structured error or valid allocation, never a panic.
#[test]
fn allocator_survives_starved_budgets() {
    for seed in 0..40u64 {
        scenario(seed, || {
            let mut plan = FaultPlan::new(seed ^ 0xa110c);
            let app = app_for_seed(seed);
            let kernel = build_kernel(app);
            // Budgets from 0 (impossible: spill temporaries alone
            // exceed it) through barely-viable, forcing the spill
            // machinery to exhaust or nearly exhaust its stack.
            let budget = plan.next_range(14) as u32;
            let opts = AllocOptions::new(budget);
            for result in [
                allocate(&kernel, &opts),
                allocate_linear_scan(&kernel, &opts),
            ] {
                match result {
                    Ok(a) => assert!(a.slots_used <= budget.max(a.slots_used)),
                    Err(e) => assert!(!e.to_string().is_empty()),
                }
            }
        });
    }
}

/// Optimizer degradation: 16 seeds arming forced Briggs failures
/// against a roster pinned to Briggs, so the strategy sweep has no
/// sibling to absorb the fault. The pipeline must fall back to linear
/// scan (recording the strategy), still produce a valid solution, and
/// stay inert once disarmed.
#[test]
fn optimizer_degrades_on_briggs_failure() {
    let _guard = fault_guard();
    let engine = EvalEngine::new(2);
    let gpu = GpuConfig::fermi();
    for seed in 0..16u64 {
        scenario(seed, || {
            let app = app_for_seed(seed);
            let kernel = build_kernel(app);
            let launch = launch_sized(app, 30);
            // Given OptTLP keeps the profiling stage out of the way so
            // the armed failures land on candidate allocations.
            let opts = CratOptions {
                opt_tlp: OptTlpSource::Given(1 + (seed % 4) as u32),
                roster: StrategyRoster::Pinned(AllocStrategy::Briggs),
                ..CratOptions::new()
            };
            fault::arm_briggs_failures(1 + seed % 3);
            let solution = optimize_with(&engine, &kernel, &gpu, &launch, &opts)
                .expect("fallback must keep the optimize alive");
            fault::disarm_all();
            assert!(
                solution.fallback_count() > 0,
                "seed {seed}: a forced Briggs failure must surface as a fallback"
            );
            assert!(solution.is_degraded());
            // The winner is still a valid allocation.
            assert!(solution.winner().allocation.slots_used > 0);
            // Disarmed, the same optimize is healthy again.
            let healthy = optimize_with(&engine, &kernel, &gpu, &launch, &opts)
                .expect("healthy rerun must succeed");
            assert_eq!(healthy.fallback_count(), 0);
            assert!(healthy.skipped.is_empty());
            assert!(healthy
                .candidates
                .iter()
                .all(|c| c.strategy == AllocStrategy::Briggs));
        });
    }
}

/// SSA-allocator degradation: 8 seeds arming forced SSA failures
/// against a roster pinned to the SSA strategy. Mirrors the Briggs
/// scenario: the per-point sweep has no sibling strategy, so the armed
/// failure must surface as a linear-scan fallback.
#[test]
fn optimizer_degrades_on_ssa_failure() {
    let _guard = fault_guard();
    let engine = EvalEngine::new(2);
    let gpu = GpuConfig::fermi();
    for seed in 0..8u64 {
        scenario(seed, || {
            let app = app_for_seed(seed);
            let kernel = build_kernel(app);
            let launch = launch_sized(app, 30);
            let opts = CratOptions {
                opt_tlp: OptTlpSource::Given(1 + (seed % 4) as u32),
                roster: StrategyRoster::Pinned(AllocStrategy::Ssa),
                ..CratOptions::new()
            };
            fault::arm_ssa_failures(1 + seed % 3);
            let solution = optimize_with(&engine, &kernel, &gpu, &launch, &opts)
                .expect("fallback must keep the optimize alive");
            fault::disarm_all();
            assert!(
                solution.fallback_count() > 0,
                "seed {seed}: a forced SSA failure must surface as a fallback"
            );
            assert!(solution.is_degraded());
            assert!(solution.winner().allocation.slots_used > 0);
            // Disarmed, the same optimize is healthy again.
            let healthy = optimize_with(&engine, &kernel, &gpu, &launch, &opts)
                .expect("healthy rerun must succeed");
            assert_eq!(healthy.fallback_count(), 0);
            assert!(healthy
                .candidates
                .iter()
                .all(|c| c.strategy == AllocStrategy::Ssa));
        });
    }
}

/// Roster resilience: 8 seeds arming forced Briggs failures against
/// the full default roster. The sibling strategies absorb the fault —
/// the point still gets a competitive (non-fallback) allocation, so
/// the solution is NOT degraded.
#[test]
fn default_roster_absorbs_single_strategy_failures() {
    let _guard = fault_guard();
    let engine = EvalEngine::new(2);
    let gpu = GpuConfig::fermi();
    for seed in 0..8u64 {
        scenario(seed, || {
            let app = app_for_seed(seed);
            let kernel = build_kernel(app);
            let launch = launch_sized(app, 30);
            let opts = CratOptions {
                opt_tlp: OptTlpSource::Given(1 + (seed % 4) as u32),
                ..CratOptions::new()
            };
            fault::arm_briggs_failures(1 + seed % 3);
            let solution = optimize_with(&engine, &kernel, &gpu, &launch, &opts)
                .expect("the roster must keep the optimize alive");
            fault::disarm_all();
            assert_eq!(
                solution.fallback_count(),
                0,
                "seed {seed}: sibling strategies must absorb the Briggs failure"
            );
            assert!(!solution.is_degraded());
            assert!(solution.winner().allocation.slots_used > 0);
        });
    }
}

/// Engine layer: 16 seeds of injected worker panics. Each panic must
/// surface as `CratError::Internal`, be counted, leave the memo cache
/// unpoisoned, and leave the engine fully usable: the same job retried
/// afterwards succeeds and matches a direct simulation.
#[test]
fn engine_survives_injected_worker_panics() {
    let _guard = fault_guard();
    for seed in 0..16u64 {
        scenario(seed, || {
            let engine = EvalEngine::new(1 + (seed % 4) as usize);
            let app = app_for_seed(seed);
            let kernel = build_kernel(app);
            let gpu = GpuConfig::fermi();
            let launch = launch_sized(app, 30);
            // Four distinct operating points: at grid 30 most caps
            // leave the same resident blocks (one memo slot), so the
            // register count differs from job to job.
            let jobs: Vec<SimJob<'_>> = (1..=4)
                .map(|tlp| SimJob {
                    kernel: &kernel,
                    gpu: &gpu,
                    launch: &launch,
                    regs_per_thread: 15 + tlp,
                    tlp_cap: Some(tlp),
                })
                .collect();
            let n_panics = 1 + seed % 3;
            fault::arm_sim_panics(n_panics);
            let results = engine.simulate_batch(&jobs);
            fault::disarm_all();
            let internal = results
                .iter()
                .filter(|r| matches!(r, Err(CratError::Internal { .. })))
                .count() as u64;
            assert_eq!(internal, n_panics, "every armed panic must be caught");
            for r in &results {
                if let Err(CratError::Internal { payload, .. }) = r {
                    assert!(payload.contains(fault::INJECTED_SIM_PANIC));
                }
            }
            assert_eq!(engine.stats().panics_caught, n_panics);
            // Cache consistency: panicked entries were evicted, so the
            // cache holds exactly the successful jobs...
            assert_eq!(engine.cache_len(), jobs.len() - internal as usize);
            // ...and the engine stays usable: retrying the whole batch
            // now succeeds and matches direct simulation.
            for (job, retried) in jobs.iter().zip(engine.simulate_batch(&jobs)) {
                let direct = crat_sim::simulate(
                    job.kernel,
                    job.gpu,
                    job.launch,
                    job.regs_per_thread,
                    job.tlp_cap,
                )
                .expect("healthy job");
                assert_eq!(retried.expect("engine must recover"), direct);
            }
            assert_eq!(engine.cache_len(), jobs.len());
        });
    }
}

/// Budget layer: 24 seeds of cycle-override and expired-deadline
/// budgets. Runaway work degrades to `CycleLimit`/`DeadlineExceeded`,
/// counted in the stats, with deadline outcomes never memoized.
#[test]
fn budgets_degrade_runaway_simulations() {
    let _guard = fault_guard();
    let engine = EvalEngine::serial();
    let gpu = GpuConfig::fermi();
    for seed in 0..24u64 {
        scenario(seed, || {
            let mut plan = FaultPlan::new(seed ^ 0xb0d9e7);
            let app = app_for_seed(seed);
            let kernel = build_kernel(app);
            let launch = launch_sized(app, 30);
            if seed % 2 == 0 {
                // A cycle budget far below the app's real runtime.
                let cap = 1 + plan.next_range(50);
                let budget = EvalBudget::none().with_max_cycles(cap);
                match engine.simulate_budgeted(&kernel, &gpu, &launch, 16, Some(2), budget) {
                    Err(CratError::Sim(SimError::CycleLimit { cycles })) => {
                        assert!(cycles >= cap)
                    }
                    other => panic!("seed {seed}: expected CycleLimit, got {other:?}"),
                }
            } else {
                // A deadline that has already passed.
                let before = engine.cache_len();
                let budget =
                    EvalBudget::none().with_deadline(Instant::now() - Duration::from_millis(1));
                match engine.simulate_budgeted(&kernel, &gpu, &launch, 16, Some(2), budget) {
                    Err(CratError::Sim(SimError::DeadlineExceeded { .. })) => {}
                    other => panic!("seed {seed}: expected DeadlineExceeded, got {other:?}"),
                }
                assert_eq!(
                    engine.cache_len(),
                    before,
                    "deadline outcomes must never be memoized"
                );
            }
        });
    }
    assert_eq!(engine.stats().budget_exceeded, 24);
    assert_eq!(engine.stats().panics_caught, 0);
}

/// Bank-model layer: 24 seeds of hostile shared-memory bank
/// geometries (bank counts from 8 to 64, 4- and 8-byte words, steep
/// conflict penalties) crossed with every spill-layout policy. The
/// allocator's layout-aware knapsack and the simulator's conflict
/// serialization must both hold up: structured error or valid
/// allocation, no panic, and on every successful simulation the cycle
/// attribution — bank-conflict slots included — still sums exactly to
/// the simulated cycles.
#[test]
fn bank_model_survives_adversarial_layouts() {
    let _guard = fault_guard();
    let engine = EvalEngine::new(2);
    let apps: Vec<&'static crat_workloads::AppSpec> =
        suite::all().chain(suite::bank_sensitive()).collect();
    let mut simulated_ok = 0u32;
    let mut conflicts_seen = 0u64;
    for seed in 0..24u64 {
        scenario(seed, || {
            let mut plan = FaultPlan::new(seed ^ 0xba9c);
            let app = apps[(seed as usize) % apps.len()];
            let kernel = build_kernel(app);
            let launch = launch_sized(app, 6);
            let bank = ShmBankParams {
                banks: 1 << (3 + plan.next_range(4)), // 8..=64
                word_bytes: if plan.chance(1, 3) { 8 } else { 4 },
                conflict_penalty: 1 + plan.next_range(8) as u32,
            };
            let policy = match seed % 3 {
                0 => LayoutPolicy::Auto,
                1 => LayoutPolicy::WarpInterleaved,
                _ => LayoutPolicy::PerThread,
            };
            // Budgets tight enough to force spilling (and usually
            // shared-memory re-homing) without starving the allocator
            // outright.
            let budget = 12 + plan.next_range(20) as u32;
            let opts = AllocOptions::new(budget).with_shm_spill(
                ShmSpillConfig::new(48 * 1024, app.block_size)
                    .with_bank(bank)
                    .with_layout(policy),
            );
            let alloc = match allocate(&kernel, &opts) {
                Ok(a) => a,
                Err(e) => {
                    assert!(!e.to_string().is_empty());
                    return;
                }
            };
            let mut gpu = GpuConfig::fermi();
            gpu.shm_banks = Some(ShmBankConfig {
                banks: bank.banks,
                word_bytes: bank.word_bytes,
                conflict_penalty: bank.conflict_penalty,
            });
            let eval_budget = EvalBudget::none()
                .with_max_cycles(400_000)
                .with_deadline(Instant::now() + Duration::from_secs(20));
            match engine.simulate_budgeted(
                &alloc.kernel,
                &gpu,
                &launch,
                alloc.slots_used,
                None,
                eval_budget,
            ) {
                Ok(stats) => {
                    simulated_ok += 1;
                    conflicts_seen += stats.shm_bank_conflicts;
                    stats
                        .attribution
                        .check(stats.cycles)
                        .unwrap_or_else(|e| panic!("seed {seed} ({}): {e}", app.abbr));
                }
                Err(CratError::Internal { payload, .. }) => {
                    panic!("seed {seed}: banked simulation panicked: {payload}")
                }
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        });
    }
    assert!(simulated_ok > 0, "no banked scenario simulated");
    assert!(conflicts_seen > 0, "no scenario exercised the bank model");
    assert_eq!(engine.stats().panics_caught, 0);
}

/// Event-scheduler layer: 16 seeds aimed at the issue and idle
/// fast-forward paths, using the scheduler-overhead microkernels
/// (`crat_workloads::micro`) — a sole-warp straight-line ALU kernel,
/// and a dependent-load stall storm whose cycles are covered almost
/// entirely by fast-forward jumps. Cycle caps and wall-clock deadlines
/// must still fire promptly when single loop iterations cover
/// thousands of cycles, and every healthy run's attribution must sum
/// exactly to its cycles.
#[test]
fn event_scheduler_survives_stall_storm_budgets() {
    use crat_sim::SchedulerKind;
    use crat_workloads::micro;

    let _guard = fault_guard();
    let engine = EvalEngine::serial();
    let (mut cycle_hits, mut deadline_hits, mut healthy) = (0u32, 0u32, 0u32);
    for seed in 0..16u64 {
        scenario(seed, || {
            let (kernel, launch, tlp) = if seed % 2 == 0 {
                (
                    micro::empty_alu_kernel(),
                    micro::empty_alu_launch(),
                    Some(1),
                )
            } else {
                (
                    micro::stall_heavy_kernel(),
                    micro::stall_heavy_launch(4),
                    None,
                )
            };
            let mut gpu = GpuConfig::fermi();
            // Independent of the kernel (`seed % 2`) and budget
            // (`seed % 4`) choices, so every (kernel, budget) class
            // runs under both schedulers.
            gpu.scheduler = if (seed / 4) % 2 == 0 {
                SchedulerKind::Gto
            } else {
                SchedulerKind::Lrr
            };
            match seed % 4 {
                0 => {
                    // A cycle cap that lands mid-jump: the event-driven
                    // loop must stop at the cap's check, never sail past
                    // it to completion.
                    let mut plan = FaultPlan::new(seed ^ 0xca1e);
                    let cap = 1 + plan.next_range(2_000);
                    let budget = EvalBudget::none().with_max_cycles(cap);
                    match engine.simulate_budgeted(&kernel, &gpu, &launch, 21, tlp, budget) {
                        Err(CratError::Sim(SimError::CycleLimit { cycles })) => {
                            cycle_hits += 1;
                            assert!(cycles > cap, "seed {seed}: stopped before the cap");
                        }
                        other => panic!("seed {seed}: expected CycleLimit, got {other:?}"),
                    }
                }
                1 => {
                    // An already-expired deadline under event-driven
                    // fast-forward: the countdown is burned by skipped
                    // cycles, so the first check interval cancels the
                    // run even though iterations jump whole stall
                    // windows at a time.
                    let budget =
                        EvalBudget::none().with_deadline(Instant::now() - Duration::from_millis(1));
                    match engine.simulate_budgeted(&kernel, &gpu, &launch, 21, tlp, budget) {
                        Err(CratError::Sim(SimError::DeadlineExceeded { cycles })) => {
                            deadline_hits += 1;
                            assert!(
                                cycles < 20_000,
                                "seed {seed}: deadline fired late (cycle {cycles})"
                            );
                        }
                        other => panic!("seed {seed}: expected DeadlineExceeded, got {other:?}"),
                    }
                }
                _ => {
                    // Healthy run: the bulk attribution folded by
                    // fast-forward jumps must still sum exactly to the
                    // simulated cycles.
                    let budget = EvalBudget::none()
                        .with_max_cycles(5_000_000)
                        .with_deadline(Instant::now() + Duration::from_secs(20));
                    match engine.simulate_budgeted(&kernel, &gpu, &launch, 21, tlp, budget) {
                        Ok(stats) => {
                            healthy += 1;
                            stats
                                .attribution
                                .check(stats.cycles)
                                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                        }
                        other => panic!("seed {seed}: expected success, got {other:?}"),
                    }
                }
            }
        });
    }
    assert_eq!(cycle_hits, 4);
    assert_eq!(deadline_hits, 4);
    assert_eq!(healthy, 8);
    assert_eq!(engine.stats().panics_caught, 0);
}

/// The grand total of seeded scenarios across this harness; the ISSUE
/// demands at least 200.
#[test]
#[allow(clippy::assertions_on_constants)] // the constant sum *is* the contract
fn harness_covers_at_least_200_seeds() {
    assert!(80 + 48 + 40 + 16 + 8 + 8 + 16 + 24 + 24 + 16 >= 200);
}
