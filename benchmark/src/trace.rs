//! `trace`: the per-layer metrics. Serially, app by app in seed order,
//! the app's top-level calls run cold and timed; then, on separate
//! replay engines, the same app's work is replayed bottom-up, one layer
//! at a time, each timed around the layer's public call. A layer's
//! replay finds every layer below it already memoized by the engine,
//! so its span is its own time. Layers that a top-level call re-runs on
//! every request (resource analysis, allocation, profiling bookkeeping)
//! sit inside the top-level replay span; the memoized ones (contexts,
//! decodes, simulations, store reads) are spans of their own.
//!
//! The ledger compares the cold calls with the sum of the spans on the
//! workload's path. Interleaving cold and replay per app keeps both
//! sides within a second of each other, so a slow spell of a shared
//! machine lands on both. Further passes replay only the path, until
//! the cold calls have run for long enough, and the ledger reports the
//! median over the passes.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crat_core::{
    analyze, evaluate_with, optimize_with, profile_opt_tlp_with, CratOptions, EngineStats,
    EvalEngine, RecordKey, ResultStore, StoreConfig, Technique,
};
use crat_ptx::Kernel;
use crat_sim::SimStats;

use crate::metrics::Report;
use crate::run::{engine, fill_store, Scratch};
use crate::stats::{median, Rng};
use crate::workload::{static_options, Done, Inputs, Workload};

/// Ledger passes continue until the cold calls have taken this long in
/// total, so no single pass is judged alone: a suite pass takes about
/// 6 s of cold calls, and a machine's speed drifts by a few percent
/// over that.
const LEDGER_COLD_MS: f64 = 15_000.0;
const MAX_PASSES: usize = 30;

/// Run `f`, returning its result and the milliseconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// One simulation of an app's replay: a kernel of the app's pool at an
/// operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    kernel: usize,
    reg: u32,
    tlp_cap: Option<u32>,
}

/// An app's distinct kernels and jobs, so the replay simulates each
/// operating point once, as the cold calls' memo did.
#[derive(Default)]
struct Jobs {
    kernels: Vec<Kernel>,
    jobs: Vec<Job>,
}

impl Jobs {
    fn job(&mut self, kernel: Kernel, reg: u32, tlp_cap: Option<u32>) -> usize {
        let kernel = match self.kernels.iter().position(|k| *k == kernel) {
            Some(i) => i,
            None => {
                self.kernels.push(kernel);
                self.kernels.len() - 1
            }
        };
        let job = Job {
            kernel,
            reg,
            tlp_cap,
        };
        match self.jobs.iter().position(|j| *j == job) {
            Some(i) => i,
            None => {
                self.jobs.push(job);
                self.jobs.len() - 1
            }
        }
    }
}

/// Milliseconds per layer, summed over apps.
#[derive(Default)]
struct Spans {
    untraced: f64,
    cold: f64,
    parse: f64,
    analyze: f64,
    context: f64,
    decode: f64,
    simulate: f64,
    /// Reads of the filled store through an engine (`store-warm` only).
    store_read: f64,
    profile: f64,
    optimize: f64,
    evaluate: f64,
    memo: f64,
    save: f64,
    load: f64,
}

/// Counts over apps, read from the replay engines around each layer.
#[derive(Default)]
struct Counts {
    bytes: usize,
    jobs: u64,
    allocs: u64,
    wins: u64,
    attempts: u64,
    spill_bytes: u64,
    sims: u64,
    insts: u64,
    cycles: u64,
    levels: usize,
    crat_log_speedup: f64,
    sensitive: usize,
    final_cycles: u64,
}

/// One pass over every app.
#[derive(Default)]
struct Pass {
    sp: Spans,
    n: Counts,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    cold: EngineStats,
    top: EngineStats,
    sim: EngineStats,
}

struct Trace<'a> {
    w: Workload,
    inputs: &'a Inputs,
    store: Option<&'a Path>,
    records: &'a ResultStore,
    options: Vec<CratOptions>,
    app_order: Vec<usize>,
}

/// The engines of one pass. `untraced` runs the calls with one timer
/// around each app; `cold` times every call. `sim` replays decoding
/// and simulation; `stored`, on `store-warm` only, reads the filled
/// store back. `prep` only supplies the optimizer path's default
/// allocations.
struct Engines {
    untraced: EvalEngine,
    cold: EvalEngine,
    sim: EvalEngine,
    stored: Option<EvalEngine>,
    prep: EvalEngine,
}

impl Engines {
    /// The engine the layers above the simulator replay on.
    fn top(&self) -> &EvalEngine {
        self.stored.as_ref().unwrap_or(&self.sim)
    }
}

fn strategy_sum(s: &EngineStats, f: fn(&crat_core::StrategyStats) -> u64) -> u64 {
    s.strategies.iter().map(f).sum()
}

impl Trace<'_> {
    /// The spans on this workload's path; nested layers are inside the
    /// top-level replay span.
    fn path(&self, sp: &Spans) -> f64 {
        match self.w {
            Workload::OptimizeStatic => sp.parse + sp.context + sp.optimize,
            Workload::StoreWarm => sp.context + sp.store_read + sp.evaluate,
            _ => sp.context + sp.decode + sp.simulate + sp.evaluate,
        }
    }

    /// A full pass replays every layer; a ledger pass only the path.
    fn pass(&self, full: bool) -> Result<Pass, String> {
        let e = Engines {
            untraced: engine(1, self.store)?,
            cold: engine(1, self.store)?,
            sim: EvalEngine::new(1),
            stored: self.store.map(|s| engine(1, Some(s))).transpose()?,
            prep: EvalEngine::new(1),
        };
        let mut p = Pass::default();
        for (k, &a) in self.app_order.iter().enumerate() {
            self.app(&e, &mut p, k, a, full)?;
        }
        if e.stored.is_some() && e.top().stats().sims_executed != 0 {
            p.problems
                .push("the store-backed replay simulated".to_string());
        }
        p.cold = e.cold.stats();
        p.top = e.top().stats();
        p.sim = e.sim.stats();
        Ok(p)
    }

    /// App `a`, the `k`-th in seed order: its calls untraced and
    /// traced, with the replay of its layers between the two. The
    /// passes alternate order from app to app, so a machine that speeds
    /// up or slows down over a run biases neither side of the ledger.
    fn app(&self, e: &Engines, p: &mut Pass, k: usize, a: usize, full: bool) -> Result<(), String> {
        let calls: Vec<usize> = self.inputs.calls_of(a).collect();
        let traced_first = k % 2 == 1;
        let outputs = self.calls_pass(e, p, &calls, traced_first);
        let replayed = if outputs.len() == calls.len() {
            self.replay(e, p, a, &calls, &outputs, full)
        } else {
            let abbr = self.inputs.apps[a].abbr;
            p.problems.push(format!("{abbr}: a cold call failed"));
            Ok(())
        };
        self.calls_pass(e, p, &calls, !traced_first);
        replayed
    }

    /// One pass over an app's calls on a cold engine: each call timed
    /// and checked when `traced`, one timer around them all otherwise.
    /// Results are held to the end of the pass, as `run` holds them.
    fn calls_pass(&self, e: &Engines, p: &mut Pass, calls: &[usize], traced: bool) -> Vec<Done> {
        let inputs = self.inputs;
        if !traced {
            let (held, ms) = timed(|| {
                calls
                    .iter()
                    .map(|&i| inputs.run(&e.untraced, inputs.calls[i]))
                    .collect::<Vec<_>>()
            });
            p.sp.untraced += ms;
            return held.into_iter().flatten().collect();
        }
        let mut outputs = Vec::with_capacity(calls.len());
        for &i in calls {
            let (r, ms) = timed(|| inputs.run(&e.cold, inputs.calls[i]));
            p.sp.cold += ms;
            p.attempted += 1;
            if let Err(err) = inputs.check(inputs.calls[i], &r) {
                p.failed += 1;
                p.problems.push(err);
            }
            outputs.extend(r.ok());
        }
        outputs
    }

    /// The bottom-up replay of app `a`, whose calls returned `outputs`.
    fn replay(
        &self,
        e: &Engines,
        p: &mut Pass,
        a: usize,
        calls: &[usize],
        outputs: &[Done],
        full: bool,
    ) -> Result<(), String> {
        let (w, inputs) = (self.w, self.inputs);
        let suite_path = matches!(w, Workload::SuiteCold | Workload::SuiteParallel);
        let is_static = w == Workload::OptimizeStatic;
        let (top, sim) = (e.top(), &e.sim);
        let app = &inputs.apps[a];

        // The kernel the calls start from: built for the suite,
        // parsed from the printed PTX for `optimize-static`.
        let text = match w {
            Workload::OptimizeStatic => inputs.ptx[a].clone(),
            _ => app.kernel.to_ptx(),
        };
        let kernel = match w {
            Workload::OptimizeStatic => crat_ptx::parse(&text).map_err(|e| e.to_string())?,
            _ => app.kernel.clone(),
        };

        // The replay's simulations: the OptTLP profiling sweep over
        // the default allocation, then every call's final binary.
        // The suite calls return the default allocation (MaxTLP's
        // binary); the optimizer does not, so one MaxTLP evaluation
        // provides it.
        let mut jobs = Jobs::default();
        let (mut sweep, mut finals) = (Vec::new(), Vec::new());
        let mut default_reg = 0;
        if full || !is_static {
            let (default_kernel, reg) = match w {
                Workload::OptimizeStatic => {
                    let t = Technique::MaxTlp;
                    let e = evaluate_with(&e.prep, &kernel, &app.gpu, &app.launch, t)
                        .map_err(|e| format!("{}: {e}", app.abbr))?;
                    (e.allocation.kernel, e.reg)
                }
                _ => (outputs[0].fin.kernel.clone(), outputs[0].fin.reg),
            };
            default_reg = reg;
            let levels = crat_sim::occupancy(
                &app.gpu,
                reg,
                default_kernel.shared_bytes(),
                app.launch.block_size,
            )
            .blocks
            .max(1);
            sweep = (1..=levels)
                .map(|t| jobs.job(default_kernel.clone(), reg, Some(t)))
                .collect();
            finals = outputs
                .iter()
                .map(|d| jobs.job(d.fin.kernel.clone(), d.fin.reg, d.fin.tlp_cap))
                .collect();
        }
        let run_job = |e: &EvalEngine, j: &Job| {
            let k = &jobs.kernels[j.kernel];
            e.simulate(k, &app.gpu, &app.launch, j.reg, j.tlp_cap)
        };

        // The bottom-up replay of this app.
        if full || is_static {
            let (parsed, ms) = timed(|| crat_ptx::parse(&text));
            p.sp.parse += ms;
            p.n.bytes += text.len();
            if parsed.is_err() {
                p.problems
                    .push(format!("{}: printed PTX did not parse", app.abbr));
            }
        }
        if full {
            p.sp.analyze += timed(|| black_box(analyze(&kernel, &app.gpu, &app.launch))).1;
        }
        p.sp.context += timed(|| black_box(top.alloc_context(&kernel))).1;

        let mut stats: Vec<SimStats> = Vec::new();
        if full || suite_path {
            let (decoded, ms) = timed(|| {
                jobs.kernels
                    .iter()
                    .map(|k| sim.decode_cached(k).map(|_| ()))
                    .collect::<Result<Vec<()>, _>>()
            });
            p.sp.decode += ms;
            decoded.map_err(|e| format!("{}: {e}", app.abbr))?;

            let before = sim.stats();
            let (r, ms) = timed(|| {
                jobs.jobs
                    .iter()
                    .map(|j| run_job(sim, j))
                    .collect::<Result<Vec<_>, _>>()
            });
            p.sp.simulate += ms;
            stats = r.map_err(|e| format!("{}: {e}", app.abbr))?;
            let after = sim.stats();
            p.n.sims += after.sims_executed - before.sims_executed;
            p.n.insts += after.sim_insts - before.sim_insts;
            p.n.cycles += after.sim_cycles - before.sim_cycles;
            p.n.jobs += jobs.jobs.len() as u64;
        }
        if e.stored.is_some() {
            let (r, ms) = timed(|| {
                jobs.jobs
                    .iter()
                    .map(|j| run_job(top, j))
                    .collect::<Result<Vec<_>, _>>()
            });
            p.sp.store_read += ms;
            r.map_err(|e| format!("{}: {e}", app.abbr))?;
        }

        if full {
            let (profile, ms) = timed(|| {
                let k = &jobs.kernels[jobs.jobs[sweep[0]].kernel];
                profile_opt_tlp_with(top, k, &app.gpu, &app.launch, default_reg)
            });
            p.sp.profile += ms;
            p.n.levels += profile
                .map_err(|e| format!("{}: {e}", app.abbr))?
                .runs
                .len();
        }

        if full || is_static {
            let before = top.stats();
            let (solutions, ms) = timed(|| {
                self.options
                    .iter()
                    .map(|o| optimize_with(top, &kernel, &app.gpu, &app.launch, o))
                    .collect::<Vec<_>>()
            });
            p.sp.optimize += ms;
            if !solutions.iter().all(Result::is_ok) {
                p.problems
                    .push(format!("{}: an optimize replay failed", app.abbr));
            }
            drop(solutions);
            let after = top.stats();
            let sum = |f: fn(&crat_core::StrategyStats) -> u64| {
                strategy_sum(&after, f) - strategy_sum(&before, f)
            };
            p.n.allocs += after.allocs_run - before.allocs_run;
            p.n.wins += sum(|s| s.wins);
            p.n.attempts += sum(|s| s.attempts);
            p.n.spill_bytes += sum(|s| s.spill_bytes);
        }

        // Every simulation is memoized now, so this is the
        // techniques' own time; each replayed call must reproduce
        // its cold output.
        if full || !is_static {
            let (replayed, ms) = timed(|| match w {
                Workload::OptimizeStatic => {
                    let t = Technique::CratStatic;
                    let e = evaluate_with(top, &kernel, &app.gpu, &app.launch, t);
                    vec![e.map(|_| None).map_err(|e| e.to_string())]
                }
                _ => calls
                    .iter()
                    .map(|&i| inputs.run(top, inputs.calls[i]).map(|d| Some(d.output)))
                    .collect::<Vec<_>>(),
            });
            p.sp.evaluate += ms;
            let same = match w {
                Workload::OptimizeStatic => replayed[0].is_ok(),
                _ => replayed
                    .into_iter()
                    .zip(outputs)
                    .all(|(r, d)| r == Ok(Some(d.output.clone()))),
            };
            if !same {
                p.problems.push(format!("{}: the replay differs", app.abbr));
            }
        }
        if !full {
            return Ok(());
        }

        let before = top.stats();
        let count_ok = || jobs.jobs.iter().filter(|j| run_job(top, j).is_ok()).count();
        p.sp.memo += timed(count_ok).1;
        if top.stats().cache_hits - before.cache_hits != jobs.jobs.len() as u64 {
            p.problems
                .push(format!("{}: a memo replay missed", app.abbr));
        }

        // The store layer on a scratch store: each result saved
        // under a benchmark-made key, then loaded back.
        let base = p.n.jobs - jobs.jobs.len() as u64;
        let key = |i: usize| {
            let i = base + i as u64;
            RecordKey(i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        };
        let results: Vec<_> = stats.iter().map(|s| Ok(s.clone())).collect();
        let save = || {
            for (i, r) in results.iter().enumerate() {
                self.records.save(key(i), r);
            }
        };
        p.sp.save += timed(save).1;
        let load = || {
            (0..results.len())
                .map(|i| self.records.load(key(i)))
                .collect::<Vec<_>>()
        };
        let (loaded, ms) = timed(load);
        p.sp.load += ms;
        if loaded
            .iter()
            .zip(&results)
            .any(|(l, r)| l.as_ref() != Some(r))
        {
            p.problems
                .push(format!("{}: a store record did not load", app.abbr));
        }

        // Model numbers: CRAT (CRAT-static on the optimizer path)
        // over the profiled OptTLP, and the final binaries' cycles.
        let cycles = |j: usize| stats[j].cycles;
        p.n.final_cycles += finals.iter().map(|&j| cycles(j)).sum::<u64>();
        if app.sensitive {
            let opt = sweep.iter().map(|&j| cycles(j)).min().unwrap_or(0);
            let crat = calls
                .iter()
                .position(|&i| matches!(inputs.calls[i].technique, None | Some(Technique::Crat)))
                .map_or(0, |c| cycles(finals[c]));
            p.n.crat_log_speedup += (opt as f64 / crat as f64).ln();
            p.n.sensitive += 1;
        }
        Ok(())
    }
}

pub fn trace(w: Workload, seed: u64) -> Result<Report, String> {
    let inputs = Inputs::build(w)?;
    let scratch = Scratch::new(&format!("{}-trace", w.name()))?;
    let store = match w {
        Workload::StoreWarm => Some(fill_store(&inputs, &scratch.path().join("store"))?.dir),
        _ => None,
    };
    let records = ResultStore::open(StoreConfig::new(scratch.path().join("records")))
        .map_err(|e| format!("scratch store: {e}"))?;
    let t = Trace {
        w,
        inputs: &inputs,
        store: store.as_deref(),
        records: &records,
        options: match w {
            Workload::OptimizeStatic => vec![static_options()],
            _ => vec![CratOptions::local_only(), CratOptions::new()],
        },
        app_order: Rng::new(seed).permutation(inputs.apps.len()),
    };

    let first = t.pass(true)?;
    let mut ledger = vec![(first.sp.cold, first.sp.untraced, t.path(&first.sp))];
    let mut problems = first.problems.clone();
    let mut report = Report::new(w.name(), seed);
    report.attempted = first.attempted;
    report.failed = first.failed;
    while ledger.iter().map(|l| l.0).sum::<f64>() < LEDGER_COLD_MS && ledger.len() < MAX_PASSES {
        let p = t.pass(false)?;
        ledger.push((p.sp.cold, p.sp.untraced, t.path(&p.sp)));
        report.attempted += p.attempted;
        report.failed += p.failed;
        problems.extend(p.problems);
    }
    let cold_ms = median(&ledger.iter().map(|l| l.0).collect::<Vec<_>>());
    let unattributed = median(&ledger.iter().map(|l| l.0 - l.2).collect::<Vec<_>>());
    let overhead = median(
        &ledger
            .iter()
            .map(|l| (l.0 - l.1) / l.1 * 1e2)
            .collect::<Vec<_>>(),
    );

    let (sp, n) = (&first.sp, &first.n);
    let ratio = |num: f64, den: f64| num / den.max(1.0);
    let per_job_us = |ms: f64| ms * 1e3 / n.jobs as f64;
    report.set("ptx.parse_ms", sp.parse);
    report.set("ptx.parse_mb_per_s", n.bytes as f64 / 1e3 / sp.parse);
    report.set("core.analyze_ms", sp.analyze);
    report.set("regalloc.context_ms", sp.context);
    report.set("regalloc.context_builds", first.top.alloc_ctx_builds as f64);
    report.set("core.optimize_ms", sp.optimize);
    report.set("regalloc.allocs", n.allocs as f64);
    report.set(
        "regalloc.win_ratio",
        ratio(n.wins as f64, n.attempts as f64),
    );
    report.set("regalloc.spill_bytes", n.spill_bytes as f64);
    report.set("sim.decode_ms", sp.decode);
    report.set("sim.decodes", first.sim.decodes as f64);
    report.set("sim.simulate_s", sp.simulate / 1e3);
    report.set("sim.sims", n.sims as f64);
    report.set("sim.warp_insts", n.insts as f64);
    report.set("sim.cycles", n.cycles as f64);
    report.set("sim.minsts_per_s", n.insts as f64 / sp.simulate / 1e3);
    report.set("sim.ns_per_cycle", sp.simulate * 1e6 / n.cycles as f64);
    report.set("core.profile_ms", sp.profile);
    report.set("core.profile_sims", n.levels as f64);
    let apps = inputs.apps.len() as f64;
    report.set("core.profile_useful_ratio", ratio(apps, n.levels as f64));
    report.set("core.evaluate_ms", sp.evaluate);
    report.set("engine.memo_hit_us", per_job_us(sp.memo));
    report.set("engine.hit_rate", first.cold.hit_rate());
    report.set("store.save_us", per_job_us(sp.save));
    report.set("store.load_us", per_job_us(sp.load));
    report.set(
        "store.record_bytes",
        records.record_bytes() as f64 / n.jobs as f64,
    );
    report.set("store.hit_rate", records.stats().hit_rate());
    report.set("trace.cold_ms", cold_ms);
    report.set("trace.unattributed_ms", unattributed);
    report.set("trace.overhead_pct", overhead);
    let gmean = (n.crat_log_speedup / n.sensitive as f64).exp();
    report.set("model.crat_speedup_gmean", gmean);
    report.set("model.sim_cycles", n.final_cycles as f64);

    for p in problems.iter().take(10) {
        eprintln!("check failed: {p}");
    }
    report.correct = problems.is_empty();
    println!(
        "ledger: {} passes, cold {cold_ms:.1} ms, {unattributed:+.1} ms ({:+.2}%) unattributed",
        ledger.len(),
        unattributed / cold_ms * 1e2
    );
    Ok(report)
}
