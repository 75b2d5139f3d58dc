//! `run`: set up a workload, time its calls for the given number of
//! seconds, check every output, and report the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crat_core::{EvalEngine, ResultStore, StoreConfig};

use crate::metrics::Report;
use crate::stats::{median, percentile, Rng};
use crate::sys;
use crate::workload::{Done, Final, Inputs, Workload};

/// Set-ups per run; the median is reported. Building the inputs takes
/// well under a millisecond, so a single reading is mostly scheduler
/// noise. On `store-warm` each set-up also fills a store, which
/// simulates the whole suite, so it is repeated fewer times.
const SETUP_REPS: usize = 25;
const STORE_SETUP_REPS: usize = 3;
/// Final binaries re-simulated on the reference interpreter per run.
const CROSS_CHECKS: usize = 4;

/// A directory under the working directory's `.benchmark-tmp/`, removed
/// on drop, so a run writes nowhere outside its checkout.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(".benchmark-tmp")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A persistent store filled by [`fill_store`].
pub struct Filled {
    pub dir: PathBuf,
    /// Records written: the suite's distinct simulations.
    pub records: u64,
}

/// A fresh engine, attached to a store it opens at `store` if given, as
/// a new process started with `--cache-dir` would be. Each handle
/// counts its own store hits.
pub fn engine(threads: usize, store: Option<&Path>) -> Result<EvalEngine, String> {
    let engine = EvalEngine::new(threads);
    if let Some(dir) = store {
        let s = ResultStore::open(StoreConfig::new(dir))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let _ = engine.attach_store(Arc::new(s));
    }
    Ok(engine)
}

/// Fill a fresh store at `dir` with every simulation the suite calls
/// make. Outputs are checked by the iterations that read it back.
pub fn fill_store(inputs: &Inputs, dir: &Path) -> Result<Filled, String> {
    let e = engine(1, Some(dir))?;
    for &call in &inputs.calls {
        let _ = inputs.run(&e, call);
    }
    let s = e.stats();
    if s.store_writes != s.sims_executed || s.store_write_errors != 0 {
        return Err(format!(
            "store fill wrote {} of {} simulations ({} write errors)",
            s.store_writes, s.sims_executed, s.store_write_errors
        ));
    }
    Ok(Filled {
        dir: dir.to_path_buf(),
        records: s.store_writes,
    })
}

/// The outcome of one iteration: per call, its latency and result.
pub type Timed = Vec<(usize, Duration, Result<Done, String>)>;

/// Issue every call once, in `order`, on `engine`: serially, or from
/// `callers` threads through the engine's own pool.
pub fn iterate(inputs: &Inputs, engine: &EvalEngine, order: &[usize], callers: usize) -> Timed {
    let one = |&i: &usize| {
        let t = Instant::now();
        let r = inputs.run(engine, inputs.calls[i]);
        (i, t.elapsed(), r)
    };
    if callers > 1 {
        engine.par_map(order, one)
    } else {
        order.iter().map(one).collect()
    }
}

/// One timed iteration and its checks.
pub struct Iteration {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub latencies_ms: Vec<f64>,
    /// Calls that returned an error or an unexpected output.
    pub failed: u64,
    pub problems: Vec<String>,
    pub finals: Vec<Final>,
}

/// Start a fresh engine (opening the filled store, if any) and issue
/// every call once in `order`, timing that; then check outputs and the
/// workload's engine counters.
pub fn iteration(
    w: Workload,
    inputs: &Inputs,
    store: Option<&Filled>,
    order: &[usize],
) -> Result<Iteration, String> {
    let callers = w.callers();
    let cpu0 = sys::cpu_seconds();
    let t = Instant::now();
    let e = engine(callers, store.map(|s| s.dir.as_path()))?;
    let timed = iterate(inputs, &e, order, callers);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;

    let mut it = Iteration {
        wall_s,
        cpu_s,
        latencies_ms: Vec::with_capacity(timed.len()),
        failed: 0,
        problems: Vec::new(),
        finals: Vec::with_capacity(timed.len()),
    };
    for (i, latency, result) in timed {
        it.latencies_ms.push(latency.as_secs_f64() * 1e3);
        if let Err(e) = inputs.check(inputs.calls[i], &result) {
            it.failed += 1;
            it.problems.push(e);
        }
        if let Ok(done) = result {
            it.finals.push(done.fin);
        }
    }
    let s = e.stats();
    let expect_no_sims = matches!(w, Workload::OptimizeStatic | Workload::StoreWarm);
    if expect_no_sims && s.sims_executed != 0 {
        let n = s.sims_executed;
        it.problems
            .push(format!("{n} simulations executed, expected none"));
    }
    if let Some(filled) = store {
        if s.store_hits != filled.records {
            let (n, records) = (s.store_hits, filled.records);
            it.problems
                .push(format!("{n} store hits, expected {records}"));
        }
    }
    Ok(it)
}

pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let scratch = Scratch::new(w.name())?;
    let with_store = w == Workload::StoreWarm;
    let reps = if with_store {
        STORE_SETUP_REPS
    } else {
        SETUP_REPS
    };
    let mut setups = Vec::new();
    let mut built = None;
    for rep in 0..reps {
        let t = Instant::now();
        let inputs = Inputs::build(w)?;
        let store = if with_store {
            Some(fill_store(
                &inputs,
                &scratch.path().join(format!("store-{rep}")),
            )?)
        } else {
            None
        };
        setups.push(t.elapsed().as_secs_f64());
        built = Some((inputs, store));
    }
    let (inputs, store) = built.expect("at least one set-up");
    let setup_s = median(&setups);

    let mut report = Report::new(w.name(), seed);
    let mut rng = Rng::new(seed);
    let n = inputs.calls.len();
    // Enough iterations that the p90 has ten calls beyond it.
    let min_iters = 100usize.div_ceil(n);
    let (mut walls, mut cpus, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut finals: Vec<Final>;
    let mut problems: Vec<String> = Vec::new();
    let started = Instant::now();
    loop {
        let mut it = iteration(w, &inputs, store.as_ref(), &inputs.order(&mut rng))?;
        walls.push(it.wall_s);
        cpus.push(it.cpu_s);
        latencies.append(&mut it.latencies_ms);
        report.attempted += n as u64;
        report.failed += it.failed;
        problems.append(&mut it.problems);
        finals = it.finals;
        let elapsed = started.elapsed().as_secs_f64();
        if walls.len() >= min_iters && elapsed + median(&walls) > seconds {
            break;
        }
    }

    // Outside all timing: the decoded simulator must agree bit for bit
    // with the preserved reference interpreter on seed-chosen binaries.
    for k in rng.choose(finals.len(), CROSS_CHECKS.min(finals.len())) {
        if let Err(e) = inputs.cross_check(&finals[k]) {
            problems.push(e);
        }
    }

    for p in problems.iter().take(10) {
        eprintln!("check failed: {p}");
    }
    report.correct = problems.is_empty();
    report.set("wall_s", median(&walls));
    report.set("call_p50_ms", median(&latencies));
    let p90 = percentile(&latencies, 0.9).ok_or("too few calls for a p90")?;
    report.set("call_p90_ms", p90);
    report.set("cpu_s", median(&cpus));
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.set("setup_s", setup_s);
    println!("iterations {}", walls.len());
    println!("calls {}", latencies.len());
    println!(
        "fail_rate {} ratio",
        report.failed as f64 / report.attempted as f64
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_optimize_static_iteration_is_correct() {
        let w = Workload::OptimizeStatic;
        let inputs = Inputs::build(w).unwrap();
        let it = iteration(w, &inputs, None, &inputs.order(&mut Rng::new(3))).unwrap();
        assert_eq!(it.problems, Vec::<String>::new());
        assert_eq!(
            (it.failed, it.latencies_ms.len(), it.finals.len()),
            (0, 24, 24)
        );
        assert!(it.wall_s > 0.0 && it.cpu_s > 0.0);
    }
}
