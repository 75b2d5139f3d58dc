//! Experiment harness: shared machinery for the binaries that
//! regenerate every table and figure of the CRAT paper.
//!
//! Each figure has a binary in `src/bin/` (e.g. `fig13_performance`);
//! run them with `cargo run --release -p crat-bench --bin <name>`.
//! Pass `--csv` to any binary for machine-readable output, and
//! `--threads N` (or set `CRAT_THREADS`) to bound the evaluation
//! engine's worker pool; the default is the machine's available
//! parallelism.

pub mod table;

use std::sync::OnceLock;

use crat_core::{evaluate_with, CratError, EvalEngine, Evaluation, Technique};
use crat_sim::{GpuConfig, StallCause};
use crat_workloads::{build_kernel, launch_sized, suite, AppSpec};

/// One application's results across techniques.
#[derive(Debug)]
pub struct AppRun {
    /// The application.
    pub app: &'static AppSpec,
    /// One evaluation per requested technique, in order.
    pub evals: Vec<Evaluation>,
}

impl AppRun {
    /// The evaluation of `technique`.
    ///
    /// # Panics
    ///
    /// Panics if the technique was not part of the run.
    pub fn of(&self, technique: Technique) -> &Evaluation {
        self.evals
            .iter()
            .find(|e| e.technique == technique)
            .unwrap_or_else(|| panic!("{technique} was not evaluated"))
    }

    /// Speedup of `a` over `b` (cycles ratio).
    pub fn speedup(&self, a: Technique, b: Technique) -> f64 {
        self.of(a).stats.speedup_over(&self.of(b).stats)
    }
}

/// Evaluate `techniques` on one app (grid scaled to `grid_blocks`).
/// Every technique's simulations go through `engine`'s memo cache, so
/// techniques that share operating points (e.g. `OptTlp` and `Crat`
/// profiling the same default binary) simulate each point once.
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn run_app_with(
    engine: &EvalEngine,
    app: &'static AppSpec,
    gpu: &GpuConfig,
    grid_blocks: u32,
    techniques: &[Technique],
) -> Result<AppRun, CratError> {
    let kernel = build_kernel(app);
    let launch = launch_sized(app, grid_blocks);
    let evals = techniques
        .iter()
        .map(|&t| evaluate_with(engine, &kernel, gpu, &launch, t))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(AppRun { app, evals })
}

/// Evaluate `techniques` over many apps on the process-wide
/// [`engine`]: apps fan out across its worker pool and all simulations
/// share its memo cache.
///
/// # Panics
///
/// Panics if any app fails (experiment binaries want loud failures).
pub fn run_suite(
    apps: &[&'static AppSpec],
    gpu: &GpuConfig,
    techniques: &[Technique],
) -> Vec<AppRun> {
    let engine = engine();
    engine.par_map(apps, |&app| {
        run_app_with(engine, app, gpu, app.grid_blocks, techniques)
            .unwrap_or_else(|e| panic!("{}: {e}", app.abbr))
    })
}

/// The sensitive suite as a slice (paper Figure 13's x-axis order).
pub fn sensitive_apps() -> Vec<&'static AppSpec> {
    suite::sensitive().collect()
}

/// The insensitive suite as a slice (paper Figure 19).
pub fn insensitive_apps() -> Vec<&'static AppSpec> {
    suite::insensitive().collect()
}

/// Geometric mean (1.0 for an empty iterator).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        log_sum += v.max(f64::MIN_POSITIVE).ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// A cycle-attribution breakdown table for one technique: one row per
/// app, one column per stall cause, each cell the fraction of
/// scheduler slots attributed to that cause (see
/// [`crat_sim::CycleAttribution`]).
pub fn attribution_table(runs: &[AppRun], technique: Technique) -> table::Table {
    let mut headers = vec!["app"];
    headers.extend(StallCause::ALL.iter().map(|c| c.name()));
    let mut t = table::Table::new(&headers);
    for r in runs {
        let a = &r.of(technique).stats.attribution;
        let mut cells = vec![r.app.abbr.to_string()];
        cells.extend(StallCause::ALL.iter().map(|&c| table::pct(a.fraction(c))));
        t.row(cells);
    }
    t
}

/// Whether `--csv` was passed on the command line.
pub fn csv_flag() -> bool {
    std::env::args().any(|a| a == "--csv")
}

/// Worker-pool width requested on the command line: `--threads N` or
/// `--threads=N`. `None` when absent or unparsable (the engine then
/// falls back to `CRAT_THREADS` / available parallelism).
pub fn threads_flag() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1);
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return v.parse().ok().filter(|&n| n >= 1);
        }
    }
    None
}

/// The experiment binaries' process-wide evaluation engine, built on
/// first use by [`EvalEngine::from_env`]: sized by (in priority order)
/// `--threads`, `CRAT_THREADS`, then available parallelism, with the
/// `CRAT_CACHE_DIR` store attached if set.
pub fn engine() -> &'static EvalEngine {
    static ENGINE: OnceLock<EvalEngine> = OnceLock::new();
    ENGINE.get_or_init(|| EvalEngine::from_env(threads_flag(), None))
}

/// Print the engine's counters after an experiment: a `# engine:`
/// comment in text mode, or an `engine_stat,value` block in CSV mode
/// (the rows of [`crat_core::engine_to_csv`] after `threads`).
pub fn print_engine_stats(csv: bool) {
    let e = engine();
    let stats = e.stats();
    if csv {
        println!("engine_stat,value");
        println!("threads,{}", e.threads());
        print!("{}", crat_core::engine_to_csv(&stats));
    } else {
        println!("# engine: {} threads, {stats}", e.threads());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean([]), 1.0);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn suites_have_eleven_each() {
        assert_eq!(sensitive_apps().len(), 11);
        assert_eq!(insensitive_apps().len(), 11);
    }

    #[test]
    fn attribution_table_has_one_column_per_cause() {
        let app = suite::spec("BAK");
        let gpu = GpuConfig::fermi();
        let run =
            run_app_with(&EvalEngine::default(), app, &gpu, 30, &[Technique::MaxTlp]).unwrap();
        let t = attribution_table(std::slice::from_ref(&run), Technique::MaxTlp);
        assert_eq!(t.len(), 1);
        let csv = t.to_csv();
        assert!(csv.starts_with("app,issued,scoreboard,"));
        assert!(csv.contains("BAK,"));
    }

    #[test]
    fn run_app_produces_requested_techniques() {
        let app = suite::spec("BAK");
        let gpu = GpuConfig::fermi();
        let techniques = [Technique::MaxTlp, Technique::OptTlp];
        let run = run_app_with(&EvalEngine::default(), app, &gpu, 30, &techniques).unwrap();
        assert_eq!(run.evals.len(), 2);
        assert!(run.speedup(Technique::OptTlp, Technique::MaxTlp) > 0.0);
        assert_eq!(run.of(Technique::MaxTlp).technique, Technique::MaxTlp);
    }
}
