//! Implementation of the `crat` command-line driver.
//!
//! Subcommands:
//!
//! * `crat analyze <kernel.ptx>` — resource-usage analysis (Table 1);
//! * `crat passes <kernel.ptx>` — run the scalar optimization passes;
//! * `crat optimize <kernel.ptx>` — the full CRAT pipeline, emitting
//!   optimized PTX and a solution report;
//! * `crat simulate <kernel.ptx>` — run the kernel on the simulator.
//!
//! The library form exists so the argument parsing and command logic
//! are unit-testable; `main.rs` is a thin shim.
//!
//! Every failure is mapped to a [`CliError`] with a distinct process
//! exit code: `2` for usage errors, `3` for input errors (unreadable
//! or unparsable files, failing kernels), `4` for internal errors
//! (caught panics) — so scripts can tell "you called it wrong" from
//! "your kernel is bad" from "the tool itself broke".

// Robustness gate (DESIGN.md §7): failures become `CliError`s with
// distinct exit codes, never aborts.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::fmt::Write as _;

use crat_core::engine::EvalEngine;
use crat_core::{
    analyze, optimize_with, AllocStrategy, CratError, CratOptions, OptTlpSource, StrategyRoster,
};
use crat_ptx::{parse, passes, Kernel};
use crat_regalloc::{allocate, AllocOptions, LayoutPolicy};
use crat_sim::{GpuConfig, LaunchConfig, ShmBankConfig};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `crat app <ABBR>`: run a paper benchmark through the techniques.
    App {
        /// Application abbreviation (e.g. `CFD`).
        abbr: String,
        /// Common options.
        opts: CommonOpts,
    },
    /// `crat analyze <file>`.
    Analyze {
        /// Input PTX path.
        file: String,
        /// Common options.
        opts: CommonOpts,
    },
    /// `crat passes <file> [-o out]`.
    Passes {
        /// Input PTX path.
        file: String,
        /// Output path (stdout when absent).
        output: Option<String>,
    },
    /// `crat optimize <file> [-o out]`.
    Optimize {
        /// Input PTX path.
        file: String,
        /// Output path (stdout when absent).
        output: Option<String>,
        /// Common options.
        opts: CommonOpts,
        /// Run the scalar passes first.
        prepass: bool,
    },
    /// `crat simulate <file> [--regs N] [--tlp N]`.
    Simulate {
        /// Input PTX path.
        file: String,
        /// Registers per thread for occupancy (default: allocate first).
        regs: Option<u32>,
        /// TLP cap.
        tlp: Option<u32>,
        /// Common options.
        opts: CommonOpts,
    },
    /// `crat help`.
    Help,
}

/// Options shared by several subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonOpts {
    /// GPU configuration (`fermi` or `kepler`).
    pub gpu: GpuConfig,
    /// Grid blocks.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Parameter bindings (`name=value`).
    pub params: Vec<(String, u64)>,
    /// OptTLP source for `optimize`.
    pub opt_tlp: OptTlpSource,
    /// Disable shared-memory spilling.
    pub no_shm: bool,
    /// Shared-memory bank-conflict model (`--shm-banks`): arms
    /// [`GpuConfig::shm_banks`] on top of whichever GPU was selected,
    /// regardless of flag order.
    pub shm_banks: Option<ShmBankConfig>,
    /// Spill-layout policy for shared-memory sub-stacks
    /// (`--shm-layout`); only consequential with `--shm-banks`.
    pub shm_layout: LayoutPolicy,
    /// Which allocator strategies compete at each design point
    /// (`--alloc-strategy`): the full roster, or pinned to one.
    pub roster: StrategyRoster,
    /// Evaluation-engine worker threads (`None`: `CRAT_THREADS` or
    /// available parallelism).
    pub threads: Option<usize>,
    /// Write a metrics JSON document (per-point stats + attribution +
    /// engine counters) to this path.
    pub metrics_json: Option<String>,
    /// Persistent result-store directory (`--cache-dir`): attach a
    /// crash-safe on-disk cache so warm restarts replay results
    /// instead of simulating. Overrides `CRAT_CACHE_DIR`.
    pub cache_dir: Option<String>,
    /// Byte budget for the persistent store (`--cache-limit`), LRU
    /// eviction above it; only meaningful with `--cache-dir`.
    pub cache_limit: Option<u64>,
}

impl Default for CommonOpts {
    fn default() -> CommonOpts {
        CommonOpts {
            gpu: GpuConfig::fermi(),
            grid: 60,
            block: 128,
            params: Vec::new(),
            opt_tlp: OptTlpSource::Profiled,
            no_shm: false,
            shm_banks: None,
            shm_layout: LayoutPolicy::Auto,
            roster: StrategyRoster::Default,
            threads: None,
            metrics_json: None,
            cache_dir: None,
            cache_limit: None,
        }
    }
}

impl CommonOpts {
    /// The selected GPU with the `--shm-banks` model (if any) applied,
    /// so `--gpu` and `--shm-banks` compose in either order.
    pub fn effective_gpu(&self) -> GpuConfig {
        let mut gpu = self.gpu.clone();
        if self.shm_banks.is_some() {
            gpu.shm_banks = self.shm_banks;
        }
        gpu
    }
}

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (exit code 2).
    Usage(String),
    /// I/O failure (exit code 3).
    Io(std::io::Error),
    /// Any pipeline failure on the user's input, pre-rendered (exit
    /// code 3).
    Tool(String),
    /// The tool itself broke — a caught panic or engine-internal
    /// failure, not the user's fault (exit code 4).
    Internal(String),
}

impl CliError {
    /// The process exit code for this error: `2` usage, `3` input,
    /// `4` internal.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) | CliError::Tool(_) => 3,
            CliError::Internal(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Tool(m) => f.write_str(m),
            CliError::Internal(m) => write!(f, "internal error (please report): {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
    }
}

/// Map a pipeline failure onto the exit-code taxonomy: caught panics
/// are the tool's fault ([`CliError::Internal`]), everything else is a
/// property of the user's input ([`CliError::Tool`]).
fn tool_error(context: &str, e: &CratError) -> CliError {
    match e {
        CratError::Internal { .. } => CliError::Internal(format!("{context}: {e}")),
        _ => CliError::Tool(format!("{context}: {e}")),
    }
}

/// The help text.
pub const USAGE: &str = "\
crat — coordinated register allocation and TLP optimization for PTX kernels

USAGE:
  crat app      <ABBR> [--gpu fermi|kepler] [--grid N]
                [--alloc-strategy roster|briggs|sched-briggs|ssa]
                [--shm-banks N[:penalty]] [--shm-layout POLICY]
                (run a paper benchmark: MaxTLP vs OptTLP vs CRAT)
  crat analyze  <kernel.ptx> [--gpu fermi|kepler] [--block N]
  crat passes   <kernel.ptx> [-o out.ptx]
  crat optimize <kernel.ptx> [-o out.ptx] [--gpu fermi|kepler]
                [--grid N] [--block N] [--param name=value]...
                [--opt-tlp profile|static|<N>] [--no-shm] [--prepass]
                [--alloc-strategy roster|briggs|sched-briggs|ssa]
                [--shm-banks N[:penalty]] [--shm-layout POLICY]
  crat simulate <kernel.ptx> [--gpu fermi|kepler] [--grid N] [--block N]
                [--param name=value]... [--regs N] [--tlp N]
                [--shm-banks N[:penalty]]
  crat help

All simulating subcommands accept `--threads N` to bound the
evaluation engine's worker pool (default: the CRAT_THREADS
environment variable, or the machine's available parallelism) and
`--metrics-json <path>` to export every evaluated (reg, TLP) point —
full stats plus the scheduler-cycle attribution and the engine's
deterministic counters — as a JSON document.
`--alloc-strategy` selects which register allocators compete at each
design point: the default `roster` runs Briggs, min-reg scheduling +
Briggs, and SSA spill minimization and keeps the best TPSC score;
naming one strategy pins every point to it (`briggs` reproduces the
pre-roster pipeline bit-identically).
`--shm-banks N[:penalty]` arms the simulator's shared-memory bank
model (N banks of 4-byte words, `penalty` extra cycles per extra
conflict way, default 1) on top of the selected GPU; without it the
shared memory is conflict-free and results are bit-identical to the
pre-bank-model pipeline. `--shm-layout auto|warp-interleaved|per-thread`
sets how re-homed spill sub-stacks are arranged in shared memory:
`auto` (default) lets the conflict-penalized knapsack choose per
sub-stack, the other two force a layout.
`--cache-dir <dir>` attaches a crash-safe persistent result store:
simulation results are written atomically to content-addressed,
checksummed records under <dir>, and later runs (any process) replay
them bit-identically instead of re-simulating. Corrupt records are
quarantined and recomputed, never served. `CRAT_CACHE_DIR` is the
environment equivalent (the flag wins when both are set).
`--cache-limit <bytes>` bounds the store (plain bytes or K/M/G
suffix, e.g. 64M); oldest records are evicted first. Environment
equivalent: CRAT_CACHE_LIMIT.
Parameter values accept decimal or 0x-hex. Unbound pointer parameters
are auto-bound to distinct synthetic addresses.";

/// Parse a command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] on malformed input.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter().peekable();
    let sub = it.next().map(String::as_str).unwrap_or("help");
    if sub == "help" || sub == "--help" || sub == "-h" {
        return Ok(Command::Help);
    }

    let mut file = None;
    let mut output = None;
    let mut regs = None;
    let mut tlp = None;
    let mut prepass = false;
    let mut opts = CommonOpts::default();

    while let Some(a) = it.next() {
        let value_of = |flag: &str, it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "-o" | "--output" => output = Some(value_of(a, &mut it)?),
            "--gpu" => {
                opts.gpu = match value_of(a, &mut it)?.as_str() {
                    "fermi" => GpuConfig::fermi(),
                    "kepler" => GpuConfig::kepler(),
                    other => {
                        return Err(CliError::Usage(format!("unknown GPU `{other}`")));
                    }
                }
            }
            "--grid" => opts.grid = parse_u32(&value_of(a, &mut it)?, "--grid")?,
            "--block" => opts.block = parse_u32(&value_of(a, &mut it)?, "--block")?,
            "--regs" => regs = Some(parse_u32(&value_of(a, &mut it)?, "--regs")?),
            "--tlp" => tlp = Some(parse_u32(&value_of(a, &mut it)?, "--tlp")?),
            "--no-shm" => opts.no_shm = true,
            "--shm-banks" => opts.shm_banks = Some(parse_shm_banks(&value_of(a, &mut it)?)?),
            "--shm-layout" => {
                let v = value_of(a, &mut it)?;
                opts.shm_layout = match v.as_str() {
                    "auto" => LayoutPolicy::Auto,
                    "warp-interleaved" => LayoutPolicy::WarpInterleaved,
                    "per-thread" => LayoutPolicy::PerThread,
                    other => {
                        return Err(CliError::Usage(format!(
                            "--shm-layout: `{other}` is not one of auto, warp-interleaved, per-thread"
                        )));
                    }
                };
            }
            "--prepass" => prepass = true,
            "--threads" => {
                let v = value_of(a, &mut it)?;
                let n = v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    CliError::Usage(format!("--threads: `{v}` is not a positive integer"))
                })?;
                opts.threads = Some(n);
            }
            "--metrics-json" => opts.metrics_json = Some(value_of(a, &mut it)?),
            "--cache-dir" => opts.cache_dir = Some(value_of(a, &mut it)?),
            "--cache-limit" => {
                let v = value_of(a, &mut it)?;
                let bytes = crat_core::parse_byte_limit(&v).ok_or_else(|| {
                    CliError::Usage(format!(
                        "--cache-limit: `{v}` is not a byte count (plain bytes or K/M/G suffix)"
                    ))
                })?;
                opts.cache_limit = Some(bytes);
            }
            "--alloc-strategy" => {
                let v = value_of(a, &mut it)?;
                opts.roster = StrategyRoster::parse(&v).ok_or_else(|| {
                    CliError::Usage(format!(
                        "--alloc-strategy: `{v}` is not one of roster, briggs, sched-briggs, ssa"
                    ))
                })?;
            }
            "--param" => {
                let kv = value_of(a, &mut it)?;
                let (k, v) = kv.split_once('=').ok_or_else(|| {
                    CliError::Usage(format!("--param wants name=value, got `{kv}`"))
                })?;
                opts.params.push((k.to_string(), parse_u64(v, "--param")?));
            }
            "--opt-tlp" => {
                let v = value_of(a, &mut it)?;
                opts.opt_tlp = match v.as_str() {
                    "profile" => OptTlpSource::Profiled,
                    "static" => OptTlpSource::Static {
                        l1_hit_rate: crat_core::STATIC_L1_HIT_RATE,
                    },
                    n => OptTlpSource::Given(parse_u32(n, "--opt-tlp")?),
                };
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            other => return Err(CliError::Usage(format!("unknown argument `{other}`"))),
        }
    }

    if opts.cache_limit.is_some() && opts.cache_dir.is_none() {
        return Err(CliError::Usage(
            "--cache-limit requires --cache-dir (or use CRAT_CACHE_LIMIT with CRAT_CACHE_DIR)"
                .to_string(),
        ));
    }
    let file = file.ok_or_else(|| CliError::Usage("missing input file".to_string()))?;
    Ok(match sub {
        "app" => Command::App { abbr: file, opts },
        "analyze" => Command::Analyze { file, opts },
        "passes" => Command::Passes { file, output },
        "optimize" => Command::Optimize {
            file,
            output,
            opts,
            prepass,
        },
        "simulate" => Command::Simulate {
            file,
            regs,
            tlp,
            opts,
        },
        other => return Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    })
}

fn parse_u32(s: &str, flag: &str) -> Result<u32, CliError> {
    parse_u64(s, flag).and_then(|v| {
        u32::try_from(v).map_err(|_| CliError::Usage(format!("{flag}: `{s}` out of range")))
    })
}

/// `--shm-banks N[:penalty]`: `N` banks of 4-byte words with an
/// optional extra-cycles-per-conflict-way penalty (default 1).
fn parse_shm_banks(s: &str) -> Result<ShmBankConfig, CliError> {
    let (banks, penalty) = match s.split_once(':') {
        Some((b, p)) => (parse_u32(b, "--shm-banks")?, parse_u32(p, "--shm-banks")?),
        None => (parse_u32(s, "--shm-banks")?, 1),
    };
    if banks == 0 || penalty == 0 {
        return Err(CliError::Usage(format!(
            "--shm-banks: `{s}` — banks and penalty must be positive"
        )));
    }
    Ok(ShmBankConfig {
        banks,
        word_bytes: 4,
        conflict_penalty: penalty,
    })
}

fn parse_u64(s: &str, flag: &str) -> Result<u64, CliError> {
    let r = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.map_err(|_| CliError::Usage(format!("{flag}: `{s}` is not a number")))
}

/// Execute a command; returns the text to print.
///
/// # Errors
///
/// Propagates I/O and pipeline failures with rendered messages.
pub fn run(cmd: Command) -> Result<String, CliError> {
    /// This command's engine ([`EvalEngine::from_env`]), sized by
    /// `--threads` when given, with the `--cache-dir` store attached
    /// when given (then `CRAT_CACHE_DIR` is never opened, so the
    /// explicit flag wins). Unlike the silent env path, a store that
    /// was requested explicitly and cannot be opened is an error.
    fn engine_for(opts: &CommonOpts) -> Result<EvalEngine, CliError> {
        let store = match &opts.cache_dir {
            Some(dir) => {
                let mut config = crat_core::StoreConfig::new(dir);
                config.byte_limit = opts.cache_limit;
                let store = crat_core::ResultStore::open(config)
                    .map_err(|e| CliError::Tool(format!("--cache-dir {dir}: {e}")))?;
                Some(std::sync::Arc::new(store))
            }
            None => None,
        };
        Ok(EvalEngine::from_env(opts.threads, store))
    }

    /// Human-readable stall breakdown: where every scheduler-slot
    /// cycle went, by exclusive cause.
    fn breakdown_table(stats: &crat_sim::SimStats, indent: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{indent}cycle breakdown (scheduler slots):");
        for cause in crat_sim::StallCause::ALL {
            let slots = stats.attribution.cause(cause);
            if slots == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{indent}  {:11} {:>12}  {:5.1}%",
                cause.name(),
                slots,
                stats.attribution.fraction(cause) * 100.0
            );
        }
        out
    }

    /// Write the `--metrics-json` document when the flag was given.
    fn emit_metrics(
        opts: &CommonOpts,
        points: &[crat_core::MetricsPoint],
        engine: &EvalEngine,
    ) -> Result<(), CliError> {
        if let Some(path) = &opts.metrics_json {
            let doc = crat_core::metrics_document(points, &engine.stats());
            std::fs::write(path, doc.pretty())?;
        }
        Ok(())
    }

    /// One-line engine report appended to simulating subcommands.
    fn engine_line(engine: &EvalEngine) -> String {
        format!("engine: {} threads, {}", engine.threads(), engine.stats())
    }

    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::App { abbr, opts } => {
            // Paper apps plus the bank-study companions (BNK, BNKT).
            let known = || {
                crat_workloads::suite::APPS
                    .iter()
                    .chain(crat_workloads::suite::BANK_APPS.iter())
            };
            let app = known()
                .find(|a| a.abbr.eq_ignore_ascii_case(&abbr))
                .ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown app `{abbr}`; known: {}",
                        known().map(|a| a.abbr).collect::<Vec<_>>().join(", ")
                    ))
                })?;
            let kernel = crat_workloads::build_kernel(app);
            let grid = if opts.grid == CommonOpts::default().grid {
                app.grid_blocks
            } else {
                opts.grid
            };
            let launch = crat_workloads::launch_sized(app, grid);
            let engine = engine_for(&opts)?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{} ({} / {}), grid {grid} x {} threads:",
                app.name, app.kernel, app.suite, app.block_size
            );
            use crat_core::{evaluate_with_options, Technique};
            let gpu = opts.effective_gpu();
            let copts = CratOptions {
                roster: opts.roster,
                shm_layout: opts.shm_layout,
                ..CratOptions::new()
            };
            let baseline =
                evaluate_with_options(&engine, &kernel, &gpu, &launch, Technique::OptTlp, &copts)
                    .map_err(|e| tool_error("OptTLP failed", &e))?;
            let mut points = Vec::new();
            for t in [Technique::MaxTlp, Technique::OptTlp, Technique::Crat] {
                let e = evaluate_with_options(&engine, &kernel, &gpu, &launch, t, &copts)
                    .map_err(|err| tool_error(&format!("{t} failed"), &err))?;
                let _ = writeln!(
                    out,
                    "  {:10} reg={:2} TLP={}  cycles={:9}  L1 hit={:5.1}%  vs OptTLP: {:.2}x",
                    t.label(),
                    e.reg,
                    e.tlp,
                    e.stats.cycles,
                    e.stats.l1_hit_rate() * 100.0,
                    e.stats.speedup_over(&baseline.stats),
                );
                out.push_str(&breakdown_table(&e.stats, "    "));
                points.push(crat_core::MetricsPoint {
                    label: t.label().to_string(),
                    reg: e.reg,
                    tlp: e.tlp,
                    stats: e.stats,
                });
            }
            let _ = writeln!(out, "  {}", engine_line(&engine));
            emit_metrics(&opts, &points, &engine)?;
            Ok(out)
        }
        Command::Analyze { file, opts } => {
            let kernel = load(&file)?;
            let launch = build_launch(&kernel, &opts);
            let gpu = opts.effective_gpu();
            // `analyze` assumes a valid launch; reject a bad one as
            // `simulate` does.
            crat_sim::check_launch(&gpu, &launch)
                .map_err(|e| tool_error(&file, &CratError::Sim(e)))?;
            let usage = analyze(&kernel, &gpu, &launch);
            let mut out = String::new();
            let _ = writeln!(out, "kernel `{}` on {}:", kernel.name(), gpu.name);
            let _ = writeln!(out, "  instructions        {}", kernel.num_insts());
            let _ = writeln!(out, "  virtual registers   {}", kernel.num_regs());
            let _ = writeln!(out, "  MaxReg              {}", usage.max_reg);
            let _ = writeln!(out, "  MinReg              {}", usage.min_reg);
            let _ = writeln!(out, "  default reg/thread  {}", usage.default_reg);
            let _ = writeln!(out, "  BlockSize           {}", usage.block_size);
            let _ = writeln!(out, "  MaxTLP              {}", usage.max_tlp);
            let _ = writeln!(out, "  ShmSize             {} B", usage.shm_size);
            Ok(out)
        }
        Command::Passes { file, output } => {
            let mut kernel = load(&file)?;
            let stats = passes::optimize(&mut kernel);
            let text = kernel.to_ptx();
            let report = format!(
                "passes: {} folded, {} copies propagated, {} dead removed ({} iterations)\n",
                stats.constants_folded,
                stats.copies_propagated,
                stats.dce_removed,
                stats.iterations
            );
            emit(output.as_deref(), &text)?;
            Ok(if output.is_some() {
                report
            } else {
                format!("{report}\n{text}")
            })
        }
        Command::Optimize {
            file,
            output,
            opts,
            prepass,
        } => {
            let mut kernel = load(&file)?;
            let mut report = String::new();
            if prepass {
                let stats = passes::optimize(&mut kernel);
                let _ = writeln!(
                    report,
                    "prepass: {} folded, {} copies, {} dead removed",
                    stats.constants_folded, stats.copies_propagated, stats.dce_removed
                );
            }
            let launch = build_launch(&kernel, &opts);
            let engine = engine_for(&opts)?;
            let mut copts = CratOptions {
                opt_tlp: opts.opt_tlp,
                roster: opts.roster,
                shm_layout: opts.shm_layout,
                ..CratOptions::new()
            };
            if opts.no_shm {
                copts.shm_spill = false;
            }
            let gpu = opts.effective_gpu();
            let solution = optimize_with(&engine, &kernel, &gpu, &launch, &copts)
                .map_err(|e| tool_error("optimization failed", &e))?;
            let _ = writeln!(
                report,
                "resource usage: MaxReg={} MinReg={} MaxTLP={} ShmSize={}B",
                solution.usage.max_reg,
                solution.usage.min_reg,
                solution.usage.max_tlp,
                solution.usage.shm_size
            );
            let _ = writeln!(report, "OptTLP: {}", solution.opt_tlp);
            for (i, c) in solution.candidates.iter().enumerate() {
                let _ = writeln!(
                    report,
                    "  {}candidate (reg={}, TLP={}) TPSC={:.4} strategy={} spills(local={}, shm={})",
                    if i == solution.chosen { "* " } else { "  " },
                    c.point.reg,
                    c.achieved_tlp,
                    c.tpsc,
                    c.strategy.label(),
                    c.allocation.spills.counts.total_local(),
                    c.allocation.spills.counts.total_shared(),
                );
            }
            // Degradation report: say exactly what was dropped or
            // downgraded, so a degraded-but-successful run is visible.
            if solution.is_degraded() {
                let _ = writeln!(
                    report,
                    "degraded: {} point(s) skipped, {} fallback allocation(s)",
                    solution.skipped.len(),
                    solution.fallback_count()
                );
                // Whether the degraded path reused the shared analysis
                // or had to rebuild it: the fallback linear scan
                // borrows the same cached context as Briggs, so hits
                // should dominate builds even on a degraded run.
                let es = engine.stats();
                let _ = writeln!(
                    report,
                    "  alloc context: {} build(s), {} reuse(s) across {} allocation run(s)",
                    es.alloc_ctx_builds, es.alloc_ctx_hits, es.allocs_run
                );
                for s in &solution.skipped {
                    let _ = writeln!(
                        report,
                        "  skipped (reg={}, TLP={}): {}",
                        s.point.reg, s.point.tlp, s.reason
                    );
                }
                for c in solution
                    .candidates
                    .iter()
                    .filter(|c| c.strategy == AllocStrategy::LinearScan)
                {
                    let _ = writeln!(
                        report,
                        "  fallback (reg={}, TLP={}): linear scan, local spills only",
                        c.point.reg, c.achieved_tlp
                    );
                }
            }
            let winner = solution.winner();
            let _ = writeln!(
                report,
                "chosen: reg={} TLP={} ({} physical registers)",
                winner.allocation.slots_used,
                winner.achieved_tlp,
                winner.allocation.kernel.num_regs()
            );
            let _ = writeln!(report, "{}", engine_line(&engine));
            let text = winner.allocation.kernel.to_ptx();
            emit(output.as_deref(), &text)?;
            Ok(if output.is_some() {
                report
            } else {
                format!("{report}\n{text}")
            })
        }
        Command::Simulate {
            file,
            regs,
            tlp,
            opts,
        } => {
            let kernel = load(&file)?;
            let launch = build_launch(&kernel, &opts);
            let gpu = opts.effective_gpu();
            let regs = match regs {
                Some(r) => r,
                None => {
                    let a = allocate(&kernel, &AllocOptions::new(gpu.max_regs_per_thread))
                        .map_err(|e| CliError::Tool(format!("allocation failed: {e}")))?;
                    a.slots_used
                }
            };
            let engine = engine_for(&opts)?;
            let stats = engine
                .simulate(&kernel, &gpu, &launch, regs, tlp)
                .map_err(|e| tool_error(&file, &e))?;
            let mut out = String::new();
            let _ = writeln!(out, "simulated `{}` on {}:", kernel.name(), gpu.name);
            let _ = writeln!(out, "  cycles              {}", stats.cycles);
            let _ = writeln!(out, "  warp instructions   {}", stats.warp_insts);
            let _ = writeln!(out, "  IPC                 {:.3}", stats.ipc());
            let _ = writeln!(out, "  resident blocks     {}", stats.resident_blocks);
            let _ = writeln!(
                out,
                "  L1 hit rate         {:.1}%",
                stats.l1_hit_rate() * 100.0
            );
            let _ = writeln!(out, "  reservation fails   {}", stats.l1_reservation_fails);
            let _ = writeln!(out, "  DRAM transactions   {}", stats.dram_transactions);
            let _ = writeln!(out, "  local-mem insts     {}", stats.local_insts);
            out.push_str(&breakdown_table(&stats, "  "));
            let points = [crat_core::MetricsPoint {
                label: kernel.name().to_string(),
                reg: regs,
                tlp: tlp.unwrap_or(0),
                stats,
            }];
            emit_metrics(&opts, &points, &engine)?;
            Ok(out)
        }
    }
}

fn load(path: &str) -> Result<Kernel, CliError> {
    let text = std::fs::read_to_string(path)?;
    parse(&text).map_err(|e| CliError::Tool(format!("{path}: {e}")))
}

fn emit(path: Option<&str>, text: &str) -> Result<(), CliError> {
    if let Some(p) = path {
        std::fs::write(p, text)?;
    }
    Ok(())
}

/// Build a launch config, auto-binding any unbound pointer params to
/// distinct synthetic addresses.
fn build_launch(kernel: &Kernel, opts: &CommonOpts) -> LaunchConfig {
    let mut launch = LaunchConfig::new(opts.grid, opts.block);
    let bound: HashMap<&str, u64> = opts.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut next_base = 0x1000_0000u64;
    for p in kernel.params() {
        let v = bound.get(p.name.as_str()).copied().unwrap_or_else(|| {
            let v = next_base;
            next_base += 0x1000_0000;
            v
        });
        launch = launch.with_param(&p.name, v);
    }
    launch
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_optimize_command() {
        let cmd = parse_args(&s(&[
            "optimize",
            "k.ptx",
            "-o",
            "out.ptx",
            "--gpu",
            "kepler",
            "--grid",
            "120",
            "--block",
            "256",
            "--param",
            "input=0x1000",
            "--opt-tlp",
            "static",
            "--no-shm",
            "--prepass",
        ]))
        .unwrap();
        match cmd {
            Command::Optimize {
                file,
                output,
                opts,
                prepass,
            } => {
                assert_eq!(file, "k.ptx");
                assert_eq!(output.as_deref(), Some("out.ptx"));
                assert_eq!(opts.gpu.name, "kepler");
                assert_eq!(opts.grid, 120);
                assert_eq!(opts.block, 256);
                assert_eq!(opts.params, vec![("input".to_string(), 0x1000)]);
                assert!(opts.no_shm);
                assert!(prepass);
                assert!(matches!(opts.opt_tlp, OptTlpSource::Static { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_numeric_opt_tlp_and_simulate() {
        let cmd = parse_args(&s(&[
            "simulate",
            "k.ptx",
            "--regs",
            "32",
            "--tlp",
            "4",
            "--metrics-json",
            "m.json",
        ]))
        .unwrap();
        match cmd {
            Command::Simulate {
                regs, tlp, opts, ..
            } => {
                assert_eq!(regs, Some(32));
                assert_eq!(tlp, Some(4));
                assert_eq!(opts.metrics_json.as_deref(), Some("m.json"));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&s(&["optimize", "k.ptx", "--opt-tlp", "3"])).unwrap();
        match cmd {
            Command::Optimize { opts, .. } => {
                assert_eq!(opts.opt_tlp, OptTlpSource::Given(3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_alloc_strategy() {
        let cmd = parse_args(&s(&["optimize", "k.ptx", "--alloc-strategy", "ssa"])).unwrap();
        match cmd {
            Command::Optimize { opts, .. } => {
                assert_eq!(opts.roster, StrategyRoster::Pinned(AllocStrategy::Ssa));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&s(&["app", "CFD", "--alloc-strategy", "roster"])).unwrap();
        match cmd {
            Command::App { opts, .. } => assert_eq!(opts.roster, StrategyRoster::Default),
            other => panic!("{other:?}"),
        }
        // Linear scan is degradation-only: not a pinnable strategy.
        assert!(matches!(
            parse_args(&s(&[
                "optimize",
                "k.ptx",
                "--alloc-strategy",
                "linear-scan"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_shm_bank_flags() {
        let cmd = parse_args(&s(&[
            "optimize",
            "k.ptx",
            "--shm-banks",
            "32:2",
            "--shm-layout",
            "per-thread",
            "--gpu",
            "kepler",
        ]))
        .unwrap();
        match cmd {
            Command::Optimize { opts, .. } => {
                let bank = opts.shm_banks.unwrap();
                assert_eq!(bank.banks, 32);
                assert_eq!(bank.word_bytes, 4);
                assert_eq!(bank.conflict_penalty, 2);
                assert_eq!(opts.shm_layout, LayoutPolicy::PerThread);
                // `--gpu` after `--shm-banks` must not drop the model.
                assert_eq!(opts.effective_gpu().shm_banks, Some(bank));
                assert_eq!(opts.effective_gpu().name, "kepler");
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&s(&["simulate", "k.ptx", "--shm-banks", "16"])).unwrap();
        match cmd {
            Command::Simulate { opts, .. } => {
                assert_eq!(opts.shm_banks.map(|b| b.conflict_penalty), Some(1));
            }
            other => panic!("{other:?}"),
        }
        // Without the flag the GPU keeps its conflict-free default.
        assert_eq!(CommonOpts::default().effective_gpu().shm_banks, None);
        for bad in [
            &["optimize", "k.ptx", "--shm-banks", "0"][..],
            &["optimize", "k.ptx", "--shm-layout", "diagonal"],
        ] {
            assert!(matches!(parse_args(&s(bad)), Err(CliError::Usage(_))));
        }
    }

    #[test]
    fn parses_cache_flags() {
        let cmd = parse_args(&s(&[
            "app",
            "CFD",
            "--cache-dir",
            "/tmp/crat-cache",
            "--cache-limit",
            "64M",
        ]))
        .unwrap();
        match cmd {
            Command::App { opts, .. } => {
                assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/crat-cache"));
                assert_eq!(opts.cache_limit, Some(64 << 20));
            }
            other => panic!("{other:?}"),
        }
        // Plain byte counts work too.
        let cmd = parse_args(&s(&[
            "simulate",
            "k.ptx",
            "--cache-dir",
            "d",
            "--cache-limit",
            "4096",
        ]))
        .unwrap();
        match cmd {
            Command::Simulate { opts, .. } => assert_eq!(opts.cache_limit, Some(4096)),
            other => panic!("{other:?}"),
        }
        // A limit without a directory is a usage error, as is a
        // malformed limit.
        assert!(matches!(
            parse_args(&s(&["simulate", "k.ptx", "--cache-limit", "64M"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&[
                "simulate",
                "k.ptx",
                "--cache-dir",
                "d",
                "--cache-limit",
                "lots"
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(USAGE.contains("--cache-dir"));
        assert!(USAGE.contains("CRAT_CACHE_DIR"));
    }

    #[test]
    fn cache_dir_flag_attaches_and_persists() {
        let dir = std::env::temp_dir().join(format!("crat-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = parse_args(&s(&[
            "app",
            "BAK",
            "--grid",
            "30",
            "--cache-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(
            out.contains("store:"),
            "engine line must report the store: {out}"
        );
        // The run persisted records under the cache dir.
        let store = crat_core::ResultStore::open(crat_core::StoreConfig::new(&dir)).unwrap();
        assert!(store.record_count() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            parse_args(&s(&["optimize"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["frobnicate", "x"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["simulate", "k.ptx", "--regs", "many"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["optimize", "k.ptx", "--param", "noequals"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse_args(&s(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&s(&[])).unwrap(), Command::Help);
        assert!(run(Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn end_to_end_on_a_temp_file() {
        let dir = std::env::temp_dir().join("crat_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("k.ptx");
        let ptx = "\
.entry k (.param .u64 out)
{
    .reg .u32 %v0, %v1;
    .reg .u64 %v2, %v3, %v4;
BB0:
    mov.u32 %v0, %tid.x;
    mov.u32 %v1, 2;
    mul.lo.u32 %v1, %v0, %v1;
    ld.param.u64 %v2, [out];
    cvt.u64.u32 %v3, %v1;
    add.u64 %v4, %v2, %v3;
    st.global.u32 [%v4], %v1;
    ret;
}
";
        std::fs::write(&path, ptx).unwrap();
        let file = path.to_str().unwrap().to_string();

        let out = run(Command::Analyze {
            file: file.clone(),
            opts: CommonOpts::default(),
        })
        .unwrap();
        assert!(out.contains("MaxReg"));

        let out = run(Command::Passes {
            file: file.clone(),
            output: None,
        })
        .unwrap();
        assert!(out.contains("passes:"));

        let metrics_path = dir.join("metrics.json");
        let out = run(Command::Simulate {
            file: file.clone(),
            regs: Some(16),
            tlp: None,
            opts: CommonOpts {
                metrics_json: Some(metrics_path.to_str().unwrap().to_string()),
                ..CommonOpts::default()
            },
        })
        .unwrap();
        assert!(out.contains("cycles"));
        assert!(out.contains("cycle breakdown"));
        assert!(out.contains("issued"));
        // The exported document parses and round-trips the stats.
        let doc = crat_core::Json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let points = doc.get("points").and_then(crat_core::Json::as_arr).unwrap();
        assert_eq!(points.len(), 1);
        let stats = crat_core::stats_from_json(points[0].get("stats").unwrap()).unwrap();
        stats.attribution.check(stats.cycles).unwrap();
        assert!(doc.get("engine").is_some());

        let out_path = dir.join("out.ptx");
        let out = run(Command::Optimize {
            file,
            output: Some(out_path.to_str().unwrap().to_string()),
            opts: CommonOpts {
                opt_tlp: OptTlpSource::Given(4),
                ..CommonOpts::default()
            },
            prepass: true,
        })
        .unwrap();
        assert!(out.contains("chosen:"));
        let emitted = std::fs::read_to_string(out_path).unwrap();
        assert!(crat_ptx::parse(&emitted).is_ok());
    }

    /// A bad launch is an input error (exit 3) with the simulator's
    /// message in every subcommand that takes one, not a panic.
    #[test]
    fn bad_launches_are_input_errors_everywhere() {
        let dir = std::env::temp_dir().join(format!("crat-cli-launch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("k.ptx");
        std::fs::write(
            &path,
            crat_workloads::build_kernel(crat_workloads::suite::spec("BAK")).to_ptx(),
        )
        .unwrap();
        let file = path.to_str().unwrap().to_string();
        for (grid, block, message) in [
            (
                12,
                63,
                "bad launch: block size 63 is not a positive multiple of 32",
            ),
            (
                12,
                0,
                "bad launch: block size 0 is not a positive multiple of 32",
            ),
            (0, 128, "bad launch: grid has zero blocks"),
        ] {
            let opts = CommonOpts {
                grid,
                block,
                opt_tlp: OptTlpSource::Static { l1_hit_rate: 0.6 },
                ..CommonOpts::default()
            };
            let commands = [
                Command::Analyze {
                    file: file.clone(),
                    opts: opts.clone(),
                },
                Command::Optimize {
                    file: file.clone(),
                    output: None,
                    opts: opts.clone(),
                    prepass: false,
                },
                Command::Simulate {
                    file: file.clone(),
                    regs: Some(16),
                    tlp: None,
                    opts,
                },
            ];
            for cmd in commands {
                match run(cmd) {
                    Err(e @ CliError::Tool(_)) => {
                        assert_eq!(e.exit_code(), 3);
                        assert!(e.to_string().contains(message), "{e}");
                    }
                    other => panic!("grid {grid} block {block}: {other:?}"),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod app_tests {
    use super::*;

    #[test]
    fn app_subcommand_runs_a_benchmark() {
        let cmd = parse_args(&[
            "app".to_string(),
            "BAK".to_string(),
            "--grid".to_string(),
            "30".to_string(),
        ])
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("MaxTLP"));
        assert!(out.contains("CRAT"));
    }

    #[test]
    fn app_subcommand_rejects_unknown() {
        let cmd = parse_args(&["app".to_string(), "NOPE".to_string()]).unwrap();
        assert!(matches!(run(cmd), Err(CliError::Usage(_))));
    }
}
