//! Simulator-throughput probe with a per-op-class breakdown.
//!
//! Runs a workload mix through the warm (pre-decoded) path, the
//! reference interpreter ([`crat_sim::reference`]) and the cold
//! (decode-per-call) path, and prints per-app and aggregate
//! `instr/sec` / `cycles/sec`, the decoded/reference speedup, plus the
//! vector-execution profile of the warm path (issued instructions by
//! op class, vector vs scalar-fallback counts, superblocks) so
//! vectorization wins are attributable to the op mix.
//!
//! Usage:
//!
//! ```text
//! sim_throughput_probe [MIX_CSV] [REPS] [GRID_BLOCKS] [--min-speedup X] [--micro]
//! ```
//!
//! Defaults reproduce the `BENCH_sim_throughput.json` configuration
//! (`CFD,KMN,BAK,STE,FDTD,SRAD`, 3 reps, 30 blocks). The warm and
//! reference paths are timed rep by rep on the same app, so machine
//! load and clock drift hit both alike and their ratio holds on any
//! machine. With `--min-speedup`, the probe exits non-zero if the
//! aggregate decoded/reference instr/sec ratio falls below `X` — the
//! `sim-throughput` smoke tier in `scripts/check.sh`. With `--micro`,
//! the scheduler-overhead microkernels ([`crat_workloads::micro`]) run
//! first: `empty-alu` isolates the per-instruction cost of the issue
//! path (one warp, pure ALU) and `stall-heavy` the cost of idle
//! fast-forward under dependent-load stalls.

use std::process::ExitCode;
use std::time::Instant;

use crat_sim::{
    decode, reference, simulate, simulate_decoded, GpuConfig, LaunchConfig, OpClass, VectorStats,
};
use crat_workloads::{build_kernel, launch_sized, micro, suite};

const DEFAULT_MIX: &str = "CFD,KMN,BAK,STE,FDTD,SRAD";
const DEFAULT_REPS: u32 = 3;
const DEFAULT_GRID: u32 = 30;
const REGS_PER_THREAD: u32 = 21;

struct Args {
    mix: Vec<String>,
    reps: u32,
    grid: u32,
    min_speedup: Option<f64>,
    micro: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sim_throughput_probe [MIX_CSV] [REPS] [GRID_BLOCKS] [--min-speedup X] [--micro]"
    );
    eprintln!("  MIX_CSV      comma-separated app abbreviations (default {DEFAULT_MIX})");
    eprintln!("  REPS         repetitions per app (default {DEFAULT_REPS})");
    eprintln!("  GRID_BLOCKS  grid size in blocks (default {DEFAULT_GRID})");
    eprintln!("  --min-speedup X  fail (exit 1) if decoded/reference instr/sec < X");
    eprintln!("  --micro      also run the scheduler-overhead microkernels");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut pos: Vec<String> = Vec::new();
    let mut min_speedup = None;
    let mut micro = false;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--min-speedup" => {
                let v = argv.next().unwrap_or_else(|| usage());
                min_speedup = Some(v.parse::<f64>().unwrap_or_else(|_| usage()));
            }
            "--micro" => micro = true,
            "--help" | "-h" => usage(),
            _ => pos.push(a),
        }
    }
    let mix_csv = pos.first().map_or(DEFAULT_MIX, String::as_str);
    let mix: Vec<String> = mix_csv
        .split(',')
        .map(|s| s.trim().to_uppercase())
        .filter(|s| !s.is_empty())
        .collect();
    if mix.is_empty() {
        usage();
    }
    for a in &mix {
        if !suite::all().any(|s| s.abbr == a) {
            eprintln!("unknown app {a:?}; known apps:");
            for s in suite::all() {
                eprint!(" {}", s.abbr);
            }
            eprintln!();
            std::process::exit(2);
        }
    }
    let reps = pos
        .get(1)
        .map_or(DEFAULT_REPS, |v| v.parse().unwrap_or_else(|_| usage()));
    let grid = pos
        .get(2)
        .map_or(DEFAULT_GRID, |v| v.parse().unwrap_or_else(|_| usage()));
    if reps == 0 || grid == 0 {
        usage();
    }
    Args {
        mix,
        reps,
        grid,
        min_speedup,
        micro,
    }
}

/// Run one scheduler-overhead microkernel warm-decoded and print its
/// throughput.
fn run_micro(label: &str, kernel: &crat_ptx::Kernel, launch: &LaunchConfig, tlp: Option<u32>) {
    let gpu = GpuConfig::fermi();
    let dk = decode(kernel).unwrap();
    // Warm-up rep, then timed reps.
    simulate_decoded(&dk, &gpu, launch, REGS_PER_THREAD, tlp, None).unwrap();
    let reps = 5;
    let start = Instant::now();
    let (mut cycles, mut insts) = (0u64, 0u64);
    for _ in 0..reps {
        let (s, _) = simulate_decoded(&dk, &gpu, launch, REGS_PER_THREAD, tlp, None).unwrap();
        cycles += s.cycles;
        insts += s.warp_insts;
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "micro {label:<12} instr/sec {:.3e}  cycles/sec {:.3e}  ipc {:.2}",
        insts as f64 / secs,
        cycles as f64 / secs,
        insts as f64 / cycles.max(1) as f64,
    );
}

fn class_line(v: &VectorStats) -> String {
    let total: u64 = v.class_insts.iter().sum();
    let mut s = String::new();
    for c in OpClass::ALL {
        let n = v.class_insts[c as usize];
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * n as f64 / total as f64
        };
        s.push_str(&format!("{}:{pct:.1}% ", c.name()));
    }
    s.push_str(&format!(
        "| vec {:.1}% scalar-fallback {} superblocks {}",
        100.0 * v.vector_fraction(),
        v.scalar_insts,
        v.superblocks
    ));
    s
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.micro {
        run_micro(
            "empty-alu",
            &micro::empty_alu_kernel(),
            &micro::empty_alu_launch(),
            Some(1),
        );
        run_micro(
            "stall-heavy",
            &micro::stall_heavy_kernel(),
            &micro::stall_heavy_launch(args.grid),
            None,
        );
    }
    let gpu = GpuConfig::fermi();
    let work: Vec<(String, _, LaunchConfig)> = args
        .mix
        .iter()
        .map(|abbr| {
            let app = suite::spec(abbr);
            (
                abbr.clone(),
                build_kernel(app),
                launch_sized(app, args.grid),
            )
        })
        .collect();

    // Warm up caches, page tables, and the branch predictor.
    for (_, k, l) in &work {
        simulate(k, &gpu, l, REGS_PER_THREAD, None).unwrap();
    }
    let decoded: Vec<_> = work.iter().map(|(_, k, _)| decode(k).unwrap()).collect();

    println!(
        "mix {} reps {} grid {}",
        args.mix.join(","),
        args.reps,
        args.grid
    );

    // Per-app warm profile, each rep paired with a reference rep of
    // the same app. Both paths execute the same instructions (the
    // differential tests hold them bit-identical), so the speedup is
    // the ratio of their times.
    let (mut agg_cycles, mut agg_insts) = (0u64, 0u64);
    let (mut agg_secs, mut agg_ref_secs) = (0.0f64, 0.0f64);
    let mut agg_v = VectorStats::default();
    for ((abbr, k, l), dk) in work.iter().zip(&decoded) {
        let (mut secs, mut ref_secs) = (0.0f64, 0.0f64);
        let (mut cycles, mut insts) = (0u64, 0u64);
        let mut vstats = VectorStats::default();
        for _ in 0..args.reps {
            let start = Instant::now();
            let (s, v) = simulate_decoded(dk, &gpu, l, REGS_PER_THREAD, None, None).unwrap();
            secs += start.elapsed().as_secs_f64();
            let start = Instant::now();
            reference::simulate(k, &gpu, l, REGS_PER_THREAD, None).unwrap();
            ref_secs += start.elapsed().as_secs_f64();
            cycles += s.cycles;
            insts += s.warp_insts;
            vstats.merge(&v);
        }
        println!(
            "{abbr:<6} instr/sec {:.3e}  cycles/sec {:.3e}  ipc {:.2}  vs-ref {:.2}x  {}",
            insts as f64 / secs,
            cycles as f64 / secs,
            insts as f64 / cycles.max(1) as f64,
            ref_secs / secs,
            class_line(&vstats)
        );
        agg_cycles += cycles;
        agg_insts += insts;
        agg_secs += secs;
        agg_ref_secs += ref_secs;
        agg_v.merge(&vstats);
    }
    println!(
        "warm   instr/sec {:.3e}  cycles/sec {:.3e}  {}",
        agg_insts as f64 / agg_secs,
        agg_cycles as f64 / agg_secs,
        class_line(&agg_v)
    );
    let speedup = agg_ref_secs / agg_secs;
    println!(
        "ref    instr/sec {:.3e}  decoded/reference {speedup:.2}x",
        agg_insts as f64 / agg_ref_secs,
    );

    // Aggregate cold pass for reference.
    let start = Instant::now();
    let (mut cycles, mut insts) = (0u64, 0u64);
    for _ in 0..args.reps {
        for (_, k, l) in &work {
            let s = simulate(k, &gpu, l, REGS_PER_THREAD, None).unwrap();
            cycles += s.cycles;
            insts += s.warp_insts;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "cold   instr/sec {:.3e}  cycles/sec {:.3e}",
        insts as f64 / secs,
        cycles as f64 / secs
    );

    if let Some(min) = args.min_speedup {
        if speedup < min {
            eprintln!("FAIL: decoded/reference speedup {speedup:.2}x below {min:.2}x");
            return ExitCode::FAILURE;
        }
        println!("speedup check passed: {speedup:.2}x >= {min:.2}x");
    }
    ExitCode::SUCCESS
}
