//! Simulator throughput: the decode-per-call (cold) path vs the
//! decode-once (warm) path over the probe kernel mix.
//!
//! The vendored Criterion stand-in only reports mean wall time, so
//! this bench additionally prints explicit `instr/sec` / `cycles/sec`
//! lines — the numbers recorded in `BENCH_sim_throughput.json` and
//! compared against the pre-decode baseline (see that file).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use crat_ptx::Kernel;
use crat_sim::{decode, simulate, simulate_decoded, GpuConfig, LaunchConfig};
use crat_workloads::{build_kernel, launch_sized, suite};

/// The probe mix: memory-bound, compute-bound, and shared-memory-heavy
/// apps (same mix as `examples/sim_throughput_probe.rs`).
const MIX: [&str; 6] = ["CFD", "KMN", "BAK", "STE", "FDTD", "SRAD"];
const GRID_BLOCKS: u32 = 30;
const REPS: u32 = 3;

fn workload() -> Vec<(Kernel, LaunchConfig)> {
    MIX.iter()
        .map(|abbr| {
            let app = suite::spec(abbr);
            (build_kernel(app), launch_sized(app, GRID_BLOCKS))
        })
        .collect()
}

/// Run `sim` over the mix `REPS` times and print its throughput.
fn measure(label: &str, mut sim: impl FnMut(usize) -> crat_sim::SimStats) {
    let n = MIX.len();
    let start = Instant::now();
    let (mut cycles, mut insts) = (0u64, 0u64);
    for _ in 0..REPS {
        for i in 0..n {
            let s = sim(i);
            cycles += s.cycles;
            insts += s.warp_insts;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{label:<40} instr/sec {:.3e}  cycles/sec {:.3e}",
        insts as f64 / secs,
        cycles as f64 / secs,
    );
}

fn bench_sim_throughput(c: &mut Criterion) {
    let gpu = GpuConfig::fermi();
    let work = workload();
    // Warm up caches, page tables, and the branch predictor.
    for (k, l) in &work {
        simulate(k, &gpu, l, 21, None).unwrap();
    }

    // Cold: every call validates, lowers, and simulates.
    measure("sim_throughput/cold_decode", |i| {
        let (k, l) = &work[i];
        simulate(black_box(k), &gpu, l, 21, None).unwrap()
    });

    // Warm: decode once per kernel (the engine's decoded-kernel cache
    // path), then simulate on the pre-decoded IR.
    let decoded: Vec<_> = work
        .iter()
        .map(|(k, l)| (decode(k).unwrap(), l.clone()))
        .collect();
    measure("sim_throughput/warm_decoded", |i| {
        let (dk, l) = &decoded[i];
        simulate_decoded(black_box(dk), &gpu, l, 21, None, None)
            .unwrap()
            .0
    });

    // Mean-time entries so regressions show in the Criterion report.
    c.bench_function("sim_throughput/cold_mix_pass", |b| {
        b.iter(|| {
            for (k, l) in &work {
                black_box(simulate(black_box(k), &gpu, l, 21, None).unwrap());
            }
        })
    });
    c.bench_function("sim_throughput/warm_mix_pass", |b| {
        b.iter(|| {
            for (dk, l) in &decoded {
                black_box(simulate_decoded(black_box(dk), &gpu, l, 21, None, None).unwrap());
            }
        })
    });
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
