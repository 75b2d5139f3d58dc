//! Scheduler-overhead microbenchmarks: the cost of a scheduling
//! *decision* in isolation, measured with the two extreme kernels from
//! [`crat_workloads::micro`].
//!
//! `empty_alu` is issue-bound with a sole resident warp — every cycle
//! issues one instruction through the full scheduler decision, so its
//! `instr/sec` tracks per-decision overhead directly. `stall_heavy` is
//! stall-bound — dependent global-load chains keep every warp parked
//! on the scoreboard most cycles — so its `cycles/sec` tracks the cost
//! of skipping dead cycles by idle fast-forward (a per-cycle polling
//! loop pays a full all-scheduler poll for each). Explicit throughput lines accompany the Criterion entries,
//! mirroring `sim_throughput.rs`; the numbers are recorded in
//! `BENCH_sim_throughput.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use crat_sim::{decode, simulate_decoded, DecodedKernel, GpuConfig, LaunchConfig};
use crat_workloads::micro;

const STALL_GRID: u32 = 30;
const REPS: u32 = 5;

/// Run one microkernel `REPS` times warm-decoded and print throughput.
fn measure(label: &str, dk: &DecodedKernel, launch: &LaunchConfig, tlp: Option<u32>) {
    let gpu = GpuConfig::fermi();
    let start = Instant::now();
    let (mut cycles, mut insts) = (0u64, 0u64);
    for _ in 0..REPS {
        let (s, _) = simulate_decoded(black_box(dk), &gpu, launch, 21, tlp, None).unwrap();
        cycles += s.cycles;
        insts += s.warp_insts;
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{label:<40} instr/sec {:.3e}  cycles/sec {:.3e}",
        insts as f64 / secs,
        cycles as f64 / secs,
    );
}

fn bench_sched_overhead(c: &mut Criterion) {
    let gpu = GpuConfig::fermi();
    let ea = decode(&micro::empty_alu_kernel()).unwrap();
    let ea_launch = micro::empty_alu_launch();
    let sh = decode(&micro::stall_heavy_kernel()).unwrap();
    let sh_launch = micro::stall_heavy_launch(STALL_GRID);

    // Warm-up.
    simulate_decoded(&ea, &gpu, &ea_launch, 21, Some(1), None).unwrap();
    simulate_decoded(&sh, &gpu, &sh_launch, 21, None, None).unwrap();

    measure("sched_overhead/empty_alu", &ea, &ea_launch, Some(1));
    measure("sched_overhead/stall_heavy", &sh, &sh_launch, None);

    c.bench_function("sched_overhead/empty_alu_pass", |b| {
        b.iter(|| {
            black_box(
                simulate_decoded(black_box(&ea), &gpu, &ea_launch, 21, Some(1), None).unwrap(),
            )
        })
    });
    c.bench_function("sched_overhead/stall_heavy_pass", |b| {
        b.iter(|| {
            black_box(simulate_decoded(black_box(&sh), &gpu, &sh_launch, 21, None, None).unwrap())
        })
    });
}

criterion_group!(benches, bench_sched_overhead);
criterion_main!(benches);
