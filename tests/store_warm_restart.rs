//! Warm-restart differential: a cold engine persists every result in
//! the 24-app suite, then a fresh engine — simulating a new process —
//! replays the same points from the store alone. The warm run must be
//! bit-identical to the cold run, execute zero simulations, and
//! quarantine nothing.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use crat_suite::core::store::{ResultStore, StoreConfig};
use crat_suite::core::EvalEngine;
use crat_suite::sim::GpuConfig;
use crat_suite::workloads::{build_kernel, launch_sized, suite, AppSpec};

const GRID_BLOCKS: u32 = 15;
const REGS: u32 = 20;
const TLP: Option<u32> = Some(2);

/// The full 24-app suite: the 22 paper apps plus the two
/// bank-sensitive kernels.
fn all_apps() -> Vec<&'static AppSpec> {
    suite::all().chain(suite::bank_sensitive()).collect()
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crat-warm-restart-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn engine_on(dir: &PathBuf) -> EvalEngine {
    let engine = EvalEngine::new(2);
    let store = ResultStore::open(StoreConfig::new(dir)).expect("open store");
    let _ = engine.attach_store(Arc::new(store));
    engine
}

#[test]
fn warm_restart_is_bit_identical_across_the_suite() {
    let apps = all_apps();
    let dir = temp_dir();
    let gpu = GpuConfig::fermi();

    // Cold process: simulate and persist every app.
    let cold = engine_on(&dir);
    let mut truth = Vec::new();
    for app in &apps {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, GRID_BLOCKS);
        let stats = cold
            .simulate(&kernel, &gpu, &launch, REGS, TLP)
            .unwrap_or_else(|e| panic!("{}: cold run failed: {e}", app.abbr));
        truth.push(stats);
    }
    let s = cold.stats();
    assert_eq!(s.sims_executed, apps.len() as u64);
    assert_eq!(s.store_writes, apps.len() as u64, "every result persisted");
    assert_eq!(s.store_hits, 0);

    // Warm process: a fresh engine on the same directory replays
    // everything from disk.
    let warm = engine_on(&dir);
    for (app, expected) in apps.iter().zip(&truth) {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, GRID_BLOCKS);
        let stats = warm
            .simulate(&kernel, &gpu, &launch, REGS, TLP)
            .unwrap_or_else(|e| panic!("{}: warm run failed: {e}", app.abbr));
        assert_eq!(
            &stats, expected,
            "{}: warm restart must be bit-identical",
            app.abbr
        );
    }
    let s = warm.stats();
    assert_eq!(s.sims_executed, 0, "warm run must not simulate: {s:?}");
    assert_eq!(s.store_hits, apps.len() as u64);
    assert_eq!(s.store_hits, s.requests(), "every request store-served");
    assert_eq!(s.store_quarantined, 0);
    assert_eq!(s.panics_caught, 0);
    assert!((s.hit_rate() - 1.0).abs() < 1e-12);

    let _ = fs::remove_dir_all(&dir);
}
