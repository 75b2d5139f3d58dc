//! The disk-fault-injection tier: seeded byte-level attacks on the
//! persistent result store's on-disk records, extending the
//! `fault_injection` harness to the filesystem boundary. Every scenario
//! must end in structured degradation — the damaged record is
//! quarantined and the result recomputed, bit-identical to an
//! undamaged run — with zero panics and zero wrong results.
//!
//! The record mutators live in [`crat_sim::fault::FaultPlan`]
//! (`mutate_record`): torn writes, hard truncation, single bit flips,
//! stale format versions, and trailing garbage. ENOSPC-style write
//! failures are injected through the store's own armed hook
//! ([`crat_core::store::fault`]), which is process-global: any store
//! write running while it is armed can take the injected failure, so
//! every test that writes through a store serializes on
//! [`STORE_FAULT_LOCK`].

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crat_core::store::{codec, fault};
use crat_core::{EvalEngine, ResultStore, StoreConfig};
use crat_sim::{fault::FaultPlan, GpuConfig, LaunchConfig};
use crat_workloads::{build_kernel, launch_sized, suite};

/// Serializes every store-writing test against the store's
/// process-global write-fault hook.
static STORE_FAULT_LOCK: Mutex<()> = Mutex::new(());

fn store_fault_guard() -> MutexGuard<'static, ()> {
    let guard = STORE_FAULT_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    fault::disarm();
    guard
}

/// Wall-clock ceiling for one seeded scenario: a hang fails the suite
/// instead of wedging it.
const SCENARIO_DEADLINE: Duration = Duration::from_secs(30);

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

fn temp_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "crat-store-faults-{tag}-{seed}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn engine_on(dir: &Path) -> EvalEngine {
    let engine = EvalEngine::serial();
    let store = ResultStore::open(StoreConfig::new(dir)).expect("open store");
    let _ = engine.attach_store(Arc::new(store));
    engine
}

/// Every `.rec` file under a store directory.
fn record_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(shards) = fs::read_dir(dir) else {
        return out;
    };
    for shard in shards.flatten() {
        if !shard.path().is_dir() || shard.file_name() == "quarantine" {
            continue;
        }
        let Ok(files) = fs::read_dir(shard.path()) else {
            continue;
        };
        for f in files.flatten() {
            if f.path().extension().and_then(|e| e.to_str()) == Some("rec") {
                out.push(f.path());
            }
        }
    }
    out
}

fn quarantine_count(dir: &Path) -> usize {
    fs::read_dir(dir.join("quarantine"))
        .map(|d| d.count())
        .unwrap_or(0)
}

/// The core differential: 36 seeds, each persisting a result, damaging
/// the record with a seeded mutator (torn write, truncation, bit flip,
/// stale version, trailing garbage), then warm-restarting. The damaged
/// cache must never produce a wrong result or crash — the record is
/// quarantined, the result recomputed bit-identically, and the slot
/// rewritten so a third restart hits cleanly.
#[test]
fn mutated_records_are_quarantined_and_recomputed() {
    let _guard = store_fault_guard();
    for seed in 0..36u64 {
        scenario(seed, || {
            let mut plan = FaultPlan::new(seed);
            let app = app_for_seed(seed);
            let kernel = build_kernel(app);
            let gpu = GpuConfig::fermi();
            let launch: LaunchConfig = launch_sized(app, 12);
            let dir = temp_dir("mutate", seed);

            // Cold run: compute the truth and persist it.
            let cold = engine_on(&dir);
            let truth = cold
                .simulate(&kernel, &gpu, &launch, 20, Some(2))
                .unwrap_or_else(|e| panic!("seed {seed}: cold run failed: {e}"));
            let records = record_files(&dir);
            assert_eq!(records.len(), 1, "seed {seed}: one record expected");

            // Damage the record on disk.
            let original = fs::read(&records[0]).expect("read record");
            let mutated = plan.mutate_record(&original, codec::VERSION_OFFSET);
            assert_ne!(mutated, original, "seed {seed}: mutator must change bytes");
            fs::write(&records[0], &mutated).expect("write damaged record");

            // Warm restart: the damaged record must be rejected, not
            // served; the result is recomputed and bit-identical.
            let warm = engine_on(&dir);
            let recomputed = warm
                .simulate(&kernel, &gpu, &launch, 20, Some(2))
                .unwrap_or_else(|e| panic!("seed {seed}: warm run failed: {e}"));
            assert_eq!(
                recomputed, truth,
                "seed {seed}: recomputed result must be bit-identical"
            );
            let s = warm.stats();
            assert_eq!(s.panics_caught, 0, "seed {seed}");
            assert_eq!(s.store_hits, 0, "seed {seed}: damage must not hit");
            assert_eq!(s.store_quarantined, 1, "seed {seed}");
            assert_eq!(s.sims_executed, 1, "seed {seed}: recompute on demand");
            assert_eq!(quarantine_count(&dir), 1, "seed {seed}");

            // The recompute rewrote the record: a third restart hits.
            let third = engine_on(&dir);
            let replayed = third
                .simulate(&kernel, &gpu, &launch, 20, Some(2))
                .unwrap_or_else(|e| panic!("seed {seed}: third run failed: {e}"));
            assert_eq!(replayed, truth, "seed {seed}");
            let s = third.stats();
            assert_eq!((s.store_hits, s.sims_executed), (1, 0), "seed {seed}");
            assert_eq!(s.store_quarantined, 0, "seed {seed}");

            let _ = fs::remove_dir_all(&dir);
        });
    }
}

/// Non-record garbage at record paths: empty files and random bytes
/// must behave exactly like any other corruption — quarantined, then
/// recomputed.
#[test]
fn garbage_files_are_quarantined_not_served() {
    let _guard = store_fault_guard();
    for (seed, garbage) in [(100u64, Vec::new()), (101, b"not a record at all".to_vec())] {
        scenario(seed, || {
            let app = app_for_seed(seed);
            let kernel = build_kernel(app);
            let gpu = GpuConfig::fermi();
            let launch = launch_sized(app, 12);
            let dir = temp_dir("garbage", seed);

            let cold = engine_on(&dir);
            let truth = cold.simulate(&kernel, &gpu, &launch, 20, Some(2)).unwrap();
            let records = record_files(&dir);
            fs::write(&records[0], &garbage).unwrap();

            let warm = engine_on(&dir);
            let recomputed = warm.simulate(&kernel, &gpu, &launch, 20, Some(2)).unwrap();
            assert_eq!(recomputed, truth, "seed {seed}");
            assert_eq!(warm.stats().store_quarantined, 1, "seed {seed}");
            let _ = fs::remove_dir_all(&dir);
        });
    }
}

/// Injected out-of-space write failures: the run continues with full
/// results, only persistence is lost, and the failure is counted.
#[test]
fn write_failures_degrade_without_losing_results() {
    let _guard = store_fault_guard();
    for seed in 200..204u64 {
        scenario(seed, || {
            let app = app_for_seed(seed);
            let kernel = build_kernel(app);
            let gpu = GpuConfig::fermi();
            let launch = launch_sized(app, 12);
            let dir = temp_dir("enospc", seed);

            let engine = engine_on(&dir);
            fault::arm_write_errors(1);
            let result = engine.simulate(&kernel, &gpu, &launch, 20, Some(2));
            fault::disarm();
            let direct = crat_sim::simulate(&kernel, &gpu, &launch, 20, Some(2))
                .map_err(crat_core::CratError::Sim);
            assert_eq!(result, direct, "seed {seed}: result survives the fault");
            let s = engine.stats();
            assert_eq!(s.store_write_errors, 1, "seed {seed}");
            assert_eq!(s.panics_caught, 0, "seed {seed}");
            assert_eq!(
                record_files(&dir).len(),
                0,
                "seed {seed}: nothing persisted"
            );

            // With the hook disarmed, the next uncached point persists
            // normally. (At grid 12 every cap leaves one resident block,
            // so the new point takes another register count.)
            let _ = engine
                .simulate(&kernel, &gpu, &launch, 24, Some(2))
                .unwrap();
            assert_eq!(engine.stats().store_writes, 1, "seed {seed}");
            assert_eq!(record_files(&dir).len(), 1, "seed {seed}");
            let _ = fs::remove_dir_all(&dir);
        });
    }
}

/// A crashed maintenance holder (stale `.lock` file) must not wedge
/// the store: eviction takes the lock over and the byte budget is
/// still enforced.
#[test]
fn stale_lock_does_not_block_eviction() {
    let _guard = store_fault_guard();
    scenario(300, || {
        let dir = temp_dir("stale-lock", 300);

        let app = app_for_seed(300);
        let kernel = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 12);
        // Probe one record's size, then start over with that as the
        // byte budget: the second write must evict the first.
        let probe = engine_on(&dir);
        let _ = probe.simulate(&kernel, &gpu, &launch, 20, Some(2)).unwrap();
        let one_record = fs::metadata(&record_files(&dir)[0]).unwrap().len();
        let _ = fs::remove_dir_all(&dir);

        // Plant an hour-old lock, as a crashed process would leave.
        fs::create_dir_all(&dir).unwrap();
        let f = fs::File::create(dir.join(".lock")).unwrap();
        f.set_modified(std::time::SystemTime::now() - Duration::from_secs(3600))
            .unwrap();
        drop(f);

        let engine = EvalEngine::serial();
        let store =
            ResultStore::open(StoreConfig::new(&dir).with_byte_limit(one_record)).expect("open");
        let _ = engine.attach_store(Arc::new(store));
        // Two distinct points: at grid 12 every cap leaves one resident
        // block, so the second takes another register count.
        let a = engine
            .simulate(&kernel, &gpu, &launch, 20, Some(2))
            .unwrap();
        let b = engine
            .simulate(&kernel, &gpu, &launch, 24, Some(2))
            .unwrap();
        assert_ne!(a.cycles, 0);
        assert_ne!(b.cycles, 0);
        let s = engine.stats();
        assert!(s.store_evictions >= 1, "eviction must proceed: {s:?}");
        assert!(record_files(&dir).len() <= 1);
        let _ = fs::remove_dir_all(&dir);
    });
}

/// A *fresh* lock held by a live process only skips the maintenance
/// sweep — reads and writes stay lock-free and correct, and the store
/// may temporarily exceed its budget rather than block or fail.
#[test]
fn held_lock_skips_the_sweep_but_never_blocks_io() {
    let _guard = store_fault_guard();
    scenario(301, || {
        let dir = temp_dir("held-lock", 301);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(".lock"), b"held").unwrap();

        let app = app_for_seed(301);
        let kernel = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch_sized(app, 12);
        let engine = EvalEngine::serial();
        let store = ResultStore::open(StoreConfig::new(&dir).with_byte_limit(1)).expect("open");
        let _ = engine.attach_store(Arc::new(store));
        let truth = engine
            .simulate(&kernel, &gpu, &launch, 20, Some(2))
            .unwrap();
        let s = engine.stats();
        assert_eq!(s.store_writes, 1, "writes stay lock-free");
        assert_eq!(s.store_evictions, 0, "sweep skipped while lock held");
        assert_eq!(record_files(&dir).len(), 1);

        // A warm restart under the same held lock still replays.
        let warm = engine_on(&dir);
        let replayed = warm.simulate(&kernel, &gpu, &launch, 20, Some(2)).unwrap();
        assert_eq!(replayed, truth);
        assert_eq!(warm.stats().store_hits, 1, "reads stay lock-free");
        let _ = fs::remove_dir_all(&dir);
    });
}

/// The byte-mutation space itself: across many seeds, every mutated
/// framed record must be rejected by `decode_record` — the validation
/// chain (magic, version, length, checksum) leaves no gap the
/// mutators can slip through.
#[test]
fn every_mutation_shape_is_rejected_by_validation() {
    let stats = crat_sim::SimStats {
        cycles: 777,
        warp_insts: 123,
        ..crat_sim::SimStats::default()
    };
    let record = codec::encode_record(&Ok(stats)).expect("encodable");
    assert!(codec::decode_record(&record).is_ok());
    for seed in 0..64u64 {
        let mut plan = FaultPlan::new(seed);
        let mutated = plan.mutate_record(&record, codec::VERSION_OFFSET);
        assert_ne!(mutated, record, "seed {seed}: mutator must change bytes");
        assert!(
            codec::decode_record(&mutated).is_err(),
            "seed {seed}: damaged record must be rejected"
        );
    }
}
