//! Cross-process store sharing: two *real* concurrent processes point
//! at one cache directory, race over the same operating points, and
//! must produce bit-identical results without corrupting each other's
//! records. A third process then warm-starts entirely from the store
//! the first two left behind.
//!
//! The children are this same test binary re-executed with the
//! `child_worker` filter and `CRAT_STORE_XPROC_ROLE=child`; without
//! that variable `child_worker` is an early-return no-op, so a plain
//! `cargo test` never runs the worker body in-process.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use crat_suite::core::store::{ResultStore, StoreConfig};
use crat_suite::core::{stats_to_json, EvalEngine};
use crat_suite::sim::GpuConfig;
use crat_suite::workloads::{build_kernel, launch_sized, suite, AppSpec};

const ROLE_VAR: &str = "CRAT_STORE_XPROC_ROLE";
const DIR_VAR: &str = "CRAT_STORE_XPROC_DIR";
const OUT_VAR: &str = "CRAT_STORE_XPROC_OUT";

const GRID_BLOCKS: u32 = 13;
const REGS: u32 = 21;
const TLP: Option<u32> = Some(2);

/// The points every process races over.
fn apps() -> Vec<&'static AppSpec> {
    ["BAK", "CFD", "HST", "KMN", "LBM", "SPMV"]
        .iter()
        .map(|a| suite::spec(a))
        .collect()
}

/// The worker body, run only in spawned child processes: simulate
/// every point against the shared store, then write one line of
/// counters and one compact-JSON result line per app.
#[test]
fn child_worker() {
    if std::env::var(ROLE_VAR).as_deref() != Ok("child") {
        return;
    }
    let dir = PathBuf::from(std::env::var(DIR_VAR).expect("child needs the store dir"));
    let out = PathBuf::from(std::env::var(OUT_VAR).expect("child needs an output path"));

    let engine = EvalEngine::new(2);
    let store = ResultStore::open(StoreConfig::new(&dir)).expect("open shared store");
    let _ = engine.attach_store(Arc::new(store));
    let gpu = GpuConfig::fermi();

    let mut lines = Vec::new();
    for app in apps() {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, GRID_BLOCKS);
        let stats = engine
            .simulate(&kernel, &gpu, &launch, REGS, TLP)
            .unwrap_or_else(|e| panic!("{}: child run failed: {e}", app.abbr));
        lines.push(format!("{} {}", app.abbr, stats_to_json(&stats).compact()));
    }
    let s = engine.stats();
    let header = format!(
        "# sims={} store_hits={} quarantined={} panics={}",
        s.sims_executed, s.store_hits, s.store_quarantined, s.panics_caught
    );
    fs::write(&out, format!("{header}\n{}\n", lines.join("\n"))).expect("write child output");
}

struct ChildReport {
    sims: u64,
    store_hits: u64,
    quarantined: u64,
    panics: u64,
    /// The per-app result lines, exactly as written.
    results: String,
}

fn spawn_child(dir: &Path, out: &Path) -> std::process::Child {
    Command::new(std::env::current_exe().expect("current exe"))
        .args(["child_worker", "--exact", "--test-threads=1"])
        .env(ROLE_VAR, "child")
        .env(DIR_VAR, dir)
        .env(OUT_VAR, out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child process")
}

fn read_report(out: &Path) -> ChildReport {
    let text = fs::read_to_string(out).expect("child output");
    let (header, results) = text.split_once('\n').expect("header line");
    let counter = |key: &str| -> u64 {
        header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {key} in {header:?}"))
    };
    ChildReport {
        sims: counter("sims"),
        store_hits: counter("store_hits"),
        quarantined: counter("quarantined"),
        panics: counter("panics"),
        results: results.to_string(),
    }
}

#[test]
fn concurrent_processes_share_the_store_without_corruption() {
    let base = std::env::temp_dir().join(format!("crat-xproc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).expect("create scratch dir");
    let store_dir = base.join("store");
    let out_a = base.join("a.txt");
    let out_b = base.join("b.txt");
    let out_c = base.join("c.txt");

    // Two concurrent processes race over the same points.
    let mut child_a = spawn_child(&store_dir, &out_a);
    let mut child_b = spawn_child(&store_dir, &out_b);
    let status_a = child_a.wait().expect("wait for child A");
    let status_b = child_b.wait().expect("wait for child B");
    assert!(status_a.success(), "child A failed: {status_a}");
    assert!(status_b.success(), "child B failed: {status_b}");

    let a = read_report(&out_a);
    let b = read_report(&out_b);
    assert_eq!(
        a.results, b.results,
        "racing processes must agree bit-identically"
    );
    for r in [&a, &b] {
        assert_eq!(r.panics, 0);
        assert_eq!(
            r.quarantined, 0,
            "no process may corrupt the other's records"
        );
        // Every point was either computed locally or served from the
        // other process's persisted result — never lost.
        assert_eq!(r.sims + r.store_hits, apps().len() as u64);
    }
    // Between them the children computed every point at least once.
    assert!(a.sims + b.sims >= apps().len() as u64);

    // A third process warm-starts purely from the shared store.
    let mut child_c = spawn_child(&store_dir, &out_c);
    let status_c = child_c.wait().expect("wait for child C");
    assert!(status_c.success(), "child C failed: {status_c}");
    let c = read_report(&out_c);
    assert_eq!(c.results, a.results, "warm process must replay identically");
    assert_eq!(c.sims, 0, "third process must run entirely from the store");
    assert_eq!(c.store_hits, apps().len() as u64);
    assert_eq!(c.quarantined, 0);

    let _ = fs::remove_dir_all(&base);
}
