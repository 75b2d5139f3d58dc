//! The `crat` binary builds its engine from the environment:
//! `CRAT_THREADS` sizes the worker pool and `CRAT_CACHE_DIR` attaches a
//! persistent store, while `--threads` and `--cache-dir` win over both
//! (a `--cache-dir` leaves `CRAT_CACHE_DIR` unopened).

use std::path::Path;
use std::process::Command;

/// Run `crat app BAK --grid 30 <extra>` with `CRAT_THREADS=1` and
/// `CRAT_CACHE_DIR=<dir>`; returns stdout.
fn crat_app(dir: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_crat"))
        .args(["app", "BAK", "--grid", "30"])
        .args(extra)
        .env("CRAT_THREADS", "1")
        .env("CRAT_CACHE_DIR", dir)
        .env_remove("CRAT_CACHE_LIMIT")
        .output()
        .expect("crat runs");
    assert!(
        out.status.success(),
        "crat failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The report's `engine:` line, and the report without it.
fn split_engine_line(out: &str) -> (&str, String) {
    let line = out
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with("engine:"))
        .expect("report has an engine line");
    let rest = out.lines().filter(|l| l.trim() != line).collect();
    (line, rest)
}

/// The count before `word` in the engine line's `store:` segment
/// (`store: 0 hits (0%) / 7 misses, 7 writes`).
fn store_count(line: &str, word: &str) -> u64 {
    let store = line.split("store: ").nth(1).expect("store segment");
    let words: Vec<&str> = store.split([' ', ',']).filter(|w| !w.is_empty()).collect();
    let at = words.iter().position(|w| *w == word).expect(word);
    words[at - 1].parse().expect("a count")
}

#[test]
fn environment_sizes_the_engine_and_attaches_the_store() {
    let base = std::env::temp_dir().join(format!("crat-env-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (env_dir, flag_dir) = (base.join("env"), base.join("flag"));

    // Cold: one worker, every simulation written to the store.
    let cold = crat_app(&env_dir, &[]);
    let (line, cold_report) = split_engine_line(&cold);
    assert!(line.starts_with("engine: 1 threads,"), "{line}");
    assert!(store_count(line, "writes") > 0, "{line}");
    assert_eq!(store_count(line, "hits"), 0, "{line}");

    // Warm: a second process replays every result from the store.
    let warm = crat_app(&env_dir, &[]);
    let (line, warm_report) = split_engine_line(&warm);
    assert!(line.contains(", 0 sims,"), "{line}");
    assert!(store_count(line, "hits") > 0, "{line}");
    assert_eq!(warm_report, cold_report, "a warm restart is bit-identical");

    // The flags win over the environment.
    let flagged = crat_app(&env_dir, &["--threads", "2"]);
    let (line, _) = split_engine_line(&flagged);
    assert!(line.starts_with("engine: 2 threads,"), "{line}");
    let flag_path = flag_dir.to_str().expect("utf-8 temp path");
    let elsewhere = crat_app(&env_dir, &["--cache-dir", flag_path]);
    let (line, _) = split_engine_line(&elsewhere);
    assert_eq!(store_count(line, "hits"), 0, "{line}");
    assert!(store_count(line, "writes") > 0, "{line}");

    // With the flag given, the environment's store is never opened, so
    // its directory is not created.
    let missing = base.join("missing");
    let flagged = crat_app(&missing, &["--cache-dir", flag_path]);
    let (line, _) = split_engine_line(&flagged);
    assert!(store_count(line, "hits") > 0, "{line}");
    assert!(!missing.exists(), "CRAT_CACHE_DIR was opened");

    let _ = std::fs::remove_dir_all(&base);
}
