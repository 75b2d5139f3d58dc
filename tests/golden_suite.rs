//! Golden-baseline harness: every workload app evaluated at its
//! representative `(reg, TLP)` operating points, with the full
//! [`SimStats`] — cycle attribution included — pinned against
//! checked-in JSON snapshots under `tests/golden/`.
//!
//! A mismatch prints a field-level diff via [`SimStats::diff`]. When a
//! simulator change is intentional, regenerate the snapshots with
//!
//! ```text
//! CRAT_BLESS=1 cargo test --test golden_suite
//! ```
//!
//! and commit the updated files alongside the change that moved them.

use std::fs;
use std::path::PathBuf;

use crat_suite::core::{
    evaluate_with, optimize_with, stats_from_json, stats_to_json, AllocStrategy, CratOptions,
    EvalEngine, Json, StrategyRoster, Technique,
};
use crat_suite::sim::GpuConfig;
use crat_suite::workloads::{build_kernel, launch_sized, suite, AppSpec};

/// Grid size for the golden points: enough blocks for several waves of
/// turnover, small enough to keep the full suite fast in debug builds.
const GRID_BLOCKS: u32 = 30;

/// The two operating points pinned per app: the hardware default and
/// the paper's thread-throttling baseline (which exercises the TLP cap
/// and the profiling path).
const TECHNIQUES: [Technique; 2] = [Technique::MaxTlp, Technique::OptTlp];

fn golden_path(abbr: &str) -> PathBuf {
    let slug: String = abbr
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{slug}.json"))
}

/// Evaluate one app at the golden points and serialize the result.
///
/// Also asserts the attribution invariant on every point, so the
/// golden run doubles as an invariant sweep over the whole suite.
fn snapshot(engine: &EvalEngine, app: &'static AppSpec) -> Json {
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch_sized(app, GRID_BLOCKS);
    let mut points = Vec::new();
    for t in TECHNIQUES {
        let e = evaluate_with(engine, &kernel, &gpu, &launch, t)
            .unwrap_or_else(|err| panic!("{}/{t}: {err}", app.abbr));
        e.stats
            .attribution
            .check(e.stats.cycles)
            .unwrap_or_else(|err| panic!("{}/{t}: attribution invariant: {err}", app.abbr));
        points.push(Json::Obj(vec![
            ("label".into(), Json::Str(t.label().into())),
            ("reg".into(), Json::Int(u64::from(e.reg))),
            ("tlp".into(), Json::Int(u64::from(e.tlp))),
            ("stats".into(), stats_to_json(&e.stats)),
        ]));
    }
    Json::Obj(vec![
        ("app".into(), Json::Str(app.abbr.into())),
        ("grid_blocks".into(), Json::Int(u64::from(GRID_BLOCKS))),
        ("points".into(), Json::Arr(points)),
    ])
}

/// Field-level differences between a stored snapshot and a fresh run,
/// each prefixed `APP/label:` for readability.
fn compare(abbr: &str, expected: &Json, actual: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let exp = expected.get("points").and_then(Json::as_arr).unwrap_or(&[]);
    let act = actual
        .get("points")
        .and_then(Json::as_arr)
        .expect("fresh snapshot has points");
    if exp.len() != act.len() {
        out.push(format!(
            "{abbr}: snapshot has {} points, fresh run has {}",
            exp.len(),
            act.len()
        ));
        return out;
    }
    for (e, a) in exp.iter().zip(act) {
        let label = match a.get("label") {
            Some(Json::Str(s)) => s.clone(),
            _ => "?".to_string(),
        };
        for key in ["reg", "tlp"] {
            let ev = e.get(key).and_then(Json::as_u64);
            let av = a.get(key).and_then(Json::as_u64);
            if ev != av {
                out.push(format!("{abbr}/{label}: {key}: {ev:?} != {av:?}"));
            }
        }
        let es = e.get("stats").ok_or("missing stats".to_string());
        match (
            es.and_then(stats_from_json),
            a.get("stats").map(stats_from_json).expect("fresh stats"),
        ) {
            (Ok(es), Ok(al)) => {
                out.extend(
                    es.diff(&al)
                        .into_iter()
                        .map(|d| format!("{abbr}/{label}: {d}")),
                );
            }
            (Err(err), _) => out.push(format!("{abbr}/{label}: snapshot unreadable: {err}")),
            (_, Err(err)) => out.push(format!("{abbr}/{label}: fresh stats unserializable: {err}")),
        }
    }
    out
}

/// All 22 apps against their golden snapshots.
#[test]
fn golden_suite_matches_snapshots() {
    let bless = std::env::var("CRAT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    let engine = EvalEngine::default();
    let mut failures = Vec::new();
    for app in suite::all() {
        let actual = snapshot(&engine, app);
        let path = golden_path(app.abbr);
        if bless {
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, actual.pretty()).unwrap();
            continue;
        }
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                failures.push(format!("{}: missing snapshot {}", app.abbr, path.display()));
                continue;
            }
        };
        if text == actual.pretty() {
            continue;
        }
        let expected = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                failures.push(format!("{}: unparsable snapshot: {e}", app.abbr));
                continue;
            }
        };
        let diffs = compare(app.abbr, &expected, &actual);
        if diffs.is_empty() {
            // Same values, different bytes: the serialization itself
            // changed (field order, formatting, new fields).
            failures.push(format!("{}: snapshot text drifted", app.abbr));
        }
        failures.extend(diffs);
    }
    assert!(
        failures.is_empty(),
        "golden snapshots drifted ({} differences):\n  {}\n\
         If the change is intentional, regenerate with:\n  \
         CRAT_BLESS=1 cargo test --test golden_suite",
        failures.len(),
        failures.join("\n  ")
    );
}

/// Degradation guard: the graceful-degradation paths (skipped points,
/// linear-scan fallback, caught panics, budget cancellations) must be
/// completely inert on healthy inputs — all 22 apps optimize with
/// zero skipped points, zero fallback allocations, and an engine that
/// caught nothing.
#[test]
fn degradation_path_inert_on_healthy_inputs() {
    let engine = EvalEngine::default();
    let gpu = GpuConfig::fermi();
    for app in suite::all() {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, GRID_BLOCKS);
        // The default roster: every point settles on a competitive
        // strategy, never the fallback.
        let sol = optimize_with(&engine, &kernel, &gpu, &launch, &CratOptions::new())
            .unwrap_or_else(|err| panic!("{}: healthy optimize failed: {err}", app.abbr));
        assert!(
            sol.skipped.is_empty(),
            "{}: healthy run skipped {} point(s): {:?}",
            app.abbr,
            sol.skipped.len(),
            sol.skipped
        );
        assert_eq!(
            sol.fallback_count(),
            0,
            "{}: healthy run used the linear-scan fallback",
            app.abbr
        );
        assert!(sol
            .candidates
            .iter()
            .all(|c| c.strategy != AllocStrategy::LinearScan));
        assert!(!sol.is_degraded());
        // Pinned to Briggs, every candidate records that strategy —
        // the pre-roster pipeline's behavior, preserved exactly.
        let pinned = CratOptions {
            roster: StrategyRoster::Pinned(AllocStrategy::Briggs),
            ..CratOptions::new()
        };
        let sol = optimize_with(&engine, &kernel, &gpu, &launch, &pinned)
            .unwrap_or_else(|err| panic!("{}: pinned optimize failed: {err}", app.abbr));
        assert!(sol
            .candidates
            .iter()
            .all(|c| c.strategy == AllocStrategy::Briggs));
        assert!(!sol.is_degraded());
    }
    let stats = engine.stats();
    assert_eq!(stats.panics_caught, 0, "healthy suite caught a panic");
    assert_eq!(stats.budget_exceeded, 0, "healthy suite tripped a budget");
}

/// Slow tier: the attribution invariant at every app's *default* grid
/// size (not pinned to snapshots — the full-size grids make this take
/// minutes in debug builds). Run with `cargo test -q -- --ignored`.
#[test]
#[ignore = "slow tier: full-size grids"]
fn attribution_invariant_at_full_grid() {
    let engine = EvalEngine::default();
    for app in suite::all() {
        let kernel = build_kernel(app);
        let launch = launch_sized(app, app.grid_blocks);
        let e = evaluate_with(
            &engine,
            &kernel,
            &GpuConfig::fermi(),
            &launch,
            Technique::MaxTlp,
        )
        .unwrap_or_else(|err| panic!("{}: {err}", app.abbr));
        e.stats
            .attribution
            .check(e.stats.cycles)
            .unwrap_or_else(|err| panic!("{}: attribution invariant: {err}", app.abbr));
    }
}

/// The snapshot serialization round-trips through the JSON parser.
#[test]
fn snapshots_round_trip() {
    let app = suite::spec("CFD");
    let snap = snapshot(&EvalEngine::default(), app);
    let reparsed = Json::parse(&snap.pretty()).expect("pretty output parses");
    assert_eq!(snap.pretty(), reparsed.pretty());
    let stats = reparsed.get("points").and_then(Json::as_arr).unwrap()[0]
        .get("stats")
        .unwrap();
    stats_from_json(stats).expect("stats round-trip");
}
