//! The CRAT suite's end-to-end benchmark. See `README.md` beside this
//! package for the workloads, the metrics and how to compare runs.

mod compare;
mod json;
mod metrics;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;

use crat_core::EvalEngine;

use crate::metrics::{find, Report};
use crate::workload::{render_expected, Inputs, Workload};

const USAGE: &str = "\
usage:
  benchmark [run|trace] [<workload>] [--workload <w>] [--seed <n>] [--seconds <s>]
            [--trace 0|1] [--out <file.json>]
  benchmark compare --base <a.json>... --new <b.json>...
  benchmark bless

workloads: suite-cold, suite-parallel, optimize-static, store-warm";

/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cli(args: Vec<String>) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("bless") => bless().map(|()| ExitCode::SUCCESS),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => measure(&args[1..], false),
        Some("trace") => measure(&args[1..], true),
        _ => measure(&args, false),
    }
}

fn value(args: &[String], i: usize) -> Result<&str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("`{}` needs a value", args[i]))
}

fn measure(args: &[String], mut tracing: bool) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut out) = (None, 1u64, DEFAULT_SECONDS, None);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                let v = value(args, i)?;
                let bad = || format!("bad {flag} `{v}`");
                match flag {
                    "--workload" => workload = Some(v.to_string()),
                    "--seed" => seed = v.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        seconds = v.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or_else(bad)?
                    }
                    "--trace" => {
                        tracing = match v {
                            "0" => false,
                            "1" => true,
                            _ => return Err(bad()),
                        }
                    }
                    _ => out = Some(v.to_string()),
                }
                i += 2;
            }
            w if !w.starts_with('-') && workload.is_none() => {
                workload = Some(w.to_string());
                i += 1;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let name = workload.ok_or("no workload given")?;
    let w = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let report = if tracing {
        trace::trace(w, seed)?
    } else {
        run::run(w, seed, seconds)?
    };
    for &(name, v) in &report.metrics {
        println!("{name} {v} {}", find(name).map_or("", |m| m.unit));
    }
    if let Some(path) = out {
        std::fs::write(&path, format!("{}\n", report.file_json()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report.result_json());
    Ok(ExitCode::SUCCESS)
}

fn read_reports(files: &[String]) -> Result<Vec<Report>, String> {
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            json::parse(&text)
                .and_then(|v| Report::from_json(&v))
                .map_err(|e| format!("{f}: {e}"))
        })
        .collect()
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (mut base, mut new) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    for a in args {
        match a.as_str() {
            "--base" => side = Some(&mut base),
            "--new" => side = Some(&mut new),
            f => side
                .as_mut()
                .ok_or_else(|| format!("`{f}` before --base or --new"))?
                .push(f.to_string()),
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err("compare needs files after both --base and --new".into());
    }
    let (table, regressed) = compare::compare(&read_reports(&base)?, &read_reports(&new)?);
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Regenerate the expected files, but only if every final binary the
/// calls produce passes the reference cross-check.
fn bless() -> Result<(), String> {
    let mut files = Vec::new();
    for w in [Workload::SuiteCold, Workload::OptimizeStatic] {
        let inputs = Inputs::build(w)?;
        let engine = EvalEngine::new(0);
        let mut outputs = BTreeMap::new();
        for &call in &inputs.calls {
            let done = inputs.run(&engine, call)?;
            eprintln!(
                "{}: cross-checking on the reference interpreter",
                inputs.label(call)
            );
            inputs.cross_check(&done.fin)?;
            outputs.insert(inputs.label(call), done.output);
        }
        let path = format!(
            "{}/expected/{}.json",
            env!("CARGO_MANIFEST_DIR"),
            w.expected_name()
        );
        files.push((path, render_expected(&outputs)));
    }
    for (path, text) in files {
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}
