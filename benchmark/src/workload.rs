//! The four workloads: their inputs, their top-level calls, and the
//! expected output of every call.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;

use crat_core::{
    evaluate_with, optimize_with, CratOptions, EvalEngine, OptTlpSource, Technique,
    STATIC_L1_HIT_RATE,
};
use crat_ptx::Kernel;
use crat_sim::{GpuConfig, LaunchConfig, ShmBankConfig, SimStats};
use crat_workloads::{build_kernel, launch, suite};

use crate::json::{self, Json};
use crate::stats::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 13 suite run serially on a cold engine.
    SuiteCold,
    /// The same calls from several callers through one engine's pool.
    SuiteParallel,
    /// `crat optimize` on printed PTX with static OptTLP: no simulation.
    OptimizeStatic,
    /// The suite calls replayed from a filled persistent store.
    StoreWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SuiteCold,
        Workload::SuiteParallel,
        Workload::OptimizeStatic,
        Workload::StoreWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::SuiteParallel => "suite-parallel",
            Workload::OptimizeStatic => "optimize-static",
            Workload::StoreWarm => "store-warm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The three suite workloads make the same calls, so they share one
    /// expected file.
    pub fn expected_name(self) -> &'static str {
        match self {
            Workload::OptimizeStatic => "optimize-static",
            _ => "suite",
        }
    }

    fn expected_text(self) -> &'static str {
        match self {
            Workload::OptimizeStatic => include_str!("../expected/optimize-static.json"),
            _ => include_str!("../expected/suite.json"),
        }
    }

    /// Caller threads: one, except `suite-parallel`'s min(nproc, 4).
    pub fn callers(self) -> usize {
        match self {
            Workload::SuiteParallel => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(4),
            _ => 1,
        }
    }
}

/// The techniques of the paper's Fig. 13, in its column order.
pub const TECHNIQUES: [Technique; 4] = [
    Technique::MaxTlp,
    Technique::OptTlp,
    Technique::CratLocal,
    Technique::Crat,
];

/// One application with the GPU and launch it runs under.
pub struct App {
    pub abbr: &'static str,
    pub sensitive: bool,
    pub kernel: Kernel,
    pub gpu: GpuConfig,
    pub launch: LaunchConfig,
}

/// One top-level call: a technique on an app (`evaluate_with`), or, with
/// no technique, parsing the app's PTX and running `optimize_with`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    pub app: usize,
    pub technique: Option<Technique>,
}

/// What a call returns that the expected files pin down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    Suite {
        reg: u32,
        tlp: u32,
        cycles: u64,
        warp_insts: u64,
    },
    Optimize {
        reg: u32,
        tlp: u32,
        strategy: String,
        tpsc_bits: u64,
    },
}

/// The binary a call produced, kept for the reference cross-check.
pub struct Final {
    pub app: usize,
    pub kernel: Kernel,
    pub reg: u32,
    pub tlp_cap: Option<u32>,
    /// The engine's (decoded simulator's) stats, when the call simulated.
    pub stats: Option<SimStats>,
}

pub struct Done {
    pub output: Output,
    pub fin: Final,
}

/// Everything a workload's calls read, built before timing starts.
pub struct Inputs {
    pub apps: Vec<App>,
    /// Printed PTX per app (`optimize-static` only).
    pub ptx: Vec<String>,
    pub calls: Vec<Call>,
    pub expected: BTreeMap<String, Output>,
}

/// The static OptTLP options of `crat optimize`'s compile path.
pub fn static_options() -> CratOptions {
    CratOptions {
        opt_tlp: OptTlpSource::Static {
            l1_hit_rate: STATIC_L1_HIT_RATE,
        },
        ..CratOptions::new()
    }
}

/// The bank-study apps run under the 32-bank model at penalty 4.
fn bank_gpu() -> GpuConfig {
    GpuConfig {
        shm_banks: Some(ShmBankConfig {
            banks: 32,
            word_bytes: 4,
            conflict_penalty: 4,
        }),
        ..GpuConfig::fermi()
    }
}

impl Inputs {
    /// Build the workload's inputs and load its expected outputs.
    pub fn build(w: Workload) -> Result<Inputs, String> {
        let mut apps: Vec<App> = suite::all()
            .map(|a| App {
                abbr: a.abbr,
                sensitive: a.is_sensitive(),
                kernel: build_kernel(a),
                gpu: GpuConfig::fermi(),
                launch: launch(a),
            })
            .collect();
        let (ptx, calls) = if w == Workload::OptimizeStatic {
            apps.extend(suite::bank_sensitive().map(|a| App {
                abbr: a.abbr,
                sensitive: a.is_sensitive(),
                kernel: build_kernel(a),
                gpu: bank_gpu(),
                launch: launch(a),
            }));
            let ptx = apps.iter().map(|a| a.kernel.to_ptx()).collect();
            let calls = (0..apps.len())
                .map(|app| Call {
                    app,
                    technique: None,
                })
                .collect();
            (ptx, calls)
        } else {
            let calls = (0..apps.len())
                .flat_map(|app| {
                    TECHNIQUES.map(|t| Call {
                        app,
                        technique: Some(t),
                    })
                })
                .collect();
            (Vec::new(), calls)
        };
        let expected = parse_expected(w.expected_text())
            .map_err(|e| format!("expected/{}.json: {e}", w.expected_name()))?;
        Ok(Inputs {
            apps,
            ptx,
            calls,
            expected,
        })
    }

    /// The calls of `app`, in technique order.
    pub fn calls_of(&self, app: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.calls.len()).filter(move |&i| self.calls[i].app == app)
    }

    /// A seed-drawn call order: the apps are shuffled, and each app's
    /// techniques run in the paper's column order, as `crat app` and
    /// the figure binaries run them. Apps share no simulations, so every
    /// call does the same work under any seed, and latency percentiles
    /// compare across seeds.
    pub fn order(&self, rng: &mut Rng) -> Vec<usize> {
        rng.permutation(self.apps.len())
            .into_iter()
            .flat_map(|a| self.calls_of(a))
            .collect()
    }

    pub fn label(&self, call: Call) -> String {
        let abbr = self.apps[call.app].abbr;
        match call.technique {
            Some(t) => format!("{abbr}/{}", t.label()),
            None => abbr.to_string(),
        }
    }

    /// Run one call. `Err` carries the pipeline error or panic message.
    /// Only the crates' public APIs run inside; extracting the output
    /// afterwards moves values and allocates nothing large.
    pub fn run(&self, engine: &EvalEngine, call: Call) -> Result<Done, String> {
        let app = &self.apps[call.app];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| match call.technique {
            Some(t) => {
                let e = evaluate_with(engine, &app.kernel, &app.gpu, &app.launch, t)
                    .map_err(|e| e.to_string())?;
                Ok(Done {
                    output: Output::Suite {
                        reg: e.reg,
                        tlp: e.tlp,
                        cycles: e.stats.cycles,
                        warp_insts: e.stats.warp_insts,
                    },
                    fin: Final {
                        app: call.app,
                        kernel: e.allocation.kernel,
                        reg: e.reg,
                        // MaxTLP runs uncapped; its `tlp` is what resided.
                        tlp_cap: (t != Technique::MaxTlp).then_some(e.tlp),
                        stats: Some(e.stats),
                    },
                })
            }
            None => {
                let kernel = crat_ptx::parse(&self.ptx[call.app]).map_err(|e| e.to_string())?;
                let mut sol =
                    optimize_with(engine, &kernel, &app.gpu, &app.launch, &static_options())
                        .map_err(|e| e.to_string())?;
                let w = sol.candidates.swap_remove(sol.chosen);
                Ok(Done {
                    output: Output::Optimize {
                        reg: w.allocation.slots_used,
                        tlp: w.achieved_tlp,
                        strategy: w.strategy.label().to_string(),
                        tpsc_bits: w.tpsc.to_bits(),
                    },
                    fin: Final {
                        app: call.app,
                        kernel: w.allocation.kernel,
                        reg: w.allocation.slots_used,
                        tlp_cap: Some(w.achieved_tlp),
                        stats: None,
                    },
                })
            }
        }));
        caught.unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("panic: {msg}"))
        })
    }

    /// Whether `done` is what the expected file records for `call`.
    pub fn check(&self, call: Call, done: &Result<Done, String>) -> Result<(), String> {
        let label = self.label(call);
        match (done, self.expected.get(&label)) {
            (Err(e), _) => Err(format!("{label}: {e}")),
            (Ok(_), None) => Err(format!(
                "{label}: no expected output (run `benchmark bless`)"
            )),
            (Ok(d), Some(want)) if d.output != *want => Err(format!(
                "{label}: got {}, expected {}",
                output_json(&d.output),
                output_json(want)
            )),
            (Ok(_), Some(_)) => Ok(()),
        }
    }

    /// Re-simulate `fin` on the preserved pre-decode interpreter and
    /// require stats bit-identical to the decoded simulator's.
    pub fn cross_check(&self, fin: &Final) -> Result<(), String> {
        let app = &self.apps[fin.app];
        let run = |reference: bool| {
            let r = if reference {
                crat_sim::reference::simulate(
                    &fin.kernel,
                    &app.gpu,
                    &app.launch,
                    fin.reg,
                    fin.tlp_cap,
                )
            } else {
                crat_sim::simulate(&fin.kernel, &app.gpu, &app.launch, fin.reg, fin.tlp_cap)
            };
            r.map_err(|e| format!("{}: {e}", app.abbr))
        };
        let decoded = match &fin.stats {
            Some(s) => s.clone(),
            None => run(false)?,
        };
        if run(true)? == decoded {
            Ok(())
        } else {
            Err(format!(
                "{} at reg {} tlp {:?}: the reference interpreter disagrees",
                app.abbr, fin.reg, fin.tlp_cap
            ))
        }
    }
}

pub fn output_json(o: &Output) -> Json {
    let n = |x: u64| Json::Num(x as f64);
    match o {
        Output::Suite {
            reg,
            tlp,
            cycles,
            warp_insts,
        } => Json::Obj(vec![
            ("reg".into(), n(u64::from(*reg))),
            ("tlp".into(), n(u64::from(*tlp))),
            ("cycles".into(), n(*cycles)),
            ("warp_insts".into(), n(*warp_insts)),
        ]),
        // TPSC bits exceed f64's exact integers, so they are hex text.
        Output::Optimize {
            reg,
            tlp,
            strategy,
            tpsc_bits,
        } => Json::Obj(vec![
            ("reg".into(), n(u64::from(*reg))),
            ("tlp".into(), n(u64::from(*tlp))),
            ("strategy".into(), Json::Str(strategy.clone())),
            ("tpsc_bits".into(), Json::Str(format!("{tpsc_bits:016x}"))),
        ]),
    }
}

fn output_from_json(v: &Json) -> Option<Output> {
    let int = |k: &str| v.get(k).and_then(Json::as_u64);
    let small = |k: &str| int(k).and_then(|x| u32::try_from(x).ok());
    match v.get("strategy") {
        None => Some(Output::Suite {
            reg: small("reg")?,
            tlp: small("tlp")?,
            cycles: int("cycles")?,
            warp_insts: int("warp_insts")?,
        }),
        Some(s) => Some(Output::Optimize {
            reg: small("reg")?,
            tlp: small("tlp")?,
            strategy: s.as_str()?.to_string(),
            tpsc_bits: u64::from_str_radix(v.get("tpsc_bits")?.as_str()?, 16).ok()?,
        }),
    }
}

/// An expected file: one line per call, sorted by label, so a re-bless
/// diffs line by line.
pub fn render_expected(outputs: &BTreeMap<String, Output>) -> String {
    let lines: Vec<String> = outputs
        .iter()
        .map(|(k, o)| format!("  {}: {}", Json::Str(k.clone()), output_json(o)))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

pub fn parse_expected(text: &str) -> Result<BTreeMap<String, Output>, String> {
    json::parse(text)?
        .members()
        .ok_or("not an object")?
        .iter()
        .map(|(k, v)| {
            output_from_json(v)
                .map(|o| (k.clone(), o))
                .ok_or_else(|| format!("malformed entry `{k}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_file_round_trips() {
        let mut m = BTreeMap::new();
        m.insert(
            "CFD/CRAT".to_string(),
            Output::Suite {
                reg: 32,
                tlp: 3,
                cycles: 1_234_567,
                warp_insts: 89_012,
            },
        );
        m.insert(
            "BNK".to_string(),
            Output::Optimize {
                reg: 40,
                tlp: 2,
                strategy: "sched+briggs".to_string(),
                tpsc_bits: 0.123_456_789_f64.to_bits(),
            },
        );
        let text = render_expected(&m);
        assert_eq!(parse_expected(&text).unwrap(), m);
        assert_eq!(text.lines().count(), 4, "one line per call:\n{text}");
        assert!(parse_expected("{\"X\": {\"reg\": 1}}").is_err());
    }

    #[test]
    fn call_order_is_a_seeded_permutation_of_whole_apps() {
        let inputs = Inputs::build(Workload::SuiteCold).unwrap();
        let a = inputs.order(&mut Rng::new(5));
        assert_eq!(a, inputs.order(&mut Rng::new(5)));
        assert_ne!(a, inputs.order(&mut Rng::new(6)));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..88).collect::<Vec<_>>());
        for app in a.chunks(4) {
            let techniques: Vec<_> = app.iter().map(|&i| inputs.calls[i].technique).collect();
            assert_eq!(techniques, TECHNIQUES.map(Some));
            assert!(app
                .iter()
                .all(|&i| inputs.calls[i].app == inputs.calls[app[0]].app));
        }
    }

    #[test]
    fn checked_in_expected_files_cover_every_call() {
        for w in Workload::ALL {
            let inputs = Inputs::build(w).unwrap();
            assert_eq!(inputs.expected.len(), inputs.calls.len(), "{}", w.name());
            for &c in &inputs.calls {
                assert!(inputs.expected.contains_key(&inputs.label(c)));
            }
        }
    }
}
