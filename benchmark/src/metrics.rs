//! Every metric the benchmark reports, declared once: `BENCHMARK.json`
//! lists the same names, units, directions and bounds (a unit test
//! holds the two together), and `compare` judges by this table.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the allowed worsening of the median, as
    /// a share of the base median.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; `run` reports all of them. The
/// bounds are as wide as the run-to-run spread measured on a shared
/// 2-core machine requires (`README.md`, `baseline.json`): its speed
/// drifts over minutes, so whole runs read slow or fast together, and
/// over ten runs `suite-parallel`, which needs both cores, spread by up
/// to 23%.
pub const END_TO_END: [Metric; 6] = [
    e2e("wall_s", "s", 0.25),
    e2e("call_p50_ms", "ms", 0.25),
    e2e("call_p90_ms", "ms", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.20),
    e2e("setup_s", "s", 0.25),
];

/// `compare` also lets `setup_s` move by this many seconds, since 25%
/// of a few milliseconds is below scheduler noise.
pub const SETUP_FLOOR_S: f64 = 0.05;

use Better::{Higher, Lower};

/// One layer each, from the bottom-up replay of `trace`.
pub const PER_LAYER: [Metric; 32] = [
    layer("ptx.parse_ms", "ms", Lower),
    layer("ptx.parse_mb_per_s", "MB/s", Higher),
    layer("core.analyze_ms", "ms", Lower),
    layer("regalloc.context_ms", "ms", Lower),
    layer("regalloc.context_builds", "count", Lower),
    layer("core.optimize_ms", "ms", Lower),
    layer("regalloc.allocs", "count", Lower),
    layer("regalloc.win_ratio", "ratio", Higher),
    layer("regalloc.spill_bytes", "B", Lower),
    layer("sim.decode_ms", "ms", Lower),
    layer("sim.decodes", "count", Lower),
    layer("sim.simulate_s", "s", Lower),
    layer("sim.sims", "count", Lower),
    layer("sim.warp_insts", "count", Lower),
    layer("sim.cycles", "count", Lower),
    layer("sim.minsts_per_s", "Minst/s", Higher),
    layer("sim.ns_per_cycle", "ns", Lower),
    layer("core.profile_ms", "ms", Lower),
    layer("core.profile_sims", "count", Lower),
    layer("core.profile_useful_ratio", "ratio", Higher),
    layer("core.evaluate_ms", "ms", Lower),
    layer("engine.memo_hit_us", "us", Lower),
    layer("engine.hit_rate", "ratio", Higher),
    layer("store.save_us", "us", Lower),
    layer("store.load_us", "us", Lower),
    layer("store.record_bytes", "B", Lower),
    layer("store.hit_rate", "ratio", Higher),
    layer("trace.cold_ms", "ms", Lower),
    layer("trace.unattributed_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("model.crat_speedup_gmean", "x", Higher),
    layer("model.sim_cycles", "count", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// One run's outcome: the result line plus what `compare`
/// needs to group runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in table order; units come from the table.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Record a metric declared in the table.
    ///
    /// # Panics
    ///
    /// On an undeclared name: a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "metric `{name}` is not declared");
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = find(name).map_or("", |m| m.unit);
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// The `--out` file: the result line plus workload and seed.
    pub fn file_json(&self) -> Json {
        let Json::Obj(mut members) = self.result_json() else {
            unreachable!("result_json builds an object")
        };
        members.insert(0, ("workload".into(), Json::Str(self.workload.clone())));
        members.insert(1, ("seed".into(), Json::Num(self.seed as f64)));
        Json::Obj(members)
    }

    pub fn from_json(v: &Json) -> Result<Report, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing `{k}`"));
        let mut r = Report::new(
            field("workload")?
                .as_str()
                .ok_or("`workload` is not text")?,
            field("seed")?.as_u64().ok_or("bad `seed`")?,
        );
        r.correct = field("correct")?.as_bool().ok_or("bad `correct`")?;
        r.attempted = field("attempted")?.as_u64().ok_or("bad `attempted`")?;
        r.failed = field("failed")?.as_u64().ok_or("bad `failed`")?;
        for (name, m) in field("metrics")?.members().ok_or("bad `metrics`")? {
            let metric = find(name).ok_or_else(|| format!("unknown metric `{name}`"))?;
            let value = m.get("value").and_then(Json::as_f64);
            r.metrics.push((metric.name, value.unwrap_or(f64::NAN)));
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn benchmark_json_declares_this_table() {
        let text = include_str!("../../BENCHMARK.json");
        let b = json::parse(text).unwrap();
        let list = |k: &str| b.get(k).and_then(Json::as_array).unwrap().to_vec();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.name())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.name())
            );
        }
        let workloads = list("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL.map(|w| w.name()).to_vec();
        assert_eq!(names, ours);
    }

    #[test]
    fn report_file_round_trips() {
        let mut r = Report::new("suite-cold", 7);
        r.attempted = 264;
        r.set("wall_s", 5.25);
        r.set("setup_s", 0.0031);
        let back = Report::from_json(&json::parse(&r.file_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, r);
        let line = r.result_json();
        let keys: Vec<&str> = line
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
