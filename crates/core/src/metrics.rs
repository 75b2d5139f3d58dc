//! Metrics export: a small hand-rolled JSON value type plus converters
//! for [`SimStats`] (including the cycle attribution) and
//! [`EngineStats`] (JSON and CSV).
//!
//! The build environment is offline, so rather than depending on a
//! serialization framework this module carries its own writer and
//! recursive-descent parser for the JSON subset the suite emits. The
//! golden-snapshot harness and the CLI `--metrics-json` export both go
//! through [`stats_to_json`]/[`stats_from_json`], so a value always
//! round-trips bit-identically (all counters are integers).
//!
//! The [`SimStats`] codec iterates [`SimStats::counters`] and both
//! engine exporters iterate [`EngineStats::counters`], so JSON and CSV
//! carry every counter under the name it is declared with. No engine
//! counter reads a clock, so a metrics document is stable across
//! `--threads 1` and `--threads N`.

use std::fmt::Write as _;

use crat_regalloc::StrategyKind;
use crat_sim::{SimStats, StallCause, NUM_CAUSES};

use crate::engine::EngineStats;

/// A JSON value. Objects keep insertion order (and the parser keeps
/// document order), so emitted documents are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (all suite counters are unsigned integers).
    Int(u64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize with 2-space indentation and a trailing newline
    /// (stable output for checked-in snapshots).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize compactly (no whitespace).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if !x.is_finite() {
                    out.push_str("null");
                } else if *x == x.trunc() && x.abs() < 1e15 {
                    // Keep the float-ness visible ("2.0", not "2") so
                    // parsing round-trips to the same variant.
                    let _ = write!(out, "{x:.1}");
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// A description with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad \\u code point".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str,
                    // so boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    // `rest` is non-empty: `peek()` returned `Some`.
                    #[allow(clippy::expect_used)]
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The scanned range holds only ASCII digit/sign/exponent bytes.
        #[allow(clippy::expect_used)]
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if float || text.starts_with('-') {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else {
            text.parse::<u64>()
                .map(Json::Int)
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
    }
}

/// Serialize a [`SimStats`] — every counter of its table, then the
/// attribution, with cause counts keyed by [`StallCause::name`].
pub fn stats_to_json(stats: &SimStats) -> Json {
    let rows = stats
        .attribution
        .per_scheduler
        .iter()
        .map(|row| {
            Json::Obj(
                StallCause::ALL
                    .iter()
                    .map(|&c| (c.name().to_string(), Json::Int(row[c as usize])))
                    .collect(),
            )
        })
        .collect();
    let attribution = Json::Obj(vec![("per_scheduler".to_string(), Json::Arr(rows))]);
    let mut fields = int_fields(&stats.counters());
    fields.push(("attribution".to_string(), attribution));
    Json::Obj(fields)
}

/// Reconstruct a [`SimStats`] from [`stats_to_json`] output. Fields
/// are looked up by name and unknown ones are ignored, so a stored
/// record that carries fields `SimStats` no longer has still decodes.
///
/// # Errors
///
/// Names the first missing or ill-typed field.
pub fn stats_from_json(json: &Json) -> Result<SimStats, String> {
    let mut stats = SimStats::default();
    for (name, value) in stats.counters_mut() {
        *value = json
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field '{name}'"))?;
    }
    let rows = json
        .get("attribution")
        .ok_or("missing field 'attribution'")?
        .get("per_scheduler")
        .and_then(Json::as_arr)
        .ok_or("missing attribution array 'per_scheduler'")?;
    for row in rows {
        let mut counts = [0u64; NUM_CAUSES];
        for cause in StallCause::ALL {
            counts[cause as usize] = row
                .get(cause.name())
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing per-scheduler cause '{}'", cause.name()))?;
        }
        stats.attribution.per_scheduler.push(counts);
    }
    Ok(stats)
}

fn int_fields(counters: &[(&str, u64)]) -> Vec<(String, Json)> {
    counters
        .iter()
        .map(|&(name, v)| (name.to_string(), Json::Int(v)))
        .collect()
}

/// Serialize [`EngineStats`]: the counters, then each strategy's
/// counters under `strategies.<key>`, then the derived `requests`.
pub fn engine_to_json(stats: &EngineStats) -> Json {
    let strategies = StrategyKind::ALL
        .iter()
        .map(|k| {
            let counters = stats.strategies[k.index()].counters();
            (k.json_key().to_string(), Json::Obj(int_fields(&counters)))
        })
        .collect();
    let mut fields = vec![("threads_independent".to_string(), Json::Bool(true))];
    fields.extend(int_fields(&stats.counters()));
    fields.push(("strategies".to_string(), Json::Obj(strategies)));
    fields.push(("requests".to_string(), Json::Int(stats.requests())));
    Json::Obj(fields)
}

/// [`engine_to_json`] as `name,value` CSV rows under the same names,
/// each strategy's counters flattened to `strategy_<key>_<name>`.
pub fn engine_to_csv(stats: &EngineStats) -> String {
    let mut out = String::new();
    for (name, v) in stats.counters() {
        let _ = writeln!(out, "{name},{v}");
    }
    for k in StrategyKind::ALL {
        for (name, v) in stats.strategies[k.index()].counters() {
            let _ = writeln!(out, "strategy_{}_{name},{v}", k.json_key());
        }
    }
    let _ = writeln!(out, "requests,{}", stats.requests());
    out
}

/// One evaluated operating point for a metrics document.
#[derive(Debug, Clone)]
pub struct MetricsPoint {
    /// A label for the point (technique name, app name, ...).
    pub label: String,
    /// Registers per thread of the evaluated binary.
    pub reg: u32,
    /// The TLP cap in force (0 = uncapped).
    pub tlp: u32,
    /// The simulation result.
    pub stats: SimStats,
}

/// Build the `--metrics-json` document: one object per evaluated
/// `(reg, TLP)` point plus the engine's deterministic counters.
pub fn metrics_document(points: &[MetricsPoint], engine: &EngineStats) -> Json {
    Json::Obj(vec![
        (
            "points".to_string(),
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("label".to_string(), Json::Str(p.label.clone())),
                            ("reg".to_string(), Json::Int(u64::from(p.reg))),
                            ("tlp".to_string(), Json::Int(u64::from(p.tlp))),
                            ("stats".to_string(), stats_to_json(&p.stats)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("engine".to_string(), engine_to_json(engine)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crat_sim::{simulate, GpuConfig};
    use crat_workloads::{build_kernel, launch, launch_sized, suite};

    fn sample_stats() -> SimStats {
        let app = suite::spec("CFD");
        let kernel = build_kernel(app);
        simulate(&kernel, &GpuConfig::fermi(), &launch(app), 20, Some(2)).unwrap()
    }

    #[test]
    fn stats_round_trip_bit_identically() {
        let stats = sample_stats();
        let json = stats_to_json(&stats);
        let back = stats_from_json(&json).unwrap();
        assert_eq!(stats, back);
        // And through the text form, pretty and compact.
        let reparsed = Json::parse(&json.pretty()).unwrap();
        assert_eq!(stats_from_json(&reparsed).unwrap(), stats);
        let reparsed = Json::parse(&json.compact()).unwrap();
        assert_eq!(stats_from_json(&reparsed).unwrap(), stats);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_handles_escapes_and_numbers() {
        let v = Json::parse(r#"{"s": "a\"b\\c\ndA", "i": 42, "f": 2.5, "neg": -3}"#).unwrap();
        assert_eq!(v.get("s"), Some(&Json::Str("a\"b\\c\ndA".to_string())));
        assert_eq!(v.get("i"), Some(&Json::Int(42)));
        assert_eq!(v.get("f"), Some(&Json::Float(2.5)));
        assert_eq!(v.get("neg"), Some(&Json::Float(-3.0)));
        // Escapes survive a write/parse cycle.
        let again = Json::parse(&v.pretty()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn missing_fields_are_named() {
        let err = stats_from_json(&Json::Obj(vec![])).unwrap_err();
        let (first, _) = SimStats::default().counters()[0];
        assert!(err.contains(first), "{err}");
    }

    #[test]
    fn engine_counters_export_once_under_one_name() {
        // A real snapshot: CFD optimized on a fresh engine with a store.
        let dir = std::env::temp_dir().join(format!("crat-metrics-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = crate::EvalEngine::serial();
        let store = crate::ResultStore::open(crate::StoreConfig::new(&dir)).unwrap();
        let _ = engine.attach_store(std::sync::Arc::new(store));
        let app = suite::spec("CFD");
        let (gpu, launch) = (GpuConfig::fermi(), launch_sized(app, 30));
        let opts = crate::CratOptions::new();
        crate::optimize_with(&engine, &build_kernel(app), &gpu, &launch, &opts).unwrap();
        let stats = engine.stats();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(stats.sims_executed > 0 && stats.store_writes > 0 && stats.allocs_run > 0);
        assert!(stats.strategies.iter().any(|s| s.attempts > 0));

        let counters = stats.counters();
        let names: std::collections::HashSet<_> = counters.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), counters.len(), "counter names are unique");

        let json = engine_to_json(&stats);
        let text = json.compact();
        let csv = engine_to_csv(&stats);
        let csv_rows: Vec<(&str, u64)> = csv
            .lines()
            .map(|line| {
                let (name, v) = line.split_once(',').unwrap();
                (name, v.parse().unwrap())
            })
            .collect();
        let in_csv = |name: &str| -> Vec<u64> {
            csv_rows
                .iter()
                .filter(|r| r.0 == name)
                .map(|r| r.1)
                .collect()
        };
        for (name, value) in counters {
            assert_eq!(text.matches(&format!("\"{name}\":")).count(), 1, "{name}");
            assert_eq!(json.get(name), Some(&Json::Int(value)), "{name}");
            assert_eq!(in_csv(name), [value], "{name}");
        }
        assert_eq!(json.get("requests"), Some(&Json::Int(stats.requests())));
        assert_eq!(in_csv("requests"), [stats.requests()]);
        for k in StrategyKind::ALL {
            let block = json.get("strategies").and_then(|s| s.get(k.json_key()));
            for (name, value) in stats.strategies[k.index()].counters() {
                assert_eq!(block.and_then(|b| b.get(name)), Some(&Json::Int(value)));
                let row = format!("strategy_{}_{name}", k.json_key());
                assert_eq!(in_csv(&row), [value], "{row}");
            }
        }

        // Nothing else: every other JSON key is a strategy block, the
        // derived request count, or the thread-independence marker.
        let Json::Obj(fields) = &json else {
            panic!("engine JSON is an object")
        };
        for (key, _) in fields {
            let explained = ["strategies", "requests", "threads_independent"];
            assert!(
                names.contains(key.as_str()) || explained.contains(&key.as_str()),
                "unexplained key {key}"
            );
        }
        let per_strategy = crate::StrategyStats::default().counters().len();
        let strategy_rows = per_strategy * StrategyKind::ALL.len();
        assert_eq!(csv_rows.len(), counters.len() + strategy_rows + 1);
    }

    #[test]
    fn memoized_hits_return_identical_attribution() {
        let engine = crate::EvalEngine::serial();
        let app = suite::spec("CFD");
        let kernel = build_kernel(app);
        let gpu = GpuConfig::fermi();
        let launch = launch(app);
        let cold = engine
            .simulate(&kernel, &gpu, &launch, 20, Some(2))
            .unwrap();
        let warm = engine
            .simulate(&kernel, &gpu, &launch, 20, Some(2))
            .unwrap();
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(cold.attribution, warm.attribution);
        cold.attribution.check(cold.cycles).unwrap();
        assert_eq!(stats_to_json(&cold).pretty(), stats_to_json(&warm).pretty());
    }

    #[test]
    fn metrics_document_is_stable_across_thread_counts() {
        let gpu = GpuConfig::fermi();
        let apps = ["CFD", "KMN", "STE"];
        let run = |threads: usize| {
            let engine = crate::EvalEngine::new(threads);
            let kernels: Vec<_> = apps
                .iter()
                .map(|name| {
                    let app = suite::spec(name);
                    (build_kernel(app), launch(app))
                })
                .collect();
            let jobs: Vec<_> = kernels
                .iter()
                .map(|(k, l)| crate::SimJob {
                    kernel: k,
                    gpu: &gpu,
                    launch: l,
                    regs_per_thread: 20,
                    tlp_cap: Some(2),
                })
                .collect();
            // Submit the batch twice so cache hits occur.
            let first = engine.simulate_batch(&jobs);
            let _second = engine.simulate_batch(&jobs);
            let points: Vec<MetricsPoint> = first
                .into_iter()
                .zip(&apps)
                .map(|(r, name)| MetricsPoint {
                    label: (*name).to_string(),
                    reg: 20,
                    tlp: 2,
                    stats: r.unwrap(),
                })
                .collect();
            metrics_document(&points, &engine.stats()).pretty()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn metrics_document_shape() {
        let stats = sample_stats();
        let doc = metrics_document(
            &[MetricsPoint {
                label: "MaxTLP".to_string(),
                reg: 20,
                tlp: 0,
                stats: stats.clone(),
            }],
            &EngineStats::default(),
        );
        let points = doc.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("label"), Some(&Json::Str("MaxTLP".into())));
        let back = stats_from_json(points[0].get("stats").unwrap()).unwrap();
        assert_eq!(back, stats);
    }
}
