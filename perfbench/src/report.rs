//! The metric catalogue (read from `BENCHMARK.json`), the result of
//! one run, and the run clock.

use jsonio::Value;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// `BENCHMARK.json`, compiled in: the one place metrics are declared.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(json: &Value, list: &str) -> Metrics {
    json.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("every {list} metric has a {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` pairs of one metric list.
type Metrics = Vec<(String, String)>;

/// The declared metrics: `(end_to_end, per_layer)`.
fn catalogue() -> &'static (Metrics, Metrics) {
    static CATALOGUE: OnceLock<(Metrics, Metrics)> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let json = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        (declared(&json, "end_to_end"), declared(&json, "per_layer"))
    })
}

/// End-to-end metrics, reported with `--trace 0`: `(name, unit)`.
pub fn end_to_end() -> &'static [(String, String)] {
    &catalogue().0
}

/// Per-layer metrics, reported with `--trace 1`: `(name, unit)`.
pub fn per_layer() -> &'static [(String, String)] {
    &catalogue().1
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end()
        .iter()
        .chain(per_layer())
        .find(|(n, _)| n == name)
        .map(|(_, u)| u.as_str())
}

/// The measured window of one run.
pub struct RunClock {
    start: Instant,
    window: Duration,
}

impl RunClock {
    /// A window of `seconds` starting now.
    pub fn start(seconds: f64) -> RunClock {
        RunClock {
            start: Instant::now(),
            window: Duration::from_secs_f64(seconds),
        }
    }

    /// Has the window elapsed?
    pub fn done(&self) -> bool {
        self.start.elapsed() >= self.window
    }

    /// Time since the window opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The window length.
    pub fn window(&self) -> Duration {
        self.window
    }
}

/// The result of one run: the result line's four keys plus a run record.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every checked answer matched its reference.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `name → value`; units come from the catalogue.
    pub metrics: BTreeMap<String, f64>,
    /// Run metadata and exact counters.
    pub record: BTreeMap<String, Value>,
    /// Traced runs: the spans of the first traced pass, one JSON object
    /// per line.
    pub spans: Vec<String>,
    /// Why the run's figures cannot be used (its load generator fell
    /// behind its schedule), if so.
    pub invalid: Option<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, correct: bool) -> Outcome {
        Outcome {
            correct,
            attempted: attempted.max(1),
            failed,
            metrics: BTreeMap::new(),
            record: BTreeMap::new(),
            spans: Vec::new(),
            invalid: None,
        }
    }

    /// Set a catalogued metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.metrics.insert(name.to_string(), value);
    }

    /// Add a run-record field.
    pub fn record(&mut self, key: &str, value: Value) {
        self.record.insert(key.to_string(), value);
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let unit = unit_of(name).expect("catalogued");
                let entry = Value::object([("value", Value::Float(*v)), ("unit", unit.into())]);
                (name.clone(), entry)
            })
            .collect();
        Value::object([
            ("correct", self.correct.into()),
            ("attempted", (self.attempted as i64).into()),
            ("failed", (self.failed as i64).into()),
            ("metrics", Value::Object(metrics)),
        ])
        .to_string()
    }
}
