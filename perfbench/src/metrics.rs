//! Named metrics with units, and the one-line JSON result the benchmark
//! prints last.

use std::fmt::Write as _;

/// Most end-to-end metrics one benchmark may declare.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics one benchmark may declare.
pub const MAX_PER_LAYER: usize = 128;
/// Longest metric name.
pub const MAX_NAME_LEN: usize = 64;

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= MAX_NAME_LEN
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(allowed)
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(allowed)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `trials_per_s`.
    pub name: String,
    /// Unit, e.g. `1/s`.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
}

/// An ordered set of metrics with unique, valid names and a size cap.
#[derive(Debug, Clone)]
pub struct MetricSet {
    cap: usize,
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// An empty set holding the end-to-end metrics of one run.
    pub fn end_to_end() -> MetricSet {
        MetricSet { cap: MAX_END_TO_END, metrics: Vec::new() }
    }

    /// An empty set holding the per-layer metrics of one traced run.
    pub fn per_layer() -> MetricSet {
        MetricSet { cap: MAX_PER_LAYER, metrics: Vec::new() }
    }

    /// Adds a metric.
    ///
    /// # Errors
    ///
    /// When the name or unit is invalid, the name is already present, the
    /// value is not finite, or the set is full.
    pub fn push(&mut self, name: &str, unit: &str, value: f64) -> Result<(), String> {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        if !valid_unit(unit) {
            return Err(format!("invalid unit {unit:?} for metric {name}"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if self.metrics.iter().any(|m| m.name == name) {
            return Err(format!("duplicate metric {name}"));
        }
        if self.metrics.len() >= self.cap {
            return Err(format!("metric {name} exceeds the cap of {} metrics", self.cap));
        }
        self.metrics.push(Metric { name: name.to_string(), unit: unit.to_string(), value });
        Ok(())
    }

    /// The metrics, in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }
}

/// Renders the result line:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
/// Values keep every digit Rust's shortest round-trip formatting gives.
pub fn result_line(correct: bool, attempted: u64, failed: u64, set: &MetricSet) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in set.metrics().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
