//! Structured synthesis trace: per-stage wall times and layer-native
//! counters, serializable to JSON without external dependencies.
//!
//! Every pipeline stage ([`crate::pipeline`]) appends one [`StageRecord`]
//! with its wall time and whatever counters the owning layer reports:
//! BDD unique-table and operation-cache statistics, s-graph node counts,
//! emitted-C line counts, estimated cycle bounds. The CLI writes the
//! trace with `polis synth --trace out.json`.

use std::time::Duration;

/// A counter value: layers report either integral counts or ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// An integral count (node counts, bytes, cycles, swaps, …).
    Int(u64),
    /// A ratio or rate (cache hit rate, relative error, …).
    Float(f64),
}

/// One executed pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (`"chi"`, `"sift"`, `"sgraph"`, …).
    pub stage: &'static str,
    /// The CFSM being synthesized, or `None` for network-level stages
    /// (parse, rtos).
    pub machine: Option<String>,
    /// Wall-clock time spent in the stage.
    pub wall: Duration,
    /// Layer-native counters, in report order.
    pub counters: Vec<(&'static str, MetricValue)>,
}

impl StageRecord {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<MetricValue> {
        self.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// The full trace of one synthesis run, in execution order (per-machine
/// stages are merged in network order regardless of `--jobs`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthTrace {
    records: Vec<StageRecord>,
}

impl SynthTrace {
    /// An empty trace.
    pub fn new() -> SynthTrace {
        SynthTrace::default()
    }

    /// Appends a finished stage record.
    pub fn push(&mut self, record: StageRecord) {
        self.records.push(record);
    }

    /// Appends every record of `other`, preserving order.
    pub fn extend(&mut self, other: SynthTrace) {
        self.records.extend(other.records);
    }

    /// The recorded stages, in execution order.
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Serializes the trace as JSON (hand-rolled; the workspace has no
    /// serialization dependency). Durations are reported in microseconds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"stages\": [");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"stage\": \"");
            out.push_str(&escape_json(r.stage));
            out.push_str("\",\n      \"machine\": ");
            match &r.machine {
                Some(m) => {
                    out.push('"');
                    out.push_str(&escape_json(m));
                    out.push('"');
                }
                None => out.push_str("null"),
            }
            out.push_str(",\n      \"wall_us\": ");
            out.push_str(&r.wall.as_micros().to_string());
            out.push_str(",\n      \"counters\": {");
            for (j, (name, value)) in r.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        \"");
                out.push_str(&escape_json(name));
                out.push_str("\": ");
                out.push_str(&json_number(*value));
            }
            if !r.counters.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("}\n    }");
        }
        if !self.records.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Formats a metric as a JSON number. Non-finite floats (which JSON cannot
/// represent) become `null`.
fn json_number(v: MetricValue) -> String {
    match v {
        MetricValue::Int(n) => n.to_string(),
        MetricValue::Float(f) if f.is_finite() => {
            // Rust's shortest-roundtrip Display is valid JSON except that
            // integral values print without a decimal point; keep them
            // recognizably floating.
            let s = f.to_string();
            if s.contains('.') || s.contains('e') || s.contains('E') {
                s
            } else {
                format!("{s}.0")
            }
        }
        MetricValue::Float(_) => "null".to_string(),
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("héllo"), "héllo");
    }

    #[test]
    fn numbers_serialize_as_json() {
        assert_eq!(json_number(MetricValue::Int(42)), "42");
        assert_eq!(json_number(MetricValue::Float(0.5)), "0.5");
        assert_eq!(json_number(MetricValue::Float(2.0)), "2.0");
        assert_eq!(json_number(MetricValue::Float(f64::NAN)), "null");
        assert_eq!(json_number(MetricValue::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn trace_serializes_round_shapes() {
        let mut t = SynthTrace::new();
        t.push(StageRecord {
            stage: "chi",
            machine: Some("be\"lt".into()),
            wall: Duration::from_micros(7),
            counters: vec![
                ("mk_calls", MetricValue::Int(3)),
                ("hit_rate", MetricValue::Float(0.25)),
            ],
        });
        t.push(StageRecord {
            stage: "rtos",
            machine: None,
            wall: Duration::from_micros(1),
            counters: vec![],
        });
        let json = t.to_json();
        assert!(json.contains("\"stage\": \"chi\""));
        assert!(json.contains("\"machine\": \"be\\\"lt\""));
        assert!(json.contains("\"wall_us\": 7"));
        assert!(json.contains("\"mk_calls\": 3"));
        assert!(json.contains("\"hit_rate\": 0.25"));
        assert!(json.contains("\"machine\": null"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let json = SynthTrace::new().to_json();
        assert_eq!(json, "{\n  \"stages\": []\n}\n");
    }
}
