//! The metrics of one run and how they are printed.

use crate::spec::MetricDef;
use std::fmt::Write as _;

/// Metric values by declared name, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// What a finished run reports.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Every declared metric of the run's kind, with its value.
    pub metrics: Vec<(MetricDef, f64)>,
}

impl Report {
    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push('}');
        out
    }

    /// The one-line result the run prints last.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// One `name value unit` line per metric.
    pub fn metric_lines(&self) -> String {
        let mut out = String::new();
        for (def, value) in &self.metrics {
            let _ = writeln!(out, "{} {value} {}", def.name, def.unit);
        }
        out
    }
}

/// The value of metric `name` in a result line, and the `failed` count —
/// all `--check-repeat` and the smoke test need to read back.
pub fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    number_after(result_line, &key)
}

/// The number that follows `key` in `text`.
pub fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest.find([',', '}', ' ']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The metric names of a result line, in order.
pub fn metric_names(result_line: &str) -> Vec<String> {
    let marker = "\": {\"value\": ";
    let mut names = Vec::new();
    let mut rest = result_line;
    while let Some(at) = rest.find(marker) {
        let start = rest[..at].rfind('"').map_or(0, |q| q + 1);
        names.push(rest[start..at].to_string());
        rest = &rest[at + marker.len()..];
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    #[test]
    fn result_line_reads_back() {
        let report = Report {
            workload: "w",
            attempted: 12,
            failed: 0,
            metrics: vec![(END_TO_END[0], 1.5), (END_TO_END[1], 0.25)],
        };
        let line = report.result_line();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert_eq!(metric_value(&line, "setup_s"), Some(1.5));
        assert_eq!(metric_value(&line, "op_p50_ms"), Some(0.25));
        assert_eq!(metric_value(&line, "absent"), None);
        assert_eq!(number_after(&line, "\"failed\": "), Some(0.0));
        assert_eq!(metric_names(&line), vec!["setup_s", "op_p50_ms"]);
        assert_eq!(report.metric_lines(), "setup_s 1.5 s\nop_p50_ms 0.25 ms\n");
    }
}
