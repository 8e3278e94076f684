//! The result line: one JSON object with the run's verdict and metrics.

use std::collections::BTreeMap;

/// True when `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The run's verdict and metrics, in the shape the result line takes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed (oracle mismatch, rejected insert, panic,
    /// or a counter that did not repeat).
    pub failed: usize,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl Report {
    /// Set one metric.
    ///
    /// # Panics
    /// Panics on an invalid name or a non-finite value: both are bugs in
    /// the harness, not outcomes of the measured program.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    /// The run is correct when it attempted something and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line. Values are printed with Rust's shortest
    /// round-trip formatting, so every measured digit survives.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_only_the_allowed_charset() {
        for ok in [
            "setup_s",
            "mapreduce.fsjoin-filter.reduce_busy_s",
            "0ratio",
            "a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "µs",
            "colon:name",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn report_rejects_an_invalid_name() {
        Report::default().set("bad name", 1.0, "s");
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.set("setup_s", 0.8127, "s");
        r.set("latency_p50_ms", 1.2034, "ms");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        r.failed = 1;
        assert!(!r.correct());
    }
}
