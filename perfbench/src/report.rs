//! What a run prints: human-readable lines as it goes, then one JSON
//! result line carrying the operation counts and the selected metrics.

use std::fmt::Write as _;

/// The metrics, notes and operation tally of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Prints one human-readable line.
    pub fn note(&mut self, line: impl AsRef<str>) {
        println!("{}", line.as_ref());
    }

    /// Records (and prints) a metric. Later values of the same name
    /// replace earlier ones.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("metric {name} = {value:.6} {unit}");
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Counts one operation; an `Err` counts it as failed and prints why.
    pub fn op<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(message) => {
                self.failed += 1;
                println!("FAILED: {message}");
                eprintln!("perfbench: FAILED: {message}");
                None
            }
        }
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints the error rate line and returns the JSON result line over
    /// exactly `names`. A name with no finite recorded value is a bug in
    /// the run, so it fails the run (and is reported as 0).
    pub fn finish(&mut self, names: &[&str]) -> String {
        let mut metrics = Vec::new();
        for &name in names {
            let found = self
                .metrics
                .iter()
                .find(|(n, v, _)| n == name && v.is_finite())
                .map(|(_, v, u)| (*v, *u));
            let (value, unit) = found.unwrap_or_else(|| {
                self.op(Err::<(), _>(format!("metric `{name}` was not measured")));
                (0.0, "none")
            });
            metrics.push((name, value, unit));
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate = {rate} ({} of {} operations failed)",
            self.failed, self.attempted
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_counts_and_only_the_named_metrics() {
        let mut report = Report::default();
        report.metric("wall_s", 1.5, "s");
        report.metric("other", 2.0, "count");
        report.op(Ok::<(), String>(()));
        let line = report.finish(&["wall_s"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut report = Report::default();
        report.metric("nan_s", f64::NAN, "s");
        let line = report.finish(&["wall_s", "nan_s"]);
        assert!(!report.correct());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 2"));
    }
}
