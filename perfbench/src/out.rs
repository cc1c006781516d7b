//! Metric values, the workload outcome and how both are printed.

use serde_json::{json, Map, Value};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or in the summary only.
    pub name: &'static str,
    /// Unit, e.g. `s`, `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// What one benchmark invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the base of `fail_ratio`).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// What an operation is, for the summary.
    pub op: &'static str,
    /// Every value computed, gated or not.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the summary (check failures, tail percentile).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// The value of `name`, if computed.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Multiplies metric `name` by `factor`, keeping the unscaled value as
    /// `raw_name`. No-op when `name` was not measured.
    pub fn scale(&mut self, name: &str, raw_name: &'static str, factor: f64) {
        let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) else {
            return;
        };
        let raw = Metric {
            name: raw_name,
            ..m.clone()
        };
        m.value *= factor;
        self.metrics.push(raw);
    }

    /// Failed over attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every operation succeeded and passed its output check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable lines: every metric by name, value and unit.
    pub fn summary(&self, workload: &str) -> Vec<String> {
        let mut lines = vec![format!("# workload {workload}")];
        for m in &self.metrics {
            lines.push(format!("{:<32} {:>16.6} {}", m.name, m.value, m.unit));
        }
        lines.push(format!(
            "{:<32} {:>16.6} ratio ({} failed of {} {})",
            "fail_ratio",
            self.fail_ratio(),
            self.failed,
            self.attempted,
            self.op
        ));
        lines.extend(self.notes.iter().map(|n| format!("# {n}")));
        lines
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `wanted`, in that order. A wanted metric the workload did
    /// not compute is reported as 0 when `zero_if_missing` (a layer the
    /// workload does not exercise) and is an error otherwise.
    pub fn result_json(
        &self,
        wanted: &[(&'static str, &'static str)],
        zero_if_missing: bool,
    ) -> Result<Value, String> {
        let mut metrics = Map::new();
        for &(name, unit) in wanted {
            let value = match self.get(name) {
                Some(v) => v,
                None if zero_if_missing => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            metrics.insert(name.to_string(), json!({ "value": value, "unit": unit }));
        }
        Ok(json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        }))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_orders_and_fills() {
        let mut o = Outcome {
            attempted: 4,
            op: "runs",
            ..Outcome::default()
        };
        o.push("a", "s", 1.5);
        let v = o
            .result_json(&[("a", "s"), ("b", "count")], true)
            .expect("zero-filled");
        assert_eq!(v["correct"], json!(true));
        assert_eq!(v["metrics"]["a"]["value"], json!(1.5));
        assert_eq!(v["metrics"]["b"]["value"], json!(0.0));
        assert!(o.result_json(&[("b", "count")], false).is_err());
        o.fail("boom".into());
        assert_eq!(
            o.result_json(&[], true).expect("empty")["correct"],
            json!(false)
        );
        assert!((o.fail_ratio() - 0.25).abs() < 1e-12);
        o.scale("a", "a_raw", 2.0);
        o.scale("missing", "missing_raw", 2.0);
        assert_eq!(o.get("a"), Some(3.0));
        assert_eq!(o.get("a_raw"), Some(1.5));
        assert_eq!(o.get("missing_raw"), None);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
