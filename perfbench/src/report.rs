//! What one run reports: operation counts, named metrics with units, the
//! sample count behind each median, and notes.

use crate::trace::Tree;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    pub samples: Vec<(&'static str, usize)>,
    pub notes: Vec<String>,
    pub tree: Option<Tree>,
    pub replay_tree: Option<Tree>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => *m = (name.to_string(), value, unit),
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// Records a per-layer metric this workload cannot observe: reported
    /// as 0 with the reason among the notes.
    pub fn unobserved(&mut self, names: &[(&str, &'static str)], why: &str) {
        for (name, unit) in names {
            self.set(name, 0.0, unit);
        }
        let list: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
        self.notes.push(format!(
            "0 = not observable here ({why}): {}",
            list.join(", ")
        ));
    }

    /// Counts one checked operation; an error makes it a failure.
    pub fn outcome(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics whose names are in `wanted`, in that order, as the
    /// `metrics` object of the result line. A wanted metric the run did
    /// not set is an error.
    pub fn metrics_json(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in wanted {
            let (_, value, u) = self
                .metrics
                .iter()
                .find(|m| m.0 == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if u != unit {
                return Err(format!("metric {name} measured in {u}, declared in {unit}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("  {name:<30} {value:>14.6} {unit}\n"));
        }
        for (name, n) in &self.samples {
            out.push_str(&format!("  samples behind {name}: {n}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}
