//! Result printing: one line per metric for people, then the one JSON
//! object the driver reads as the last line of standard output.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Spread, sample count or exactness, for the human-readable line.
    pub note: String,
}

/// What the driver wants beside the metrics.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    pub attempted: u64,
    pub committed: u64,
}

/// Collects a run's metrics in emission order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.note(name, value, unit, String::new());
    }

    pub fn note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// A timing kernel: median with its MAD and batch count beside it.
    pub fn kernel(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let note = format!(
            "mad {:.3}, {} batches",
            crate::stats::mad(samples),
            samples.len()
        );
        self.note(name, crate::stats::median(samples), unit, note);
    }

    /// Prints every metric by name, then the result object.
    pub fn print(&self, totals: Totals) {
        let (attempted, failed) = (totals.attempted, totals.attempted - totals.committed);
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("   ({})", m.note)
            };
            println!("{:<36} {:>16.4} {}{note}", m.name, m.value, m.unit);
        }
        let mut json = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to string");
        }
        json.push_str("}}");
        println!("{json}");
    }
}
