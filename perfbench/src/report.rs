//! The result line and the run manifest, as hand-written JSON.

/// One named measurement.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run prints.
pub struct Report {
    /// Every check passed and nothing failed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests without a correct answer, plus server-side discrepancies.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Manifest fields as `(key, JSON value)`.
    pub manifest: Vec<(&'static str, String)>,
}

impl Report {
    /// `{"manifest": {...}}`: how the result was produced.
    pub fn manifest_line(&self) -> String {
        let fields: Vec<String> =
            self.manifest.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
        format!("{{\"manifest\": {{{}}}}}", fields.join(", "))
    }

    /// The result line. Refuses a non-finite metric rather than print
    /// invalid JSON.
    pub fn result_line(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} measured {}", m.name, m.value));
            }
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of numbers; a non-finite value becomes `null`.
pub fn json_nums(values: &[f64]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|v| if v.is_finite() { v.to_string() } else { "null".to_string() })
        .collect();
    format!("[{}]", items.join(", "))
}
