//! The benchmark's metric tables and its output lines.

use std::fmt::Write as _;

use crate::stats::{Percentile, Spread};

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// prints every one.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p99", "ms"),
    ("cells_per_s", "1/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Every workload
/// prints every one.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("cdma.step_ms", "ms"),
    ("cdma.step_ms_2t", "ms"),
    ("cdma.speedup_2t", "ratio"),
    ("cdma.links", "count"),
    ("geo.mobility_ms", "ms"),
    ("sim.residual_ms", "ms"),
    ("admission.rounds_per_frame", "1/frame"),
    ("admission.requests_per_round", "1/round"),
    ("admission.grant_share", "ratio"),
    ("ilp.nodes_per_round", "1/round"),
    ("ilp.capped_rounds", "count"),
    ("ilp.ns_per_node", "ns"),
    ("sim.pending_mean", "count"),
    ("sim.active_bursts_mean", "count"),
    ("sim.trace_overhead", "ratio"),
    ("campaign.cell_ms", "ms"),
    ("campaign.service_overhead", "ratio"),
    ("campaign.merge_ms", "ms"),
    ("campaign.journal_bytes", "bytes"),
    ("campaign.artefact_bytes", "bytes"),
];

/// A JSON number: finite values as Rust's shortest round-trip form,
/// anything else as `null`.
pub fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (the benchmark only quotes plain ASCII text).
pub fn jstr(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"min": …, "median": …, "max": …, "n": …}`.
pub fn jspread(s: &Spread) -> String {
    format!(
        "{{\"min\": {}, \"median\": {}, \"max\": {}, \"n\": {}}}",
        jnum(s.min),
        jnum(s.median),
        jnum(s.max),
        s.n
    )
}

/// `{"value": …, "samples": …, "beyond": …}`.
pub fn jpercentile(p: &Percentile) -> String {
    format!(
        "{{\"value\": {}, \"samples\": {}, \"beyond\": {}}}",
        jnum(p.value),
        p.samples,
        p.beyond
    )
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (frames, or campaign cells).
    pub attempted: u64,
    /// Operations that failed a correctness check or a guard.
    pub failed: u64,
    /// Whether every correctness check held.
    pub correct: bool,
    /// Metric values by name (units come from the tables above).
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra facts for the detail line: key and raw JSON value.
    pub detail: Vec<(String, String)>,
    /// What went wrong, for standard error.
    pub problems: Vec<String>,
}

impl RunResult {
    /// An empty, so far correct, result.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a detail (raw JSON value).
    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    /// Records a failed correctness check.
    pub fn incorrect(&mut self, problem: String) {
        self.correct = false;
        self.problems.push(problem);
    }

    /// Records a guard failure: every operation of the run counts as
    /// failed, because the run measured the wrong regime. Call it after
    /// `attempted` is set.
    pub fn off_regime(&mut self, problem: String) {
        self.failed = self.attempted;
        self.problems.push(problem);
    }

    /// Whether the run passed every check and guard.
    pub fn ok(&self) -> bool {
        self.correct && self.failed == 0
    }

    /// The detail line: `{"detail": {…}}`.
    pub fn detail_line(&self) -> String {
        let body: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {v}", jstr(k)))
            .collect();
        format!("{{\"detail\": {{{}}}}}", body.join(", "))
    }

    /// The result line, with the metrics of `table` in table order.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(f64::NAN, |&(_, v)| v);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    jstr(name),
                    jnum(value),
                    jstr(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
