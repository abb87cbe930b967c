//! The metric catalog and the one-line JSON result of a run.

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    // Simulated memory ops per host microsecond.
    ("mops", "ops/us"),
    // Host seconds to build and warm the workload's system.
    ("setup_s", "s"),
    // Peak resident set of the process that simulates.
    ("rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer a workload does not reach reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.self_ns_per_op", "ns/op"),
    ("cpu.self_ns_per_op", "ns/op"),
    ("cpu.l1_miss_per_kop", "1/kop"),
    ("cpu.l2_miss_per_kop", "1/kop"),
    ("cpu.tlb_miss_per_kop", "1/kop"),
    ("sim.l3.self_ns_per_op", "ns/op"),
    ("sim.l3.ns_per_call", "ns"),
    ("sim.l3.lookups_per_kop", "1/kop"),
    ("sim.l3.hit_ratio", "ratio"),
    ("memctl.self_ns_per_op", "ns/op"),
    ("memctl.ns_per_call", "ns"),
    ("memctl.calls_per_kop", "1/kop"),
    ("memctl.cte_hit_ratio", "ratio"),
    ("dram.self_ns_per_op", "ns/op"),
    ("dram.reads_per_kop", "1/kop"),
    ("dram.writes_per_kop", "1/kop"),
    ("dram.row_hit_ratio", "ratio"),
    ("sim.drain.self_ns_per_op", "ns/op"),
    ("sim.drain.writebacks_per_kop", "1/kop"),
    ("sim.loop.self_ns_per_op", "ns/op"),
    ("telemetry.ns_per_op", "ns/op"),
    ("chunk.p90_ns_per_op", "ns/op"),
    ("runner.sims", "count"),
    ("runner.deduped", "count"),
    ("runner.sim_s", "s"),
    ("runner.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.residual_pct", "%"),
];

/// What one run did: how many operations it attempted, how many produced
/// wrong output, and the metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulated chunks, or reproductions).
    pub attempted: u64,
    /// Attempted operations whose output failed a check.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: every metric of the catalog for `trace`, in
    /// catalog order. A run whose value is missing or not finite is not
    /// correct.
    ///
    /// # Panics
    ///
    /// Panics if a recorded name is not in the catalog (a bug here).
    pub fn to_json(&self, trace: bool) -> String {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in &self.values {
            assert!(
                catalog.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalog"
            );
        }
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = Vec::with_capacity(catalog.len());
        for (name, unit) in catalog {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                // Layers a workload does not reach read 0.
                None if trace => 0.0,
                _ => {
                    correct = false;
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            if correct { 0 } else { self.failed.max(1) },
            metrics.join(", ")
        )
    }
}

/// A result line read back: correctness, counts, and `(name, unit, value)`
/// per metric.
#[derive(Debug, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, String, f64)>,
}

/// Reads a line written by [`Outcome::to_json`].
pub fn parse_line(line: &str) -> Option<ResultLine> {
    let field = |key: &str| {
        let (_, rest) = line.split_once(&format!("\"{key}\": "))?;
        rest.split(',').next()
    };
    let (_, body) = line.split_once("\"metrics\": {")?;
    let body = body.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let entry = entry.trim_end_matches('}');
        let (name, rest) = entry.split_once(": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        metrics.push((
            name.trim_matches('"').to_owned(),
            unit.trim_end_matches('"').to_owned(),
            value.parse().ok()?,
        ));
    }
    Some(ResultLine {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_read_back() {
        let o = Outcome {
            attempted: 7,
            failed: 0,
            values: vec![("mops", 9.125), ("setup_s", 1.5e-3), ("rss_mb", 111.0)],
        };
        let r = parse_line(&o.to_json(false)).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (7, 0));
        assert_eq!(
            r.metrics,
            vec![
                ("mops".to_owned(), "ops/us".to_owned(), 9.125),
                ("setup_s".to_owned(), "s".to_owned(), 1.5e-3),
                ("rss_mb".to_owned(), "MB".to_owned(), 111.0),
            ]
        );
        assert_eq!(parse_line("not a result"), None);
    }

    #[test]
    fn result_line_lists_every_catalog_metric_and_flags_missing_ones() {
        let ok = Outcome {
            attempted: 3,
            failed: 0,
            values: vec![("mops", 12.5), ("setup_s", 0.25), ("rss_mb", 40.0)],
        };
        assert_eq!(
            ok.to_json(false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"mops\": {\"value\": 12.5, \"unit\": \"ops/us\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"rss_mb\": {\"value\": 40, \"unit\": \"MB\"}}}"
        );
        let traced = Outcome {
            attempted: 1,
            failed: 0,
            values: vec![("runner.sims", 74.0)],
        };
        let line = traced.to_json(true);
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
        let missing = Outcome {
            attempted: 2,
            failed: 0,
            values: vec![("mops", f64::NAN)],
        };
        assert!(missing
            .to_json(false)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
