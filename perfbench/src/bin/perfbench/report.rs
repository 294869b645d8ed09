//! Metric names and units, and the result line.

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("query_qps", "1/s"),
    ("swap_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("txdb.decode_s", "s"),
    ("txdb.nadb_bytes", "bytes"),
    ("txdb.vertical.words_anded", "count"),
    ("txdb.vertical.words_built", "count"),
    ("apriori.positive_s", "s"),
    ("apriori.l2_s", "s"),
    ("apriori.passes", "count"),
    ("apriori.candidates", "count"),
    ("apriori.large_itemsets", "count"),
    ("apriori.large_per_candidate", "ratio"),
    ("core.candidates_s", "s"),
    ("core.candidates.generated", "count"),
    ("core.candidates.unique", "count"),
    ("core.candidates.unique_ratio", "ratio"),
    ("core.negative_pass_s", "s"),
    ("core.negatives", "count"),
    ("core.negative_yield", "ratio"),
    ("core.rules_s", "s"),
    ("core.rules", "count"),
    ("core.export_s", "s"),
    ("core.export.rules", "count"),
    ("serve.snapshot_write_s", "s"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.snapshot_load_ms", "ms"),
    ("serve.install_ms", "ms"),
    ("taxonomy.resolve_p50_us", "us"),
    ("taxonomy.resolve_p99_us", "us"),
    ("taxonomy.expand_p50_us", "us"),
    ("taxonomy.expand_p99_us", "us"),
    ("taxonomy.expanded_items", "count"),
    ("serve.match_p50_us", "us"),
    ("serve.match_p99_us", "us"),
    ("serve.matches", "count"),
    ("serve.render_p50_us", "us"),
    ("serve.render_p99_us", "us"),
    ("serve.answer_bytes", "bytes"),
    ("serve.transport_p50_us", "us"),
    ("serve.transport_p99_us", "us"),
    ("serve.requests", "count"),
    ("serve.swaps", "count"),
    ("serve.errors", "count"),
    ("trace.unaccounted_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The metrics a run reports.
pub fn declared(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One measured value with how it was sampled.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    /// Sample count or derivation, printed next to the value.
    pub note: String,
}

/// A finished run: values by metric name plus the operation tally.
#[derive(Debug, Default)]
pub struct RunResult {
    pub values: Vec<(&'static str, Value)>,
    pub attempted: u64,
    pub failed: u64,
    /// Context lines printed before the result (load shape, counts).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Record `name`.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.push((
            name,
            Value {
                value,
                note: note.into(),
            },
        ));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.value)
    }

    /// Failed over attempted, in percent.
    pub fn error_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The run is correct when nothing failed and every declared metric
    /// has a finite value.
    pub fn correct(&self, traced: bool) -> bool {
        self.failed == 0
            && declared(traced)
                .iter()
                .all(|(name, _)| self.get(name).is_some_and(f64::is_finite))
    }

    /// Human-readable lines: every metric with its unit and sampling, then
    /// the error rate.
    pub fn table(&self, traced: bool) -> Vec<String> {
        let mut out = self.notes.clone();
        for (name, unit) in declared(traced) {
            match self.values.iter().find(|(n, _)| n == name) {
                Some((_, v)) => {
                    out.push(format!("{name:<30} {:>16.6} {unit:<6} {}", v.value, v.note))
                }
                None => out.push(format!("{name:<30} {:>16} {unit:<6} missing", "-")),
            }
        }
        out.push(format!(
            "{:<30} {:>16.6} {:<6} {} failed of {} attempted",
            "error_pct",
            self.error_pct(),
            "%",
            self.failed,
            self.attempted
        ));
        out
    }

    /// The result line: one JSON object, values printed with every digit.
    pub fn json(&self, traced: bool) -> String {
        let metrics: Vec<String> = declared(traced)
            .iter()
            .filter_map(|(name, unit)| {
                let v = self.get(name).filter(|v| v.is_finite())?;
                Some(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(traced),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Metric values of a result line (as [`RunResult::json`] writes it).
pub fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name = rest[..at].rsplit('"').next().unwrap_or_default().to_owned();
        let tail = &rest[at + "\": {\"value\": ".len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse() {
            out.push((name, v));
        }
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.0 + i as f64 / 3.0, "");
        }
        assert!(r.correct(false));
        let line = r.json(false);
        let parsed = parse_metrics(&line);
        assert_eq!(parsed.len(), END_TO_END.len());
        for ((name, v), (want, _)) in parsed.iter().zip(END_TO_END) {
            assert_eq!(name, want);
            assert_eq!(Some(*v), r.get(want));
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_not_correct() {
        let mut r = RunResult::default();
        r.set("setup_s", f64::NAN, "");
        assert!(!r.correct(false));
        assert!(!r.json(false).contains("setup_s"));
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
