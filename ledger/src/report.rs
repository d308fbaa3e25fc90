//! The metric catalog and the result line.
//!
//! Every metric the ledger can print is declared once in [`END_TO_END`]
//! or [`PER_LAYER`] with its unit; [`Metrics::set`] refuses any other
//! name, so a printed metric always carries its unit. `BENCHMARK.json`
//! at the repository root lists the same names and units (checked by the
//! tests below).

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("train_asr", "fraction"),
    ("flows_per_s", "flows/s"),
    ("frames_per_s", "frames/s"),
    ("frame_latency_p50_us", "us"),
    ("frame_latency_p99_us", "us"),
    ("evasion_rate", "fraction"),
    ("data_overhead", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("backend.push_batch.calls", "count"),
    ("backend.push_batch.rows", "count"),
    ("backend.push_batch.s", "s"),
    ("backend.head_batch.calls", "count"),
    ("backend.head_batch.s", "s"),
    ("backend.gflop", "GFLOP"),
    ("backend.gbytes", "GB"),
    ("backend.gflop_per_s", "GFLOP/s"),
    ("censor.observe.calls", "count"),
    ("censor.observe.s", "s"),
    ("censor.observe.packets", "count"),
    ("censor.queries_per_verdict", "ratio"),
    ("serve.admit_s", "s"),
    ("serve.run_s", "s"),
    ("serve.batches", "count"),
    ("serve.rows_per_batch", "rows"),
    ("serve.stolen_batches", "count"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.infer_stage_s", "s"),
    ("serve.framing_stage_s", "s"),
    ("framing.s", "s"),
    ("serve.unattributed_share", "fraction"),
    ("train.pretrain_s", "s"),
    ("train.rollout_s", "s"),
    ("train.env_steps", "count"),
    ("train.censor_queries", "count"),
    ("train.gae_s", "s"),
    ("train.update_s", "s"),
    ("train.iterations", "count"),
    ("train.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Whether `name` is a legal metric name: one or more of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A set of measured metric values keyed by catalogued name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in the catalog — a bug in the ledger.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.values.insert(name.to_string(), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names of the catalog entries with no recorded value, or whose
    /// value is not finite.
    pub fn missing(&self, catalog: &[(&str, &str)]) -> Vec<String> {
        catalog
            .iter()
            .filter(|(n, _)| !self.get(n).is_some_and(f64::is_finite))
            .map(|(n, _)| n.to_string())
            .collect()
    }

    /// Human-readable `name value unit` lines.
    pub fn table(&self) -> String {
        self.values
            .iter()
            .map(|(n, v)| format!("  {n:<30} {v:>16.6} {}\n", unit_of(n).unwrap_or("?")))
            .collect()
    }

    /// The `metrics` JSON object: `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(n, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(*v),
                    unit_of(n).unwrap_or("?")
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite `f64` as a JSON number with all its digits (non-finite
/// values, which the caller reports as incorrect, print as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line the ledger prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Smallest of `xs`; NaN when empty.
pub fn min_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Largest of `xs`; NaN when empty.
pub fn max_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().reduce(f64::max).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_has_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
            assert!(seen.insert(*name), "metric {name} declared twice");
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(".x"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn printed_metrics_carry_their_units() {
        let mut m = Metrics::default();
        m.set("flows_per_s", 12.5);
        m.set("backend.gflop", 0.25);
        let json = m.to_json();
        assert_eq!(
            json,
            "{\"backend.gflop\": {\"value\": 0.25, \"unit\": \"GFLOP\"}, \
             \"flows_per_s\": {\"value\": 12.5, \"unit\": \"flows/s\"}}"
        );
        assert!(m.table().contains("flows/s"));
        assert_eq!(
            m.missing(&[("flows_per_s", "flows/s")]),
            Vec::<String>::new()
        );
        assert_eq!(m.missing(&[("setup_s", "s")]), vec!["setup_s".to_string()]);
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn uncatalogued_metrics_are_refused() {
        Metrics::default().set("made_up", 1.0);
    }

    /// `BENCHMARK.json` names exactly the catalogued metrics, with the
    /// same units, in its `end_to_end` and `per_layer` lists.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let open = start + text[start..].find('[').expect("list");
            let close = open + text[open..].find(']').expect("list end");
            text[open..close]
                .split('{')
                .skip(1)
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect()
        };
        let as_owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), as_owned(END_TO_END));
        assert_eq!(section("per_layer"), as_owned(PER_LAYER));
    }

    fn field(entry: &str, key: &str) -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("value") + 1;
        let close = open + rest[open..].find('"').expect("value end");
        rest[open..close].to_string()
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
