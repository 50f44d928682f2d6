//! Summary statistics, the metric table, and the one-line JSON result.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to mean anything.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the nearest-rank `percentile` of the samples, and how
/// many samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples ranked
/// above it — the sample with exactly that many beyond it — but never
/// below the median: with fewer than twice that many samples the median
/// is returned, and `beyond` says how far it falls short.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median_rank = n.div_ceil(2).max(1);
    let rank = n
        .saturating_sub(TAIL_MIN_BEYOND)
        .max(median_rank)
        .min(n.max(1));
    Tail {
        percentile: 100.0 * rank as f64 / n.max(1) as f64,
        value: v.get(rank - 1).copied().unwrap_or(0.0),
        samples: n,
        beyond: n.saturating_sub(rank),
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-text context printed beside the value (sample counts, the tail
    /// percentile, what a layer number was derived from).
    pub note: String,
}

/// An ordered list of metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push_note(name, value, unit, String::new());
    }

    pub fn push_note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "  {:<40} {:>16} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The final result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
///
/// # Errors
/// Refuses (with the offending metric) a malformed name, a duplicate, or a
/// non-finite value, any of which would make the line unparseable or
/// ambiguous.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut body = String::new();
    let mut seen = std::collections::BTreeSet::new();
    for (i, m) in metrics.0.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("duplicate metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in 1..400usize {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&values);
            let beyond = values.iter().filter(|&&v| v > t.value).count();
            assert_eq!(beyond, t.beyond, "n = {n}");
            if n >= 2 * TAIL_MIN_BEYOND {
                // Exactly the minimum beyond: the next sample up has fewer.
                assert_eq!(t.beyond, TAIL_MIN_BEYOND, "n = {n}: {t:?}");
                assert!(t.percentile >= 50.0, "n = {n}: {t:?}");
            } else {
                // Too few samples for a tail: the (upper) median.
                assert_eq!(t.value, values[n.div_ceil(2) - 1], "n = {n}");
            }
        }
        let t = tail(&(0..40).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.percentile, t.value), (75.0, 29.0));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("exec.ssed.s"));
        assert!(valid_name("transport.requests.SmBatch"));
        assert!(valid_name("cpu.c2_s"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("ledger.shard top-k"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_parses_back() {
        let mut m = Metrics::default();
        m.push("query_p50_s", 0.125, "s");
        m.push("peak_threads", 7.0, "count");
        let line = result_json(true, 12, 0, &m).expect("valid metrics");
        let parsed = crate::json::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("correct"), Some(&crate::json::Value::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_f64()), Some(12.0));
        let metrics = parsed.get("metrics").expect("metrics object");
        let p50 = metrics.get("query_p50_s").expect("p50 present");
        assert_eq!(p50.get("value").and_then(|v| v.as_f64()), Some(0.125));
        assert_eq!(
            p50.get("unit"),
            Some(&crate::json::Value::Str("s".to_string()))
        );
    }

    #[test]
    fn result_line_refuses_bad_metrics() {
        let mut m = Metrics::default();
        m.push("ok", 1.0, "s");
        m.push("ok", 2.0, "s");
        assert!(result_json(true, 1, 0, &m).is_err());
        let mut m = Metrics::default();
        m.push("bad name", 1.0, "s");
        assert!(result_json(true, 1, 0, &m).is_err());
        let mut m = Metrics::default();
        m.push("nan", f64::NAN, "s");
        assert!(result_json(true, 1, 0, &m).is_err());
    }
}
