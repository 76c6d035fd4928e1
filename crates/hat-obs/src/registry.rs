//! The typed metrics registry.
//!
//! One flat namespace of `(metric name, sorted label set) -> value`
//! holding counters, gauges and log-scale histograms. Every component
//! (clients, servers, WAL, nemesis) exports into the same registry, so
//! a run produces a single merged view with lossless aggregation:
//! counters add, gauges keep the max, histograms bucket-merge.
//!
//! Two export formats:
//! - [`MetricsRegistry::prometheus`] — Prometheus text exposition
//!   (histograms rendered summary-style with `quantile` labels plus
//!   `_sum`/`_count`), for eyeballing and for the CI parser check;
//! - [`MetricsRegistry::to_json`] — a hand-rolled JSON snapshot, the
//!   machine-readable form `hat-experiments nemesis --json` embeds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;

/// A label set: `(key, value)` pairs. Stored sorted by key so the same
/// logical labels always map to the same registry entry regardless of
/// the order call sites list them in.
pub type Labels = Vec<(String, String)>;

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonically increasing count; merge adds.
    Counter(u64),
    /// Point-in-time measurement; merge keeps the max (the registry is
    /// an end-of-window aggregate, and for every gauge we export —
    /// replication lag, WAL size — the max across sources is the
    /// conservative summary).
    Gauge(f64),
    /// Log-scale distribution; merge is lossless bucket addition.
    Hist(Histogram),
}

/// A typed metrics registry with lossless merge and text/JSON export.
///
/// `base` labels (e.g. `engine="ramp-fast"`) are prepended to every
/// entry at insert time, so per-run registries can be merged across
/// engines without collisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    base: Labels,
    entries: BTreeMap<(String, Labels), Metric>,
}

impl MetricsRegistry {
    /// An empty registry with no base labels.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry whose every entry will carry `base` labels.
    pub fn with_base(base: Labels) -> Self {
        let mut base = base;
        base.sort();
        MetricsRegistry {
            base,
            entries: BTreeMap::new(),
        }
    }

    fn key(&self, name: &str, labels: &[(&str, &str)]) -> (String, Labels) {
        let mut l: Labels = self
            .base
            .iter()
            .cloned()
            .chain(labels.iter().map(|(k, v)| (k.to_string(), v.to_string())))
            .collect();
        l.sort();
        l.dedup();
        (name.to_string(), l)
    }

    /// Adds `delta` to the counter `name{labels}` (creating it at 0).
    ///
    /// # Panics
    /// Panics if the entry exists with a non-counter type.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        match self
            .entries
            .entry(self.key(name, labels))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += delta,
            other => panic!("{name} registered as {other:?}, not a counter"),
        }
    }

    /// Sets the gauge `name{labels}` to `v`.
    ///
    /// # Panics
    /// Panics if the entry exists with a non-gauge type.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        match self
            .entries
            .entry(self.key(name, labels))
            .or_insert(Metric::Gauge(v))
        {
            Metric::Gauge(g) => *g = v,
            other => panic!("{name} registered as {other:?}, not a gauge"),
        }
    }

    /// Records `v` into the histogram `name{labels}` (created with the
    /// standard latency configuration if absent).
    ///
    /// # Panics
    /// Panics if the entry exists with a non-histogram type.
    pub fn hist_record(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        match self
            .entries
            .entry(self.key(name, labels))
            .or_insert_with(|| Metric::Hist(Histogram::for_latency_ms()))
        {
            Metric::Hist(h) => h.record(v),
            other => panic!("{name} registered as {other:?}, not a histogram"),
        }
    }

    /// Merges an already-populated histogram into `name{labels}`.
    /// This is how `ClientMetrics`' per-client latency histograms fold
    /// into the run-wide registry without re-recording samples.
    pub fn hist_merge(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        match self
            .entries
            .entry(self.key(name, labels))
            .or_insert_with(|| Metric::Hist(Histogram::for_latency_ms()))
        {
            Metric::Hist(mine) => mine.merge(h),
            other => panic!("{name} registered as {other:?}, not a histogram"),
        }
    }

    /// Reads a counter (0 if absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.entries.get(&self.key(name, labels)) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Reads a gauge (`None` if absent).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.entries.get(&self.key(name, labels)) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Reads a histogram (`None` if absent).
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.entries.get(&self.key(name, labels)) {
            Some(Metric::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// Sums a counter across all label sets it appears under.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, m)| match m {
                Metric::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Number of distinct `(name, labels)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no metrics have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Losslessly merges `other` into `self`: counters add, gauges keep
    /// the max, histograms bucket-merge. Entries unique to either side
    /// survive. `other`'s base labels are already baked into its keys.
    ///
    /// # Panics
    /// Panics if the same `(name, labels)` entry has different types on
    /// the two sides.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, m) in &other.entries {
            match self.entries.entry(k.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(m.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => match (e.get_mut(), m) {
                    (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                    (Metric::Gauge(a), Metric::Gauge(b)) => *a = a.max(*b),
                    (Metric::Hist(a), Metric::Hist(b)) => a.merge(b),
                    (a, b) => panic!("type mismatch merging {k:?}: {a:?} vs {b:?}"),
                },
            }
        }
    }

    fn fmt_labels(labels: &Labels, extra: Option<(&str, String)>) -> String {
        let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{v}\""));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }

    /// Prometheus text exposition. Counters and gauges render as single
    /// samples; histograms render summary-style: one sample per
    /// quantile (0.5/0.9/0.99/0.999) plus `_sum` and `_count`.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), m) in &self.entries {
            if name != last_name {
                let kind = match m {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Hist(_) => "summary",
                };
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_name = name;
            }
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name}{} {c}", Self::fmt_labels(labels, None));
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name}{} {g}", Self::fmt_labels(labels, None));
                }
                Metric::Hist(h) => {
                    for q in [0.5, 0.9, 0.99, 0.999] {
                        let _ = writeln!(
                            out,
                            "{name}{} {}",
                            Self::fmt_labels(labels, Some(("quantile", format!("{q}")))),
                            h.quantile(q).min(h.max())
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_sum{} {}",
                        Self::fmt_labels(labels, None),
                        h.mean() * h.count() as f64
                    );
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        Self::fmt_labels(labels, None),
                        h.count()
                    );
                }
            }
        }
        out
    }

    /// JSON snapshot: an array of `{name, labels, type, ...}` objects,
    /// deterministic order (the BTreeMap iteration order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, ((name, labels), m)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let labels_json: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", esc(k), esc(v)))
                .collect();
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"labels\":{{{}}},",
                esc(name),
                labels_json.join(",")
            );
            match m {
                Metric::Counter(c) => {
                    let _ = write!(out, "\"type\":\"counter\",\"value\":{c}}}");
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "\"type\":\"gauge\",\"value\":{}}}", json_f64(*g));
                }
                Metric::Hist(h) => {
                    let p = h.percentiles();
                    let _ = write!(
                        out,
                        "\"type\":\"histogram\",\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
                        p.count,
                        json_f64(p.mean),
                        json_f64(p.p50),
                        json_f64(p.p90),
                        json_f64(p.p99),
                        json_f64(p.p999),
                        json_f64(p.max)
                    );
                }
            }
        }
        out.push(']');
        out
    }
}

/// Formats an f64 so the output is always valid JSON (no NaN/inf).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_total() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hat_txn_committed_total", &[("node", "0")], 3);
        r.counter_add("hat_txn_committed_total", &[("node", "0")], 2);
        r.counter_add("hat_txn_committed_total", &[("node", "1")], 7);
        assert_eq!(r.counter("hat_txn_committed_total", &[("node", "0")]), 5);
        assert_eq!(r.counter_total("hat_txn_committed_total"), 12);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let mut r = MetricsRegistry::new();
        r.counter_add("m", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("m", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.counter("m", &[("b", "2"), ("a", "1")]), 2);
    }

    #[test]
    fn base_labels_prepend() {
        let mut r = MetricsRegistry::with_base(vec![("engine".into(), "eventual".into())]);
        r.counter_add("m", &[("node", "0")], 1);
        assert_eq!(r.counter("m", &[("node", "0"), ("engine", "eventual")]), 1);
        let text = r.prometheus();
        assert!(text.contains("engine=\"eventual\""), "{text}");
    }

    #[test]
    fn merge_is_lossless_across_types() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", &[], 1);
        a.gauge_set("g", &[], 2.0);
        a.hist_record("h", &[], 10.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", &[], 4);
        b.gauge_set("g", &[], 1.5);
        b.hist_record("h", &[], 30.0);
        b.counter_add("only_b", &[], 9);
        a.merge(&b);
        assert_eq!(a.counter("c", &[]), 5);
        assert_eq!(a.gauge("g", &[]), Some(2.0)); // max wins
        assert_eq!(a.hist("h", &[]).unwrap().count(), 2);
        assert_eq!(a.counter("only_b", &[]), 9);
    }

    #[test]
    fn merge_round_trip_matches_direct_recording() {
        // Recording into two registries and merging equals recording
        // everything into one — the satellite "merge round-trip" check.
        let mut direct = MetricsRegistry::new();
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for v in [1.0, 5.0, 9.0] {
            direct.hist_record("h", &[("node", "0")], v);
            a.hist_record("h", &[("node", "0")], v);
        }
        for v in [2.0, 400.0] {
            direct.hist_record("h", &[("node", "0")], v);
            b.hist_record("h", &[("node", "0")], v);
        }
        direct.counter_add("c", &[], 10);
        a.counter_add("c", &[], 4);
        b.counter_add("c", &[], 6);
        a.merge(&b);
        assert_eq!(a, direct);
        assert_eq!(a.to_json(), direct.to_json());
        assert_eq!(a.prometheus(), direct.prometheus());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hat_txn_committed_total", &[("engine", "rc")], 5);
        r.hist_record("hat_txn_latency_ms", &[("engine", "rc")], 4.2);
        let text = r.prometheus();
        assert!(text.contains("# TYPE hat_txn_committed_total counter"));
        assert!(text.contains("hat_txn_committed_total{engine=\"rc\"} 5"));
        assert!(text.contains("# TYPE hat_txn_latency_ms summary"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("hat_txn_latency_ms_count{engine=\"rc\"} 1"));
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let mut r = MetricsRegistry::new();
        r.counter_add("c", &[("k", "v")], 1);
        r.gauge_set("g", &[], 0.5);
        r.hist_record("h", &[], 3.0);
        let j = r.to_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"type\":\"counter\""));
        assert!(j.contains("\"type\":\"gauge\""));
        assert!(j.contains("\"type\":\"histogram\""));
        // Deterministic: same registry, same bytes.
        assert_eq!(j, r.to_json());
    }
}
