//! Point-in-time, order-stable view of a registry (or a hand-built
//! deterministic fold). `MetricsSnapshot` derives `Eq` so equivalence suites
//! can pin the deterministic plane bit-identical across backends and job
//! counts.

use std::collections::BTreeMap;

use crate::hist::HistogramSnapshot;

/// Immutable metrics view: counters, gauges, and histograms keyed by full
/// metric name (labels embedded via [`labeled`]). `BTreeMap` keeps iteration —
/// and therefore every rendering — in stable lexicographic order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Add to a counter (creating it at zero first).
    pub fn add_counter(&mut self, name: impl Into<String>, delta: u64) {
        *self.counters.entry(name.into()).or_insert(0) += delta;
    }

    /// Set a gauge to an absolute value.
    pub fn set_gauge(&mut self, name: impl Into<String>, value: i64) {
        self.gauges.insert(name.into(), value);
    }

    /// Record one observation into a named histogram.
    pub fn record(&mut self, name: impl Into<String>, value: u64) {
        self.histograms
            .entry(name.into())
            .or_default()
            .record(value);
    }

    /// Left-biased union: entries absent from `self` are copied from
    /// `other`; entries `self` already has are kept untouched. Used to
    /// overlay the deterministic plane under a live wall-plane snapshot —
    /// metrics the live registry tracked (same names, same deterministic
    /// values) are not double counted.
    pub fn merge_missing(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            self.counters.entry(name.clone()).or_insert(*v);
        }
        for (name, v) in &other.gauges {
            self.gauges.entry(name.clone()).or_insert(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_insert_with(|| h.clone());
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

/// Build a full metric name with labels in stable (given) order:
/// `labeled("opr_grants_total", &[("shard", "2")])` → `opr_grants_total{shard="2"}`.
///
/// Callers pass labels already sorted by key; the function preserves order so
/// the rendered exposition is reproducible byte-for-byte.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

/// Split a full metric name into `(base, label_block)` where `label_block`
/// includes the braces (empty when the name carries no labels).
pub(crate) fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_builds_stable_names() {
        assert_eq!(labeled("x_total", &[]), "x_total");
        assert_eq!(
            labeled("x_total", &[("a", "1"), ("b", "two")]),
            "x_total{a=\"1\",b=\"two\"}"
        );
        assert_eq!(split_labels("x_total{a=\"1\"}"), ("x_total", "{a=\"1\"}"));
        assert_eq!(split_labels("plain"), ("plain", ""));
    }

    #[test]
    fn merge_missing_is_left_biased() {
        let mut live = MetricsSnapshot::default();
        live.add_counter("shared_total", 7);
        let mut det = MetricsSnapshot::default();
        det.add_counter("shared_total", 7);
        det.add_counter("det_only_total", 3);
        det.record("det_hist", 1);
        live.merge_missing(&det);
        assert_eq!(live.counter("shared_total"), 7, "not doubled");
        assert_eq!(live.counter("det_only_total"), 3);
        assert_eq!(live.histogram("det_hist").unwrap().count, 1);
    }
}
