//! Hand-rolled Prometheus text exposition (format 0.0.4).
//!
//! Output is byte-stable for a given snapshot: metrics render in lexicographic
//! name order (the snapshot's `BTreeMap` order), `# TYPE` lines appear once
//! per base name, histogram buckets are cumulative with power-of-two `le`
//! bounds, and labels keep the order they were embedded with.

use crate::hist::bucket_bound_label;
use crate::snapshot::{split_labels, MetricsSnapshot};

fn push_type_line(out: &mut String, seen: &mut Option<String>, base: &str, kind: &str) {
    if seen.as_deref() != Some(base) {
        out.push_str("# TYPE ");
        out.push_str(base);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
        *seen = Some(base.to_string());
    }
}

/// Render a snapshot as Prometheus text exposition.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut seen: Option<String> = None;

    for (name, value) in &snap.counters {
        let (base, _) = split_labels(name);
        push_type_line(&mut out, &mut seen, base, "counter");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }

    seen = None;
    for (name, value) in &snap.gauges {
        let (base, _) = split_labels(name);
        push_type_line(&mut out, &mut seen, base, "gauge");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }

    seen = None;
    for (name, hist) in &snap.histograms {
        let (base, labels) = split_labels(name);
        push_type_line(&mut out, &mut seen, base, "histogram");
        let inner = labels.trim_start_matches('{').trim_end_matches('}');
        let mut cumulative = 0u64;
        let top = hist.max_bucket().unwrap_or(0);
        for k in 0..=top {
            cumulative += hist.buckets[k];
            out.push_str(base);
            out.push_str("_bucket{");
            if !inner.is_empty() {
                out.push_str(inner);
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(&bucket_bound_label(k));
            out.push_str("\"} ");
            out.push_str(&cumulative.to_string());
            out.push('\n');
        }
        out.push_str(base);
        out.push_str("_bucket{");
        if !inner.is_empty() {
            out.push_str(inner);
            out.push(',');
        }
        out.push_str("le=\"+Inf\"} ");
        out.push_str(&hist.count.to_string());
        out.push('\n');
        out.push_str(base);
        out.push_str("_sum");
        out.push_str(labels);
        out.push(' ');
        out.push_str(&hist.sum.to_string());
        out.push('\n');
        out.push_str(base);
        out.push_str("_count");
        out.push_str(labels);
        out.push(' ');
        out.push_str(&hist.count.to_string());
        out.push('\n');
    }

    out
}

/// Cheap structural validation of an exposition document: every non-comment,
/// non-empty line must be `name[{labels}] <integer>`. Returns the first bad
/// line on failure. Used by tests and the `--metrics` smoke path.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value separator: {line}"))?;
        if value.parse::<i128>().is_err() {
            return Err(format!("non-integer value: {line}"));
        }
        let base = match name.find('{') {
            Some(i) => {
                if !name.ends_with('}') {
                    return Err(format!("unterminated label block: {line}"));
                }
                &name[..i]
            }
            None => name,
        };
        if base.is_empty()
            || !base
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("bad metric name: {line}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_gauges_histograms() {
        let mut s = MetricsSnapshot::default();
        s.add_counter("a_total", 3);
        s.add_counter("a_total{shard=\"1\"}", 2);
        s.set_gauge("depth", -4);
        s.record("lat", 1);
        s.record("lat", 3);
        s.record("lat", 3);
        let text = render_prometheus(&s);
        assert!(text.contains("# TYPE a_total counter\n"));
        assert!(text.contains("a_total 3\n"));
        assert!(text.contains("a_total{shard=\"1\"} 2\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth -4\n"));
        assert!(text.contains("lat_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"4\"} 3\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_sum 7\n"));
        assert!(text.contains("lat_count 3\n"));
        validate_prometheus(&text).unwrap();
    }

    #[test]
    fn type_line_emitted_once_per_base() {
        let mut s = MetricsSnapshot::default();
        s.add_counter("x_total{shard=\"0\"}", 1);
        s.add_counter("x_total{shard=\"1\"}", 1);
        let text = render_prometheus(&s);
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1);
    }

    #[test]
    fn validation_rejects_garbage() {
        assert!(validate_prometheus("ok_total 3\n").is_ok());
        assert!(validate_prometheus("bad line here\n").is_err());
        assert!(validate_prometheus("name{oops 3\n").is_err());
    }
}
