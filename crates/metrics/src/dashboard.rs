//! Compact ANSI terminal dashboard for a metrics snapshot.
//!
//! One screenful: counters and gauges in two columns, histograms as a
//! p50/p95/max line plus a log-scale sparkline over non-empty buckets.
//! Colour is plain ANSI (no terminfo); pass `color = false` for log files.

use crate::hist::HistogramSnapshot;
use crate::snapshot::MetricsSnapshot;

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(hist: &HistogramSnapshot) -> String {
    let top = match hist.max_bucket() {
        Some(t) => t,
        None => return String::new(),
    };
    let lo = hist.buckets[..=top]
        .iter()
        .position(|&c| c > 0)
        .unwrap_or(0);
    let max = hist.buckets[lo..=top]
        .iter()
        .copied()
        .max()
        .max(Some(1))
        .unwrap();
    hist.buckets[lo..=top]
        .iter()
        .map(|&c| {
            if c == 0 {
                ' '
            } else {
                BARS[((c * (BARS.len() as u64 - 1)) / max) as usize]
            }
        })
        .collect()
}

fn paint(s: &str, code: &str, color: bool) -> String {
    if color {
        format!("\x1b[{code}m{s}\x1b[0m")
    } else {
        s.to_string()
    }
}

/// Render the snapshot as a compact dashboard. `title` heads the block.
pub fn render_dashboard(title: &str, snap: &MetricsSnapshot, color: bool) -> String {
    let mut out = String::new();
    out.push_str(&paint(&format!("── {title} "), "1;36", color));
    out.push_str(&"─".repeat(40usize.saturating_sub(title.len().min(40))));
    out.push('\n');

    if !snap.counters.is_empty() {
        out.push_str(&paint("counters", "1", color));
        out.push('\n');
        for (name, v) in &snap.counters {
            out.push_str(&format!("  {name:<44} {v:>12}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str(&paint("gauges", "1", color));
        out.push('\n');
        for (name, v) in &snap.gauges {
            out.push_str(&format!("  {name:<44} {v:>12}\n"));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str(&paint("histograms", "1", color));
        out.push('\n');
        for (name, h) in &snap.histograms {
            let mean = h.sum.checked_div(h.count).unwrap_or(0);
            out.push_str(&format!(
                "  {name:<32} n={:<8} mean≈{:<10} p50≤{:<10} p95≤{:<10} {}\n",
                h.count,
                mean,
                h.quantile_bound(0.50),
                h.quantile_bound(0.95),
                paint(&sparkline(h), "32", color),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dashboard_mentions_every_metric() {
        let mut s = MetricsSnapshot::default();
        s.add_counter("c_total", 7);
        s.set_gauge("depth", 3);
        for v in [1u64, 2, 2, 9, 300] {
            s.record("lat_us", v);
        }
        let plain = render_dashboard("svc", &s, false);
        assert!(plain.contains("c_total"));
        assert!(plain.contains("depth"));
        assert!(plain.contains("lat_us"));
        assert!(!plain.contains('\x1b'));
        let ansi = render_dashboard("svc", &s, true);
        assert!(ansi.contains('\x1b'));
    }
}
