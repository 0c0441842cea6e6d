//! The three exporters: JSON-lines event log, aggregated span tree
//! ("text flamegraph"), and Prometheus-style text exposition.
//!
//! All three are **total**: they never panic, whatever the snapshot
//! holds — adversarial metric names (control characters, non-ASCII,
//! empty strings), mis-nested or unclosed spans, and out-of-range
//! parent indices all render to something well-formed. Reproducibility
//! matters as much as totality: output depends only on the snapshot,
//! so a virtual-clock run exports byte-identical artifacts.

use crate::registry::{EventKind, Histogram, Snapshot, HIST_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` as the body of a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Replaces control characters for fixed-width text output.
fn display_name(s: &str) -> String {
    if s.is_empty() {
        return "<unnamed>".to_owned();
    }
    s.chars().map(|c| if (c as u32) < 0x20 { '\u{fffd}' } else { c }).collect()
}

/// Renders `ns` as a short human duration (`950ns`, `12.3us`, `4.56ms`, `1.23s`).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// JSON-lines event log: one JSON object per line — every retained
/// event in order, then counter and histogram summaries, then a
/// trailer recording drop counts. Every line is a complete JSON object.
pub fn export_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for ev in &snap.events {
        match ev.kind {
            EventKind::Point => {
                let _ = writeln!(
                    out,
                    "{{\"at_ns\":{},\"kind\":\"point\",\"name\":\"{}\",\"detail\":\"{}\"}}",
                    ev.at_ns,
                    json_escape(&ev.name),
                    json_escape(&ev.detail)
                );
            }
            kind => {
                let _ = writeln!(
                    out,
                    "{{\"at_ns\":{},\"kind\":\"{}\",\"name\":\"{}\"}}",
                    ev.at_ns,
                    kind.label(),
                    json_escape(&ev.name)
                );
            }
        }
    }
    for (name, value) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            json_escape(name),
            value
        );
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{{\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{}}}",
            json_escape(name),
            h.sample_count(),
            h.sample_sum()
        );
    }
    let _ = writeln!(
        out,
        "{{\"kind\":\"trailer\",\"at_ns\":{},\"spans\":{},\"dropped_spans\":{},\"dropped_events\":{}}}",
        snap.at_ns,
        snap.spans.len(),
        snap.dropped_spans,
        snap.dropped_events
    );
    out
}

#[derive(Default, Clone)]
struct PathAgg {
    count: u64,
    total_ns: u64,
    open: u64,
}

/// Aggregated span tree: spans sharing the same root-to-leaf name path
/// are folded into one row with a call count and total duration —
/// a text flamegraph. Spans still open at snapshot time are charged up
/// to the snapshot clock and flagged with `open=N`.
pub fn export_span_tree(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# span tree: {} span(s), {} dropped",
        snap.spans.len(),
        snap.dropped_spans
    );
    if snap.spans.is_empty() {
        let _ = writeln!(out, "(no spans recorded)");
        return out;
    }
    // Name-path per span; a parent index that is not strictly earlier
    // is treated as "no parent" so corrupt input cannot cycle.
    let mut paths: Vec<Vec<String>> = Vec::with_capacity(snap.spans.len());
    for (i, s) in snap.spans.iter().enumerate() {
        let mut path = match s.parent {
            Some(p) if p < i => paths.get(p).cloned().unwrap_or_default(),
            _ => Vec::new(),
        };
        path.push(display_name(&s.name));
        paths.push(path);
    }
    let mut agg: BTreeMap<Vec<String>, PathAgg> = BTreeMap::new();
    for (s, path) in snap.spans.iter().zip(&paths) {
        let slot = agg.entry(path.clone()).or_default();
        slot.count = slot.count.saturating_add(1);
        let end = s.end_ns.unwrap_or(snap.at_ns);
        slot.total_ns = slot.total_ns.saturating_add(end.saturating_sub(s.start_ns));
        if s.end_ns.is_none() {
            slot.open = slot.open.saturating_add(1);
        }
    }
    for (path, a) in &agg {
        let depth = path.len().saturating_sub(1);
        let name = path.last().map(String::as_str).unwrap_or("<unnamed>");
        let indent = "  ".repeat(depth.min(64));
        let open = if a.open > 0 { format!("  open={}", a.open) } else { String::new() };
        let _ = writeln!(
            out,
            "{indent}{name}  count={}  total={}{open}",
            a.count,
            fmt_ns(a.total_ns)
        );
    }
    out
}

/// Maps `name` onto the Prometheus metric-name alphabet
/// (`[a-zA-Z0-9_:]`, not starting with a digit).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Prometheus-style text exposition of counters and histograms, plus
/// the registry's own meta-counters. Metric names are sanitized onto
/// the Prometheus alphabet; distinct raw names that collide after
/// sanitization are merged.
pub fn export_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for (name, value) in &snap.counters {
        let key = prom_name(name);
        let slot = counters.entry(key).or_insert(0);
        *slot = slot.saturating_add(*value);
    }
    for (name, value) in &counters {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
    }
    let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
    for (name, h) in &snap.histograms {
        let key = prom_name(name);
        match hists.get_mut(&key) {
            Some(existing) => existing.merge(h),
            None => {
                hists.insert(key, h.clone());
            }
        }
    }
    for (name, h) in &hists {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let counts = h.bucket_counts();
        let last_nonempty = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut cumulative: u64 = 0;
        // The top bucket (index 64) is covered by the +Inf line below.
        for (i, &c) in counts.iter().enumerate().take((last_nonempty + 1).min(HIST_BUCKETS - 1)) {
            cumulative = cumulative.saturating_add(c);
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                Histogram::upper_bound(i)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.sample_count());
        let _ = writeln!(out, "{name}_sum {}", h.sample_sum());
        let _ = writeln!(out, "{name}_count {}", h.sample_count());
    }
    let _ = writeln!(out, "# TYPE obs_spans_total counter\nobs_spans_total {}", snap.spans.len());
    let _ = writeln!(
        out,
        "# TYPE obs_spans_dropped_total counter\nobs_spans_dropped_total {}",
        snap.dropped_spans
    );
    let _ = writeln!(
        out,
        "# TYPE obs_events_dropped_total counter\nobs_events_dropped_total {}",
        snap.dropped_events
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new_virtual();
        reg.set_virtual_ms(1);
        let a = reg.begin_span("epoch");
        reg.set_virtual_ms(2);
        let b = reg.begin_span("verify");
        reg.counter_add("hits", 3);
        reg.observe("latency_ms", 5);
        reg.point("phase", "settle");
        reg.set_virtual_ms(4);
        reg.end_span(b);
        reg.end_span(a);
        let c = reg.begin_span("unclosed");
        let _ = c;
        reg.set_virtual_ms(6);
        reg.snapshot()
    }

    #[test]
    fn jsonl_lines_are_objects_and_balanced() {
        let text = export_jsonl(&sample());
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(text.contains("\"kind\":\"span_open\",\"name\":\"epoch\""));
        assert!(text.contains("\"kind\":\"counter\",\"name\":\"hits\",\"value\":3"));
        assert!(text.contains("\"kind\":\"trailer\""));
    }

    #[test]
    fn jsonl_escapes_adversarial_names() {
        let reg = Registry::new_virtual();
        reg.counter_add("quote\" slash\\ ctrl\u{1} nl\n", 1);
        let text = export_jsonl(&reg.snapshot());
        assert!(text.contains("quote\\\" slash\\\\ ctrl\\u0001 nl\\n"));
    }

    #[test]
    fn span_tree_nests_and_flags_open_spans() {
        let text = export_span_tree(&sample());
        assert!(text.contains("epoch  count=1  total=3.00ms"));
        assert!(text.contains("  verify  count=1  total=2.00ms"));
        assert!(text.contains("unclosed  count=1  total=2.00ms  open=1"));
    }

    #[test]
    fn span_tree_handles_empty_and_corrupt_parents() {
        let reg = Registry::new_virtual();
        assert!(export_span_tree(&reg.snapshot()).contains("(no spans recorded)"));
        let mut snap = sample();
        snap.spans[0].parent = Some(999); // out of range → treated as root
        let _ = export_span_tree(&snap);
        snap.spans[2].parent = Some(2); // self-parent → treated as root
        let _ = export_span_tree(&snap);
    }

    #[test]
    fn prometheus_sanitizes_and_exposes_histograms() {
        let text = export_prometheus(&sample());
        assert!(text.contains("# TYPE hits counter\nhits 3"));
        assert!(text.contains("# TYPE latency_ms histogram"));
        assert!(text.contains("latency_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("latency_ms_sum 5"));
        assert!(text.contains("obs_spans_total 3"));

        let reg = Registry::new_virtual();
        reg.counter_add("9 weird·name", 1);
        reg.counter_add("", 2);
        let t = export_prometheus(&reg.snapshot());
        assert!(t.contains("_9_weird_name 1"), "got:\n{t}");
        assert!(t.contains("\n_ 2"));
    }
}
