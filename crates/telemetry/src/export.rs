//! Byte-stable JSON exporters.
//!
//! Both exporters are hand-rolled string builders: the workspace carries no
//! JSON dependency, and writing the bytes ourselves is what guarantees the
//! "same seed ⇒ same bytes" contract. Every number emitted is an integer or
//! a fixed-point decimal derived from integer nanoseconds; map-like output
//! always follows `BTreeMap` order.

use std::fmt::Write;

use crate::recorder::{ArgValue, Args, EventRec, Inner};

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Formats virtual nanoseconds as the microsecond timestamps Chrome's
/// `trace_event` format expects, with fixed three-digit sub-microsecond
/// precision (`1234567 ns` → `"1234.567"`).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn args_into(out: &mut String, args: &Args) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":");
        match v {
            ArgValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::I64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// Serializes the event log as a Chrome `trace_event` JSON document.
///
/// Spans become complete (`"ph":"X"`) events and instants become
/// thread-scoped instant (`"ph":"i"`) events; the recorder's `track` is the
/// `tid`, so each operation (or flow, node, repair job) renders as its own
/// row and child phases nest by containment. The document loads in
/// `chrome://tracing` and Perfetto.
pub(crate) fn chrome_trace_json(inner: &Inner) -> String {
    let mut out = String::with_capacity(256 + inner.events.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"cloud4home\"}}",
    );
    for ev in &inner.events {
        out.push_str(",\n");
        match ev {
            EventRec::Span(s) => {
                out.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":");
                let _ = write!(out, "{}", s.track);
                out.push_str(",\"cat\":\"");
                escape_into(&mut out, s.cat);
                out.push_str("\",\"name\":\"");
                escape_into(&mut out, &s.name);
                out.push_str("\",\"ts\":");
                out.push_str(&micros(s.start_ns));
                out.push_str(",\"dur\":");
                out.push_str(&micros(s.end_ns.saturating_sub(s.start_ns)));
                out.push_str(",\"args\":");
                args_into(&mut out, &s.args);
                out.push('}');
            }
            EventRec::Instant(i) => {
                out.push_str("{\"ph\":\"i\",\"pid\":1,\"tid\":");
                let _ = write!(out, "{}", i.track);
                out.push_str(",\"cat\":\"");
                escape_into(&mut out, i.cat);
                out.push_str("\",\"name\":\"");
                escape_into(&mut out, &i.name);
                out.push_str("\",\"ts\":");
                out.push_str(&micros(i.ts_ns));
                out.push_str(",\"s\":\"t\",\"args\":");
                args_into(&mut out, &i.args);
                out.push('}');
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Serializes counters and histograms as a flat JSON document with one
/// entry per line, sorted by name.
pub(crate) fn metrics_json(inner: &Inner) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\n\"counters\":{");
    for (i, (name, value)) in inner.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push('"');
        escape_into(&mut out, name);
        let _ = write!(out, "\":{value}");
    }
    out.push_str("\n},\n\"histograms\":{");
    for (i, (name, h)) in inner.hists.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push('"');
        escape_into(&mut out, name);
        let _ = write!(
            out,
            "\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            h.count, h.sum, h.min, h.max
        );
        for (j, (bound, n)) in h.buckets().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{bound},{n}]");
        }
        out.push_str("]}");
    }
    out.push_str("\n}\n}\n");
    out
}

/// Writes `name` as a Prometheus metric name: `c4h_` prefix, every
/// character outside `[a-zA-Z0-9_]` mapped to `_`.
fn prom_name_into(out: &mut String, name: &str) {
    out.push_str("c4h_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
}

/// Serializes counters, the latest gauge values, and histograms in
/// Prometheus text exposition format.
///
/// Counters come first, then gauges (one sample per series: the last
/// point), then histograms with cumulative `_bucket{le="..."}` lines, all
/// in `BTreeMap` name order — the output is byte-stable for a fixed seed.
pub(crate) fn prometheus_text(inner: &Inner) -> String {
    let mut out = String::with_capacity(512);
    for (name, value) in &inner.counters {
        out.push_str("# TYPE ");
        prom_name_into(&mut out, name);
        out.push_str(" counter\n");
        prom_name_into(&mut out, name);
        let _ = write!(out, " {value}");
        if let Some(label) = inner.exemplars.get(name) {
            out.push_str(" # {ledger=\"");
            escape_into(&mut out, label);
            out.push_str("\"}");
        }
        out.push('\n');
    }
    for (name, series) in &inner.series {
        let Some((_, value)) = series.last() else {
            continue;
        };
        out.push_str("# TYPE ");
        prom_name_into(&mut out, name);
        out.push_str(" gauge\n");
        prom_name_into(&mut out, name);
        let _ = writeln!(out, " {value}");
    }
    for (name, h) in &inner.hists {
        out.push_str("# TYPE ");
        prom_name_into(&mut out, name);
        out.push_str(" histogram\n");
        for (bound, cum) in h.cumulative_buckets() {
            prom_name_into(&mut out, name);
            let _ = writeln!(out, "_bucket{{le=\"{bound}\"}} {cum}");
        }
        prom_name_into(&mut out, name);
        let _ = writeln!(out, "_bucket{{le=\"+Inf\"}} {}", h.count);
        prom_name_into(&mut out, name);
        let _ = writeln!(out, "_sum {}", h.sum);
        prom_name_into(&mut out, name);
        let _ = writeln!(out, "_count {}", h.count);
    }
    out
}

/// Serializes every gauge time series as a flat JSON document: one series
/// per line, sorted by name, each an array of `[ts_ns, value]` pairs.
pub(crate) fn series_json(inner: &Inner) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\n\"series\":{");
    for (i, (name, series)) in inner.series.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push('"');
        escape_into(&mut out, name);
        out.push_str("\":[");
        for (j, &(ts, v)) in series.points().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{ts},{v}]");
        }
        out.push(']');
    }
    out.push_str("\n}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use crate::{ArgValue, Recorder};

    fn sample() -> Recorder {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let id = rec.begin_args(
            "op",
            "fetch",
            7,
            1_234_567,
            vec![("object", ArgValue::from("a/b \"c\".bin"))],
        );
        rec.instant("fault", "fault.crash", 0, 2_000_000);
        rec.end_args(id, 3_456_789, vec![("ok", ArgValue::from(true))]);
        rec.add("op.fetch.ok", 1);
        rec.observe("op.fetch.total_us", 2_222);
        rec
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let json = sample().chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        // Fixed-point microsecond timestamps derived from integer nanos.
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"dur\":2222.222"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        // String escaping.
        assert!(json.contains("a/b \\\"c\\\".bin"));
        // Balanced braces/brackets (cheap well-formedness check).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }

    #[test]
    fn metrics_json_is_sorted_and_integer_only() {
        let rec = sample();
        rec.add("a.first", 3);
        let json = rec.metrics_json();
        let a = json.find("a.first").unwrap();
        let b = json.find("op.fetch.ok").unwrap();
        assert!(a < b, "counters must serialize in sorted order");
        assert!(json.contains("\"count\":1,\"sum\":2222,\"min\":2222,\"max\":2222"));
        assert!(
            !json.contains('.') || !json.contains("e-"),
            "no float formatting"
        );
    }

    #[test]
    fn exports_are_reproducible() {
        let a = sample();
        let b = sample();
        assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
        assert_eq!(a.metrics_json(), b.metrics_json());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
        assert_eq!(a.series_json(), b.series_json());
    }

    #[test]
    fn prometheus_text_has_counters_gauges_histograms() {
        let rec = sample();
        rec.gauge("node0.cpu_milli", 500_000_000, 250);
        rec.gauge("node0.cpu_milli", 1_000_000_000, 310);
        let text = rec.prometheus_text();
        assert!(text.contains("# TYPE c4h_op_fetch_ok counter\nc4h_op_fetch_ok 1\n"));
        // Gauges export only the latest point.
        assert!(text.contains("# TYPE c4h_node0_cpu_milli gauge\nc4h_node0_cpu_milli 310\n"));
        assert!(!text.contains("c4h_node0_cpu_milli 250"));
        // Histogram exposition: cumulative buckets, +Inf, sum, count.
        assert!(text.contains("# TYPE c4h_op_fetch_total_us histogram\n"));
        assert!(text.contains("c4h_op_fetch_total_us_bucket{le=\"4095\"} 1\n"));
        assert!(text.contains("c4h_op_fetch_total_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("c4h_op_fetch_total_us_sum 2222\n"));
        assert!(text.contains("c4h_op_fetch_total_us_count 1\n"));
    }

    #[test]
    fn counter_exemplars_render_openmetrics_style() {
        let rec = sample();
        rec.set_exemplar("op.fetch.ok", "op7#3".into());
        rec.set_exemplar("op.fetch.ok", "op9#1".into()); // latest wins
        rec.set_exemplar("absent.counter", "op1#1".into()); // no such counter
        let text = rec.prometheus_text();
        assert!(text.contains("c4h_op_fetch_ok 1 # {ledger=\"op9#1\"}\n"));
        assert!(!text.contains("op7#3"));
        assert!(!text.contains("absent"));
        // Without exemplars the exposition is unchanged.
        assert!(sample().prometheus_text().contains("c4h_op_fetch_ok 1\n"));
    }

    #[test]
    fn series_json_lists_all_points_sorted() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        rec.gauge("b.gauge", 0, 1);
        rec.gauge("a.gauge", 500, -2);
        rec.gauge("b.gauge", 500, 3);
        let json = rec.series_json();
        assert_eq!(
            json,
            "{\n\"series\":{\n\"a.gauge\":[[500,-2]],\n\"b.gauge\":[[0,1],[500,3]]\n}\n}\n"
        );
    }

    #[test]
    fn prometheus_text_neutralizes_hostile_metric_names() {
        // Metric names flow in from user-visible strings (object names, op
        // kinds, node names); none of them may break the exposition format
        // or inject phantom samples/labels.
        let rec = Recorder::new();
        rec.set_enabled(true);
        rec.add("evil{label=\"x\"} 999\nfake_metric 1", 7);
        rec.add("newline\nc4h_phantom 42", 1);
        rec.add("spaced out name", 2);
        rec.add("unicode-Ω☃", 3);
        rec.gauge("gauge\"quote", 1_000, -5);
        rec.observe("hist{le=\"+Inf\"} 0", 11);
        let text = rec.prometheus_text();

        // Every line is either a TYPE comment or a sample whose name is
        // `c4h_` followed strictly by [A-Za-z0-9_]; the only brace pair
        // allowed is the histogram's own `_bucket{le="..."}`.
        for line in text.lines() {
            let sample = line.strip_prefix("# TYPE ").unwrap_or(line);
            assert!(
                sample.starts_with("c4h_"),
                "unprefixed exposition line: {line:?}"
            );
            let name_end = sample
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(sample.len());
            let rest = &sample[name_end..];
            assert!(
                rest.starts_with(' ') || rest.starts_with("{le=\""),
                "metric name must stop at a space or its own le label: {line:?}"
            );
        }
        // The injection attempts are flattened into the metric name, not
        // parsed as exposition syntax.
        assert!(text.contains("c4h_evil_label__x___999_fake_metric_1 7\n"));
        assert!(text.contains("c4h_newline_c4h_phantom_42 1\n"));
        assert!(!text.contains("fake_metric 1\n"));
        assert!(!text.contains("\nc4h_phantom 42"));
        assert!(text.contains("c4h_spaced_out_name 2\n"));
        // Each non-ASCII scalar collapses to one underscore.
        assert!(text.contains("c4h_unicode___ 3\n"));
        assert!(text.contains("c4h_gauge_quote -5\n"));
        // The hostile histogram name cannot forge bucket/label syntax: its
        // own buckets still parse, under the flattened name.
        assert!(text.contains("# TYPE c4h_hist_le___Inf___0 histogram\n"));
        assert!(text.contains("c4h_hist_le___Inf___0_count 1\n"));
        assert!(!text.contains("c4h_hist{"));
    }

    #[test]
    fn empty_recorder_exports_are_well_formed() {
        let rec = Recorder::new();
        let trace = rec.chrome_trace_json();
        assert!(trace.contains("process_name"));
        let metrics = rec.metrics_json();
        assert!(metrics.contains("\"counters\":{"));
        assert!(metrics.contains("\"histograms\":{"));
    }
}
