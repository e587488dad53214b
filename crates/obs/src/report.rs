//! Export formats for a [`Recorder`]'s registry: a human-readable
//! run-report table, Chrome trace-event JSON, and a Prometheus-style
//! text dump.

use crate::audit::audit_summary;
use crate::hist::Histogram;
use crate::recorder::Recorder;

/// Render the per-run phase breakdown: one row per span (sorted by
/// total time, descending) with count, total, self-time, and the
/// p50/p95/max of per-completion durations, followed by counters and
/// value histograms. Returns a placeholder line when the recorder is
/// off or empty.
pub fn run_report(rec: &Recorder) -> String {
    let dropped = rec.dropped_events();
    let Some(out) = rec.with_registry(|reg| {
        let mut rows: Vec<(String, crate::recorder::SpanStats)> = Vec::new();
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut hists: Vec<(String, Histogram)> = Vec::new();
        for name in reg.sorted_names() {
            if let Some(st) = reg.span_by_name(&name) {
                rows.push((name.clone(), st));
            }
            let c = reg.counter_by_name(&name);
            if c > 0 {
                counters.push((name.clone(), c));
            }
            if let Some(h) = reg.hist_by_name(&name) {
                hists.push((name, h));
            }
        }
        rows.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(&b.0)));

        let mut s = String::new();
        s.push_str("== run report ==\n");
        if rows.is_empty()
            && counters.is_empty()
            && hists.is_empty()
            && reg.slos.is_empty()
            && reg.audit.is_empty()
        {
            s.push_str("(no samples recorded)\n");
            return s;
        }
        if !rows.is_empty() {
            s.push_str(&format!(
                "{:<28} {:>8} {:>12} {:>12} {:>9} {:>9} {:>9}\n",
                "span", "count", "total(ms)", "self(ms)", "p50(us)", "p95(us)", "max(us)"
            ));
            for (name, st) in &rows {
                s.push_str(&format!(
                    "{:<28} {:>8} {:>12.3} {:>12.3} {:>9} {:>9} {:>9}\n",
                    name,
                    st.count,
                    st.total_us as f64 / 1e3,
                    st.self_us as f64 / 1e3,
                    st.hist.p50(),
                    st.hist.p95(),
                    st.max_us
                ));
            }
        }
        if dropped > 0 {
            s.push_str(&format!(
                "trace buffer full: {dropped} span events dropped from the trace export \
                 (the table counts them)\n"
            ));
        }
        if !counters.is_empty() {
            s.push_str("\ncounters:\n");
            for (name, v) in &counters {
                s.push_str(&format!("  {name:<34} {v}\n"));
            }
        }
        if !hists.is_empty() {
            s.push_str("\nhistograms:\n");
            s.push_str(&format!(
                "  {:<28} {:>8} {:>10} {:>9} {:>9} {:>9}\n",
                "name", "count", "mean", "p50", "p95", "max"
            ));
            for (name, h) in &hists {
                s.push_str(&format!(
                    "  {:<28} {:>8} {:>10.1} {:>9} {:>9} {:>9}\n",
                    name,
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.max()
                ));
            }
        }
        if !reg.slos.is_empty() {
            s.push_str("\nper-app SLO compliance:\n");
            s.push_str(&format!(
                "  {:<16} {:>7} {:>7} {:>11} {:>6} {:>7} {:>12}  {}\n",
                "app",
                "cycles",
                "viol",
                "compliance",
                "burn",
                "worstW",
                "deficit(MHz)",
                "attribution (outage/route/stale/budget/overcommit/capacity MHz)"
            ));
            for (name, t) in &reg.slos {
                let a = t.attribution();
                s.push_str(&format!(
                    "  {:<16} {:>7} {:>7} {:>10.1}% {:>6.2} {:>7} {:>12.1}  {:.1}/{:.1}/{:.1}/{:.1}/{:.1}/{:.1}\n",
                    name,
                    t.cycles(),
                    t.violations(),
                    t.compliance() * 100.0,
                    t.burn_rate(),
                    t.worst_window(),
                    t.total_deficit_mhz(),
                    a.outage_mhz,
                    a.routing_mhz,
                    a.staleness_mhz,
                    a.budget_mhz,
                    a.overcommit_mhz,
                    a.capacity_mhz,
                ));
            }
        }
        if !reg.audit.is_empty() || reg.audit_dropped > 0 {
            s.push_str(&format!(
                "\naudit log: {} decisions ({} dropped)\n",
                reg.audit.len(),
                reg.audit_dropped
            ));
            s.push_str(&format!(
                "  {:<22} {:<22} {:>8}\n",
                "step", "reason", "count"
            ));
            for (step, reason, count) in audit_summary(&reg.audit) {
                s.push_str(&format!("  {step:<22} {reason:<22} {count:>8}\n"));
            }
        }
        s
    }) else {
        return "== run report ==\n(observability disabled)\n".to_string();
    };
    out
}

/// Render the buffered spans as Chrome trace-event JSON
/// (`{"traceEvents": […]}`) — loadable in `chrome://tracing` or
/// Perfetto. Every span is a complete event (phase `"X"`, ts + dur) on
/// thread lane 0, the one recording thread. Returns an empty trace when
/// the recorder is off.
pub fn chrome_trace_json(rec: &Recorder) -> String {
    let Some(out) = rec.with_registry(|reg| {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, ev) in reg.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":\"");
            escape_json_into(reg.name(ev.key), &mut s);
            s.push_str("\",\"ph\":\"X\",\"ts\":");
            s.push_str(&ev.ts_us.to_string());
            s.push_str(",\"dur\":");
            s.push_str(&ev.dur_us.to_string());
            s.push_str(",\"pid\":1,\"tid\":0}");
        }
        s.push_str("]}");
        s
    }) else {
        return "{\"traceEvents\":[]}".to_string();
    };
    out
}

/// Render counters and histograms (including span-duration histograms,
/// suffixed `_us`) in the Prometheus text exposition format. Names are
/// sanitized (`.` and other non-identifier characters become `_`).
pub fn prometheus_text(rec: &Recorder) -> String {
    let Some(out) = rec.with_registry(|reg| {
        let mut s = String::new();
        for name in reg.sorted_names() {
            let metric = sanitize(&name);
            let c = reg.counter_by_name(&name);
            if c > 0 {
                s.push_str(&format!("# TYPE {metric} counter\n{metric} {c}\n"));
            }
            if let Some(h) = reg.hist_by_name(&name) {
                push_prom_hist(&mut s, &metric, &h);
            }
            if let Some(st) = reg.span_by_name(&name) {
                push_prom_hist(&mut s, &format!("{metric}_us"), &st.hist);
            }
        }
        s
    }) else {
        return String::new();
    };
    out
}

fn push_prom_hist(s: &mut String, metric: &str, h: &Histogram) {
    s.push_str(&format!("# TYPE {metric} histogram\n"));
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        let le = if i >= crate::hist::BUCKETS - 1 {
            "+Inf".to_string()
        } else {
            fmt_f64((Histogram::bucket_upper(i) - 1) as f64)
        };
        s.push_str(&format!("{metric}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    s.push_str(&format!("{metric}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    s.push_str(&format!("{metric}_sum {}\n", h.sum()));
    s.push_str(&format!("{metric}_count {}\n", h.count()));
}

/// Format an `f64` the way the Prometheus export needs: integral values
/// without a trailing `.0` explosion, non-finite values as `null`.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn escape_json_into(raw: &str, out: &mut String) {
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_spans_counters_hists() {
        let r = Recorder::enabled();
        let s = r.key("solve");
        {
            let _g = r.span(s);
        }
        r.count(r.key("hits"), 3);
        r.observe(r.key("dirty"), 8);
        let report = run_report(&r);
        assert!(report.contains("solve"));
        assert!(report.contains("hits"));
        assert!(report.contains("dirty"));
        assert!(report.contains("p95(us)"));
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let r = Recorder::enabled();
        let k = r.key("cycle");
        {
            let _g = r.span(k);
        }
        let json = chrome_trace_json(&r);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"cycle\""));
    }

    #[test]
    fn off_recorder_exports_empty() {
        let r = Recorder::off();
        assert_eq!(chrome_trace_json(&r), "{\"traceEvents\":[]}");
        assert!(run_report(&r).contains("disabled"));
        assert!(prometheus_text(&r).is_empty());
    }

    #[test]
    fn prometheus_dump_has_buckets() {
        let r = Recorder::enabled();
        r.observe(r.key("delta.dirty"), 4);
        r.observe(r.key("delta.dirty"), 4);
        r.count(r.key("delta.hits"), 7);
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE delta_dirty histogram"));
        assert!(text.contains("delta_dirty_count 2"));
        assert!(text.contains("delta_dirty_sum 8"));
        assert!(text.contains("delta_hits 7"));
        assert!(text.contains("le=\"+Inf\""));
    }
}
