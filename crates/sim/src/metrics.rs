//! Time-series metrics collection and CSV export.

use serde::{Deserialize, Serialize, Value};
use slaq_types::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Handle to one series inside a [`MetricsSink`], obtained from
/// [`MetricsSink::intern`]. Recording through a key skips the name
/// lookup entirely — no hashing, no `String` allocation.
///
/// A key is only valid for the sink that interned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricKey(usize);

/// Named time series accumulated during a run.
///
/// Both the simulator (mechanical facts: allocations, response times,
/// completions) and the controller (model-side quantities: hypothetical
/// utility, demands, water level) write here; the experiment harness reads
/// series out to regenerate the paper's figures.
///
/// Storage is an interned index (`name → slot`) over dense point
/// vectors, so the per-cycle hot path — callers that hold a
/// [`MetricKey`] — is a single `Vec` push.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    index: BTreeMap<String, usize>,
    points: Vec<Vec<(f64, f64)>>,
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning a [`MetricKey`] for allocation-free
    /// recording. Idempotent: interning the same name twice returns the
    /// same key.
    pub fn intern(&mut self, name: &str) -> MetricKey {
        if let Some(&ix) = self.index.get(name) {
            return MetricKey(ix);
        }
        let ix = self.points.len();
        self.index.insert(name.to_string(), ix);
        self.points.push(Vec::new());
        MetricKey(ix)
    }

    /// Append `(t, value)` to the series behind `key` — the interned
    /// fast path: one bounds-checked index plus a `Vec` push.
    #[inline]
    pub fn record_key(&mut self, key: MetricKey, t: SimTime, value: f64) {
        self.points[key.0].push((t.as_secs(), value));
    }

    /// Append `(t, value)` to series `name` (created on first use).
    /// Allocates only when the series does not exist yet.
    pub fn record(&mut self, name: &str, t: SimTime, value: f64) {
        match self.index.get(name) {
            Some(&ix) => self.points[ix].push((t.as_secs(), value)),
            None => {
                let key = self.intern(name);
                self.points[key.0].push((t.as_secs(), value));
            }
        }
    }

    /// All points of one series.
    pub fn series(&self, name: &str) -> &[(f64, f64)] {
        self.index
            .get(name)
            .map(|&ix| self.points[ix].as_slice())
            .unwrap_or(&[])
    }

    /// Names of all series with at least one point, sorted. A name that
    /// was interned but never recorded is not a series yet — interning
    /// keys up-front is unobservable.
    pub fn names(&self) -> Vec<&str> {
        self.index
            .iter()
            .filter(|&(_, &ix)| !self.points[ix].is_empty())
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Last value of a series, if any.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.series(name).last().map(|&(_, v)| v)
    }

    /// Mean of a series over `[from, to]` (`None` when empty there).
    pub fn mean_over(&self, name: &str, from: SimTime, to: SimTime) -> Option<f64> {
        let pts: Vec<f64> = self
            .series(name)
            .iter()
            .filter(|&&(t, _)| t >= from.as_secs() && t <= to.as_secs())
            .map(|&(_, v)| v)
            .collect();
        if pts.is_empty() {
            None
        } else {
            Some(pts.iter().sum::<f64>() / pts.len() as f64)
        }
    }

    /// Minimum of a series over its whole span.
    pub fn min(&self, name: &str) -> Option<f64> {
        self.series(name)
            .iter()
            .map(|&(_, v)| v)
            .min_by(|a, b| slaq_types::fcmp(*a, *b))
    }

    /// Maximum of a series over its whole span.
    pub fn max(&self, name: &str) -> Option<f64> {
        self.series(name)
            .iter()
            .map(|&(_, v)| v)
            .max_by(|a, b| slaq_types::fcmp(*a, *b))
    }

    /// Render the given series as CSV with a shared time column.
    ///
    /// Series are sampled at the union of their timestamps; a series
    /// without a point at some instant carries its previous value forward
    /// (step interpolation — these are control-cycle samples).
    pub fn to_csv(&self, names: &[&str]) -> String {
        let mut times: Vec<f64> = names
            .iter()
            .flat_map(|n| self.series(n).iter().map(|&(t, _)| t))
            .collect();
        times.sort_by(|a, b| slaq_types::fcmp(*a, *b));
        times.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut out = String::new();
        out.push_str("time");
        for n in names {
            let _ = write!(out, ",{n}");
        }
        out.push('\n');
        let mut cursors = vec![0usize; names.len()];
        let mut last = vec![f64::NAN; names.len()];
        for &t in &times {
            let _ = write!(out, "{t}");
            for (i, n) in names.iter().enumerate() {
                let pts = self.series(n);
                while cursors[i] < pts.len() && pts[cursors[i]].0 <= t + 1e-9 {
                    last[i] = pts[cursors[i]].1;
                    cursors[i] += 1;
                }
                if last[i].is_nan() {
                    out.push(',');
                } else {
                    let _ = write!(out, ",{}", last[i]);
                }
            }
            out.push('\n');
        }
        out
    }
}

// Equality is by name → points content over non-empty series; interned
// slot numbers and never-recorded names are internal details (two sinks
// that recorded the same data in a different order, or interned
// different key sets, still compare equal).
impl PartialEq for MetricsSink {
    fn eq(&self, other: &Self) -> bool {
        self.names() == other.names()
            && self
                .index
                .iter()
                .filter(|&(_, &ix)| !self.points[ix].is_empty())
                .all(|(name, &ix)| other.series(name) == self.points[ix].as_slice())
    }
}

impl Serialize for MetricsSink {
    fn to_value(&self) -> Value {
        let map: BTreeMap<&String, &Vec<(f64, f64)>> = self
            .index
            .iter()
            .filter(|&(_, &ix)| !self.points[ix].is_empty())
            .map(|(name, &ix)| (name, &self.points[ix]))
            .collect();
        Value::Obj(vec![("series".to_string(), map.to_value())])
    }
}

impl Deserialize for MetricsSink {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        let map = BTreeMap::<String, Vec<(f64, f64)>>::from_value(serde::obj_get(v, "series")?)?;
        let mut sink = MetricsSink::new();
        for (name, pts) in map {
            let key = sink.intern(&name);
            sink.points[key.0] = pts;
        }
        Ok(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn record_and_read_back() {
        let mut m = MetricsSink::new();
        m.record("u", t(0.0), 0.5);
        m.record("u", t(600.0), 0.7);
        assert_eq!(m.series("u"), &[(0.0, 0.5), (600.0, 0.7)]);
        assert_eq!(m.last("u"), Some(0.7));
        assert_eq!(m.series("missing"), &[] as &[(f64, f64)]);
        assert_eq!(m.names(), vec!["u"]);
    }

    #[test]
    fn interned_key_fast_path_matches_by_name() {
        let mut m = MetricsSink::new();
        let k = m.intern("u");
        m.record_key(k, t(0.0), 0.5);
        m.record("u", t(600.0), 0.7);
        m.record_key(k, t(1200.0), 0.9);
        assert_eq!(m.series("u"), &[(0.0, 0.5), (600.0, 0.7), (1200.0, 0.9)]);
        // Re-interning returns the same key.
        assert_eq!(m.intern("u"), k);
        // Interned-but-unrecorded names are not series yet.
        let _ = m.intern("latent");
        assert_eq!(m.names(), vec!["u"]);
        assert_eq!(m, {
            let mut n = MetricsSink::new();
            n.record("u", t(0.0), 0.5);
            n.record("u", t(600.0), 0.7);
            n.record("u", t(1200.0), 0.9);
            n
        });
    }

    #[test]
    fn equality_ignores_interning_order() {
        let mut a = MetricsSink::new();
        a.record("x", t(0.0), 1.0);
        a.record("y", t(0.0), 2.0);
        let mut b = MetricsSink::new();
        b.record("y", t(0.0), 2.0);
        b.record("x", t(0.0), 1.0);
        assert_eq!(a, b);
        b.record("x", t(1.0), 3.0);
        assert_ne!(a, b);
    }

    #[test]
    fn serde_round_trip() {
        let mut m = MetricsSink::new();
        m.record("u", t(0.0), 0.5);
        m.record("v", t(600.0), 1.5);
        // Interned but never recorded: not in the JSON either.
        let _ = m.intern("latent");
        let back = MetricsSink::from_value(&m.to_value()).unwrap();
        assert_eq!(m, back);
        assert!(!format!("{:?}", m.to_value()).contains("latent"));
    }

    #[test]
    fn aggregations() {
        let mut m = MetricsSink::new();
        for (i, v) in [1.0, 3.0, 5.0, 7.0].iter().enumerate() {
            m.record("x", t(i as f64 * 100.0), *v);
        }
        assert_eq!(m.mean_over("x", t(0.0), t(300.0)), Some(4.0));
        assert_eq!(m.mean_over("x", t(100.0), t(200.0)), Some(4.0));
        assert_eq!(m.mean_over("x", t(1000.0), t(2000.0)), None);
        assert_eq!(m.min("x"), Some(1.0));
        assert_eq!(m.max("x"), Some(7.0));
    }

    #[test]
    fn csv_aligns_series_with_step_interpolation() {
        let mut m = MetricsSink::new();
        m.record("a", t(0.0), 1.0);
        m.record("a", t(200.0), 2.0);
        m.record("b", t(100.0), 10.0);
        let csv = m.to_csv(&["a", "b"]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,a,b");
        assert_eq!(lines[1], "0,1,");
        assert_eq!(lines[2], "100,1,10");
        assert_eq!(lines[3], "200,2,10");
    }

    #[test]
    fn csv_of_missing_series_is_header_only() {
        let m = MetricsSink::new();
        assert_eq!(m.to_csv(&["nope"]), "time,nope\n");
    }
}
