//! The [`Recorder`] handle: interned-key spans, counters, and
//! histograms behind a zero-cost-when-off enum.
//!
//! A `Recorder` is either `Off` (the default — every call is a single
//! branch on the discriminant and returns immediately) or `On`, holding
//! an `Arc` to a mutex-guarded registry. Handles clone cheaply, so each
//! component keeps its own copy plus a small struct of pre-interned
//! [`Key`]s; the hot path never touches a string.
//!
//! Spans nest on the registry's one stack, shared by every clone:
//! opening a span pushes a frame, closing it pops the frame, charges
//! the duration to the parent frame's child time, and folds the sample
//! into the span's self-time and duration histogram (whose exact count,
//! sum and max are the span's count, total and max). Completed spans
//! are also appended to a bounded trace-event buffer for Chrome-trace
//! export; once the cap is hit, further spans are counted as dropped
//! rather than grown without bound, and the run report prints the count.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::audit::{AuditEntry, AuditSubject, AUDIT_CAP};
use crate::hist::Histogram;
use crate::slo::{Attribution, SloSample, SloSpec, SloTracker};

/// Upper bound on buffered trace events. Beyond this the registry
/// counts drops instead of allocating.
const EVENT_CAP: usize = 1_000_000;

/// An interned metric/span name. Obtained from [`Recorder::key`] at
/// setup time; recording through a `Key` never touches a string.
///
/// Keys are only meaningful for the recorder that interned them. The
/// `Default` key is the dummy a disabled recorder hands out — valid to
/// pass into any recording call (a no-op on a disabled recorder).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Key(u32);

/// Handle to one registered per-app SLO tracker, returned by
/// [`Recorder::slo_register`]. Like [`Key`], the dummy a disabled
/// recorder hands out is valid to pass back in (a no-op).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SloId(u32);

/// Aggregate statistics for one span name, built on read from the
/// span's self-time and duration histogram.
#[derive(Clone, Debug)]
pub struct SpanStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall-clock time across all completions, in microseconds.
    pub total_us: u64,
    /// Total time minus time spent in child spans, in microseconds.
    pub self_us: u64,
    /// Longest single completion, in microseconds.
    pub max_us: u64,
    /// Log-bucket histogram of per-completion durations (µs).
    pub hist: Histogram,
}

/// What the registry keeps per span name: the self-time and the
/// duration histogram, which already holds the exact count, total and
/// maximum.
#[derive(Default)]
struct SpanAgg {
    self_us: u64,
    hist: Histogram,
}

/// One completed span, exported as a Chrome trace-event `"X"`.
#[derive(Clone, Debug)]
pub(crate) struct TraceEvent {
    pub key: u32,
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    pub dur_us: u64,
}

/// An open span frame on the registry's stack.
struct OpenSpan {
    key: u32,
    start: Instant,
    child_us: u64,
}

pub(crate) struct Registry {
    names: Vec<String>,
    by_name: BTreeMap<String, u32>,
    counters: Vec<u64>,
    hists: Vec<Histogram>,
    spans: Vec<SpanAgg>,
    pub(crate) events: Vec<TraceEvent>,
    dropped_events: u64,
    stack: Vec<OpenSpan>,
    /// Placement decision audit ring (bounded at [`AUDIT_CAP`]).
    pub(crate) audit: Vec<AuditEntry>,
    pub(crate) audit_dropped: u64,
    /// Control cycle stamped onto incoming audit entries.
    audit_cycle: u64,
    /// Per-app SLO trackers, in registration order.
    pub(crate) slos: Vec<(String, SloTracker)>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            names: Vec::new(),
            by_name: BTreeMap::new(),
            counters: Vec::new(),
            hists: Vec::new(),
            spans: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
            stack: Vec::new(),
            audit: Vec::new(),
            audit_dropped: 0,
            audit_cycle: 0,
            slos: Vec::new(),
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&ix) = self.by_name.get(name) {
            return ix;
        }
        let ix = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), ix);
        self.counters.push(0);
        self.hists.push(Histogram::new());
        self.spans.push(SpanAgg::default());
        ix
    }

    fn push_event(&mut self, ev: TraceEvent) {
        if self.events.len() < EVENT_CAP {
            self.events.push(ev);
        } else {
            self.dropped_events += 1;
        }
    }

    pub(crate) fn name(&self, key: u32) -> &str {
        &self.names[key as usize]
    }

    pub(crate) fn sorted_names(&self) -> Vec<String> {
        self.by_name.keys().cloned().collect()
    }

    pub(crate) fn span_by_name(&self, name: &str) -> Option<SpanStats> {
        let ix = *self.by_name.get(name)?;
        let SpanAgg { self_us, hist } = &self.spans[ix as usize];
        (hist.count() > 0).then(|| SpanStats {
            count: hist.count(),
            total_us: hist.sum(),
            self_us: *self_us,
            max_us: hist.max(),
            hist: hist.clone(),
        })
    }

    pub(crate) fn counter_by_name(&self, name: &str) -> u64 {
        self.by_name
            .get(name)
            .map(|&ix| self.counters[ix as usize])
            .unwrap_or(0)
    }

    pub(crate) fn hist_by_name(&self, name: &str) -> Option<Histogram> {
        let ix = *self.by_name.get(name)?;
        let h = &self.hists[ix as usize];
        if h.count() == 0 {
            None
        } else {
            Some(h.clone())
        }
    }
}

pub(crate) struct Shared {
    pub(crate) registry: Mutex<Registry>,
    pub(crate) epoch: Instant,
}

impl Shared {
    pub(crate) fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Handle to the instrumentation plane. `Off` (the default) makes
/// every operation a no-op behind one branch; `On` records into a
/// shared registry. Clone freely — clones share the registry.
///
/// Spans assume one recording thread: every clone opens and closes its
/// spans on the registry's one stack, which is right while execution is
/// single-threaded (the rayon stand-in is sequential). Threads (the
/// ROADMAP's deterministic-threads item) would give each worker a child
/// handle with its own stack, merged back in chunk order.
#[derive(Clone, Default)]
pub struct Recorder {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// The disabled recorder: every call is a no-op.
    pub fn off() -> Self {
        Recorder { shared: None }
    }

    /// A live recorder with a fresh registry.
    pub fn enabled() -> Self {
        Recorder {
            shared: Some(Arc::new(Shared {
                registry: Mutex::new(Registry::new()),
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Intern `name`, returning a [`Key`] for string-free recording.
    /// On a disabled recorder this returns a dummy key (valid to pass
    /// back in — every consumer is a no-op).
    pub fn key(&self, name: &str) -> Key {
        match &self.shared {
            None => Key(0),
            Some(s) => Key(s.lock().intern(name)),
        }
    }

    /// Open a span; the returned guard closes it on drop. Spans from
    /// every clone nest on one stack: time spent in inner spans is
    /// subtracted from the outer span's self-time.
    #[inline]
    pub fn span(&self, key: Key) -> SpanGuard {
        match &self.shared {
            None => SpanGuard { shared: None },
            Some(s) => {
                let start = Instant::now();
                s.lock().stack.push(OpenSpan {
                    key: key.0,
                    start,
                    child_us: 0,
                });
                SpanGuard {
                    shared: Some(Arc::clone(s)),
                }
            }
        }
    }

    /// Add `n` to the counter behind `key`.
    #[inline]
    pub fn count(&self, key: Key, n: u64) {
        if let Some(s) = &self.shared {
            s.lock().counters[key.0 as usize] += n;
        }
    }

    /// Record one sample into the histogram behind `key`.
    #[inline]
    pub fn observe(&self, key: Key, value: u64) {
        if let Some(s) = &self.shared {
            s.lock().hists[key.0 as usize].record(value);
        }
    }

    /// Counter value behind `name`, or 0 when absent/disabled.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.with_registry(|reg| reg.counter_by_name(name))
            .unwrap_or(0)
    }

    /// Snapshot of the histogram behind `name`, if any samples exist.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.with_registry(|reg| reg.hist_by_name(name)).flatten()
    }

    /// Snapshot of the aggregate stats for span `name`, if it ever
    /// completed.
    pub fn span_stats(&self, name: &str) -> Option<SpanStats> {
        self.with_registry(|reg| reg.span_by_name(name)).flatten()
    }

    /// All interned names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.with_registry(Registry::sorted_names)
            .unwrap_or_default()
    }

    /// Number of trace events dropped after the buffer cap was hit.
    pub fn dropped_events(&self) -> u64 {
        match &self.shared {
            None => 0,
            Some(s) => s.lock().dropped_events,
        }
    }

    /// Stamp the control cycle onto subsequent [`Recorder::audit`]
    /// entries. The simulator calls this at the top of every control
    /// cycle, before routing/sensing, so decisions made anywhere in the
    /// cycle tag correctly.
    #[inline]
    pub fn audit_begin_cycle(&self, cycle: u64) {
        if let Some(s) = &self.shared {
            s.lock().audit_cycle = cycle;
        }
    }

    /// Append one placement decision to the audit ring, stamped with
    /// the current cycle. Beyond [`AUDIT_CAP`] entries the call counts
    /// a drop instead of growing the ring.
    #[inline]
    pub fn audit(
        &self,
        subject: AuditSubject,
        from: Option<u32>,
        to: Option<u32>,
        step: &'static str,
        reason: &'static str,
    ) {
        if let Some(s) = &self.shared {
            let mut reg = s.lock();
            if reg.audit.len() < AUDIT_CAP {
                let cycle = reg.audit_cycle;
                reg.audit.push(AuditEntry {
                    cycle,
                    subject,
                    from,
                    to,
                    step,
                    reason,
                });
            } else {
                reg.audit_dropped += 1;
            }
        }
    }

    /// Snapshot of the audit ring, in commit order.
    pub fn audit_entries(&self) -> Vec<AuditEntry> {
        match &self.shared {
            None => Vec::new(),
            Some(s) => s.lock().audit.clone(),
        }
    }

    /// Audit entries dropped after the ring cap was hit.
    pub fn audit_dropped(&self) -> u64 {
        match &self.shared {
            None => 0,
            Some(s) => s.lock().audit_dropped,
        }
    }

    /// Register a per-app SLO tracker under `name` (the app's display
    /// name); returns the handle to feed samples through. Re-registering
    /// a name returns the existing tracker's handle.
    pub fn slo_register(&self, name: &str, spec: SloSpec) -> SloId {
        match &self.shared {
            None => SloId(0),
            Some(s) => {
                let mut reg = s.lock();
                if let Some(ix) = reg.slos.iter().position(|(n, _)| n == name) {
                    return SloId(ix as u32);
                }
                let ix = reg.slos.len() as u32;
                reg.slos.push((name.to_string(), SloTracker::new(spec)));
                SloId(ix)
            }
        }
    }

    /// Fold one cycle's SLO sample and deficit attribution into the
    /// tracker behind `id`.
    #[inline]
    pub fn slo_observe(&self, id: SloId, sample: &SloSample, attr: &Attribution) {
        if let Some(s) = &self.shared {
            if let Some((_, tracker)) = s.lock().slos.get_mut(id.0 as usize) {
                tracker.observe(sample, attr);
            }
        }
    }

    /// Snapshot of the per-app SLO board, in registration order.
    pub fn slo_board(&self) -> Vec<(String, SloTracker)> {
        match &self.shared {
            None => Vec::new(),
            Some(s) => s.lock().slos.clone(),
        }
    }

    /// Capture the current counters, value histograms, and span-duration
    /// histograms by name. Two snapshots taken around a stretch of work
    /// diff into that stretch's activity via
    /// [`ObsSnapshot::delta_since`] — the read-and-diff surface for
    /// per-cycle rates without registry access.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut snap = ObsSnapshot::default();
        if let Some(s) = &self.shared {
            let reg = s.lock();
            for (name, &ix) in &reg.by_name {
                let ix = ix as usize;
                snap.counters.insert(name.clone(), reg.counters[ix]);
                if reg.hists[ix].count() > 0 {
                    snap.hists.insert(name.clone(), reg.hists[ix].clone());
                }
                if reg.spans[ix].hist.count() > 0 {
                    snap.spans.insert(name.clone(), reg.spans[ix].hist.clone());
                }
            }
        }
        snap
    }

    /// Visit per-span aggregates, counters, and histograms. Used by the
    /// export formatters in [`crate::report`].
    pub(crate) fn with_registry<R>(&self, f: impl FnOnce(&Registry) -> R) -> Option<R> {
        self.shared.as_ref().map(|s| f(&s.lock()))
    }
}

/// Closes its span on drop. Hold it in a local (`let _span = …`) for
/// the duration of the phase being timed; guards must drop in LIFO
/// order (ordinary scoping guarantees this).
pub struct SpanGuard {
    shared: Option<Arc<Shared>>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.shared.take() else { return };
        let end = Instant::now();
        let mut reg = s.lock();
        let Some(frame) = reg.stack.pop() else { return };
        let dur_us = end.duration_since(frame.start).as_micros() as u64;
        if let Some(parent) = reg.stack.last_mut() {
            parent.child_us += dur_us;
        }
        let span = &mut reg.spans[frame.key as usize];
        span.self_us += dur_us.saturating_sub(frame.child_us);
        span.hist.record(dur_us);
        reg.push_event(TraceEvent {
            key: frame.key,
            ts_us: frame.start.duration_since(s.epoch).as_micros() as u64,
            dur_us,
        });
    }
}

/// A point-in-time capture of a recorder's counters and histograms,
/// taken with [`Recorder::snapshot`]. Subtract an earlier snapshot to
/// get the activity in between — the building block for per-cycle
/// rates and watchdogs that must not reach into the registry.
#[derive(Clone, Debug, Default)]
pub struct ObsSnapshot {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, Histogram>,
}

impl ObsSnapshot {
    /// Counter value at capture time (0 when the name is absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value histogram at capture time, if it had samples.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Span-duration histogram (µs) at capture time, if the span ever
    /// completed.
    pub fn span_hist(&self, name: &str) -> Option<&Histogram> {
        self.spans.get(name)
    }

    /// The activity between `earlier` and this snapshot: counters
    /// subtract saturating; histograms subtract bucket-wise (extrema of
    /// a diffed histogram are bucket-edge approximations — exact counts
    /// and sums, min/max only to bucket resolution). Names absent from
    /// `earlier` carry over whole; empty diffs are dropped.
    pub fn delta_since(&self, earlier: &ObsSnapshot) -> ObsSnapshot {
        let mut out = ObsSnapshot::default();
        for (name, &v) in &self.counters {
            let d = v.saturating_sub(earlier.counter(name));
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        let diff_map = |now: &BTreeMap<String, Histogram>,
                        then: &BTreeMap<String, Histogram>,
                        into: &mut BTreeMap<String, Histogram>| {
            for (name, h) in now {
                let d = match then.get(name) {
                    Some(prev) => h.saturating_diff(prev),
                    None => h.clone(),
                };
                if d.count() > 0 {
                    into.insert(name.clone(), d);
                }
            }
        };
        diff_map(&self.hists, &earlier.hists, &mut out.hists);
        diff_map(&self.spans, &earlier.spans, &mut out.spans);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_past_the_event_cap_reports_its_drops() {
        let r = Recorder::enabled();
        let k = r.key("cycle");
        let filler = || TraceEvent {
            key: k.0,
            ts_us: 0,
            dur_us: 0,
        };
        if let Some(s) = &r.shared {
            let mut reg = s.lock();
            (0..EVENT_CAP).for_each(|_| reg.push_event(filler()));
        }
        for _ in 0..3 {
            let _g = r.span(k);
        }
        assert_eq!(r.dropped_events(), 3);
        assert_eq!(r.span_stats("cycle").map(|st| st.count), Some(3));
        let report = crate::report::run_report(&r);
        assert!(report.contains("3 span events dropped"), "{report}");
    }

    #[test]
    fn off_recorder_is_inert() {
        let r = Recorder::off();
        let k = r.key("anything");
        r.count(k, 5);
        r.observe(k, 10);
        let _g = r.span(k);
        drop(_g);
        assert!(!r.is_enabled());
        assert_eq!(r.counter_value("anything"), 0);
        assert!(r.names().is_empty());
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let r = Recorder::enabled();
        let k = r.key("hits");
        r.count(k, 2);
        r.count(k, 3);
        assert_eq!(r.counter_value("hits"), 5);
        let h = r.key("sizes");
        r.observe(h, 4);
        r.observe(h, 16);
        let snap = r.histogram("sizes").unwrap();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max(), 16);
    }

    #[test]
    fn interning_is_stable() {
        let r = Recorder::enabled();
        let a = r.key("x");
        let b = r.key("x");
        assert_eq!(a, b);
        let c = r.key("y");
        assert_ne!(a, c);
    }

    #[test]
    fn span_nesting_charges_self_time_to_the_right_level() {
        let r = Recorder::enabled();
        let outer = r.key("outer");
        let inner = r.key("inner");
        {
            let _o = r.span(outer);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _i = r.span(inner);
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
        }
        let so = r.span_stats("outer").unwrap();
        let si = r.span_stats("inner").unwrap();
        assert_eq!(so.count, 1);
        assert_eq!(si.count, 1);
        // The outer span's total covers the inner, but its self-time
        // excludes it: rollup ≥ inner total, self < inner total.
        assert!(so.total_us >= si.total_us);
        assert!(so.self_us <= so.total_us - si.total_us + 1_000);
        assert!(si.self_us == si.total_us);
        // Inner slept ~8ms; outer self slept ~2ms. Generous bounds to
        // stay robust on loaded machines.
        assert!(si.total_us >= 7_000, "inner {}us", si.total_us);
        assert!(so.self_us < si.total_us, "outer self should exclude inner");
    }

    #[test]
    fn clones_nest_their_spans_on_one_stack() {
        // Two components holding clones of one recorder (the simulator
        // and its controller) time nested phases: the inner span is the
        // outer one's child, whichever handle opened it.
        let outer_rec = Recorder::enabled();
        let inner_rec = outer_rec.clone();
        let outer = outer_rec.key("outer");
        let inner = inner_rec.key("inner");
        {
            let _o = outer_rec.span(outer);
            let _i = inner_rec.span(inner);
            std::thread::sleep(std::time::Duration::from_millis(8));
        }
        let so = outer_rec.span_stats("outer").unwrap();
        let si = outer_rec.span_stats("inner").unwrap();
        assert!(si.total_us >= 7_000, "inner {}us", si.total_us);
        assert!(so.total_us >= si.total_us);
        // The inner total is charged to the outer's child time.
        assert!(
            so.self_us <= so.total_us - si.total_us,
            "outer self {}us, total {}us, inner {}us",
            so.self_us,
            so.total_us,
            si.total_us
        );
        // Stats are read off the histogram: count, total, max agree.
        assert_eq!((so.count, si.count), (1, 1));
        assert_eq!(si.max_us, si.total_us);
        assert_eq!(si.hist.sum(), si.total_us);
    }

    #[test]
    fn snapshot_delta_isolates_new_activity() {
        let r = Recorder::enabled();
        let k = r.key("hits");
        let h = r.key("sizes");
        r.count(k, 3);
        r.observe(h, 8);
        let before = r.snapshot();
        assert_eq!(before.counter("hits"), 3);
        r.count(k, 4);
        r.observe(h, 32);
        let delta = r.snapshot().delta_since(&before);
        assert_eq!(delta.counter("hits"), 4, "delta counts only new activity");
        let dh = delta.histogram("sizes").expect("new samples survive");
        assert_eq!(dh.count(), 1);
        // Extrema re-derived at bucket resolution: 32 lands in [32, 64).
        assert!((32..64).contains(&dh.max()), "max {}", dh.max());
        // A quiet window yields an empty delta: zero counters and empty
        // histograms are dropped rather than reported as no-ops.
        let quiet = r.snapshot().delta_since(&r.snapshot());
        assert!(quiet.counters.is_empty());
        assert!(quiet.histogram("sizes").is_none());
    }

    #[test]
    fn snapshot_on_an_off_recorder_is_empty() {
        let r = Recorder::off();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert_eq!(snap.counter("anything"), 0);
    }

    #[test]
    fn audit_ring_stamps_cycles_and_bounds_growth() {
        let r = Recorder::enabled();
        r.audit_begin_cycle(7);
        r.audit(
            AuditSubject::Job(3),
            None,
            Some(2),
            "solve.step3",
            "priority-place",
        );
        r.audit_begin_cycle(8);
        r.audit(
            AuditSubject::Job(3),
            Some(2),
            Some(5),
            "solve.step4",
            "rebalance-deficit",
        );
        let entries = r.audit_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].cycle, 7);
        assert_eq!(entries[1].cycle, 8);
        assert_eq!(entries[1].from, Some(2));
        assert_eq!(r.audit_dropped(), 0);
    }

    #[test]
    fn slo_board_tracks_registered_specs() {
        let r = Recorder::enabled();
        let id = r.slo_register("web", SloSpec::default());
        // Re-registering the same name returns the same slot.
        assert_eq!(r.slo_register("web", SloSpec::default()), id);
        let sample = SloSample {
            satisfied: 0.5,
            deficit_mhz: 100.0,
            ..SloSample::default()
        };
        let attr = Attribution {
            capacity_mhz: 100.0,
            ..Attribution::default()
        };
        r.slo_observe(id, &sample, &attr);
        let board = r.slo_board();
        assert_eq!(board.len(), 1);
        assert_eq!(board[0].0, "web");
        assert_eq!(board[0].1.cycles(), 1);
        assert_eq!(board[0].1.violations(), 1);
    }
}
