//! The bench-side timing `Controller` wrapper.
//!
//! `Simulator::run` is one call from t = 0 to the horizon, so the only
//! place a benchmark can stand between control cycles is around the
//! controller. Each call records the host time since the previous
//! return (`between`: event loop, route, sense, actuate, record) and the
//! time inside the wrapped controller (`decide`). On every
//! `calib_every`-th call, *after* the inner controller has returned and
//! outside both timings, it runs the calibration kernel.

use crate::alloc;
use crate::calib::{self, Footprint};
use slaq::obs::{Key, ObsSnapshot, Recorder, SpanGuard};
use slaq::placement::{Placement, SolveDelta};
use slaq::sim::{ControlInputs, Controller, MetricsSink, SensingSnapshot};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What one control call cost.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Host µs from the previous call's return (the round's start for
    /// the first call) to this call's entry.
    pub between_us: f64,
    /// Host µs inside the wrapped controller.
    pub decide_us: f64,
    /// Allocations between the previous return and this one.
    pub allocs: alloc::Counters,
    /// Allocations inside the wrapped controller.
    pub decide_allocs: alloc::Counters,
    /// Kernel time, when the kernel ran after this call.
    pub calib_us: Option<f64>,
}

/// Everything a run's wrapper collected; shared with the caller
/// because the checked run hands the wrapper itself to an
/// `InvariantChecker`, which owns it.
pub struct Log {
    pub calls: Vec<Call>,
    pub snapshots: Vec<SensingSnapshot>,
    /// The simulator's recorder as it stood when the measured window
    /// opened (observed runs only): diffing the final state against it
    /// leaves the window's spans and counters.
    pub window_start: Option<ObsSnapshot>,
    last_return: Instant,
    last_allocs: alloc::Counters,
}

impl Log {
    pub fn new(round_start: Instant) -> Rc<RefCell<Log>> {
        Rc::new(RefCell::new(Log {
            calls: Vec::new(),
            snapshots: Vec::new(),
            window_start: None,
            last_return: round_start,
            last_allocs: alloc::counters(),
        }))
    }

    /// When the latest control call returned.
    pub fn last_return(&self) -> Instant {
        self.last_return
    }
}

/// Bench-side spans of the observed run: `bench.cycle` (return to return)
/// around `bench.between` and `bench.decide`.
struct Spans {
    rec: Recorder,
    cycle: Key,
    between: Key,
    decide: Key,
    open_cycle: Option<SpanGuard>,
    open_between: Option<SpanGuard>,
}

pub struct Timed {
    inner: Box<dyn Controller>,
    log: Rc<RefCell<Log>>,
    /// Run the kernel after every this-many-th call (0 = never), and
    /// which kernel.
    calib_every: usize,
    footprint: Footprint,
    /// Calls before the measured window opens.
    warmup: usize,
    /// Capture a snapshot on every this-many-th call of the measured
    /// window (0 = never), up to `MAX_SNAPSHOTS`.
    capture_every: usize,
    spans: Option<Spans>,
    /// The simulator's recorder, handed over at the start of a run.
    sim_recorder: Recorder,
}

/// Cap on captured snapshots per round (each clones the job manager).
pub const MAX_SNAPSHOTS: usize = 16;

impl Timed {
    pub fn new(
        inner: Box<dyn Controller>,
        log: Rc<RefCell<Log>>,
        (calib_every, footprint): (usize, Footprint),
        warmup: usize,
    ) -> Self {
        Timed {
            inner,
            log,
            calib_every,
            footprint,
            warmup,
            capture_every: 0,
            spans: None,
            sim_recorder: Recorder::off(),
        }
    }

    /// Capture the sensed inputs of every `every`-th call of the
    /// measured window, for the replay metrics.
    pub fn capturing(mut self, every: usize) -> Self {
        self.capture_every = every;
        self
    }

    /// Record bench-side spans into `rec`.
    pub fn with_spans(mut self, rec: &Recorder) -> Self {
        let mut spans = Spans {
            rec: rec.clone(),
            cycle: rec.key("bench.cycle"),
            between: rec.key("bench.between"),
            decide: rec.key("bench.decide"),
            open_cycle: None,
            open_between: None,
        };
        spans.open_cycle = Some(rec.span(spans.cycle));
        spans.open_between = Some(rec.span(spans.between));
        self.spans = Some(spans);
        self
    }
}

impl Controller for Timed {
    fn control(&mut self, inputs: &ControlInputs<'_>, metrics: &mut MetricsSink) -> Placement {
        self.control_delta(inputs, None, metrics)
    }

    fn control_delta(
        &mut self,
        inputs: &ControlInputs<'_>,
        delta: Option<&SolveDelta>,
        metrics: &mut MetricsSink,
    ) -> Placement {
        if self.sim_recorder.is_enabled() {
            let mut log = self.log.borrow_mut();
            if log.calls.len() == self.warmup {
                // Keep the snapshot's cost out of `between`.
                let t = Instant::now();
                log.window_start = Some(self.sim_recorder.snapshot());
                log.last_return += t.elapsed();
            }
        }
        let entry = Instant::now();
        let allocs_entry = alloc::counters();
        let decide_span = self.spans.as_mut().map(|s| {
            s.open_between = None;
            s.rec.span(s.decide)
        });
        let next = self.inner.control_delta(inputs, delta, metrics);
        let decide_us = entry.elapsed().as_secs_f64() * 1e6;
        let allocs_exit = alloc::counters();
        drop(decide_span);

        // Everything below is the bench's own work and sits outside
        // both timings: `last_return` is taken at the very end.
        let mut log = self.log.borrow_mut();
        let index = log.calls.len();
        let call = Call {
            between_us: (entry - log.last_return).as_secs_f64() * 1e6,
            decide_us,
            allocs: allocs_exit.since(log.last_allocs),
            decide_allocs: allocs_exit.since(allocs_entry),
            calib_us: None,
        };
        log.calls.push(call);
        if self.capture_every > 0
            && index >= self.warmup
            && (index - self.warmup).is_multiple_of(self.capture_every)
            && log.snapshots.len() < MAX_SNAPSHOTS
        {
            log.snapshots.push(SensingSnapshot::capture(inputs));
        }
        if self.calib_every > 0 && (index + 1).is_multiple_of(self.calib_every) {
            log.calls[index].calib_us = Some(calib::run(self.footprint));
        }
        if let Some(s) = self.spans.as_mut() {
            s.open_cycle = None;
            s.open_cycle = Some(s.rec.span(s.cycle));
            s.open_between = Some(s.rec.span(s.between));
        }
        log.last_allocs = alloc::counters();
        log.last_return = Instant::now();
        next
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.sim_recorder = recorder.clone();
        self.inner.set_recorder(recorder);
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        // Close the spans innermost first; the trailing ones cover the
        // event loop's last steps after the final control call.
        if let Some(s) = self.spans.as_mut() {
            s.open_between = None;
            s.open_cycle = None;
        }
    }
}
