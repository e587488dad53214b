//! One spec through the real path — JSON text → `from_json` →
//! `materialize` → `build` → `Simulator::run` — under the timing
//! wrapper, and the exact (deterministic) results read off its report.

use crate::calib::Footprint;
use crate::timed::{Call, Log, Timed};
use slaq::core::{ObserveSpec, Scenario, ScenarioSpec};
use slaq::obs::{ObsSnapshot, Recorder};
use slaq::sim::{Controller, InvariantChecker, SensingSnapshot, SimReport};
use std::time::Instant;

/// What a run is for. Each kind does one job, so that no kind's
/// instrument sits inside another kind's measurement.
#[derive(Clone, Copy)]
pub enum Kind<'a> {
    /// The measurement: recorder off, no checker, allocation counting
    /// off, calibration kernel after every `calib_every`-th control call
    /// (0 = never).
    Plain { calib_every: usize },
    /// The same run with the counting allocator on (≈ 20 ns per
    /// allocation, a tenth of `decide` on the fleets): allocation
    /// counts and the heap high-water mark. Timings are not used.
    Counted,
    /// `controller.observe = "On"`: the program's own spans and
    /// counters, plus bench-side spans into this recorder. Kernel runs
    /// as in `Plain`; they land inside the program's `cycle.solve` span
    /// and are subtracted from it afterwards.
    Observed {
        calib_every: usize,
        bench_spans: &'a Recorder,
    },
    /// `InvariantChecker` outermost and, if `capture`, snapshots of the
    /// measured window for the replays. Timings are not used.
    Checked { capture: bool },
}

/// How a spec is run.
#[derive(Clone, Copy)]
pub struct RunOpts<'a> {
    pub kind: Kind<'a>,
    /// Which kernel the in-run calibration runs.
    pub footprint: Footprint,
    /// Control cycles at the start that count as set-up, not measurement.
    pub warmup_cycles: usize,
}

/// Results that must repeat bit for bit for a given spec text.
#[derive(Clone, Debug, PartialEq)]
pub struct Exact {
    pub cycles: usize,
    pub total_changes: usize,
    pub submitted: usize,
    pub completed: usize,
    pub goals_met: usize,
    pub disruptions: u32,
    /// Bit patterns, so that equality is bit-identity.
    pub mean_achieved_utility: u64,
    pub utility_floor: u64,
    /// Sum and count of the measured window's `trans_utility` (one per
    /// app per cycle) and `jobs_outlook` (one per cycle) samples.
    pub utility_sum: u64,
    pub utility_samples: usize,
    /// (app, cycle) samples in the measured window, and how many of
    /// them met the response-time goal.
    pub rt_samples: usize,
    pub rt_met: usize,
    /// Placement changes enacted in the measured window.
    pub measured_changes: u64,
    pub measured_cycles: usize,
    /// Active jobs at the first and last measured cycle.
    pub jobs_active_first: u64,
    pub jobs_active_last: u64,
    /// Simulated seconds covered by the measured cycles.
    pub measured_sim_secs: u64,
}

impl Exact {
    pub fn utility_floor(&self) -> f64 {
        f64::from_bits(self.utility_floor)
    }

    pub fn utility_sum(&self) -> f64 {
        f64::from_bits(self.utility_sum)
    }
}

pub struct SpecRun {
    pub parse_us: f64,
    pub materialize_us: f64,
    pub build_us: f64,
    pub calls: Vec<Call>,
    /// Host µs from the last control call's return to the end of `run`.
    pub tail_us: f64,
    pub exact: Exact,
    /// Checked runs only.
    pub violations: Vec<String>,
    pub cycles_checked: usize,
    pub snapshots: Vec<SensingSnapshot>,
    /// The materialized scenario, for replaying the snapshots.
    pub scenario: Scenario,
    /// The simulator's recorder (off unless observed), and its state
    /// when the measured window opened.
    pub recorder: Recorder,
    pub window_start: Option<ObsSnapshot>,
}

fn us(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e6
}

/// Run `text` once. An `Err` is a failed operation: the spec did not
/// parse, validate or build, or the run itself returned an error.
pub fn run_spec(text: &str, opts: RunOpts<'_>) -> Result<SpecRun, String> {
    let t = Instant::now();
    let mut spec = ScenarioSpec::from_json(text).map_err(|e| format!("parse: {e}"))?;
    let parse_us = us(t);
    if matches!(opts.kind, Kind::Observed { .. }) {
        spec.controller.observe = ObserveSpec::On;
    }

    let t = Instant::now();
    let scenario = spec
        .materialize()
        .map_err(|e| format!("{}: materialize: {e}", spec.name))?;
    let materialize_us = us(t);

    let t = Instant::now();
    let mut sim = scenario
        .build()
        .map_err(|e| format!("{}: build: {e}", spec.name))?;
    let controller = scenario.controller();
    let build_us = us(t);

    let log = Log::new(Instant::now());
    let calib_every = match opts.kind {
        Kind::Plain { calib_every } | Kind::Observed { calib_every, .. } => calib_every,
        Kind::Counted | Kind::Checked { .. } => 0,
    };
    let mut timed = Timed::new(
        controller,
        log.clone(),
        (calib_every, opts.footprint),
        opts.warmup_cycles,
    );
    let mut checker = None;
    let report = match opts.kind {
        Kind::Plain { .. } | Kind::Counted => sim.run(&mut timed),
        Kind::Observed { bench_spans, .. } => {
            timed = timed.with_spans(bench_spans);
            sim.run(&mut timed)
        }
        Kind::Checked { capture } => {
            if capture {
                // Snapshots from the measured window only, spread over it.
                let cycles =
                    (spec.timing.horizon_secs / spec.timing.control_period_secs) as usize + 1;
                let measured = cycles.saturating_sub(opts.warmup_cycles);
                timed = timed.capturing((measured / crate::timed::MAX_SNAPSHOTS).max(1));
            }
            let c = checker.insert(InvariantChecker::new(
                Box::new(timed),
                scenario.controller.placement.max_changes,
            ));
            sim.run(c as &mut dyn Controller)
        }
    }
    .map_err(|e| format!("{}: run: {e}", spec.name))?;
    let run_end = Instant::now();

    let (violations, cycles_checked) = match &checker {
        Some(c) => (c.violations().to_vec(), c.cycles_checked()),
        None => (Vec::new(), 0),
    };
    let mut log = log.borrow_mut();
    let tail_us = (run_end - log.last_return()).as_secs_f64() * 1e6;
    Ok(SpecRun {
        parse_us,
        materialize_us,
        build_us,
        calls: std::mem::take(&mut log.calls),
        tail_us,
        exact: exact_of(&report, &spec, opts.warmup_cycles),
        violations,
        cycles_checked,
        snapshots: std::mem::take(&mut log.snapshots),
        recorder: sim.recorder().clone(),
        window_start: log.window_start.take(),
        scenario,
    })
}

fn exact_of(report: &SimReport, spec: &ScenarioSpec, warmup_cycles: usize) -> Exact {
    let period = spec.timing.control_period_secs;
    let from = period * warmup_cycles as f64;
    let measured = |name: &str| {
        report
            .metrics
            .series(name)
            .iter()
            .filter(move |&&(t, _)| t >= from)
            .map(|&(_, v)| v)
    };
    // Every app's measured utility lands in the common `trans_utility`
    // series; utility is (τ − RT)/τ, so u ≥ 0 ⇔ RT within the goal.
    let rt_samples = measured("trans_utility").count();
    let rt_met = measured("trans_utility").filter(|&u| u >= 0.0).count();
    let utility_floor = measured("trans_utility")
        .chain(measured("jobs_outlook_min"))
        .fold(f64::INFINITY, f64::min);
    let utility_sum: f64 = measured("trans_utility")
        .chain(measured("jobs_outlook"))
        .sum();
    let utility_samples = rt_samples + measured("jobs_outlook").count();
    let active: Vec<f64> = measured("jobs_active").collect();
    let measured_cycles = measured("changes").count();
    let s = &report.job_stats;
    Exact {
        cycles: report.cycles,
        total_changes: report.total_changes,
        submitted: s.submitted,
        completed: s.completed,
        goals_met: s.goals_met,
        disruptions: s.disruptions,
        mean_achieved_utility: s.mean_achieved_utility.to_bits(),
        utility_floor: utility_floor.to_bits(),
        utility_sum: utility_sum.to_bits(),
        utility_samples,
        rt_samples,
        rt_met,
        measured_changes: measured("changes").sum::<f64>() as u64,
        measured_cycles,
        jobs_active_first: active.first().copied().unwrap_or(0.0) as u64,
        jobs_active_last: active.last().copied().unwrap_or(0.0) as u64,
        measured_sim_secs: (period * measured_cycles as f64) as u64,
    }
}
