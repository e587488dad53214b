//! Rounds, samples and the end-to-end metrics.
//!
//! A **round** runs the workload's spec texts once from scratch: set-up
//! (parse → materialize → build → warm-up) and the measured cycles.
//! Every round of a run is the same simulation — same text, same seed —
//! so its exact results must repeat bit for bit (the determinism check),
//! its set-up time gives one `setup_s` sample per round, and the kept
//! cycles of all rounds pool into the medians.

use crate::metrics::Metrics;
use crate::run::{run_spec, Exact, Kind, RunOpts, SpecRun};
use crate::stats::{median, min, quantile};
use crate::timed::Call;
use crate::workloads::{Workload, WARMUP_CYCLES};
use crate::{alloc, calib};

/// Fewest kept samples a full run may report: control cycles for a
/// fleet workload, passes for `paper-corpus`.
pub const MIN_FLEET_SAMPLES: usize = 100;
pub const MIN_CORPUS_SAMPLES: usize = 50;

/// Largest |population drift| over the measured window of a fleet
/// round: beyond it the fleet is filling or draining, not steady.
pub const MAX_DRIFT: f64 = 0.25;

pub struct Round {
    pub runs: Vec<SpecRun>,
    /// Kernel time just before and just after the round.
    pub calib_before: f64,
    pub calib_after: f64,
    /// High-water mark of live heap bytes (counted rounds only).
    pub peak_heap: u64,
}

impl Round {
    /// Every kernel time in and around the round.
    pub fn kernel_times(&self) -> Vec<f64> {
        let inside = self
            .runs
            .iter()
            .flat_map(|r| r.calls.iter().filter_map(|c| c.calib_us));
        [self.calib_before, self.calib_after]
            .into_iter()
            .chain(inside)
            .collect()
    }

    pub fn exact(&self) -> Vec<&Exact> {
        self.runs.iter().map(|r| &r.exact).collect()
    }

    pub fn cycles(&self) -> usize {
        self.runs.iter().map(|r| r.calls.len()).sum()
    }
}

/// The measuring kind for `workload`.
pub fn plain(workload: &Workload) -> Kind<'static> {
    Kind::Plain {
        calib_every: workload.calib_every(),
    }
}

/// Run every text once. `calib_before` is the kernel time taken just
/// before (the previous round's `calib_after`, when there is one).
pub fn run_round(
    workload: &Workload,
    texts: &[String],
    calib_before: f64,
    kind: Kind<'_>,
) -> Result<Round, String> {
    let opts = RunOpts {
        kind,
        footprint: workload.footprint(),
        warmup_cycles: workload.warmup_cycles(),
    };
    let counted = matches!(kind, Kind::Counted);
    if counted {
        alloc::start();
    }
    let runs: Result<Vec<SpecRun>, String> = texts.iter().map(|t| run_spec(t, opts)).collect();
    let peak_heap = if counted { alloc::stop() } else { 0 };
    Ok(Round {
        runs: runs?,
        calib_before,
        calib_after: calib::run(workload.footprint()),
        peak_heap,
    })
}

/// Every kernel run around and inside a run, as (index of the call it
/// ran after, kernel µs): the round's own two — before the first call
/// (index −1) and after the last — and the in-run ones of a plain round.
fn kernel_runs(calls: &[Call], before: f64, after: f64) -> Vec<(isize, f64)> {
    let mut runs = vec![(-1, before)];
    for (i, call) in calls.iter().enumerate() {
        if let Some(us) = call.calib_us {
            runs.push((i as isize, us));
        }
    }
    runs.push((calls.len() as isize, after));
    runs
}

/// The kernel runs on either side of call `i`: the last that ran before
/// it and the first that ran after it returned.
fn around(kernel_runs: &[(isize, f64)], i: isize) -> ((isize, f64), (isize, f64)) {
    let before = kernel_runs.iter().rev().find(|&&(k, _)| k < i);
    let after = kernel_runs.iter().find(|&&(k, _)| k >= i);
    (
        *before.expect("one runs before the first call"),
        *after.expect("one runs after the last call"),
    )
}

/// The measured calls that count, each with the kernel times that scale
/// it. The call right after an in-run kernel run is dropped: it ran on
/// the kernel's leftovers (evicted caches), not on its own.
fn kept_cycles(
    kernel_runs: &[(isize, f64)],
    warm: usize,
    calls: usize,
) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
    (warm..calls).filter_map(move |i| {
        let ((ran_after, before), (_, after)) = around(kernel_runs, i as isize);
        let polluted = ran_after >= 0 && ran_after + 1 == i as isize;
        (!polluted).then_some((i, before, after))
    })
}

/// What one round contributes to the pooled statistics. Times in µs;
/// `*_ref` calibrated, `*_raw` host time.
#[derive(Default)]
pub struct Samples {
    pub setup_ref: Vec<f64>,
    pub parse_ref: Vec<f64>,
    pub materialize_ref: Vec<f64>,
    pub build_ref: Vec<f64>,
    pub first_cycle_ref: Vec<f64>,
    pub cycle_ref: Vec<f64>,
    pub decide_ref: Vec<f64>,
    pub between_ref: Vec<f64>,
    pub cycle_raw: Vec<f64>,
    pub decide_raw: Vec<f64>,
    /// Simulated seconds the kept samples cover.
    pub sim_secs: f64,
    pub alloc_count: Vec<f64>,
    pub alloc_bytes: Vec<f64>,
    pub decide_alloc_count: Vec<f64>,
    pub calibs: Vec<f64>,
}

impl Samples {
    pub fn add(&mut self, workload: &Workload, round: &Round) {
        if workload.is_fleet() {
            self.add_fleet(round);
        } else {
            self.add_corpus(round);
        }
    }

    /// One run: a sample per kept cycle, each scaled by the kernel runs
    /// on either side of it.
    fn add_fleet(&mut self, round: &Round) {
        let run = &round.runs[0];
        let calls = &run.calls;
        let kernel_runs = kernel_runs(calls, round.calib_before, round.calib_after);
        // The first is the previous round's last, already counted.
        self.calibs
            .extend(kernel_runs.iter().skip(1).map(|&(_, us)| us));

        // Set-up ends with the kernel run that closes the warm-up.
        let warm = WARMUP_CYCLES.min(calls.len());
        let (_, (_, after_warmup)) = around(&kernel_runs, warm as isize - 1);
        let scale = |raw: f64| calib::to_ref(raw, round.calib_before, after_warmup);
        let warmup_us: f64 = calls[..warm]
            .iter()
            .map(|c| c.between_us + c.decide_us)
            .sum();
        self.setup_ref.push(scale(
            run.parse_us + run.materialize_us + run.build_us + warmup_us,
        ));
        self.parse_ref.push(scale(run.parse_us));
        self.materialize_ref.push(scale(run.materialize_us));
        self.build_ref.push(scale(run.build_us));
        if let Some(first) = calls.first() {
            self.first_cycle_ref
                .push(scale(first.between_us + first.decide_us));
        }

        let period = run.scenario.sim.control_period.as_secs();
        for (i, before, after) in kept_cycles(&kernel_runs, warm, calls.len()) {
            let call = &calls[i];
            let to_ref = |raw: f64| calib::to_ref(raw, before, after);
            let cycle = call.between_us + call.decide_us;
            self.cycle_ref.push(to_ref(cycle));
            self.decide_ref.push(to_ref(call.decide_us));
            self.between_ref.push(to_ref(call.between_us));
            self.cycle_raw.push(cycle);
            self.decide_raw.push(call.decide_us);
            self.sim_secs += period;
            self.alloc_count.push(call.allocs.count as f64);
            self.alloc_bytes.push(call.allocs.bytes as f64);
            self.decide_alloc_count
                .push(call.decide_allocs.count as f64);
        }
    }

    /// Twelve small runs back to back: one sample per pass, scaled by
    /// the kernel runs before and after it.
    fn add_corpus(&mut self, round: &Round) {
        let to_ref = |raw: f64| calib::to_ref(raw, round.calib_before, round.calib_after);
        self.calibs.push(round.calib_after);
        let sum = |f: fn(&SpecRun) -> f64| round.runs.iter().map(f).sum::<f64>();
        let parse = sum(|r| r.parse_us);
        let materialize = sum(|r| r.materialize_us);
        let build = sum(|r| r.build_us);
        self.setup_ref.push(to_ref(parse + materialize + build));
        self.parse_ref.push(to_ref(parse));
        self.materialize_ref.push(to_ref(materialize));
        self.build_ref.push(to_ref(build));
        self.first_cycle_ref.push(to_ref(sum(|r| {
            r.calls.first().map_or(0.0, |c| c.between_us + c.decide_us)
        })));

        let cycles = round.cycles() as f64;
        let decide = sum(|r| r.calls.iter().map(|c| c.decide_us).sum());
        let between = sum(|r| r.calls.iter().map(|c| c.between_us).sum::<f64>() + r.tail_us);
        self.cycle_ref.push(to_ref((between + decide) / cycles));
        self.decide_ref.push(to_ref(decide / cycles));
        self.between_ref.push(to_ref(between / cycles));
        self.cycle_raw.push((between + decide) / cycles);
        self.decide_raw.push(decide / cycles);
        self.sim_secs += sum(|r| r.exact.measured_sim_secs as f64) / cycles;
        let per_cycle = |f: fn(&Call) -> u64| {
            round
                .runs
                .iter()
                .flat_map(|r| r.calls.iter().map(f))
                .sum::<u64>() as f64
                / cycles
        };
        self.alloc_count.push(per_cycle(|c| c.allocs.count));
        self.alloc_bytes.push(per_cycle(|c| c.allocs.bytes));
        self.decide_alloc_count
            .push(per_cycle(|c| c.decide_allocs.count));
    }

    /// The timing half of the end-to-end metrics.
    pub fn end_to_end(&self, out: &mut Metrics) {
        out.set("setup_s", median(&self.setup_ref) / 1e6);
        out.set("cycle_us_p50", median(&self.cycle_ref));
        out.set("decide_us_p50", median(&self.decide_ref));
        out.set(
            "sim_speedup",
            self.sim_secs / (self.cycle_ref.iter().sum::<f64>() / 1e6),
        );
    }

    /// The bench-side (source T) and host per-layer metrics.
    pub fn per_layer(&self, out: &mut Metrics) {
        out.set("spec.parse_us", median(&self.parse_ref));
        out.set("spec.materialize_us", median(&self.materialize_ref));
        out.set("scenario.build_us", median(&self.build_ref));
        out.set("sim.first_cycle_us", median(&self.first_cycle_ref));
        out.set("sim.between_us_p50", median(&self.between_ref));
        out.set("sim.cycle_us_p90", quantile(&self.cycle_ref, 0.9));
        out.set("core.decide_us_p90", quantile(&self.decide_ref, 0.9));
        out.set("host.calib_us_p50", median(&self.calibs));
        out.set(
            "host.calib_spread",
            quantile(&self.calibs, 0.9) / min(&self.calibs),
        );
        out.set("host.cycle_us_raw_p50", median(&self.cycle_raw));
        out.set("host.decide_us_raw_p50", median(&self.decide_raw));
        out.set("host.samples", self.cycle_ref.len() as f64);
    }

    /// The allocator's per-layer metrics; `self` holds a counted round.
    pub fn allocations(&self, out: &mut Metrics) {
        out.set("alloc.count_per_cycle", median(&self.alloc_count));
        out.set("alloc.bytes_per_cycle", median(&self.alloc_bytes));
        out.set(
            "alloc.decide_count_per_cycle",
            median(&self.decide_alloc_count),
        );
    }
}

/// The exact half of the end-to-end metrics, from one counted round
/// (every round of a run agrees on all but the heap mark, which only a
/// counted round has).
pub fn quality(round: &Round, out: &mut Metrics) {
    let exact = round.exact();
    let total = |f: fn(&Exact) -> f64| exact.iter().map(|e| f(e)).sum::<f64>();
    out.set("peak_heap_mb", round.peak_heap as f64 / (1024.0 * 1024.0));
    out.set(
        "utility_mean",
        total(|e| e.utility_sum()) / total(|e| e.utility_samples as f64),
    );
    out.set(
        "job_goal_met_frac",
        total(|e| e.goals_met as f64) / total(|e| e.completed as f64),
    );
    out.set(
        "rt_goal_met_frac",
        total(|e| e.rt_met as f64) / total(|e| e.rt_samples as f64),
    );
    out.set(
        "changes_per_cycle",
        total(|e| e.measured_changes as f64) / total(|e| e.measured_cycles as f64),
    );
}

/// Relative growth of the active-job population over the measured
/// window (fleet rounds; the corpus presets start empty by design).
pub fn population_drift(round: &Round) -> f64 {
    let e = &round.runs[0].exact;
    (e.jobs_active_last as f64 - e.jobs_active_first as f64) / e.jobs_active_first as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Counters;

    fn call(calib_us: Option<f64>) -> Call {
        Call {
            between_us: 90.0,
            decide_us: 10.0,
            allocs: Counters::default(),
            decide_allocs: Counters::default(),
            calib_us,
        }
    }

    #[test]
    fn kept_cycles_skip_the_one_after_a_kernel_run_and_scale_by_neighbours() {
        let _serial = crate::alloc::serial();
        // Warm-up of 2 closed by a kernel run, then two groups of 3.
        let calls: Vec<Call> = [
            None,
            Some(20.0),
            None,
            None,
            Some(30.0),
            None,
            None,
            Some(40.0),
        ]
        .into_iter()
        .map(call)
        .collect();
        let runs = kernel_runs(&calls, 10.0, 50.0);
        assert_eq!(
            runs,
            [(-1, 10.0), (1, 20.0), (4, 30.0), (7, 40.0), (8, 50.0)]
        );
        let kept: Vec<_> = kept_cycles(&runs, 2, calls.len()).collect();
        // Calls 2 and 5 follow a kernel run; 3, 4 sit between the runs
        // at 1 and 4; 6, 7 between those at 4 and 7.
        assert_eq!(
            kept,
            [
                (3, 20.0, 30.0),
                (4, 20.0, 30.0),
                (6, 30.0, 40.0),
                (7, 30.0, 40.0)
            ]
        );
    }

    #[test]
    fn a_run_without_kernel_runs_inside_keeps_every_measured_cycle() {
        let _serial = crate::alloc::serial();
        let calls: Vec<Call> = (0..5).map(|_| call(None)).collect();
        let runs = kernel_runs(&calls, 10.0, 30.0);
        let kept: Vec<_> = kept_cycles(&runs, 2, calls.len()).collect();
        assert_eq!(kept, [(2, 10.0, 30.0), (3, 10.0, 30.0), (4, 10.0, 30.0)]);
    }
}
