//! The metric tables: what the benchmark reports, in which unit, which
//! way is better, and — for end-to-end metrics — by what share of the
//! parent's median a metric may get worse before a change counts as a
//! regression. `BENCHMARK.json` mirrors these tables; a unit test keeps
//! the two in step.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// What a user of the system sees, same names on every workload. All
/// timings are calibrated (reference) time; see `calib.rs`. Each bound is
/// at least three times the widest spread (interquartile range over the
/// median of ten runs, one seed each) the metric showed on any workload
/// on the baseline box; README.md has the table.
pub const END_TO_END: [EndToEnd; 9] = [
    // Spec text → parse → materialize → build → end of warm-up (cold
    // first solve of the whole prefill plus five more cycles); for
    // `paper-corpus`, parse + materialize + build of all 12 presets.
    // Median over the run's rounds.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // Host time per simulated control period, controller return to
    // controller return: event loop + route + sense + solve + actuate +
    // record.
    EndToEnd {
        name: "cycle_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.20,
    },
    // Time inside `Controller::control_delta`: what an operator running
    // this controller against a real cluster waits for.
    EndToEnd {
        name: "decide_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.20,
    },
    // Simulated seconds per reference second over the kept cycles —
    // mean-based, so it catches tail regressions the median hides.
    EndToEnd {
        name: "sim_speedup",
        unit: "sim-s/ref-s",
        better: "higher",
        bound: 0.20,
    },
    // High-water mark of live heap bytes over one round.
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
    // Mean over the measured cycles of every app's measured utility and
    // the job population's mean outlook: the quantity the paper's
    // controller equalizes and maximizes.
    EndToEnd {
        name: "utility_mean",
        unit: "utility",
        better: "higher",
        bound: 0.05,
    },
    // goals_met / completed over the whole run.
    EndToEnd {
        name: "job_goal_met_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.05,
    },
    // Share of (app, cycle) samples whose response time met the goal.
    EndToEnd {
        name: "rt_goal_met_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.06,
    },
    // Placement changes enacted per measured cycle: the churn the fleet
    // pays for the controller's decisions.
    EndToEnd {
        name: "changes_per_cycle",
        unit: "1/cycle",
        better: "lower",
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Metrics of single layers, from the traced run. `*_us` are reference
/// µs per control cycle unless the name says otherwise. Sources: T =
/// bench-side timer on the live untraced rounds, R = replay of captured
/// snapshots through public functions, O = the program's own spans and
/// counters read after a traced round, A = counting allocator.
pub const PER_LAYER: [PerLayer; 58] = [
    // spec / scenario (T) — move `setup_s`.
    layer("spec.parse_us", "us", "lower"),
    layer("spec.materialize_us", "us", "lower"),
    layer("scenario.build_us", "us", "lower"),
    layer("sim.first_cycle_us", "us", "lower"),
    // sim (T) — move `cycle_us_p50`, `sim_speedup`.
    layer("sim.between_us_p50", "us", "lower"),
    layer("sim.cycle_us_p90", "us", "lower"),
    layer("sim.population_drift", "ratio", "lower"),
    layer("sim.jobs_active", "count", "higher"),
    // sim (R).
    layer("sim.effective_speeds_us", "us", "lower"),
    layer("sim.snapshot_us", "us", "lower"),
    layer("sim.delta_observe_us", "us", "lower"),
    // sim (O): the `cycle.*` stage spans.
    layer("sim.delta_dirty", "count", "lower"),
    layer("sim.route_us", "us", "lower"),
    layer("sim.sense_us", "us", "lower"),
    layer("sim.solve_us", "us", "lower"),
    layer("sim.actuate_us", "us", "lower"),
    // jobs / utility (R) — move `decide_us_p50`.
    layer("jobs.entities_us", "us", "lower"),
    layer("jobs.advance_us", "us", "lower"),
    layer("utility.equalize_us", "us", "lower"),
    layer("utility.entities", "count", "higher"),
    // core.controller (T / R / O).
    layer("core.decide_us_p90", "us", "lower"),
    layer("core.control_replay_us", "us", "lower"),
    layer("core.equalize_us", "us", "lower"),
    // placement.solver (O / R).
    layer("placement.steps_us", "us", "lower"),
    layer("placement.step5_evict_us", "us", "lower"),
    layer("placement.memo_hits", "count", "higher"),
    layer("placement.heap_rebuilds", "count", "lower"),
    layer("placement.solve_warm_us", "us", "lower"),
    // placement.alloc (O).
    layer("placement.alloc_us", "us", "lower"),
    layer("placement.alloc_delta_us", "us", "lower"),
    // placement.delta (O) — fleet-still only.
    layer("placement.delta.skip_hits", "count", "higher"),
    layer("placement.delta.alloc_hits", "count", "higher"),
    layer("placement.delta.fallbacks", "count", "lower"),
    layer("placement.delta.hit_frac", "ratio", "higher"),
    // placement.shard (O) — fleet-zoned only.
    layer("placement.shard.split_us", "us", "lower"),
    layer("placement.shard.lanes_us", "us", "lower"),
    layer("placement.shard.merge_us", "us", "lower"),
    layer("placement.shard.rebalance_us", "us", "lower"),
    layer("placement.shard.migrations", "count", "lower"),
    // core.pipeline (O) — fleet-zoned only.
    layer("core.pipeline.solve_us", "us", "lower"),
    layer("core.pipeline.reconcile_us", "us", "lower"),
    layer("core.pipeline.superseded", "count", "lower"),
    layer("core.pipeline.reconcile_drops", "count", "lower"),
    // routing (O) — fleet-churn and the request-routing preset.
    layer("routing.requests", "count", "higher"),
    // obs (T / O).
    layer("obs.trace_overhead_ratio", "ratio", "lower"),
    layer("obs.span_coverage_frac", "ratio", "higher"),
    layer("obs.slo_compliance_min", "ratio", "higher"),
    layer("obs.audit_entries", "count", "lower"),
    // quality, exact: the max-min floor the mean hides.
    layer("quality.utility_floor", "utility", "higher"),
    // allocator (A), exact.
    layer("alloc.count_per_cycle", "count", "lower"),
    layer("alloc.bytes_per_cycle", "bytes", "lower"),
    layer("alloc.decide_count_per_cycle", "count", "lower"),
    // host (T): noise diagnostics, raw host time.
    layer("host.calib_us_p50", "us", "lower"),
    layer("host.calib_spread", "ratio", "lower"),
    layer("host.cycle_us_raw_p50", "us", "lower"),
    layer("host.decide_us_raw_p50", "us", "lower"),
    layer("host.peak_rss_mb", "MiB", "lower"),
    layer("host.samples", "count", "higher"),
];

/// Named values in reporting order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}
