//! Every experiment that compares runs: E3 (the paper preset under each
//! controller), E4's placement-solver scalability grid (rayon-parallel),
//! seed robustness of the paper experiment, and the corpus, staleness
//! and routing sweeps. Each comparison is a list of specs, one field
//! written per cell, run through one runner into [`CorpusOutcome`] rows.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use slaq_core::{ControllerKind, PipelineSpec, RoutingSpec, ScenarioSpec};
use slaq_placement::problem::{
    AppRequest, JobRequest, NodeCapacity, PlacementConfig, PlacementProblem,
};
use slaq_placement::{solve, Placement};
use slaq_types::{AppId, CpuMhz, JobId, MemMb, NodeId, Result, SimTime};
use std::time::Instant;

/// One cell of the placement scalability grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Node count.
    pub nodes: u32,
    /// Job count.
    pub jobs: u32,
    /// Application count.
    pub apps: u32,
    /// Wall time of one `solve` call, microseconds.
    pub solve_micros: u128,
    /// Fraction of total job demand satisfied.
    pub satisfaction: f64,
}

/// Build a synthetic placement problem of the given size, shaped like the
/// paper's (3000 MHz jobs on 12 000 MHz nodes, 3 jobs per node by memory).
pub fn synthetic_problem(nodes: u32, jobs: u32, apps: u32) -> PlacementProblem {
    let node_caps: Vec<NodeCapacity> = (0..nodes)
        .map(|i| NodeCapacity {
            id: NodeId::new(i),
            cpu: CpuMhz::new(12_000.0),
            mem: MemMb::new(4096),
        })
        .collect();
    let app_reqs: Vec<AppRequest> = (0..apps)
        .map(|i| AppRequest {
            id: AppId::new(i),
            demand: CpuMhz::new(12_000.0 * nodes as f64 * 0.3 / apps.max(1) as f64),
            mem_per_instance: MemMb::new(1024),
            min_instances: 1,
            max_instances: nodes,
            affinity: Vec::new(),
        })
        .collect();
    let job_reqs: Vec<JobRequest> = (0..jobs)
        .map(|i| JobRequest {
            id: JobId::new(i),
            // Deterministic spread of demands, 600..3000 MHz.
            demand: CpuMhz::new(600.0 + 2400.0 * ((i * 7919) % 100) as f64 / 100.0),
            mem: MemMb::new(1280),
            running_on: None,
            affinity: None,
            priority: ((i * 31) % 17) as f64,
            importance: 1.0,
        })
        .collect();
    PlacementProblem {
        nodes: node_caps,
        apps: app_reqs,
        jobs: job_reqs,
        config: PlacementConfig::default(),
    }
}

/// Time `solve` across a grid of `(nodes, jobs)` sizes, in parallel.
pub fn placement_scalability(grid: &[(u32, u32)], apps: u32) -> Vec<SweepCell> {
    grid.par_iter()
        .map(|&(nodes, jobs)| {
            let problem = synthetic_problem(nodes, jobs, apps);
            let start = Instant::now();
            let outcome = solve(&problem, &Placement::empty());
            let solve_micros = start.elapsed().as_micros();
            let demand: f64 = problem.jobs.iter().map(|j| j.demand.as_f64()).sum();
            let got = outcome.placement.total_job_alloc().as_f64();
            SweepCell {
                nodes,
                jobs,
                apps,
                solve_micros,
                satisfaction: if demand > 0.0 { got / demand } else { 1.0 },
            }
        })
        .collect()
}

/// Shape robustness across workload seeds: re-run a paper preset under
/// different arrival streams and report the crossover time and
/// equalization gap per seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedOutcome {
    /// Workload seed.
    pub seed: u64,
    /// Crossover instant, if any.
    pub crossover_secs: Option<f64>,
    /// Mean equalization gap under contention.
    pub equalization_gap: Option<f64>,
    /// Jobs completed.
    pub completed: usize,
}

/// Run the seed sweep (parallel): `base` with `spec.seed` set to each
/// seed in turn.
pub fn seed_sweep(base: &ScenarioSpec, seeds: &[u64]) -> Vec<SeedOutcome> {
    seeds
        .par_iter()
        .map(|&seed| {
            let mut spec = base.clone();
            spec.seed = seed;
            let report = spec.run().expect("scenario must simulate");
            let shape = crate::shape::shape_metrics(&report, &spec);
            SeedOutcome {
                seed,
                crossover_secs: shape.crossover_secs,
                equalization_gap: shape.equalization_gap,
                completed: report.job_stats.completed,
            }
        })
        .collect()
}

/// One spec's scorecard from a (possibly horizon-capped) run: the one
/// row every sweep returns and every table prints from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusOutcome {
    /// Preset name.
    pub scenario: String,
    /// Controller the spec names (`utility` | `fcfs` | `static`) —
    /// corpus rows compare controllers per scenario, not a hard-coded
    /// one.
    pub controller: String,
    /// Pipeline mode label (`sync` | `overlapN`).
    pub pipeline: String,
    /// Routing policy label (`off` | `uniform` | `affinity`).
    pub routing: String,
    /// Cluster size.
    pub nodes: usize,
    /// Transactional applications.
    pub apps: usize,
    /// Jobs the generated stream submits within the (capped) horizon.
    pub jobs_submitted: usize,
    /// Control cycles executed.
    pub cycles: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Completed jobs that met their completion goal.
    pub goals_met: usize,
    /// Total placement disruptions suffered by jobs.
    pub disruptions: u32,
    /// Mean measured transactional utility.
    pub mean_trans_utility: f64,
    /// Minimum measured transactional utility (worst cycle).
    pub min_trans_utility: f64,
    /// Mean controller-neutral job outlook (expected utility of active
    /// jobs at their current speeds).
    pub mean_jobs_outlook: f64,
    /// Minimum over time of min(u_trans(t), jobs_outlook(t)): the
    /// worst-off workload's worst moment — the quantity max–min
    /// management protects, and where queue-tail starvation shows up
    /// (starved pending jobs project at the SLA floor).
    pub worst_workload_utility: f64,
    /// Mean job utility over **all submitted** jobs: completed jobs
    /// contribute their achieved utility, jobs still unfinished at the
    /// horizon contribute the floor (0). Averaging only completed jobs
    /// would reward a scheduler for starving its queue tail — the
    /// survivors all ran at full speed.
    pub mean_job_utility: f64,
    /// Mean request-weighted warmth of routed traffic (`route_quality`
    /// series); `0.0` for scenarios without a routing tier.
    pub route_quality: f64,
    /// Mean warm-work discount factor (1 when off — no work saved).
    pub route_discount: f64,
    /// Σ over cycles of the satisfied CPU samples (`trans_alloc` +
    /// `jobs_alloc`) — the series the staleness gate pins.
    pub satisfied_cpu: f64,
    /// Mean CPU the job tier held (MHz).
    pub mean_jobs_alloc: f64,
    /// Mean age of the enacted plan in seconds (0 under `sync`, which
    /// records no pipeline series).
    pub mean_staleness_secs: f64,
    /// Worst per-app SLO compliance across the run (fraction of cycles
    /// meeting the app's `slo` target, minimized over apps); `1.0` for
    /// scenarios without transactional applications. The sweep runs
    /// with the recorder on to read the SLO board — bit-identical
    /// results either way, per the observability gate.
    pub slo_compliance: f64,
}

/// |mean u_T − mean outlook|: how evenly a run treats the two workloads
/// — the quantity Figure 1 shows the paper's controller driving toward
/// zero.
fn balance_gap(r: &CorpusOutcome) -> f64 {
    (r.mean_trans_utility - r.mean_jobs_outlook).abs()
}

/// Run every corpus preset under its own controller, horizon-capped to
/// `max_cycles` control cycles — scenarios are data, so the cap is one
/// field write on the spec. `None` runs each preset's full horizon.
pub fn corpus_sweep(max_cycles: Option<usize>) -> Result<Vec<CorpusOutcome>> {
    sweep_specs(ScenarioSpec::corpus(), max_cycles)
}

/// Cross `specs` with controller kinds: every spec re-run under each
/// requested controller (`utility` | `fcfs` | `static`), so one table
/// answers "which controller wins on which scenario". E3 is the `paper`
/// preset crossed with all three.
pub fn corpus_controller_sweep(
    specs: &[ScenarioSpec],
    kinds: &[ControllerKind],
    max_cycles: Option<usize>,
) -> Result<Vec<CorpusOutcome>> {
    let cells = cross(specs, kinds, |s, kind| s.controller.kind = kind);
    sweep_specs(cells, max_cycles)
}

/// The staleness sweep: every corpus preset × every requested pipeline
/// mode, horizon-capped to `max_cycles` cycles. Quantifies what acting
/// on a stale snapshot costs: how much satisfied CPU (and how many job
/// completions) survive as `latency_cycles` grows.
pub fn staleness_sweep(
    modes: &[PipelineSpec],
    max_cycles: Option<usize>,
) -> Result<Vec<CorpusOutcome>> {
    let cells = cross(&ScenarioSpec::corpus(), modes, |s, mode| {
        s.controller.pipeline = mode
    });
    sweep_specs(cells, max_cycles)
}

/// The routing-policy sweep: one preset re-run under each requested
/// routing policy, horizon-capped to `max_cycles` cycles. Quantifies
/// what request affinity buys: how much per-request work the warm
/// routes save and where the released CPU goes.
pub fn routing_sweep(
    preset: &str,
    policies: &[RoutingSpec],
    max_cycles: Option<usize>,
) -> Result<Vec<CorpusOutcome>> {
    let base = ScenarioSpec::preset(preset)
        .ok_or_else(|| slaq_types::SlaqError::spec("scenario", format!("no preset {preset:?}")))?;
    let cells = cross(&[base], policies, |s, policy| s.controller.routing = policy);
    sweep_specs(cells, max_cycles)
}

/// Every spec × every value, spec-major: each cell is the spec with one
/// field written.
fn cross<T: Copy>(
    specs: &[ScenarioSpec],
    values: &[T],
    set: impl Fn(&mut ScenarioSpec, T),
) -> Vec<ScenarioSpec> {
    let mut cells = Vec::with_capacity(specs.len() * values.len());
    for spec in specs {
        for &value in values {
            let mut cell = spec.clone();
            set(&mut cell, value);
            cells.push(cell);
        }
    }
    cells
}

/// The one runner: each spec capped to `max_cycles`, run under its own
/// controller with the recorder on, and read out as a row.
fn sweep_specs(specs: Vec<ScenarioSpec>, max_cycles: Option<usize>) -> Result<Vec<CorpusOutcome>> {
    let rows: Vec<Result<CorpusOutcome>> = specs
        .par_iter()
        .map(|spec| {
            let mut spec = spec.clone();
            if let Some(cycles) = max_cycles {
                spec.timing.cap_to_cycles(cycles);
            }
            let horizon = SimTime::from_secs(spec.timing.horizon_secs);
            // Observe each run so the SLO board is populated (the
            // recorder observes, never steers — every other column is
            // bit-identical to an unobserved run).
            spec.controller.observe = slaq_core::ObserveSpec::On;
            let scenario = spec.materialize()?;
            let mut controller = scenario.controller();
            let mut sim = scenario.build()?;
            let report = sim.run(controller.as_mut())?;
            let slo_compliance = sim
                .recorder()
                .slo_board()
                .iter()
                .map(|(_, tracker)| tracker.compliance())
                .fold(1.0f64, f64::min);
            let m = &report.metrics;
            let mean = |name: &str, fallback: f64| -> f64 {
                m.mean_over(name, SimTime::ZERO, horizon)
                    .unwrap_or(fallback)
            };
            let sum = |name: &str| -> f64 { m.series(name).iter().map(|&(_, v)| v).sum() };
            let staleness = m.series("pipeline_staleness_secs");
            let worst = m
                .series("trans_utility")
                .iter()
                .chain(m.series("jobs_outlook"))
                .map(|&(_, v)| v)
                .fold(f64::INFINITY, f64::min);
            let s = report.job_stats;
            Ok(CorpusOutcome {
                scenario: spec.name.clone(),
                controller: spec.controller.kind.name().to_string(),
                pipeline: spec.controller.pipeline.label(),
                routing: spec.controller.routing.label().to_string(),
                nodes: scenario.cluster.node_count() as usize,
                apps: scenario.apps.len(),
                jobs_submitted: s.submitted,
                cycles: report.cycles,
                completed: s.completed,
                goals_met: s.goals_met,
                disruptions: s.disruptions,
                mean_trans_utility: mean("trans_utility", 0.0),
                min_trans_utility: m.min("trans_utility").unwrap_or(0.0),
                mean_jobs_outlook: mean("jobs_outlook", 0.0),
                worst_workload_utility: if worst == f64::INFINITY { 0.0 } else { worst },
                mean_job_utility: if s.submitted > 0 {
                    s.mean_achieved_utility * s.completed as f64 / s.submitted as f64
                } else {
                    0.0
                },
                route_quality: mean("route_quality", 0.0),
                route_discount: mean("route_discount", 1.0),
                satisfied_cpu: sum("trans_alloc") + sum("jobs_alloc"),
                mean_jobs_alloc: mean("jobs_alloc", 0.0),
                mean_staleness_secs: if staleness.is_empty() {
                    0.0
                } else {
                    sum("pipeline_staleness_secs") / staleness.len() as f64
                },
                slo_compliance,
            })
        })
        .collect();
    rows.into_iter().collect()
}

/// Text table for the controller comparison (E3).
pub fn format_comparison(rows: &[CorpusOutcome]) -> String {
    let mut out = format!(
        "{:<26} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8} {:>8}\n",
        "controller",
        "mean u_T",
        "outlook",
        "balance",
        "done",
        "goals_met",
        "mean u_J",
        "disrupt",
        "worst u",
        "min u_T"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<26} {:>9.3} {:>9.3} {:>8.3} {:>8} {:>9} {:>9.3} {:>8} {:>8.3} {:>8.3}\n",
            r.controller,
            r.mean_trans_utility,
            r.mean_jobs_outlook,
            balance_gap(r),
            r.completed,
            r.goals_met,
            r.mean_job_utility,
            r.disruptions,
            r.worst_workload_utility,
            r.min_trans_utility,
        ));
    }
    out
}

/// Text table for the routing-policy sweep.
pub fn format_routing(rows: &[CorpusOutcome]) -> String {
    let mut out = String::from(
        "scenario              policy    cycles  done   route-q  discount  mean u_T  jobs-mhz\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<21} {:<9} {:<7} {:<6} {:<8.3} {:<9.3} {:<9.3} {:.0}\n",
            r.scenario,
            r.routing,
            r.cycles,
            r.completed,
            r.route_quality,
            r.route_discount,
            r.mean_trans_utility,
            r.mean_jobs_alloc,
        ));
    }
    out
}

/// Text table for the staleness sweep.
pub fn format_staleness(rows: &[CorpusOutcome]) -> String {
    let mut out = String::from(
        "scenario              mode      cycles  done   satisfied-cpu  staleness(s)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<21} {:<9} {:<7} {:<6} {:<14.0} {:.0}\n",
            r.scenario, r.pipeline, r.cycles, r.completed, r.satisfied_cpu, r.mean_staleness_secs,
        ));
    }
    out
}

/// Text table for the corpus sweep.
pub fn format_corpus(rows: &[CorpusOutcome]) -> String {
    let mut out = String::from(
        "scenario              ctrl     nodes  apps  submitted  cycles  done   mean u_T   outlook  route-q  slo%\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<21} {:<8} {:<6} {:<5} {:<10} {:<7} {:<6} {:<10.3} {:<8.3} {:<8.3} {:.1}\n",
            r.scenario,
            r.controller,
            r.nodes,
            r.apps,
            r.jobs_submitted,
            r.cycles,
            r.completed,
            r.mean_trans_utility,
            r.mean_jobs_outlook,
            r.route_quality,
            r.slo_compliance * 100.0,
        ));
    }
    out
}

/// Text table for the scalability grid.
pub fn format_scalability(cells: &[SweepCell]) -> String {
    let mut out = String::from("nodes   jobs   apps   solve(us)   job-satisfaction\n");
    for c in cells {
        out.push_str(&format!(
            "{:<7} {:<6} {:<6} {:<11} {:.3}\n",
            c.nodes, c.jobs, c.apps, c.solve_micros, c.satisfaction
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_problem_is_well_formed() {
        let p = synthetic_problem(10, 30, 2);
        assert_eq!(p.nodes.len(), 10);
        assert_eq!(p.jobs.len(), 30);
        assert_eq!(p.apps.len(), 2);
        assert!(p.jobs.iter().all(|j| j.demand.as_f64() >= 600.0));
    }

    #[test]
    fn scalability_sweep_returns_cells_in_grid_order() {
        let grid = [(5u32, 10u32), (10, 30)];
        let cells = placement_scalability(&grid, 1);
        assert_eq!(cells.len(), 2);
        assert_eq!((cells[0].nodes, cells[0].jobs), (5, 10));
        assert!(cells.iter().all(|c| c.satisfaction > 0.0));
    }

    #[test]
    fn bigger_instances_satisfy_loads_that_fit() {
        // 40 nodes × 12 000 = 480 000 MHz vs ~30 jobs × ≤3000: trivial fit.
        let cells = placement_scalability(&[(40, 30)], 1);
        assert!(cells[0].satisfaction > 0.99, "{}", cells[0].satisfaction);
    }

    #[test]
    fn controller_sweep_crosses_presets_with_kinds() {
        // One small preset × all three controllers: the kind column must
        // reflect the spec, and the baselines must actually run.
        let kinds = [
            ControllerKind::Utility,
            ControllerKind::Fcfs,
            ControllerKind::Static {
                trans_fraction: 0.5,
            },
        ];
        let rows = corpus_controller_sweep(&ScenarioSpec::corpus(), &kinds, Some(2)).unwrap();
        assert_eq!(rows.len(), ScenarioSpec::corpus().len() * kinds.len());
        let small: Vec<&CorpusOutcome> = rows
            .iter()
            .filter(|r| r.scenario == "paper-small")
            .collect();
        let names: Vec<&str> = small.iter().map(|r| r.controller.as_str()).collect();
        assert_eq!(names, vec!["utility", "fcfs", "static"]);
        for r in &small {
            assert!(r.cycles >= 2, "{}/{}", r.scenario, r.controller);
        }
    }

    #[test]
    fn comparison_runs_all_three_controllers() {
        // E3: the paper workload under all three controllers.
        let paper = ScenarioSpec::preset("paper-small").unwrap();
        let kinds = [
            ControllerKind::Utility,
            ControllerKind::Fcfs,
            ControllerKind::Static {
                trans_fraction: 0.36,
            },
        ];
        let rows = corpus_controller_sweep(&[paper], &kinds, None).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].controller, "utility");
        // The paper's claim is max–min protection: under job pressure the
        // utility controller's worst-off workload must fare better than
        // under transactional-first FCFS (whose queue tail starves) and
        // the static partition (whose fence wastes capacity). FCFS may
        // legitimately win mean/goal metrics for identical jobs — that is
        // the throughput/fairness trade the paper prices via utilities.
        let (ours, fcfs, fence) = (&rows[0], &rows[1], &rows[2]);
        // Headline (Figure 1): the utility controller treats the two
        // workloads evenly; the utility-blind baselines do not.
        assert!(
            balance_gap(ours) < balance_gap(fcfs) - 0.05,
            "balance: ours {} vs fcfs {}",
            balance_gap(ours),
            balance_gap(fcfs)
        );
        assert!(
            balance_gap(ours) < balance_gap(fence) - 0.05,
            "balance: ours {} vs fence {}",
            balance_gap(ours),
            balance_gap(fence)
        );
        // The fence wastes capacity: its worst-off workload fares worse.
        assert!(
            ours.worst_workload_utility > fence.worst_workload_utility + 0.02,
            "ours {} vs fence {}",
            ours.worst_workload_utility,
            fence.worst_workload_utility
        );
        // FCFS never preempts: zero disruptions; ours pays churn for it.
        assert_eq!(fcfs.disruptions, 0);
        let table = format_comparison(&rows);
        assert!(table.contains("static"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn staleness_sweep_crosses_corpus_with_pipeline_modes() {
        let modes = [PipelineSpec::Sync, PipelineSpec::overlap(1)];
        let cells = staleness_sweep(&modes, Some(2)).unwrap();
        assert_eq!(cells.len(), ScenarioSpec::corpus().len() * modes.len());
        for pair in cells.chunks(2) {
            let (sync, overlap) = (&pair[0], &pair[1]);
            assert_eq!(sync.scenario, overlap.scenario);
            assert_eq!(sync.pipeline, "sync");
            assert_eq!(overlap.pipeline, "overlap1");
            // Only the overlapped run records pipeline series; its
            // enacted plans are exactly one cycle stale.
            assert_eq!(sync.mean_staleness_secs, 0.0, "{}", sync.scenario);
            assert!(
                overlap.mean_staleness_secs > 0.0,
                "{}: no staleness recorded",
                overlap.scenario
            );
        }
        let table = format_staleness(&cells);
        assert_eq!(table.lines().count(), cells.len() + 1);
    }

    #[test]
    fn routing_sweep_crosses_the_preset_with_policies() {
        let policies = [
            RoutingSpec::Off,
            RoutingSpec::Uniform {
                warm_gain: 0.5,
                warm_alpha: 0.5,
            },
            RoutingSpec::Affinity {
                temperature: 0.0,
                warm_gain: 0.5,
                warm_alpha: 0.5,
                load_penalty: 0.4,
                placement_bias: 600.0,
            },
        ];
        let cells = routing_sweep("request-routing", &policies, Some(6)).unwrap();
        let labels: Vec<&str> = cells.iter().map(|c| c.routing.as_str()).collect();
        assert_eq!(labels, vec!["off", "uniform", "affinity"]);
        // Off records no router series: quality 0, discount pinned 1.
        assert_eq!(cells[0].route_quality, 0.0);
        assert_eq!(cells[0].route_discount, 1.0);
        // Both live policies route and save work; even six cycles in,
        // warm concentration beats round-robin spreading.
        for c in &cells[1..] {
            assert!(c.route_quality > 0.0, "{}: no warmth built", c.routing);
            assert!(c.route_discount < 1.0, "{}: no work saved", c.routing);
        }
        assert!(
            cells[2].route_quality > cells[1].route_quality,
            "affinity {:.3} should beat uniform {:.3}",
            cells[2].route_quality,
            cells[1].route_quality
        );
        assert!(routing_sweep("no-such-preset", &policies, Some(1)).is_err());
        let table = format_routing(&cells);
        assert_eq!(table.lines().count(), cells.len() + 1);
        assert!(table.contains("affinity"));
    }

    #[test]
    fn corpus_sweep_touches_every_preset() {
        // Three cycles per preset keeps this minutes-free while still
        // exercising generation → placement → measurement end to end.
        let rows = corpus_sweep(Some(3)).unwrap();
        let names: Vec<&str> = rows.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(names, ScenarioSpec::preset_names());
        for r in &rows {
            assert!(r.cycles >= 3, "{}: cycles {}", r.scenario, r.cycles);
            assert!(r.nodes > 0 && r.apps > 0, "{}", r.scenario);
        }
        let table = format_corpus(&rows);
        assert_eq!(table.lines().count(), rows.len() + 1);
        assert!(table.contains("hetero-pool"));
    }
}
