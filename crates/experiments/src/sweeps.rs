//! E4: placement-solver scalability sweeps (rayon-parallel), seed
//! robustness sweeps of the paper experiment, and brief runs over the
//! whole scenario corpus.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use slaq_core::scenario::PaperParams;
use slaq_core::ScenarioSpec;
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
            let got = outcome.total_job_satisfied().as_f64();
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

/// Shape robustness across workload seeds: re-run the (small) paper
/// experiment under different arrival streams and report the crossover
/// time and equalization gap per seed.
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

/// Run the seed sweep (parallel).
pub fn seed_sweep(base: &PaperParams, seeds: &[u64]) -> Vec<SeedOutcome> {
    seeds
        .par_iter()
        .map(|&seed| {
            let mut p = base.clone();
            p.seed = seed;
            let report = crate::figures::run_paper_experiment(&p).expect("scenario must simulate");
            let shape = crate::shape::shape_metrics(
                &report,
                slaq_types::SimTime::from_secs(p.tail_start_secs),
                slaq_types::SimTime::from_secs(p.horizon_secs),
            );
            SeedOutcome {
                seed,
                crossover_secs: shape.crossover_secs,
                equalization_gap: shape.equalization_gap,
                completed: report.job_stats.completed,
            }
        })
        .collect()
}

/// One corpus scenario's scorecard from a (possibly horizon-capped) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusOutcome {
    /// Preset name.
    pub scenario: String,
    /// Controller the spec names (`utility` | `fcfs` | `static`) —
    /// corpus rows compare controllers per scenario, not a hard-coded
    /// one.
    pub controller: String,
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
    /// Mean measured transactional utility.
    pub mean_trans_utility: f64,
    /// Mean controller-neutral job outlook.
    pub mean_jobs_outlook: f64,
    /// Mean request-weighted warmth of routed traffic (`route_quality`
    /// series); `0.0` for scenarios without a routing tier.
    pub route_quality: f64,
    /// Worst per-app SLO compliance across the run (fraction of cycles
    /// meeting the app's `slo` target, minimized over apps); `1.0` for
    /// scenarios without transactional applications. The sweep runs
    /// with the recorder on to read the SLO board — bit-identical
    /// results either way, per the observability gate.
    pub slo_compliance: f64,
}

/// Run every corpus preset under its own controller, horizon-capped to
/// `max_cycles` control cycles — scenarios are data, so the cap is one
/// field write on the spec. `None` runs each preset's full horizon.
pub fn corpus_sweep(max_cycles: Option<usize>) -> Result<Vec<CorpusOutcome>> {
    sweep_specs(ScenarioSpec::corpus(), max_cycles)
}

/// Cross the corpus with controller kinds: every preset re-run under
/// each requested controller (`utility` | `fcfs` | `static`), so one
/// table answers "which controller wins on which scenario". The
/// controller is spec data, so each cell is a single field write.
pub fn corpus_controller_sweep(
    kinds: &[slaq_core::ControllerKind],
    max_cycles: Option<usize>,
) -> Result<Vec<CorpusOutcome>> {
    let mut specs = Vec::new();
    for spec in ScenarioSpec::corpus() {
        for &kind in kinds {
            let mut s = spec.clone();
            s.controller.kind = kind;
            specs.push(s);
        }
    }
    sweep_specs(specs, max_cycles)
}

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
            Ok(CorpusOutcome {
                scenario: spec.name.clone(),
                controller: spec.controller.kind.name().to_string(),
                nodes: scenario.cluster.len(),
                apps: scenario.apps.len(),
                jobs_submitted: report.job_stats.submitted,
                cycles: report.cycles,
                completed: report.job_stats.completed,
                mean_trans_utility: report
                    .metrics
                    .mean_over("trans_utility", SimTime::ZERO, horizon)
                    .unwrap_or(0.0),
                mean_jobs_outlook: report
                    .metrics
                    .mean_over("jobs_outlook", SimTime::ZERO, horizon)
                    .unwrap_or(0.0),
                route_quality: report
                    .metrics
                    .mean_over("route_quality", SimTime::ZERO, horizon)
                    .unwrap_or(0.0),
                slo_compliance,
            })
        })
        .collect();
    rows.into_iter().collect()
}

/// One cell of the control-plane staleness sweep: a corpus preset run
/// under one pipeline mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StalenessCell {
    /// Preset name.
    pub scenario: String,
    /// Pipeline mode label (`sync` | `overlapN`).
    pub mode: String,
    /// Control cycles executed.
    pub cycles: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Σ over cycles of the satisfied CPU samples (`trans_alloc` +
    /// `jobs_alloc`) — the series the staleness gate pins.
    pub satisfied_cpu: f64,
    /// Mean age of the enacted plan in seconds (0 under `sync`, which
    /// records no pipeline series).
    pub mean_staleness_secs: f64,
}

/// The staleness sweep: every corpus preset × every requested pipeline
/// mode, horizon-capped to `max_cycles` cycles. Quantifies what acting
/// on a stale snapshot costs: how much satisfied CPU (and how many job
/// completions) survive as `latency_cycles` grows. The pipeline is spec
/// data, so each cell is a single field write.
pub fn staleness_sweep(
    modes: &[slaq_core::PipelineSpec],
    max_cycles: Option<usize>,
) -> Result<Vec<StalenessCell>> {
    let mut runs: Vec<(ScenarioSpec, String)> = Vec::new();
    for spec in ScenarioSpec::corpus() {
        for &mode in modes {
            let mut s = spec.clone();
            s.controller.pipeline = mode;
            if let Some(cycles) = max_cycles {
                s.timing.cap_to_cycles(cycles);
            }
            runs.push((s, mode.label()));
        }
    }
    let cells: Vec<Result<StalenessCell>> = runs
        .par_iter()
        .map(|(spec, label)| {
            let report = spec.run()?;
            let sum =
                |name: &str| -> f64 { report.metrics.series(name).iter().map(|&(_, v)| v).sum() };
            let mean = |name: &str| -> f64 {
                let pts = report.metrics.series(name);
                if pts.is_empty() {
                    0.0
                } else {
                    pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64
                }
            };
            Ok(StalenessCell {
                scenario: spec.name.clone(),
                mode: label.clone(),
                cycles: report.cycles,
                completed: report.job_stats.completed,
                satisfied_cpu: sum("trans_alloc") + sum("jobs_alloc"),
                mean_staleness_secs: mean("pipeline_staleness_secs"),
            })
        })
        .collect();
    cells.into_iter().collect()
}

/// One cell of the routing-policy sweep: the `request-routing` preset
/// re-run under one routing policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingCell {
    /// Preset name.
    pub scenario: String,
    /// Routing policy label (`off` | `uniform` | `affinity`).
    pub policy: String,
    /// Control cycles executed.
    pub cycles: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Mean request-weighted warmth of routed traffic (0 when off).
    pub route_quality: f64,
    /// Mean warm-work discount factor (1 when off — no work saved).
    pub route_discount: f64,
    /// Mean measured transactional utility.
    pub mean_trans_utility: f64,
    /// Mean CPU the job tier held (MHz).
    pub mean_jobs_alloc: f64,
}

/// The routing-policy sweep: one preset re-run under each requested
/// routing policy, horizon-capped to `max_cycles` cycles. Quantifies
/// what request affinity buys: how much per-request work the warm
/// routes save and where the released CPU goes. The policy is spec
/// data, so each cell is a single field write.
pub fn routing_sweep(
    preset: &str,
    policies: &[slaq_core::RoutingSpec],
    max_cycles: Option<usize>,
) -> Result<Vec<RoutingCell>> {
    let base = ScenarioSpec::preset(preset)
        .ok_or_else(|| slaq_types::SlaqError::spec("scenario", format!("no preset {preset:?}")))?;
    let runs: Vec<(ScenarioSpec, String)> = policies
        .iter()
        .map(|&policy| {
            let mut s = base.clone();
            s.controller.routing = policy;
            if let Some(cycles) = max_cycles {
                s.timing.cap_to_cycles(cycles);
            }
            (s, policy.label().to_string())
        })
        .collect();
    let cells: Vec<Result<RoutingCell>> = runs
        .par_iter()
        .map(|(spec, label)| {
            let horizon = SimTime::from_secs(spec.timing.horizon_secs);
            let report = spec.run()?;
            let mean = |name: &str, fallback: f64| -> f64 {
                report
                    .metrics
                    .mean_over(name, SimTime::ZERO, horizon)
                    .unwrap_or(fallback)
            };
            Ok(RoutingCell {
                scenario: spec.name.clone(),
                policy: label.clone(),
                cycles: report.cycles,
                completed: report.job_stats.completed,
                route_quality: mean("route_quality", 0.0),
                route_discount: mean("route_discount", 1.0),
                mean_trans_utility: mean("trans_utility", 0.0),
                mean_jobs_alloc: mean("jobs_alloc", 0.0),
            })
        })
        .collect();
    cells.into_iter().collect()
}

/// Text table for the routing-policy sweep.
pub fn format_routing(cells: &[RoutingCell]) -> String {
    let mut out = String::from(
        "scenario              policy    cycles  done   route-q  discount  mean u_T  jobs-mhz\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{:<21} {:<9} {:<7} {:<6} {:<8.3} {:<9.3} {:<9.3} {:.0}\n",
            c.scenario,
            c.policy,
            c.cycles,
            c.completed,
            c.route_quality,
            c.route_discount,
            c.mean_trans_utility,
            c.mean_jobs_alloc,
        ));
    }
    out
}

/// Text table for the staleness sweep.
pub fn format_staleness(cells: &[StalenessCell]) -> String {
    let mut out = String::from(
        "scenario              mode      cycles  done   satisfied-cpu  staleness(s)\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{:<21} {:<9} {:<7} {:<6} {:<14.0} {:.0}\n",
            c.scenario, c.mode, c.cycles, c.completed, c.satisfied_cpu, c.mean_staleness_secs,
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
        use slaq_core::ControllerKind;
        // One small preset × all three controllers: the kind column must
        // reflect the spec, and the baselines must actually run.
        let kinds = [
            ControllerKind::Utility,
            ControllerKind::Fcfs,
            ControllerKind::Static {
                trans_fraction: 0.5,
            },
        ];
        let rows = corpus_controller_sweep(&kinds, Some(2)).unwrap();
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
    fn staleness_sweep_crosses_corpus_with_pipeline_modes() {
        use slaq_core::PipelineSpec;
        let modes = [PipelineSpec::Sync, PipelineSpec::overlap(1)];
        let cells = staleness_sweep(&modes, Some(2)).unwrap();
        assert_eq!(cells.len(), ScenarioSpec::corpus().len() * modes.len());
        for pair in cells.chunks(2) {
            let (sync, overlap) = (&pair[0], &pair[1]);
            assert_eq!(sync.scenario, overlap.scenario);
            assert_eq!(sync.mode, "sync");
            assert_eq!(overlap.mode, "overlap1");
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
        use slaq_core::RoutingSpec;
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
        let labels: Vec<&str> = cells.iter().map(|c| c.policy.as_str()).collect();
        assert_eq!(labels, vec!["off", "uniform", "affinity"]);
        // Off records no router series: quality 0, discount pinned 1.
        assert_eq!(cells[0].route_quality, 0.0);
        assert_eq!(cells[0].route_discount, 1.0);
        // Both live policies route and save work; even six cycles in,
        // warm concentration beats round-robin spreading.
        for c in &cells[1..] {
            assert!(c.route_quality > 0.0, "{}: no warmth built", c.policy);
            assert!(c.route_discount < 1.0, "{}: no work saved", c.policy);
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
