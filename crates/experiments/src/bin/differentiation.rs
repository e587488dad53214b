//! E8: service differentiation — gold jobs (importance 2) vs bronze jobs
//! (importance 1) with identical SLAs on a contended cluster.
//!
//! ```text
//! cargo run --release -p slaq-experiments --bin differentiation
//! ```

use slaq_core::{ClusterTopology, ControllerSpec, JobStreamSpec, ScenarioSpec, TimingSpec};
use slaq_types::{CpuMhz, MemMb, SimTime, Work};
use slaq_workloads::{ArrivalProcess, JobMix, JobTemplate};

/// One tier: eight one-job drops 400 s apart from `first_secs`, every
/// job a 2 500 s, 1 280 MB template with goal factors 1.25 and 3.0.
fn tier(name: &str, first_secs: f64, importance: f64, seed_offset: u64) -> JobStreamSpec {
    let mut mix = JobMix::uniform(JobTemplate {
        name_prefix: name.into(),
        work: Work::from_power_secs(CpuMhz::new(3000.0), 2500.0),
        max_speed: CpuMhz::new(3000.0),
        mem: MemMb::new(1280),
        goal_factor: 1.25,
        exhausted_factor: 3.0,
    });
    mix.classes[0].importance = importance;
    JobStreamSpec {
        name: name.into(),
        arrivals: ArrivalProcess::BatchDrops {
            first_secs,
            period_secs: 400.0,
            batch_size: 1,
        },
        max_jobs: 8,
        mix,
        seed_offset,
    }
}

/// Gold and bronze utilities achieved (or, if unfinished, the utility
/// at never) on three 4-core nodes, gold submitted every 400 s from 0 s
/// and bronze every 400 s from 200 s.
fn scenario(gold_importance: f64) -> (Vec<f64>, Vec<f64>) {
    let spec = ScenarioSpec {
        name: "differentiation-e8".into(),
        seed: 0,
        cluster: ClusterTopology::homogeneous(3, 4, 3000.0, 4096),
        timing: TimingSpec {
            control_period_secs: 600.0,
            horizon_secs: 14_000.0,
            cap_transactional: false,
            ..TimingSpec::default()
        },
        controller: ControllerSpec::default(),
        apps: vec![],
        job_streams: vec![
            tier("gold", 0.0, gold_importance, 0),
            tier("bronze", 200.0, 1.0, 1),
        ],
        outages: vec![],
        chaos: None,
        overcommit: None,
        elasticity: None,
    };
    let scenario = spec.materialize().expect("valid spec");
    let mut controller = scenario.controller();
    let mut sim = scenario.build().expect("scenario builds");
    sim.run(controller.as_mut()).expect("run");
    let mut gold = Vec::new();
    let mut bronze = Vec::new();
    for j in sim.jobs().jobs() {
        let u = j
            .achieved_utility
            .unwrap_or_else(|| j.spec.goal.utility_at(SimTime::NEVER));
        if j.spec.name.starts_with("gold") {
            gold.push(u)
        } else {
            bronze.push(u)
        }
    }
    (gold, bronze)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn main() {
    println!("E8 — service differentiation (gold importance 2.0, bronze 1.0)\n");
    let (g_w, b_w) = scenario(2.0);
    let (g_u, b_u) = scenario(1.0);
    println!(
        "{:<22} {:>12} {:>12} {:>14}",
        "config", "gold mean u", "bronze mean u", "gold - bronze"
    );
    println!(
        "{:<22} {:>12.3} {:>12.3} {:>14.3}",
        "weighted (2:1)",
        mean(&g_w),
        mean(&b_w),
        mean(&g_w) - mean(&b_w)
    );
    println!(
        "{:<22} {:>12.3} {:>12.3} {:>14.3}",
        "unweighted",
        mean(&g_u),
        mean(&b_u),
        mean(&g_u) - mean(&b_u)
    );
    println!(
        "\naggregate utility: weighted {:.3} vs unweighted {:.3} (differentiation \
         redistributes, it does not create)",
        mean(&g_w) + mean(&b_w),
        mean(&g_u) + mean(&b_u)
    );
}
