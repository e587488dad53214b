//! The built-in presets as they were built before they became spec files
//! under `crates/core/presets/`: one Rust builder per preset, their
//! helpers, the names list and the lookup match, kept verbatim.
//! `tests/preset_data.rs` holds every shipped file to these builders.

use slaq::core::{
    AppSpec, ClusterTopology, ControllerSpec, JobStreamSpec, NodePoolSpec, OutageSpec, RoutingSpec,
    ScenarioSpec, TimingSpec,
};
use slaq::sim::{ChaosSpec, ElasticitySpec, OvercommitSpec};
use slaq::types::{CpuMhz, MemMb, SimTime, Work};
use slaq::workloads::{ArrivalProcess, IntensityTrace, JobMix, JobTemplate, RateSchedule};

/// Names of the built-in corpus, in canonical order. The last four
/// are the adversarial presets (chaos plans, overbooking,
/// elasticity) asserted under the invariant checker by
/// `tests/adversarial.rs`.
pub fn preset_names() -> &'static [&'static str] {
    &[
        "paper",
        "paper-small",
        "hetero-pool",
        "diurnal",
        "bursty-batch",
        "differentiation-mix",
        "consolidation",
        "request-routing",
        "flash-crowd",
        "zone-storm",
        "node-flap",
        "antagonist-flood",
    ]
}

/// Look up a built-in preset by name.
pub fn preset(name: &str) -> Option<ScenarioSpec> {
    match name {
        "paper" => Some(paper()),
        "paper-small" => Some(paper_small()),
        "hetero-pool" => Some(hetero_pool()),
        "diurnal" => Some(diurnal()),
        "bursty-batch" => Some(bursty_batch()),
        "differentiation-mix" => Some(differentiation_mix()),
        "consolidation" => Some(consolidation()),
        "request-routing" => Some(request_routing()),
        "flash-crowd" => Some(flash_crowd()),
        "zone-storm" => Some(zone_storm()),
        "node-flap" => Some(node_flap()),
        "antagonist-flood" => Some(antagonist_flood()),
        _ => None,
    }
}

fn batch_template(prefix: &str, work_secs: f64, mem_mb: u64) -> JobTemplate {
    JobTemplate {
        name_prefix: prefix.into(),
        work: Work::from_power_secs(CpuMhz::new(3000.0), work_secs),
        max_speed: CpuMhz::new(3000.0),
        mem: MemMb::new(mem_mb),
        goal_factor: 1.25,
        exhausted_factor: 3.0,
    }
}

fn small_app(name: &str, trace: IntensityTrace, max_instances: u32) -> AppSpec {
    AppSpec {
        name: name.into(),
        trace,
        service_mhz_s: 720.0,
        rt_goal_secs: 0.5,
        u_cap: 0.9,
        mem_mb: 1024,
        min_instances: 1,
        max_instances,
        estimator_alpha: 0.4,
        slo: None,
    }
}

/// The paper's experiment: 25 four-processor nodes, one constant
/// transactional workload, and up to 800 identical jobs of 4.5 h at one
/// processor with a mean spacing of 260 s that thins to 520 s after
/// 50 000 s ("at the end of the experiment the job submission rate is
/// slightly decreased"), over a 72 000 s horizon. 4096 MB nodes with
/// 1280 MB jobs give the paper's three-jobs-per-node constraint.
fn paper() -> ScenarioSpec {
    ScenarioSpec {
        name: "paper".into(),
        // Arbitrary workload-stream seed, chosen so the scaled-down
        // scenario exhibits the paper's crossover→equalize→recover
        // shape with comfortable margins under the in-tree ChaCha12
        // stream (the offline stand-in's keystream differs from the
        // upstream rand_chacha crate's).
        seed: 8,
        cluster: ClusterTopology::homogeneous(25, 4, 3000.0, 4096),
        timing: TimingSpec {
            horizon_secs: 72_000.0,
            // The authors' middleware enforces the computed
            // allocations; without limits, work-conserving spare
            // masks the squeeze that Figure 1 shows.
            cap_transactional: true,
            ..TimingSpec::default()
        },
        controller: ControllerSpec::default(),
        apps: vec![AppSpec {
            name: "transactional".into(),
            // λ·c = 78 000 MHz of raw offered load plus 60 000 MHz of
            // response-time headroom at u_cap: a max-utility demand of
            // ~138 000 MHz (46 % of the cluster), most of it squeezable —
            // the proportion Figure 2's transactional curves exhibit.
            trace: IntensityTrace::constant(26.0),
            service_mhz_s: 3000.0,
            rt_goal_secs: 0.5,
            u_cap: 0.9,
            mem_mb: 1024,
            min_instances: 1,
            max_instances: 25,
            estimator_alpha: 0.4,
            slo: None,
        }],
        job_streams: vec![JobStreamSpec {
            name: "batch".into(),
            arrivals: thinning_poisson(260.0, 50_000.0, 520.0),
            max_jobs: 800,
            mix: JobMix::uniform(batch_template("batch", 16_200.0, 1280)),
            seed_offset: 0,
        }],
        outages: vec![],
        chaos: None,
        overcommit: None,
        elasticity: None,
    }
}

/// A ~4× smaller `paper` (nodes, traffic, job length, horizon) that
/// keeps the experiment's *proportions* — job work-arrival rate ≈ 62 %
/// of cluster power and transactional max-utility demand ≈ 47 %, i.e.
/// the same ~109 % aggregate pressure as the full setup — so the
/// crossover→equalization→recovery shape survives the scaling. Tests
/// and smoke runs use it where the full run would be wasteful.
fn paper_small() -> ScenarioSpec {
    let mut spec = paper();
    spec.name = "paper-small".into();
    spec.cluster = ClusterTopology::homogeneous(6, 4, 3000.0, 4096);
    spec.timing.horizon_secs = 22_000.0;
    let app = &mut spec.apps[0];
    app.trace = IntensityTrace::constant(27.0);
    app.service_mhz_s = 720.0;
    app.max_instances = 6;
    let stream = &mut spec.job_streams[0];
    stream.arrivals = thinning_poisson(240.0, 11_000.0, 800.0);
    stream.max_jobs = 200;
    stream.mix = JobMix::uniform(batch_template("batch", 4000.0, 1280));
    spec
}

/// Poisson submissions at `mean_secs` spacing until `tail_start_secs`,
/// then at `tail_mean_secs`.
fn thinning_poisson(mean_secs: f64, tail_start_secs: f64, tail_mean_secs: f64) -> ArrivalProcess {
    ArrivalProcess::Poisson {
        schedule: RateSchedule::new(vec![
            (SimTime::ZERO, mean_secs),
            (SimTime::from_secs(tail_start_secs), tail_mean_secs),
        ])
        .expect("valid schedule"),
    }
}

/// Heterogeneous fleet: fat high-memory nodes next to the paper's 4-way
/// boxes and a pair of fast 2-way machines, with one planned outage —
/// the regime DRAPS targets, where per-node headroom differs.
fn hetero_pool() -> ScenarioSpec {
    ScenarioSpec {
        name: "hetero-pool".into(),
        seed: 8,
        cluster: ClusterTopology {
            pools: vec![
                NodePoolSpec {
                    count: 4,
                    cpus_per_node: 4,
                    core_mhz: 3000.0,
                    node_mem_mb: 4096,
                    zone: None,
                },
                NodePoolSpec {
                    count: 2,
                    cpus_per_node: 8,
                    core_mhz: 2400.0,
                    node_mem_mb: 16_384,
                    zone: None,
                },
                NodePoolSpec {
                    count: 2,
                    cpus_per_node: 2,
                    core_mhz: 3600.0,
                    node_mem_mb: 2048,
                    zone: None,
                },
            ],
        },
        timing: TimingSpec {
            horizon_secs: 22_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec::default(),
        apps: vec![small_app("webfront", IntensityTrace::constant(24.0), 8)],
        job_streams: vec![JobStreamSpec {
            name: "batch".into(),
            arrivals: ArrivalProcess::poisson_constant(220.0).expect("positive mean"),
            max_jobs: 160,
            mix: JobMix::uniform(batch_template("batch", 4000.0, 1280)),
            seed_offset: 0,
        }],
        outages: vec![OutageSpec {
            node: 0,
            from_secs: 9000.0,
            to_secs: 13_000.0,
        }],
        chaos: None,
        overcommit: None,
        elasticity: None,
    }
}

/// Diurnal + flash-crowd transactional demand over a small cluster: the
/// composed trace peaks where placement must steal CPU back from jobs.
fn diurnal() -> ScenarioSpec {
    ScenarioSpec {
        name: "diurnal".into(),
        seed: 8,
        cluster: ClusterTopology::homogeneous(6, 4, 3000.0, 4096),
        timing: TimingSpec {
            horizon_secs: 24_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec::default(),
        apps: vec![small_app(
            "storefront",
            IntensityTrace::Sum {
                parts: vec![
                    IntensityTrace::Diurnal {
                        base: 16.0,
                        amplitude: 12.0,
                        period_secs: 24_000.0,
                        phase_secs: 0.0,
                    },
                    IntensityTrace::Spiky {
                        base: 0.0,
                        surge: 18.0,
                        period_secs: 8000.0,
                        spike_secs: 900.0,
                        phase_secs: 2000.0,
                    },
                ],
            },
            6,
        )],
        job_streams: vec![JobStreamSpec {
            name: "batch".into(),
            arrivals: ArrivalProcess::poisson_constant(300.0).expect("positive mean"),
            max_jobs: 70,
            mix: JobMix::uniform(batch_template("batch", 4000.0, 1280)),
            seed_offset: 0,
        }],
        outages: vec![],
        chaos: None,
        overcommit: None,
        elasticity: None,
    }
}

/// Bursty ON–OFF submissions riding over nightly batch drops — the
/// MORPHOSYS-style periodic/bursty colocation regime.
fn bursty_batch() -> ScenarioSpec {
    ScenarioSpec {
        name: "bursty-batch".into(),
        seed: 8,
        cluster: ClusterTopology::homogeneous(6, 4, 3000.0, 4096),
        timing: TimingSpec {
            horizon_secs: 22_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec::default(),
        apps: vec![small_app("portal", IntensityTrace::constant(10.0), 6)],
        job_streams: vec![
            JobStreamSpec {
                name: "bursts".into(),
                arrivals: ArrivalProcess::OnOff {
                    on_secs: 1200.0,
                    off_secs: 2400.0,
                    on_mean_interarrival_secs: 110.0,
                    off_mean_interarrival_secs: None,
                },
                max_jobs: 90,
                mix: JobMix::uniform(batch_template("burst", 2500.0, 1280)),
                seed_offset: 0,
            },
            JobStreamSpec {
                name: "nightly".into(),
                arrivals: ArrivalProcess::BatchDrops {
                    first_secs: 3000.0,
                    period_secs: 7000.0,
                    batch_size: 8,
                },
                max_jobs: 24,
                mix: JobMix::uniform(batch_template("nightly", 5000.0, 1280)),
                seed_offset: 1,
            },
        ],
        outages: vec![],
        chaos: None,
        overcommit: None,
        elasticity: None,
    }
}

/// Differentiated importance tiers over a short/long × small/large job
/// mixture: gold jobs may take only half the utility shortfall of
/// standard ones.
fn differentiation_mix() -> ScenarioSpec {
    ScenarioSpec {
        name: "differentiation-mix".into(),
        seed: 8,
        cluster: ClusterTopology::homogeneous(4, 4, 3000.0, 4096),
        timing: TimingSpec {
            horizon_secs: 18_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec::default(),
        apps: vec![small_app("checkout", IntensityTrace::constant(12.0), 4)],
        job_streams: vec![JobStreamSpec {
            name: "tiers".into(),
            arrivals: ArrivalProcess::poisson_constant(210.0).expect("positive mean"),
            max_jobs: 70,
            mix: JobMix {
                classes: vec![
                    slaq_workloads::TemplateClass {
                        template: batch_template("gold-short", 1800.0, 512),
                        weight: 2.0,
                        importance: 2.0,
                    },
                    slaq_workloads::TemplateClass {
                        template: batch_template("std-mid", 3600.0, 1280),
                        weight: 2.0,
                        importance: 1.0,
                    },
                    slaq_workloads::TemplateClass {
                        template: batch_template("std-long-big", 7200.0, 2048),
                        weight: 1.0,
                        importance: 1.0,
                    },
                ],
            },
            seed_offset: 0,
        }],
        outages: vec![],
        chaos: None,
        overcommit: None,
        elasticity: None,
    }
}

/// Multi-app consolidation over a **zoned** heterogeneous fleet: four
/// transactional apps on staggered diurnal phases (the regime where
/// estimator lag matters — every app peaks while another troughs, so the
/// controller continuously re-trades CPU), with a steady batch stream
/// underneath. The three zone labels activate the sharded placement
/// engine, making this the sharding showcase scenario.
fn consolidation() -> ScenarioSpec {
    let period = 24_000.0;
    // One shared diurnal shape, phase-staggered per app and reused
    // through the trace algebra: scaled per-app, clamped so troughs keep
    // a floor of traffic and the flash peaks stay under an ingress cap.
    let staggered = |phase_frac: f64, scale: f64| IntensityTrace::Clamp {
        min: 2.0,
        max: 34.0,
        part: Box::new(IntensityTrace::Scale {
            factor: scale,
            part: Box::new(IntensityTrace::Diurnal {
                base: 14.0,
                amplitude: 12.0,
                period_secs: period,
                phase_secs: period * phase_frac,
            }),
        }),
    };
    ScenarioSpec {
        name: "consolidation".into(),
        seed: 8,
        cluster: ClusterTopology {
            pools: vec![
                NodePoolSpec {
                    count: 6,
                    cpus_per_node: 4,
                    core_mhz: 3000.0,
                    node_mem_mb: 4096,
                    zone: Some("core".into()),
                },
                NodePoolSpec {
                    count: 3,
                    cpus_per_node: 8,
                    core_mhz: 2400.0,
                    node_mem_mb: 16_384,
                    zone: Some("yard".into()),
                },
                NodePoolSpec {
                    count: 3,
                    cpus_per_node: 2,
                    core_mhz: 3600.0,
                    node_mem_mb: 2048,
                    zone: Some("edge".into()),
                },
            ],
        },
        timing: TimingSpec {
            horizon_secs: 24_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec::default(),
        apps: vec![
            small_app("storefront", staggered(0.0, 1.0), 8),
            small_app("ledger", staggered(0.25, 0.8), 6),
            small_app("search", staggered(0.5, 1.2), 8),
            small_app("reports", staggered(0.75, 0.6), 5),
        ],
        job_streams: vec![JobStreamSpec {
            name: "batch".into(),
            arrivals: ArrivalProcess::poisson_constant(240.0).expect("positive mean"),
            max_jobs: 90,
            mix: JobMix::uniform(batch_template("batch", 3500.0, 1280)),
            seed_offset: 0,
        }],
        outages: vec![],
        chaos: None,
        overcommit: None,
        elasticity: None,
    }
}

/// Skewed-affinity fleet for the request-routing tier: two hot
/// transactional apps spread over a heterogeneous pool whose per-node
/// capacity shares differ, under enough batch pressure that the
/// equalizer is always in contention. Warmth-concentrated routing lowers
/// the apps' effective work (cache/data locality), releasing real CPU to
/// the job tier — uniform routing spreads traffic thin, keeps every
/// instance lukewarm, and visibly loses on satisfied demand.
fn request_routing() -> ScenarioSpec {
    ScenarioSpec {
        name: "request-routing".into(),
        seed: 8,
        cluster: ClusterTopology {
            pools: vec![
                NodePoolSpec {
                    count: 4,
                    cpus_per_node: 4,
                    core_mhz: 3000.0,
                    node_mem_mb: 4096,
                    zone: None,
                },
                NodePoolSpec {
                    count: 2,
                    cpus_per_node: 2,
                    core_mhz: 3600.0,
                    node_mem_mb: 2048,
                    zone: None,
                },
            ],
        },
        timing: TimingSpec {
            horizon_secs: 18_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec {
            routing: RoutingSpec::Affinity {
                temperature: 0.0,
                warm_gain: 0.5,
                warm_alpha: 0.5,
                load_penalty: 0.4,
                placement_bias: 600.0,
            },
            ..ControllerSpec::default()
        },
        apps: vec![
            small_app("catalog", IntensityTrace::constant(30.0), 6),
            small_app("session", IntensityTrace::constant(18.0), 4),
        ],
        job_streams: vec![JobStreamSpec {
            name: "batch".into(),
            arrivals: ArrivalProcess::poisson_constant(240.0).expect("positive mean"),
            max_jobs: 70,
            mix: JobMix::uniform(batch_template("batch", 4000.0, 1280)),
            seed_offset: 0,
        }],
        outages: vec![],
        chaos: None,
        overcommit: None,
        elasticity: None,
    }
}

/// Adversarial: overbooked cluster under recurring flash crowds. The
/// controller sees 30% more CPU than physically exists while a
/// rectangular demand surge lands every 6000 s; roughly every third
/// cycle a node's true usage bites, clipping placed work and feeding
/// the `overcommit` attribution cause.
fn flash_crowd() -> ScenarioSpec {
    ScenarioSpec {
        name: "flash-crowd".into(),
        seed: 8,
        cluster: ClusterTopology::homogeneous(6, 4, 3000.0, 4096),
        timing: TimingSpec {
            horizon_secs: 22_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec::default(),
        apps: vec![small_app("storefront", IntensityTrace::constant(14.0), 8)],
        job_streams: vec![JobStreamSpec {
            name: "batch".into(),
            arrivals: ArrivalProcess::poisson_constant(240.0).expect("positive mean"),
            max_jobs: 70,
            mix: JobMix::uniform(batch_template("batch", 4000.0, 1280)),
            seed_offset: 0,
        }],
        outages: vec![],
        chaos: Some(ChaosSpec {
            flash_crowds: Some(slaq_sim::FlashCrowdSpec {
                surge: 30.0,
                first_secs: 2000.0,
                period_secs: 6000.0,
                spike_secs: 900.0,
            }),
            ..ChaosSpec::default()
        }),
        overcommit: Some(OvercommitSpec {
            cpu_ratio: 1.3,
            mem_ratio: 1.0,
            bite_prob: 0.35,
            bite_depth: 0.3,
        }),
        elasticity: None,
    }
}

/// Adversarial: correlated zone-outage storms over the consolidation
/// topology (three zones, so the sharded engine is live). Every storm
/// takes half of one randomly chosen zone down for 1500 s — the
/// controller must repeatedly evacuate and re-pack whole racks.
fn zone_storm() -> ScenarioSpec {
    ScenarioSpec {
        name: "zone-storm".into(),
        seed: 8,
        cluster: ClusterTopology {
            pools: vec![
                NodePoolSpec {
                    count: 6,
                    cpus_per_node: 4,
                    core_mhz: 3000.0,
                    node_mem_mb: 4096,
                    zone: Some("core".into()),
                },
                NodePoolSpec {
                    count: 3,
                    cpus_per_node: 8,
                    core_mhz: 2400.0,
                    node_mem_mb: 16_384,
                    zone: Some("yard".into()),
                },
                NodePoolSpec {
                    count: 3,
                    cpus_per_node: 2,
                    core_mhz: 3600.0,
                    node_mem_mb: 2048,
                    zone: Some("edge".into()),
                },
            ],
        },
        timing: TimingSpec {
            horizon_secs: 24_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec::default(),
        apps: vec![
            small_app("storefront", IntensityTrace::constant(16.0), 8),
            small_app("search", IntensityTrace::constant(10.0), 6),
        ],
        job_streams: vec![JobStreamSpec {
            name: "batch".into(),
            arrivals: ArrivalProcess::poisson_constant(240.0).expect("positive mean"),
            max_jobs: 80,
            mix: JobMix::uniform(batch_template("batch", 3500.0, 1280)),
            seed_offset: 0,
        }],
        outages: vec![],
        chaos: Some(ChaosSpec {
            zone_storms: Some(slaq_sim::ZoneStormSpec {
                first_secs: 3000.0,
                period_secs: 6000.0,
                duration_secs: 1500.0,
                zones_per_storm: 1,
                node_fraction: 0.5,
            }),
            degradation: Some(slaq_sim::DegradationSpec {
                nodes: 2,
                from_secs: 8000.0,
                to_secs: 16000.0,
                cpu_factor: 0.6,
            }),
            ..ChaosSpec::default()
        }),
        overcommit: None,
        elasticity: None,
    }
}

/// Adversarial: two seeded flappers cycling down and up every 4800 s
/// under a tight 6-change budget — the regime where a churn-happy
/// controller would thrash and blow its budget re-placing the same
/// victims every cycle.
fn node_flap() -> ScenarioSpec {
    ScenarioSpec {
        name: "node-flap".into(),
        seed: 8,
        cluster: ClusterTopology::homogeneous(6, 4, 3000.0, 4096),
        timing: TimingSpec {
            horizon_secs: 22_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec {
            max_changes: Some(6),
            ..ControllerSpec::default()
        },
        apps: vec![small_app("storefront", IntensityTrace::constant(14.0), 8)],
        job_streams: vec![JobStreamSpec {
            name: "batch".into(),
            arrivals: ArrivalProcess::poisson_constant(240.0).expect("positive mean"),
            max_jobs: 90,
            mix: JobMix::uniform(batch_template("batch", 4000.0, 1280)),
            seed_offset: 0,
        }],
        outages: vec![],
        chaos: Some(ChaosSpec {
            flaps: Some(slaq_sim::FlapSpec {
                nodes: 2,
                first_secs: 2400.0,
                period_secs: 4800.0,
                down_secs: 900.0,
            }),
            ..ChaosSpec::default()
        }),
        overcommit: None,
        elasticity: None,
    }
}

/// Adversarial: an antagonist batch flood (periodic drops of ten short
/// jobs) on top of a modest resident stream, with vertical elasticity
/// resizing running jobs mid-flight — contention plus churn.
fn antagonist_flood() -> ScenarioSpec {
    ScenarioSpec {
        name: "antagonist-flood".into(),
        seed: 8,
        cluster: ClusterTopology::homogeneous(6, 4, 3000.0, 4096),
        timing: TimingSpec {
            horizon_secs: 22_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec::default(),
        apps: vec![small_app("storefront", IntensityTrace::constant(14.0), 8)],
        job_streams: vec![JobStreamSpec {
            name: "batch".into(),
            arrivals: ArrivalProcess::poisson_constant(300.0).expect("positive mean"),
            max_jobs: 40,
            mix: JobMix::uniform(batch_template("batch", 4000.0, 1280)),
            seed_offset: 0,
        }],
        outages: vec![],
        chaos: Some(ChaosSpec {
            batch_floods: Some(slaq_sim::FloodSpec {
                first_secs: 3000.0,
                period_secs: 5000.0,
                batch_size: 10,
                max_jobs: 40,
                work_secs: 3000.0,
                mem_mb: 1280,
            }),
            ..ChaosSpec::default()
        }),
        overcommit: None,
        elasticity: Some(ElasticitySpec {
            first_secs: 1800.0,
            period_secs: 2400.0,
            grow_factor: 1.6,
            shrink_factor: 0.55,
            max_events: 6,
        }),
    }
}
