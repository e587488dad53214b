//! Job arrival processes: Poisson streams with piecewise-constant rate
//! schedules, bursty ON–OFF streams, and periodic batch drops.
//!
//! [`ArrivalProcess`] is the declarative, serde-round-trippable form a
//! scenario spec references; it materializes into a concrete, seeded
//! stream of submission instants via [`ArrivalProcess::stream`].

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use slaq_types::SimTime;

/// A piecewise-constant schedule of *mean inter-arrival times*.
///
/// Segment `i` applies from its start instant until the next segment's
/// start. The paper's job submission rate is "slightly decreased" near
/// the end: the `paper` preset's stream is `[(0, 260 s), (50 000 s,
/// 520 s)]` and `paper-small`'s is `[(0, 240 s), (11 000 s, 800 s)]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSchedule {
    segments: Vec<(SimTime, f64)>,
}

impl RateSchedule {
    /// A single constant mean inter-arrival time.
    pub fn constant(mean_interarrival_secs: f64) -> Option<Self> {
        Self::new(vec![(SimTime::ZERO, mean_interarrival_secs)])
    }

    /// Build from `(start, mean_interarrival)` pairs. Requirements: at
    /// least one segment, strictly increasing starts beginning at or
    /// after 0, positive finite means.
    pub fn new(segments: Vec<(SimTime, f64)>) -> Option<Self> {
        let schedule = RateSchedule { segments };
        schedule.check().ok().map(|()| schedule)
    }

    /// The requirements of [`RateSchedule::new`], which a deserialized
    /// schedule has not been through: `Deserialize` fills the private
    /// field directly.
    fn check(&self) -> Result<(), &'static str> {
        let Some(first) = self.segments.first() else {
            return Err("rate schedule needs at least one segment");
        };
        if first.0.as_secs() < 0.0 {
            return Err("rate schedule must start at or after time 0");
        }
        if self.segments.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err("rate schedule starts must strictly increase");
        }
        if self
            .segments
            .iter()
            .any(|&(_, m)| !(m.is_finite() && m > 0.0))
        {
            return Err("rate schedule means must be positive and finite");
        }
        Ok(())
    }

    /// The `(start, mean_interarrival)` pairs, in start order.
    pub fn segments(&self) -> &[(SimTime, f64)] {
        &self.segments
    }

    /// Mean inter-arrival time in force at instant `t` (the first
    /// segment's mean before its start).
    pub fn mean_at(&self, t: SimTime) -> f64 {
        let mut mean = self.segments[0].1;
        for &(start, m) in &self.segments {
            if t >= start {
                mean = m;
            } else {
                break;
            }
        }
        mean
    }
}

/// Iterator of arrival instants: exponential inter-arrivals whose mean
/// follows a [`RateSchedule`].
///
/// Each gap is drawn from the segment in force at the *previous* arrival —
/// exact for constant segments and an accepted approximation at segment
/// boundaries (the schedule changes slowly relative to the mean gap).
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    schedule: RateSchedule,
    rng: ChaCha12Rng,
    t: SimTime,
    remaining: usize,
}

impl PoissonArrivals {
    /// Stream of at most `count` arrivals starting at time zero.
    pub fn new(schedule: RateSchedule, count: usize, seed: u64) -> Self {
        PoissonArrivals {
            schedule,
            rng: ChaCha12Rng::seed_from_u64(seed),
            t: SimTime::ZERO,
            remaining: count,
        }
    }
}

impl Iterator for PoissonArrivals {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mean = self.schedule.mean_at(self.t);
        // Inverse-transform sampling of Exp(1/mean); guard the log(0) tail.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = -mean * u.ln();
        self.t += slaq_types::SimDuration::from_secs(gap);
        Some(self.t)
    }
}

/// A declarative arrival process: the shape a scenario spec names, with
/// all parameters data (serde-round-trippable). Materialize with
/// [`ArrivalProcess::stream`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Exponential inter-arrivals whose mean follows a [`RateSchedule`] —
    /// the paper's stream shape.
    Poisson {
        /// Mean inter-arrival time over time.
        schedule: RateSchedule,
    },
    /// Bursty ON–OFF source: the time axis alternates between an ON phase
    /// of `on_secs` and an OFF phase of `off_secs`. During ON, arrivals
    /// are exponential with mean `on_mean_interarrival_secs`; during OFF
    /// they use `off_mean_interarrival_secs`, or stop entirely when that
    /// is `None` (the stream jumps to the next ON phase).
    OnOff {
        /// Length of each ON phase.
        on_secs: f64,
        /// Length of each OFF phase.
        off_secs: f64,
        /// Mean inter-arrival time during ON phases.
        on_mean_interarrival_secs: f64,
        /// Mean inter-arrival time during OFF phases (`None` = silent).
        off_mean_interarrival_secs: Option<f64>,
    },
    /// Periodic batch drops: `batch_size` jobs submitted simultaneously at
    /// `first_secs`, `first_secs + period_secs`, … — the nightly-batch
    /// shape.
    BatchDrops {
        /// Instant of the first drop.
        first_secs: f64,
        /// Spacing between drops.
        period_secs: f64,
        /// Jobs per drop.
        batch_size: u32,
    },
}

impl ArrivalProcess {
    /// The paper's stream: a constant mean inter-arrival time.
    pub fn poisson_constant(mean_interarrival_secs: f64) -> Option<Self> {
        RateSchedule::constant(mean_interarrival_secs)
            .map(|schedule| ArrivalProcess::Poisson { schedule })
    }

    /// Structural sanity of the process parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ArrivalProcess::Poisson { schedule } => schedule.check().map_err(Into::into),
            ArrivalProcess::OnOff {
                on_secs,
                off_secs,
                on_mean_interarrival_secs,
                off_mean_interarrival_secs,
            } => {
                if !(on_secs.is_finite() && *on_secs > 0.0) {
                    return Err("ON phase length must be positive".into());
                }
                if !(off_secs.is_finite() && *off_secs >= 0.0) {
                    return Err("OFF phase length must be non-negative".into());
                }
                if !(on_mean_interarrival_secs.is_finite() && *on_mean_interarrival_secs > 0.0) {
                    return Err("ON mean inter-arrival must be positive".into());
                }
                if let Some(m) = off_mean_interarrival_secs {
                    if !(m.is_finite() && *m > 0.0) {
                        return Err("OFF mean inter-arrival must be positive".into());
                    }
                }
                Ok(())
            }
            ArrivalProcess::BatchDrops {
                first_secs,
                period_secs,
                batch_size,
            } => {
                if !(first_secs.is_finite() && *first_secs >= 0.0) {
                    return Err("first drop instant must be non-negative".into());
                }
                if !(period_secs.is_finite() && *period_secs > 0.0) {
                    return Err("drop period must be positive".into());
                }
                if *batch_size == 0 {
                    return Err("batch size must be at least 1".into());
                }
                Ok(())
            }
        }
    }

    /// Materialize at most `count` arrival instants, truncated at
    /// `horizon`, driven by `seed`. Instants are non-decreasing; the same
    /// `(process, count, horizon, seed)` reproduces the stream
    /// bit-identically.
    ///
    /// An invalid process (see [`ArrivalProcess::validate`]) produces an
    /// empty stream: a degenerate ON–OFF shape (zero-length or NaN ON
    /// phase with a silent OFF) would otherwise spin forever looking for
    /// an ON window that never opens. Spec-driven callers surface the
    /// validation error before ever reaching this method.
    pub fn stream(&self, count: usize, horizon: SimTime, seed: u64) -> Vec<SimTime> {
        if self.validate().is_err() {
            return Vec::new();
        }
        match self {
            ArrivalProcess::Poisson { schedule } => {
                PoissonArrivals::new(schedule.clone(), count, seed)
                    .take_while(|&t| t <= horizon)
                    .collect()
            }
            ArrivalProcess::OnOff {
                on_secs,
                off_secs,
                on_mean_interarrival_secs,
                off_mean_interarrival_secs,
            } => {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let cycle = on_secs + off_secs;
                let mut t = 0.0f64;
                let mut out = Vec::with_capacity(count.min(4096));
                while out.len() < count {
                    // Phase in force at the previous arrival decides the
                    // next gap — same approximation as `PoissonArrivals`
                    // at rate-schedule boundaries.
                    let pos = if cycle > 0.0 {
                        t.rem_euclid(cycle)
                    } else {
                        0.0
                    };
                    let mean = if pos < *on_secs {
                        *on_mean_interarrival_secs
                    } else {
                        match off_mean_interarrival_secs {
                            Some(m) => *m,
                            None => {
                                // Silent OFF phase: jump to the next ON
                                // start without consuming randomness.
                                t += cycle - pos;
                                continue;
                            }
                        }
                    };
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t -= mean * u.ln();
                    if t > horizon.as_secs() {
                        break;
                    }
                    out.push(SimTime::from_secs(t));
                }
                out
            }
            ArrivalProcess::BatchDrops {
                first_secs,
                period_secs,
                batch_size,
            } => {
                let mut out = Vec::with_capacity(count.min(4096));
                let mut drop_at = *first_secs;
                'drops: while drop_at <= horizon.as_secs() {
                    for _ in 0..*batch_size {
                        if out.len() >= count {
                            break 'drops;
                        }
                        out.push(SimTime::from_secs(drop_at));
                    }
                    drop_at += period_secs;
                }
                out
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn schedule_rejects_bad_inputs() {
        assert!(RateSchedule::new(vec![]).is_none());
        assert!(RateSchedule::new(vec![(SimTime::ZERO, 0.0)]).is_none());
        assert!(RateSchedule::new(vec![(SimTime::ZERO, -5.0)]).is_none());
        assert!(RateSchedule::new(vec![
            (SimTime::from_secs(10.0), 1.0),
            (SimTime::from_secs(10.0), 2.0)
        ])
        .is_none());
        assert!(RateSchedule::constant(260.0).is_some());
    }

    #[test]
    fn schedule_lookup_picks_segment_in_force() {
        let s = RateSchedule::new(vec![
            (SimTime::ZERO, 260.0),
            (SimTime::from_secs(55_000.0), 400.0),
        ])
        .unwrap();
        assert_eq!(s.mean_at(SimTime::ZERO), 260.0);
        assert_eq!(s.mean_at(SimTime::from_secs(54_999.0)), 260.0);
        assert_eq!(s.mean_at(SimTime::from_secs(55_000.0)), 400.0);
        assert_eq!(s.mean_at(SimTime::from_secs(70_000.0)), 400.0);
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_bounded_in_count() {
        let s = RateSchedule::constant(260.0).unwrap();
        let times: Vec<SimTime> = PoissonArrivals::new(s, 100, 42).collect();
        assert_eq!(times.len(), 100);
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn same_seed_reproduces_same_stream() {
        let s = RateSchedule::constant(100.0).unwrap();
        let a: Vec<SimTime> = PoissonArrivals::new(s.clone(), 50, 7).collect();
        let b: Vec<SimTime> = PoissonArrivals::new(s, 50, 7).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let s = RateSchedule::constant(100.0).unwrap();
        let a: Vec<SimTime> = PoissonArrivals::new(s.clone(), 50, 7).collect();
        let b: Vec<SimTime> = PoissonArrivals::new(s, 50, 8).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn empirical_mean_matches_schedule() {
        let s = RateSchedule::constant(260.0).unwrap();
        let times: Vec<f64> = PoissonArrivals::new(s, 5000, 123)
            .map(SimTime::as_secs)
            .collect();
        let mean_gap = times.last().unwrap() / times.len() as f64;
        assert!(
            (mean_gap - 260.0).abs() < 15.0,
            "empirical mean gap {mean_gap} should be near 260"
        );
    }

    #[test]
    fn rate_slowdown_spreads_the_tail() {
        let s = RateSchedule::new(vec![
            (SimTime::ZERO, 10.0),
            (SimTime::from_secs(1000.0), 1000.0),
        ])
        .unwrap();
        let times: Vec<f64> = PoissonArrivals::new(s, 200, 9)
            .map(SimTime::as_secs)
            .collect();
        let before = times.iter().filter(|&&t| t < 1000.0).count();
        // ~100 arrivals in the fast phase, then a crawl.
        assert!(before > 60, "fast phase arrivals: {before}");
        let after: Vec<&f64> = times.iter().filter(|&&t| t >= 1000.0).collect();
        if after.len() >= 2 {
            let gaps: f64 =
                after.windows(2).map(|w| *w[1] - *w[0]).sum::<f64>() / (after.len() - 1) as f64;
            assert!(gaps > 100.0, "tail gaps should widen: {gaps}");
        }
    }

    #[test]
    fn onoff_silent_off_phase_has_no_arrivals() {
        let p = ArrivalProcess::OnOff {
            on_secs: 100.0,
            off_secs: 900.0,
            on_mean_interarrival_secs: 5.0,
            off_mean_interarrival_secs: None,
        };
        assert!(p.validate().is_ok());
        let times = p.stream(500, SimTime::from_secs(10_000.0), 3);
        assert!(!times.is_empty());
        for t in &times {
            let pos = t.as_secs().rem_euclid(1000.0);
            // Every arrival was *drawn* inside an ON window (the gap may
            // overshoot slightly past the boundary, like the Poisson
            // schedule approximation; allow one mean of slack).
            assert!(pos <= 100.0 + 5.0 * 4.0, "arrival at phase {pos}");
        }
        // Bursts: consecutive arrivals cluster, with ≥ ~900 s canyons.
        let canyons = times
            .windows(2)
            .filter(|w| w[1].as_secs() - w[0].as_secs() > 800.0)
            .count();
        assert!(canyons >= 3, "expected OFF canyons, got {canyons}");
    }

    #[test]
    fn onoff_with_slow_off_rate_keeps_trickling() {
        let p = ArrivalProcess::OnOff {
            on_secs: 100.0,
            off_secs: 400.0,
            on_mean_interarrival_secs: 5.0,
            off_mean_interarrival_secs: Some(200.0),
        };
        let times = p.stream(400, SimTime::from_secs(5000.0), 9);
        let in_off = times
            .iter()
            .filter(|t| t.as_secs().rem_euclid(500.0) > 100.0)
            .count();
        assert!(in_off > 0, "OFF phase should still trickle");
    }

    #[test]
    fn batch_drops_land_in_lockstep() {
        let p = ArrivalProcess::BatchDrops {
            first_secs: 1000.0,
            period_secs: 2000.0,
            batch_size: 5,
        };
        assert!(p.validate().is_ok());
        let times = p.stream(100, SimTime::from_secs(6000.0), 42);
        // Drops at 1000/3000/5000 × 5 jobs.
        assert_eq!(times.len(), 15);
        assert!(times[..5].iter().all(|t| t.as_secs() == 1000.0));
        assert!(times[5..10].iter().all(|t| t.as_secs() == 3000.0));
        // Count cap truncates mid-drop.
        assert_eq!(p.stream(7, SimTime::from_secs(6000.0), 42).len(), 7);
    }

    #[test]
    fn process_validation_rejects_nonsense() {
        // What a spec file can carry past `RateSchedule::new`.
        for segments in [vec![], vec![(SimTime::ZERO, 0.0)]] {
            let schedule = RateSchedule { segments };
            assert!(ArrivalProcess::Poisson { schedule }.validate().is_err());
        }
        assert!(ArrivalProcess::OnOff {
            on_secs: 0.0,
            off_secs: 10.0,
            on_mean_interarrival_secs: 1.0,
            off_mean_interarrival_secs: None,
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::OnOff {
            on_secs: 10.0,
            off_secs: 10.0,
            on_mean_interarrival_secs: 1.0,
            off_mean_interarrival_secs: Some(0.0),
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::BatchDrops {
            first_secs: 0.0,
            period_secs: 0.0,
            batch_size: 1,
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::BatchDrops {
            first_secs: 0.0,
            period_secs: 60.0,
            batch_size: 0,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn degenerate_processes_stream_empty_instead_of_hanging() {
        // A zero-length ON phase with a silent OFF has no window to ever
        // emit from; stream() must refuse rather than spin forever.
        let p = ArrivalProcess::OnOff {
            on_secs: 0.0,
            off_secs: 10.0,
            on_mean_interarrival_secs: 1.0,
            off_mean_interarrival_secs: None,
        };
        assert!(p.stream(10, SimTime::from_secs(1000.0), 1).is_empty());
        let p = ArrivalProcess::OnOff {
            on_secs: f64::NAN,
            off_secs: 10.0,
            on_mean_interarrival_secs: 1.0,
            off_mean_interarrival_secs: None,
        };
        assert!(p.stream(10, SimTime::from_secs(1000.0), 1).is_empty());
    }

    #[test]
    fn poisson_process_matches_raw_iterator() {
        let schedule = RateSchedule::constant(100.0).unwrap();
        let via_process = ArrivalProcess::Poisson {
            schedule: schedule.clone(),
        }
        .stream(50, SimTime::from_secs(1e9), 7);
        let via_iter: Vec<SimTime> = PoissonArrivals::new(schedule, 50, 7).collect();
        assert_eq!(via_process, via_iter);
    }

    fn all_processes() -> Vec<ArrivalProcess> {
        vec![
            ArrivalProcess::Poisson {
                schedule: RateSchedule::new(vec![
                    (SimTime::ZERO, 50.0),
                    (SimTime::from_secs(2000.0), 200.0),
                ])
                .unwrap(),
            },
            ArrivalProcess::OnOff {
                on_secs: 300.0,
                off_secs: 700.0,
                on_mean_interarrival_secs: 10.0,
                off_mean_interarrival_secs: None,
            },
            ArrivalProcess::OnOff {
                on_secs: 300.0,
                off_secs: 700.0,
                on_mean_interarrival_secs: 10.0,
                off_mean_interarrival_secs: Some(300.0),
            },
            ArrivalProcess::BatchDrops {
                first_secs: 500.0,
                period_secs: 1500.0,
                batch_size: 4,
            },
        ]
    }

    proptest! {
        #[test]
        fn prop_counts_and_monotonicity(
            mean in 1.0..1000.0f64,
            count in 0usize..200,
            seed in 0u64..1000,
        ) {
            let s = RateSchedule::constant(mean).unwrap();
            let times: Vec<SimTime> = PoissonArrivals::new(s, count, seed).collect();
            prop_assert_eq!(times.len(), count);
            for w in times.windows(2) {
                prop_assert!(w[1] > w[0]);
            }
            if let Some(first) = times.first() {
                prop_assert!(first.as_secs() > 0.0);
            }
        }

        /// Generator determinism: every named process, same seed ⇒
        /// bit-identical stream; streams stay sorted and bounded.
        #[test]
        fn prop_every_process_is_deterministic(
            count in 1usize..150,
            seed in 0u64..500,
            horizon in 1000.0..20_000.0f64,
        ) {
            for p in all_processes() {
                let h = SimTime::from_secs(horizon);
                let a = p.stream(count, h, seed);
                let b = p.stream(count, h, seed);
                prop_assert_eq!(&a, &b, "process {:?} not reproducible", p);
                prop_assert!(a.len() <= count);
                for w in a.windows(2) {
                    prop_assert!(w[1] >= w[0]);
                }
                for t in &a {
                    prop_assert!(*t <= h);
                }
            }
        }
    }
}
