//! Transactional request-intensity traces λ(t).
//!
//! The paper's experiment applies "a constant transactional workload …
//! throughout"; the other shapes are the generator library used by
//! [`crate`]-level scenario corpora: stepped and diurnal curves, periodic
//! spikes, and sums of any of these for composite demand. Every trace is
//! a pure function of time, so scenarios that reference one are exactly
//! reproducible.

use serde::{Deserialize, Serialize};
use slaq_types::SimTime;

/// A deterministic request-rate trace.
///
/// Traces compose: [`IntensityTrace::Sum`] adds any number of component
/// traces, so "diurnal baseline plus lunchtime spikes" is
/// `Sum { parts: vec![Diurnal {..}, Spiky {..}] }`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IntensityTrace {
    /// λ(t) = `rate` for all t.
    Constant {
        /// Requests per second.
        rate: f64,
    },
    /// Piecewise-constant steps: `(start, rate)` with increasing starts.
    Steps {
        /// Segments in force from their start instant onward.
        steps: Vec<(SimTime, f64)>,
    },
    /// `base + amplitude · sin(2π (t − phase)/period)`, clamped at 0 —
    /// the classic diurnal curve.
    Diurnal {
        /// Mean rate.
        base: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Cycle length in seconds.
        period_secs: f64,
        /// Horizontal offset in seconds.
        phase_secs: f64,
    },
    /// Periodic flash crowds: `base` everywhere except during a recurring
    /// spike window of `spike_secs` at the head of every `period_secs`
    /// cycle (offset by `phase_secs`), where the rate is `base + surge`.
    Spiky {
        /// Quiet-phase rate.
        base: f64,
        /// Extra rate during a spike window.
        surge: f64,
        /// Spike recurrence period in seconds.
        period_secs: f64,
        /// Spike duration in seconds (< `period_secs`).
        spike_secs: f64,
        /// Offset of the first spike's start.
        phase_secs: f64,
    },
    /// Pointwise sum of component traces (composition).
    Sum {
        /// The component traces.
        parts: Vec<IntensityTrace>,
    },
    /// `factor · part(t)` — scale a child trace (e.g. reuse one diurnal
    /// shape across apps of different sizes).
    Scale {
        /// Non-negative multiplier.
        factor: f64,
        /// The trace being scaled.
        part: Box<IntensityTrace>,
    },
    /// `part(t)` clamped into `[min, max]` — cap a flash crowd at an
    /// ingress limit or keep a trough above a floor.
    Clamp {
        /// Lower bound (≥ 0).
        min: f64,
        /// Upper bound (≥ `min`).
        max: f64,
        /// The trace being clamped.
        part: Box<IntensityTrace>,
    },
}

/// Largest request rate a trace may reach, however its parts nest: far
/// enough below `f64::MAX` that λ × service time stays finite.
const MAX_RATE: f64 = 1e12;

impl IntensityTrace {
    /// Constant trace helper.
    pub fn constant(rate: f64) -> Self {
        IntensityTrace::Constant { rate }
    }

    /// Request rate at instant `t` (never negative).
    pub fn lambda(&self, t: SimTime) -> f64 {
        match self {
            IntensityTrace::Constant { rate } => rate.max(0.0),
            IntensityTrace::Steps { steps } => {
                let mut rate = steps.first().map(|&(_, r)| r).unwrap_or(0.0);
                for &(start, r) in steps {
                    if t >= start {
                        rate = r;
                    } else {
                        break;
                    }
                }
                rate.max(0.0)
            }
            IntensityTrace::Diurnal {
                base,
                amplitude,
                period_secs,
                phase_secs,
            } => {
                let x =
                    2.0 * std::f64::consts::PI * (t.as_secs() - phase_secs) / period_secs.max(1e-9);
                (base + amplitude * x.sin()).max(0.0)
            }
            IntensityTrace::Spiky {
                base,
                surge,
                period_secs,
                spike_secs,
                phase_secs,
            } => {
                let pos = (t.as_secs() - phase_secs).rem_euclid(period_secs.max(1e-9));
                let rate = if pos < *spike_secs {
                    base + surge
                } else {
                    *base
                };
                rate.max(0.0)
            }
            IntensityTrace::Sum { parts } => parts.iter().map(|p| p.lambda(t)).sum(),
            IntensityTrace::Scale { factor, part } => (factor * part.lambda(t)).max(0.0),
            IntensityTrace::Clamp { min, max, part } => part.lambda(t).clamp(*min, *max),
        }
    }

    /// Structural sanity of the trace parameters; returns a message
    /// naming the offending field on failure.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            IntensityTrace::Constant { rate } => {
                if !(rate.is_finite() && *rate >= 0.0) {
                    return Err("constant rate must be finite and non-negative".into());
                }
            }
            IntensityTrace::Steps { steps } => {
                if steps.is_empty() {
                    return Err("steps must have at least one segment".into());
                }
                for w in steps.windows(2) {
                    if w[1].0 <= w[0].0 {
                        return Err("step starts must strictly increase".into());
                    }
                }
                if steps.iter().any(|&(_, r)| !(r.is_finite() && r >= 0.0)) {
                    return Err("step rates must be finite and non-negative".into());
                }
            }
            IntensityTrace::Diurnal {
                base,
                amplitude,
                period_secs,
                phase_secs,
            } => {
                if !(base.is_finite() && amplitude.is_finite() && phase_secs.is_finite()) {
                    return Err("diurnal parameters must be finite".into());
                }
                if !(period_secs.is_finite() && *period_secs > 0.0) {
                    return Err("diurnal period must be positive".into());
                }
            }
            IntensityTrace::Spiky {
                base,
                surge,
                period_secs,
                spike_secs,
                phase_secs,
            } => {
                if !(base.is_finite() && *base >= 0.0 && surge.is_finite() && *surge >= 0.0) {
                    return Err("spiky base and surge must be finite and non-negative".into());
                }
                if !phase_secs.is_finite() {
                    return Err("spike phase must be finite".into());
                }
                if !(period_secs.is_finite() && *period_secs > 0.0) {
                    return Err("spike period must be positive".into());
                }
                if !(*spike_secs >= 0.0 && spike_secs <= period_secs) {
                    return Err("spike duration must lie within the period".into());
                }
            }
            IntensityTrace::Sum { parts } => {
                for p in parts {
                    p.validate()?;
                }
            }
            IntensityTrace::Scale { factor, part } => {
                if !(factor.is_finite() && *factor >= 0.0) {
                    return Err("scale factor must be finite and non-negative".into());
                }
                part.validate()?;
            }
            IntensityTrace::Clamp { min, max, part } => {
                if !(min.is_finite() && *min >= 0.0) {
                    return Err("clamp min must be finite and non-negative".into());
                }
                if !(max.is_finite() && max >= min) {
                    return Err("clamp max must be finite and at least the min".into());
                }
                part.validate()?;
            }
        }
        if self.peak() > MAX_RATE {
            return Err("peak rate must be at most 1e12 req/s".into());
        }
        Ok(())
    }

    /// An upper bound of [`IntensityTrace::lambda`] over all `t`.
    fn peak(&self) -> f64 {
        match self {
            IntensityTrace::Constant { rate } => *rate,
            IntensityTrace::Steps { steps } => steps.iter().fold(0.0, |m, &(_, r)| r.max(m)),
            IntensityTrace::Diurnal {
                base, amplitude, ..
            } => base + amplitude.abs(),
            IntensityTrace::Spiky { base, surge, .. } => base + surge,
            IntensityTrace::Sum { parts } => parts.iter().map(IntensityTrace::peak).sum(),
            IntensityTrace::Scale { factor, part } => factor * part.peak(),
            IntensityTrace::Clamp { max, part, .. } => part.peak().min(*max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_is_constant() {
        let t = IntensityTrace::constant(50.0);
        assert_eq!(t.lambda(SimTime::ZERO), 50.0);
        assert_eq!(t.lambda(SimTime::from_secs(1e6)), 50.0);
    }

    #[test]
    fn steps_switch_at_boundaries() {
        let t = IntensityTrace::Steps {
            steps: vec![
                (SimTime::ZERO, 10.0),
                (SimTime::from_secs(100.0), 30.0),
                (SimTime::from_secs(200.0), 5.0),
            ],
        };
        assert_eq!(t.lambda(SimTime::from_secs(50.0)), 10.0);
        assert_eq!(t.lambda(SimTime::from_secs(100.0)), 30.0);
        assert_eq!(t.lambda(SimTime::from_secs(199.0)), 30.0);
        assert_eq!(t.lambda(SimTime::from_secs(10_000.0)), 5.0);
    }

    #[test]
    fn empty_steps_are_zero() {
        let t = IntensityTrace::Steps { steps: vec![] };
        assert_eq!(t.lambda(SimTime::ZERO), 0.0);
    }

    #[test]
    fn diurnal_oscillates_and_clamps() {
        let t = IntensityTrace::Diurnal {
            base: 10.0,
            amplitude: 20.0, // dips below zero: clamped
            period_secs: 86_400.0,
            phase_secs: 0.0,
        };
        // Peak at quarter period.
        assert!((t.lambda(SimTime::from_secs(21_600.0)) - 30.0).abs() < 1e-9);
        // Trough clamped at zero.
        assert_eq!(t.lambda(SimTime::from_secs(64_800.0)), 0.0);
        assert_eq!(t.lambda(SimTime::ZERO), 10.0);
    }

    #[test]
    fn spiky_surges_inside_the_window_only() {
        let t = IntensityTrace::Spiky {
            base: 10.0,
            surge: 40.0,
            period_secs: 3600.0,
            spike_secs: 300.0,
            phase_secs: 600.0,
        };
        assert_eq!(t.lambda(SimTime::ZERO), 10.0);
        assert_eq!(t.lambda(SimTime::from_secs(600.0)), 50.0);
        assert_eq!(t.lambda(SimTime::from_secs(899.0)), 50.0);
        assert_eq!(t.lambda(SimTime::from_secs(900.0)), 10.0);
        // Recurs every period.
        assert_eq!(t.lambda(SimTime::from_secs(3600.0 + 700.0)), 50.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn sum_composes_pointwise() {
        let t = IntensityTrace::Sum {
            parts: vec![
                IntensityTrace::constant(5.0),
                IntensityTrace::Spiky {
                    base: 0.0,
                    surge: 20.0,
                    period_secs: 1000.0,
                    spike_secs: 100.0,
                    phase_secs: 0.0,
                },
            ],
        };
        assert_eq!(t.lambda(SimTime::from_secs(50.0)), 25.0);
        assert_eq!(t.lambda(SimTime::from_secs(500.0)), 5.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn scale_multiplies_and_clamp_bounds() {
        let diurnal = IntensityTrace::Diurnal {
            base: 10.0,
            amplitude: 8.0,
            period_secs: 24_000.0,
            phase_secs: 0.0,
        };
        let scaled = IntensityTrace::Scale {
            factor: 2.5,
            part: Box::new(diurnal.clone()),
        };
        let t = SimTime::from_secs(6000.0); // diurnal peak: 18.0
        assert!((scaled.lambda(t) - 45.0).abs() < 1e-9);
        assert_eq!(
            IntensityTrace::Scale {
                factor: 0.0,
                part: Box::new(IntensityTrace::constant(50.0)),
            }
            .lambda(t),
            0.0
        );
        let clamped = IntensityTrace::Clamp {
            min: 4.0,
            max: 12.0,
            part: Box::new(diurnal),
        };
        assert_eq!(clamped.lambda(t), 12.0); // peak capped
        assert_eq!(clamped.lambda(SimTime::from_secs(18_000.0)), 4.0); // trough floored
        assert_eq!(clamped.lambda(SimTime::ZERO), 10.0); // passthrough inside
        assert!(clamped.validate().is_ok());
        // The wrappers compose with the rest of the algebra.
        let nested = IntensityTrace::Sum {
            parts: vec![
                IntensityTrace::Clamp {
                    min: 0.0,
                    max: 5.0,
                    part: Box::new(IntensityTrace::constant(9.0)),
                },
                IntensityTrace::Scale {
                    factor: 3.0,
                    part: Box::new(IntensityTrace::constant(2.0)),
                },
            ],
        };
        assert_eq!(nested.lambda(SimTime::ZERO), 11.0);
        assert!(nested.validate().is_ok());
    }

    #[test]
    fn scale_and_clamp_validate_their_parameters() {
        let inner = Box::new(IntensityTrace::constant(1.0));
        assert!(IntensityTrace::Scale {
            factor: -1.0,
            part: inner.clone(),
        }
        .validate()
        .is_err());
        assert!(IntensityTrace::Scale {
            factor: f64::NAN,
            part: inner.clone(),
        }
        .validate()
        .is_err());
        assert!(IntensityTrace::Clamp {
            min: 5.0,
            max: 1.0,
            part: inner.clone(),
        }
        .validate()
        .is_err());
        assert!(IntensityTrace::Clamp {
            min: -1.0,
            max: 1.0,
            part: inner,
        }
        .validate()
        .is_err());
        // Invalid children surface through the wrapper.
        assert!(IntensityTrace::Scale {
            factor: 1.0,
            part: Box::new(IntensityTrace::constant(-3.0)),
        }
        .validate()
        .is_err());
        // The peak is bounded however the parts nest.
        assert!(IntensityTrace::Scale {
            factor: 1e7,
            part: Box::new(IntensityTrace::Scale {
                factor: 1e7,
                part: Box::new(IntensityTrace::constant(1.0)),
            }),
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert!(IntensityTrace::Spiky {
            base: 1.0,
            surge: 1.0,
            period_secs: 100.0,
            spike_secs: 200.0,
            phase_secs: 0.0,
        }
        .validate()
        .is_err());
        assert!(IntensityTrace::Diurnal {
            base: 1.0,
            amplitude: 1.0,
            period_secs: 0.0,
            phase_secs: 0.0,
        }
        .validate()
        .is_err());
        assert!(IntensityTrace::Steps {
            steps: vec![(SimTime::from_secs(10.0), 1.0), (SimTime::ZERO, 2.0)],
        }
        .validate()
        .is_err());
        assert!(IntensityTrace::Sum {
            parts: vec![IntensityTrace::constant(f64::NAN)],
        }
        .validate()
        .is_err());
        // Sign typos and empty traces are what spec authors actually
        // fat-finger: a silently zero-load app must not pass validation.
        assert!(IntensityTrace::constant(-24.0).validate().is_err());
        assert!(IntensityTrace::Steps { steps: vec![] }.validate().is_err());
        assert!(IntensityTrace::Steps {
            steps: vec![(SimTime::ZERO, -5.0)],
        }
        .validate()
        .is_err());
        assert!(IntensityTrace::Spiky {
            base: -1.0,
            surge: 10.0,
            period_secs: 100.0,
            spike_secs: 10.0,
            phase_secs: 0.0,
        }
        .validate()
        .is_err());
    }

    proptest! {
        #[test]
        fn prop_lambda_never_negative(
            base in -50.0..50.0f64,
            amplitude in 0.0..100.0f64,
            t in 0.0..1e6f64,
        ) {
            let trace = IntensityTrace::Diurnal {
                base,
                amplitude,
                period_secs: 3600.0,
                phase_secs: 0.0,
            };
            prop_assert!(trace.lambda(SimTime::from_secs(t)) >= 0.0);
        }

        #[test]
        fn prop_scale_clamp_deterministic_and_bounded(
            base in 0.0..50.0f64,
            amplitude in 0.0..50.0f64,
            factor in 0.0..4.0f64,
            lo in 0.0..10.0f64,
            width in 0.0..40.0f64,
            t in 0.0..1e6f64,
        ) {
            // Traces are pure functions of time: the same wrapped trace
            // evaluated twice (and a structural clone) must agree bit for
            // bit, and the clamp bounds must hold for any t.
            let hi = lo + width;
            let trace = IntensityTrace::Clamp {
                min: lo,
                max: hi,
                part: Box::new(IntensityTrace::Scale {
                    factor,
                    part: Box::new(IntensityTrace::Diurnal {
                        base,
                        amplitude,
                        period_secs: 3600.0,
                        phase_secs: 0.0,
                    }),
                }),
            };
            trace.validate().unwrap();
            let at = SimTime::from_secs(t);
            let l1 = trace.lambda(at);
            let l2 = trace.lambda(at);
            let l3 = trace.clone().lambda(at);
            prop_assert_eq!(l1, l2);
            prop_assert_eq!(l1, l3);
            prop_assert!((lo..=hi).contains(&l1), "{l1} outside [{lo}, {hi}]");
            // Scaling commutes with the raw evaluation wherever the clamp
            // is not binding.
            let raw = IntensityTrace::Diurnal {
                base,
                amplitude,
                period_secs: 3600.0,
                phase_secs: 0.0,
            }
            .lambda(at);
            if l1 > lo && l1 < hi {
                prop_assert!((l1 - factor * raw).abs() < 1e-9);
            }
        }
    }
}
