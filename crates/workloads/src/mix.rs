//! Job-template mixes: heterogeneous job populations from one stream.
//!
//! The paper's evaluation submits 800 *identical* jobs; real batch queues
//! mix short against long jobs, small against large memory footprints,
//! and gold against bronze importance tiers. A [`JobMix`] holds weighted
//! [`TemplateClass`]es; each arrival instant draws a class with a seeded
//! RNG, so the mixture itself is reproducible — the same
//! `(mix, arrivals, seed)` yields bit-identical job populations.

use crate::jobstream::JobTemplate;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use slaq_jobs::JobSpec;
use slaq_types::SimTime;

/// One class of jobs inside a [`JobMix`]: the template to instantiate, a
/// selection weight, and the importance tier its jobs carry
/// ([`JobSpec::importance`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplateClass {
    /// The job shape.
    pub template: JobTemplate,
    /// Relative selection weight (> 0); probabilities are weights
    /// normalized over the mix.
    pub weight: f64,
    /// Importance tier for service differentiation (1.0 = baseline),
    /// set on every job of the class.
    pub importance: f64,
}

/// A weighted mixture of job templates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMix {
    /// The classes; must be non-empty with positive weights.
    pub classes: Vec<TemplateClass>,
}

impl JobMix {
    /// A single-class mix: every job from `template`, importance 1.0 —
    /// the paper's identical-jobs population.
    pub fn uniform(template: JobTemplate) -> Self {
        JobMix {
            classes: vec![TemplateClass {
                template,
                weight: 1.0,
                importance: 1.0,
            }],
        }
    }

    /// Structural sanity of the mix.
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.is_empty() {
            return Err("job mix must have at least one class".into());
        }
        for (i, c) in self.classes.iter().enumerate() {
            if !(c.weight.is_finite() && c.weight > 0.0) {
                return Err(format!("class {i}: weight must be positive"));
            }
            if !(c.importance.is_finite() && c.importance > 0.0) {
                return Err(format!("class {i}: importance must be positive"));
            }
            if !(c.template.goal_factor >= 1.0
                && c.template.exhausted_factor >= c.template.goal_factor
                && c.template.exhausted_factor.is_finite())
            {
                return Err(format!(
                    "class {i} ({}): goal factors must satisfy 1 ≤ goal ≤ exhausted < ∞",
                    c.template.name_prefix
                ));
            }
            let finite_positive = |v: f64| v.is_finite() && v > 0.0;
            if !(finite_positive(c.template.work.as_f64())
                && finite_positive(c.template.max_speed.as_f64()))
            {
                return Err(format!(
                    "class {i} ({}): work and max speed must be finite and positive",
                    c.template.name_prefix
                ));
            }
        }
        Ok(())
    }

    /// Instantiate one job per arrival instant, as `(submission instant,
    /// spec)` with the class's importance on the spec. Class choice is
    /// driven by `seed`; job names are `"{class_prefix}-{index_offset +
    /// i}"` so several streams can coexist without name collisions by
    /// spacing their offsets. Single-class mixes skip the RNG entirely, so
    /// their jobs are the template's at each arrival, in arrival order.
    pub fn generate(
        &self,
        arrivals: &[SimTime],
        seed: u64,
        index_offset: usize,
    ) -> Vec<(SimTime, JobSpec)> {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        arrivals
            .iter()
            .enumerate()
            .filter_map(|(i, &submit)| {
                let class = if self.classes.len() == 1 {
                    &self.classes[0]
                } else {
                    let mut pick: f64 = rng.gen_range(0.0..total);
                    let mut chosen = &self.classes[0];
                    for c in &self.classes {
                        chosen = c;
                        pick -= c.weight;
                        if pick < 0.0 {
                            break;
                        }
                    }
                    chosen
                };
                let mut spec = class.template.spec_at(submit, index_offset + i)?;
                spec.importance = class.importance;
                Some((submit, spec))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_types::{CpuMhz, MemMb, Work};

    fn template(prefix: &str, work_secs: f64, mem: u64) -> JobTemplate {
        JobTemplate {
            name_prefix: prefix.into(),
            work: Work::from_power_secs(CpuMhz::new(3000.0), work_secs),
            max_speed: CpuMhz::new(3000.0),
            mem: MemMb::new(mem),
            goal_factor: 1.25,
            exhausted_factor: 3.0,
        }
    }

    fn two_class_mix() -> JobMix {
        JobMix {
            classes: vec![
                TemplateClass {
                    template: template("short", 1000.0, 512),
                    weight: 3.0,
                    importance: 2.0,
                },
                TemplateClass {
                    template: template("long", 8000.0, 2048),
                    weight: 1.0,
                    importance: 1.0,
                },
            ],
        }
    }

    fn arrivals(n: usize) -> Vec<SimTime> {
        (0..n)
            .map(|i| SimTime::from_secs(i as f64 * 60.0))
            .collect()
    }

    #[test]
    fn uniform_mix_matches_template_everywhere() {
        let mix = JobMix::uniform(template("batch", 4000.0, 1280));
        assert!(mix.validate().is_ok());
        let jobs = mix.generate(&arrivals(10), 5, 0);
        assert_eq!(jobs.len(), 10);
        assert!(jobs.iter().all(|(_, j)| j.importance == 1.0));
        assert!(jobs.iter().all(|(_, j)| j.mem == MemMb::new(1280)));
        assert_eq!(jobs[3].1.name, "batch-3");
    }

    #[test]
    fn weighted_mix_draws_both_classes_in_proportion() {
        let mix = two_class_mix();
        let jobs = mix.generate(&arrivals(400), 11, 0);
        let short = jobs
            .iter()
            .filter(|(_, j)| j.name.starts_with("short"))
            .count();
        // Expect ~300 of 400; loose band to stay seed-robust.
        assert!((200..=380).contains(&short), "short count {short}");
        // Importance rides along with the class.
        for (_, j) in &jobs {
            let expect = if j.name.starts_with("short") {
                2.0
            } else {
                1.0
            };
            assert_eq!(j.importance, expect, "{}", j.name);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mix = two_class_mix();
        let a = mix.generate(&arrivals(100), 7, 0);
        let b = mix.generate(&arrivals(100), 7, 0);
        assert_eq!(a, b);
        let c = mix.generate(&arrivals(100), 8, 0);
        assert_ne!(a, c, "different seeds must reshuffle the mixture");
    }

    #[test]
    fn index_offset_spaces_names() {
        let mix = JobMix::uniform(template("batch", 1000.0, 512));
        let jobs = mix.generate(&arrivals(3), 0, 100);
        assert_eq!(jobs[0].1.name, "batch-100");
        assert_eq!(jobs[2].1.name, "batch-102");
    }

    #[test]
    fn validation_rejects_degenerate_mixes() {
        assert!(JobMix { classes: vec![] }.validate().is_err());
        let mut m = two_class_mix();
        m.classes[0].weight = 0.0;
        assert!(m.validate().is_err());
        let mut m = two_class_mix();
        m.classes[1].importance = -1.0;
        assert!(m.validate().is_err());
        let mut m = two_class_mix();
        m.classes[0].template.goal_factor = 0.5;
        assert!(m.validate().is_err());
    }
}
