//! Synthetic LunarLander reinforcement-learning workload.
//!
//! Stands in for the Keras/Theano agent of §6.3. Time is discretized into
//! *blocks* of 100 episode trials: one "epoch" of this workload is one
//! block, and the reported value is the mean reward over the block's 100
//! episodes — which makes the environment's solved condition ("average
//! reward of 200 over 100 consecutive trials") exactly "one block's value
//! reaches 200".
//!
//! The generator reproduces the population behaviour of Fig. 8:
//!
//! * rewards range roughly over `[-500, 300]` and are min-max normalized
//!   (Eq. 4 with `r_min = -500`, `r_max = 300`);
//! * more than half of configurations never learn, hovering near the
//!   crash reward of -100;
//! * a distinctive failure mode is the **learning-crash**: a configuration
//!   learns for a while, then its reward collapses to ≈-100 and stays
//!   there — precisely the case where best-ever-performance heuristics
//!   (Bandit) are fooled but curve prediction is not;
//! * solvers climb to a sustained reward above 200.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperdrive_types::{
    stats, Configuration, DomainKnowledge, HyperParamSpace, SimTime, SolvedCondition,
};

use crate::profile::{EpochRow, JobProfile};
use crate::spaces::lunar_lander_space;
use crate::suspend::SuspendModel;
use crate::Workload;

fn kernel(x: f64, opt: f64, width: f64) -> f64 {
    let z = (x - opt) / width;
    (-0.5 * z * z).exp()
}

/// The behaviour class the response surface assigns to a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LunarBehavior {
    /// Never escapes the crash-reward regime.
    NonLearner,
    /// Learns, then collapses to the crash reward and stays there.
    LearningCrash,
    /// Learns and sustains a high reward.
    Solver,
}

/// Synthetic LunarLander workload (epochs are 100-episode blocks).
///
/// # Example
///
/// ```
/// use hyperdrive_workload::{LunarWorkload, Workload};
/// use rand::SeedableRng;
///
/// let workload = LunarWorkload::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let config = workload.space().sample(&mut rng);
/// let profile = workload.profile(&config, 3);
/// assert_eq!(profile.max_epochs(), 200); // 20,000 episode trials
/// ```
#[derive(Debug, Clone)]
pub struct LunarWorkload {
    space: HyperParamSpace,
    max_blocks: u32,
}

impl LunarWorkload {
    /// Creates the workload with the paper's horizon: 20,000 episode trials
    /// = 200 blocks (Fig. 8).
    pub fn new() -> Self {
        LunarWorkload { space: lunar_lander_space(), max_blocks: 200 }
    }

    /// Overrides the number of 100-episode blocks (for fast tests).
    pub fn with_max_blocks(mut self, blocks: u32) -> Self {
        assert!(blocks >= 1);
        self.max_blocks = blocks;
        self
    }

    /// Latent quality in `[0, 1]`. Exposed for calibration tests.
    pub fn quality(&self, config: &Configuration) -> f64 {
        let lr = config.get_f64("learning_rate").unwrap_or(1e-3).log10();
        let gamma = config.get_f64("gamma").unwrap_or(0.99);
        let eps_decay = config.get_f64("epsilon_decay").unwrap_or(0.995);
        let h1 = config.get_f64("hidden1").unwrap_or(64.0);
        let h2 = config.get_f64("hidden2").unwrap_or(64.0);
        let batch = config.get_f64("batch_size").unwrap_or(64.0);
        let target_update = config.get_f64("target_update_freq").unwrap_or(100.0);
        let memory = config.get_f64("memory_size").unwrap_or(50_000.0);
        let soft_tau = config.get_f64("soft_tau").unwrap_or(1e-2).log10();
        let grad_clip = config.get_f64("grad_clip").unwrap_or(1.0).log10();

        let k_lr = kernel(lr, -3.3, 0.9);
        let k_gamma = kernel(gamma, 0.99, 0.02);
        let k_eps = kernel(eps_decay, 0.995, 0.02);
        let k_hidden = kernel((h1 * h2).sqrt().log2(), 6.5, 1.6);
        let k_batch = kernel((batch / 64.0).log2(), 0.0, 1.8);
        let k_target = kernel(target_update.log10(), 2.0, 1.0);
        let k_mem = kernel(memory.log10(), 4.5, 1.0);
        let k_tau = kernel(soft_tau, -2.0, 1.3);
        let k_clip = kernel(grad_clip, 0.0, 1.2);

        (k_lr
            * k_gamma.powf(0.7)
            * k_eps.powf(0.4)
            * k_hidden.powf(0.6)
            * k_batch.powf(0.3)
            * k_target.powf(0.4)
            * k_mem.powf(0.3)
            * k_tau.powf(0.25)
            * k_clip.powf(0.2))
        .clamp(0.0, 1.0)
    }

    /// Behaviour class of a configuration. Intrinsic: derived from the
    /// configuration's stable hash, so training-noise seeds never flip a
    /// solver into a crasher (§6.1's non-determinism perturbs performance
    /// by ~2%, it does not change outcomes).
    pub fn behavior(&self, config: &Configuration) -> LunarBehavior {
        let mut rng = StdRng::seed_from_u64(config.stable_hash() ^ 0x10_1AB5);
        self.classify(self.quality(config), &mut rng).0
    }

    fn classify<R: Rng + ?Sized>(&self, q: f64, rng: &mut R) -> (LunarBehavior, f64) {
        // Low-quality configurations never learn. Mid-quality ones learn
        // but are prone to the learning-crash instability; the crash
        // probability falls with quality.
        if q < 0.08 {
            return (LunarBehavior::NonLearner, q);
        }
        // Solving LunarLander is rare: most learners eventually destabilize
        // (the paper's Fig. 8 shows one or two solvers among 15 configs).
        let p_crash = (0.95 * (1.0 - q).powf(0.5)).clamp(0.05, 0.95);
        if rng.gen::<f64>() < p_crash {
            (LunarBehavior::LearningCrash, q)
        } else {
            (LunarBehavior::Solver, q)
        }
    }
}

impl Default for LunarWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for LunarWorkload {
    fn name(&self) -> &str {
        "lunarlander"
    }

    fn domain_knowledge(&self) -> DomainKnowledge {
        // Observations are 100-episode block means, so the environment's
        // "average reward of 200 over 100 consecutive trials" is a window
        // of one block.
        let mut dk = DomainKnowledge::lunar_lander();
        dk.solved = Some(SolvedCondition::trailing_mean(dk.normalizer.normalize(200.0), 1));
        dk
    }

    fn space(&self) -> &HyperParamSpace {
        &self.space
    }

    fn max_epochs(&self) -> u32 {
        self.max_blocks
    }

    fn eval_boundary(&self) -> u32 {
        20 // §5.3: b = 2,000 iterations = 20 blocks of 100 episodes.
    }

    fn default_target(&self) -> f64 {
        // Solved reward of 200, normalized.
        DomainKnowledge::lunar_lander().normalizer.normalize(200.0)
    }

    fn suspend_model(&self) -> SuspendModel {
        SuspendModel::criu_process()
    }

    fn profile(&self, config: &Configuration, seed: u64) -> JobProfile {
        // Configuration-intrinsic randomness (behaviour class, curve shape,
        // crash point, durations) comes from the config's stable hash;
        // only run-to-run training noise comes from `seed`.
        let mut rng = StdRng::seed_from_u64(config.stable_hash() ^ 0x10_1AB5);
        let mut noise_rng = StdRng::seed_from_u64(seed ^ 0x10_1AB5);
        let norm = DomainKnowledge::lunar_lander().normalizer;
        let q = self.quality(config);
        let (behavior, _) = self.classify(q, &mut rng);

        let h1 = config.get_f64("hidden1").unwrap_or(64.0);
        let h2 = config.get_f64("hidden2").unwrap_or(64.0);
        let batch = config.get_f64("batch_size").unwrap_or(64.0);
        // CPU training on c4.xlarge: block duration scales with network
        // size and batch count.
        let size_factor = ((h1 * h2).sqrt() / 64.0).powf(0.25) * (64.0 / batch).powf(0.1);
        let config_factor = stats::sample_lognormal(&mut rng, 0.0, 0.15).clamp(0.5, 2.0);
        let base_duration = 45.0 * size_factor.clamp(0.5, 2.0) * config_factor;

        // Raw-reward anchors.
        let start_reward = rng.gen_range(-320.0..-180.0);
        let crash_reward = -100.0;
        let peak = match behavior {
            LunarBehavior::NonLearner => crash_reward + rng.gen_range(-25.0..10.0),
            LunarBehavior::LearningCrash => {
                // Crashers climb part of the way — sometimes close to the
                // solved reward, but never sustaining it.
                crash_reward + (260.0 * q.powf(0.35)) * rng.gen_range(0.5..1.0)
            }
            LunarBehavior::Solver => 205.0 + 55.0 * q + rng.gen_range(0.0..25.0),
        };
        let tau = (22.0 * (0.4 / q.max(0.02)).powf(0.35)).clamp(6.0, 160.0);
        let crash_block = if behavior == LunarBehavior::LearningCrash {
            // Crashes happen once learning is underway; with a short
            // horizon the crash may land beyond it (the job then looks
            // like a solver within the experiment window).
            let lo = (tau * 0.6).max(5.0);
            let hi = (f64::from(self.max_blocks) * 0.9).max(lo + 1.0);
            rng.gen_range(lo..hi) as u32
        } else {
            u32::MAX
        };

        let noise_raw = 10.0; // episode-level variance averaged over a block
        let rho = 0.45;
        let mut noise = 0.0;
        let mut rows = Vec::with_capacity(self.max_blocks as usize);
        for b in 1..=self.max_blocks {
            let duration = SimTime::from_secs(base_duration * noise_rng.gen_range(0.95..1.05));
            let x = f64::from(b);
            let mean_raw = if b >= crash_block {
                // Post-crash: pinned at the crash reward.
                crash_reward + noise_rng.gen_range(-8.0..4.0)
            } else {
                match behavior {
                    LunarBehavior::NonLearner => {
                        // Drifts from the start reward up to the crash floor.
                        let t = 1.0 - (-(x / 12.0)).exp();
                        start_reward + (peak - start_reward) * t
                    }
                    _ => {
                        let t = 1.0 - (-(x / tau).powf(1.1)).exp();
                        start_reward + (peak - start_reward) * t
                    }
                }
            };
            noise = rho * noise + stats::sample_normal(&mut noise_rng, 0.0, noise_raw);
            let raw = (mean_raw + noise).clamp(-500.0, 300.0);
            rows.push(EpochRow { duration, value: norm.normalize(raw) });
        }
        JobProfile::from_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm() -> hyperdrive_types::MetricNormalizer {
        DomainKnowledge::lunar_lander().normalizer
    }

    #[test]
    fn population_matches_fig8_shape() {
        // Fig 8 / §6.3: over 50% of jobs are non-learning (final reward at
        // or below the -100 crash value).
        let w = LunarWorkload::new();
        let mut rng = StdRng::seed_from_u64(99);
        let crash_norm = norm().normalize(-100.0) + 0.02;
        let mut non_learning = 0;
        let mut crashes = 0;
        let mut solvers = 0;
        let n = 300;
        for i in 0..n {
            let c = w.space().sample(&mut rng);
            let p = w.profile(&c, 1000 + i);
            let final_v = p.trailing(5);
            if final_v <= crash_norm {
                non_learning += 1;
            }
            match w.behavior(&c) {
                LunarBehavior::LearningCrash => crashes += 1,
                LunarBehavior::Solver => solvers += 1,
                LunarBehavior::NonLearner => {}
            }
        }
        let frac = non_learning as f64 / n as f64;
        assert!(frac > 0.5, "non-learning fraction {frac} should exceed 50%");
        assert!(crashes > 0, "learning-crash behaviour must occur");
        assert!(solvers > 0, "some configuration must solve the task");
    }

    #[test]
    fn some_solver_reaches_the_solved_condition() {
        let w = LunarWorkload::new();
        let dk = w.domain_knowledge();
        let solved = dk.solved.unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut any = false;
        for i in 0..200 {
            let c = w.space().sample(&mut rng);
            let p = w.profile(&c, 50 + i);
            if p.values().any(|v| v >= solved.target) {
                any = true;
                break;
            }
        }
        assert!(any, "no configuration ever reached the solved reward");
    }

    #[test]
    fn crashed_jobs_stay_crashed() {
        let w = LunarWorkload::new();
        let mut rng = StdRng::seed_from_u64(31);
        let crash_norm = norm().normalize(-100.0);
        let mut checked = 0;
        for i in 0..300 {
            let c = w.space().sample(&mut rng);
            if w.behavior(&c) == LunarBehavior::LearningCrash {
                let p = w.profile(&c, i);
                // After the collapse, the trailing quarter of the curve must
                // hover near the crash reward.
                let tail_start = (p.max_epochs() * 3 / 4) as usize;
                let tail: Vec<f64> = p.values().skip(tail_start).collect();
                let m = stats::mean(&tail).unwrap();
                // Only jobs that actually crashed within the horizon count.
                if tail.iter().all(|v| (*v - crash_norm).abs() < 0.08) {
                    checked += 1;
                    assert!((m - crash_norm).abs() < 0.06, "tail mean {m}");
                }
            }
            if checked >= 5 {
                return;
            }
        }
        assert!(checked > 0, "no crashed-within-horizon job found");
    }

    #[test]
    fn values_are_normalized() {
        let w = LunarWorkload::new();
        let mut rng = StdRng::seed_from_u64(8);
        for i in 0..50 {
            let c = w.space().sample(&mut rng);
            let p = w.profile(&c, i);
            assert!(p.values().all(|v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn profiles_are_deterministic() {
        let w = LunarWorkload::new();
        let mut rng = StdRng::seed_from_u64(2);
        let c = w.space().sample(&mut rng);
        assert_eq!(w.profile(&c, 77), w.profile(&c, 77));
    }

    impl JobProfile {
        /// Mean of the last `n` values (test helper).
        fn trailing(&self, n: usize) -> f64 {
            let vals = self.values();
            let start = vals.len().saturating_sub(n);
            stats::mean(&vals.skip(start).collect::<Vec<_>>()).unwrap()
        }
    }
}
