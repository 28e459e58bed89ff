//! Synthetic ImageNet22k-scale workload — the paper's §1 motivating
//! example: "a high-quality ImageNet22k image classification model can
//! take up to ten days to train to convergence using 62 machines"
//! (Project Adam, the paper's ref [8]).
//!
//! Epochs here cost *hours*, not minutes (60 epochs × ~4 h ≈ 10 days), so
//! every wasted configuration burns machine-days — the regime where early
//! termination pays most. Top-1 accuracy over 21,841 classes: random
//! performance is effectively zero, strong models reach the high-30%s.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperdrive_types::{
    stats, Configuration, DomainKnowledge, HyperParamSpace, LearningDomain, MetricKind,
    MetricNormalizer, SimTime,
};

use crate::profile::{EpochRow, JobProfile};
use crate::suspend::SuspendModel;
use crate::Workload;

fn kernel(x: f64, opt: f64, width: f64) -> f64 {
    let z = (x - opt) / width;
    (-0.5 * z * z).exp()
}

/// The 10-hyperparameter ImageNet22k search space.
pub fn imagenet_space() -> HyperParamSpace {
    HyperParamSpace::builder()
        .continuous_log("learning_rate", 1e-4, 1.0)
        .continuous("momentum", 0.0, 0.99)
        .continuous_log("weight_decay", 1e-6, 1e-2)
        .integer("batch_size", 64, 2048)
        .continuous_log("init_scale", 1e-3, 1e-1)
        .continuous("lr_warmup_frac", 0.0, 0.2)
        .continuous_log("lr_decay", 2.0, 50.0)
        .integer("async_workers", 4, 128)
        .continuous_log("staleness_bound", 1.0, 64.0)
        .continuous("label_smoothing", 0.0, 0.3)
        .build()
        .expect("imagenet space is statically valid")
}

/// Synthetic ImageNet22k workload: 60 epochs of roughly 4 hours each.
///
/// # Example
///
/// ```
/// use hyperdrive_workload::{ImagenetWorkload, Workload};
/// use rand::SeedableRng;
///
/// let workload = ImagenetWorkload::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let config = workload.space().sample(&mut rng);
/// let profile = workload.profile(&config, 7);
/// // Full training is on the order of ten days.
/// assert!(profile.total_duration().as_hours() > 5.0 * 24.0);
/// ```
#[derive(Debug, Clone)]
pub struct ImagenetWorkload {
    space: HyperParamSpace,
    max_epochs: u32,
}

impl ImagenetWorkload {
    /// Creates the workload at the paper's scale (60 × ~4 h epochs).
    pub fn new() -> Self {
        ImagenetWorkload { space: imagenet_space(), max_epochs: 60 }
    }

    /// Overrides the epoch cap (for fast tests).
    pub fn with_max_epochs(mut self, max_epochs: u32) -> Self {
        assert!(max_epochs >= 1);
        self.max_epochs = max_epochs;
        self
    }

    /// Latent quality in `[0, 1]` and divergence flag. Exposed for
    /// calibration tests.
    pub fn quality(&self, config: &Configuration) -> (f64, bool) {
        let lr = config.get_f64("learning_rate").unwrap_or(0.01).log10();
        let momentum = config.get_f64("momentum").unwrap_or(0.9);
        let wd = config.get_f64("weight_decay").unwrap_or(1e-4).log10();
        let batch = config.get_f64("batch_size").unwrap_or(512.0);
        let init = config.get_f64("init_scale").unwrap_or(1e-2).log10();
        let workers = config.get_f64("async_workers").unwrap_or(32.0);
        let staleness = config.get_f64("staleness_bound").unwrap_or(8.0).log10();
        let smoothing = config.get_f64("label_smoothing").unwrap_or(0.1);

        // Asynchronous SGD at scale: too-high lr or unbounded staleness
        // with many workers diverges (the Project Adam failure modes).
        let diverged = lr > -0.5 || (workers > 64.0 && staleness > 1.4 && lr > -1.5) || init > -1.2;

        let k_lr = kernel(lr, -2.0, 0.7);
        let k_mom = kernel(momentum, 0.9, 0.3);
        let k_wd = kernel(wd, -4.0, 1.2);
        let k_batch = kernel((batch / 512.0).log2(), 0.0, 1.6);
        let k_init = kernel(init, -2.0, 0.8);
        let k_workers = kernel((workers / 32.0).log2(), 0.0, 1.5);
        let k_smooth = kernel(smoothing, 0.1, 0.12);

        let q = (k_lr
            * k_mom.powf(0.5)
            * k_wd.powf(0.4)
            * k_batch.powf(0.3)
            * k_init.powf(0.6)
            * k_workers.powf(0.3)
            * k_smooth.powf(0.2))
        .clamp(0.0, 1.0);
        (q, diverged)
    }
}

impl Default for ImagenetWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for ImagenetWorkload {
    fn name(&self) -> &str {
        "imagenet22k"
    }

    fn domain_knowledge(&self) -> DomainKnowledge {
        DomainKnowledge {
            domain: LearningDomain::Supervised,
            metric: MetricKind::Accuracy,
            normalizer: MetricNormalizer::identity(),
            // Random top-1 over 21,841 classes is ~0.005%.
            random_performance: 0.0001,
            // Kill anything stuck below 1% top-1 after warmup.
            kill_threshold: 0.01,
            kill_warmup_evals: 2,
            solved: None,
        }
    }

    fn space(&self) -> &HyperParamSpace {
        &self.space
    }

    fn max_epochs(&self) -> u32 {
        self.max_epochs
    }

    fn eval_boundary(&self) -> u32 {
        // ~8% of max epochs (§9's 5–10% heuristic). Must also be at least
        // the curve model's minimum observation count, so the very first
        // boundary can already produce a prediction.
        5
    }

    fn default_target(&self) -> f64 {
        0.30 // strong top-1 accuracy for a 22k-class model of this era
    }

    fn suspend_model(&self) -> SuspendModel {
        // Large-model state: hundreds of MB, tens of seconds.
        SuspendModel::from_moments(
            25.0,
            12.0,
            90.0,
            600.0 * 1024.0 * 1024.0,
            200.0 * 1024.0 * 1024.0,
            1536.0 * 1024.0 * 1024.0,
        )
    }

    fn profile(&self, config: &Configuration, seed: u64) -> JobProfile {
        let mut rng = StdRng::seed_from_u64(config.stable_hash() ^ 0x1A6E);
        let mut noise_rng = StdRng::seed_from_u64(seed ^ 0x1A6E);
        let (q, diverged) = self.quality(config);

        let batch = config.get_f64("batch_size").unwrap_or(512.0);
        let workers = config.get_f64("async_workers").unwrap_or(32.0);
        // ~4h epochs; more async workers shorten epochs sublinearly.
        let speedup = (workers / 32.0).powf(0.55).clamp(0.3, 3.0);
        let size_factor = (batch / 512.0).powf(-0.1).clamp(0.8, 1.3);
        let config_factor = stats::sample_lognormal(&mut rng, 0.0, 0.08).clamp(0.7, 1.4);
        let base_hours = 4.0 * size_factor * config_factor / speedup;

        let learner = !diverged && q >= 0.012;
        let y0 = 0.0005;
        let (final_acc, tau, beta) = if learner {
            let final_acc = y0 + 0.40 * (q / 0.6).powf(0.6).min(1.0);
            let lr = config.get_f64("learning_rate").unwrap_or(0.01);
            let tau = (14.0 * (0.01 / lr).powf(0.35)).clamp(4.0, 80.0);
            (final_acc, tau, rng.gen_range(0.8..1.3))
        } else {
            (y0 + rng.gen_range(0.0..0.003), 1.0, 1.0)
        };

        let mut rows = Vec::with_capacity(self.max_epochs as usize);
        let mut noise = 0.0;
        for e in 1..=self.max_epochs {
            let duration = SimTime::from_hours(base_hours * noise_rng.gen_range(0.97..1.03));
            let mean = if learner {
                let x = f64::from(e);
                y0 + (final_acc - y0) * (1.0 - (-(x / tau).powf(beta)).exp())
            } else {
                final_acc
            };
            noise = 0.5 * noise + stats::sample_normal(&mut noise_rng, 0.0, 0.004);
            rows.push(EpochRow { duration, value: (mean + noise).clamp(0.0, 0.6) });
        }
        JobProfile::from_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_training_takes_days() {
        let w = ImagenetWorkload::new();
        let mut rng = StdRng::seed_from_u64(1);
        let c = w.space().sample(&mut rng);
        let p = w.profile(&c, 1);
        let days = p.total_duration().as_hours() / 24.0;
        assert!((2.0..=30.0).contains(&days), "training should take days, got {days:.1}");
    }

    #[test]
    fn population_is_sparse_at_the_top() {
        let w = ImagenetWorkload::new();
        let mut rng = StdRng::seed_from_u64(2024);
        let finals: Vec<f64> =
            (0..300).map(|i| w.profile(&w.space().sample(&mut rng), i).final_value()).collect();
        let n = finals.len() as f64;
        let dead = finals.iter().filter(|v| **v < 0.01).count() as f64 / n;
        let strong = finals.iter().filter(|v| **v >= 0.30).count() as f64 / n;
        assert!(dead > 0.2, "many configs never learn: {dead}");
        assert!((0.005..0.2).contains(&strong), "strong configs are rare: {strong}");
    }

    #[test]
    fn async_workers_speed_up_epochs() {
        let w = ImagenetWorkload::new();
        use hyperdrive_types::ParamValue::Int;
        let mut rng = StdRng::seed_from_u64(3);
        let mut few = w.space().sample(&mut rng);
        let mut many = few.clone();
        few.set("async_workers", Int(8));
        many.set("async_workers", Int(96));
        let d_few = w.profile(&few, 1).mean_epoch_duration().as_hours();
        let d_many = w.profile(&many, 1).mean_epoch_duration().as_hours();
        assert!(d_many < d_few, "more workers must shorten epochs: {d_few} vs {d_many}");
    }

    #[test]
    fn divergence_conditions_fire() {
        let w = ImagenetWorkload::new();
        use hyperdrive_types::ParamValue::Float;
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = w.space().sample(&mut rng);
        c.set("learning_rate", Float(0.9));
        let (_, diverged) = w.quality(&c);
        assert!(diverged, "lr 0.9 at this scale must diverge");
        assert!(w.profile(&c, 1).final_value() < 0.01);
    }

    #[test]
    fn domain_knowledge_matches_the_22k_task() {
        let dk = ImagenetWorkload::new().domain_knowledge();
        assert!(dk.random_performance < 0.001, "22k-way random accuracy is tiny");
        assert_eq!(dk.kill_threshold, 0.01);
        assert_eq!(ImagenetWorkload::new().default_target(), 0.30);
    }
}
