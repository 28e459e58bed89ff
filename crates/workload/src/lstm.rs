//! Synthetic LSTM language-model workload with group-lasso structured
//! sparsity — the §9 "Ongoing Work" scenario.
//!
//! The paper describes joint work on structurally shrinking LSTMs "for
//! both storage saving and computation time saving, without perplexity
//! loss", via group-lasso regularization whose strength λ "makes a
//! trade-off between sparsity and model perplexity". HyperDrive explores λ
//! (plus the usual training hyperparameters) "while monitoring both
//! perplexity and a sparsity-related metric" with "user-defined global
//! termination criteria through HyperDrive's SAP API".
//!
//! This workload reproduces that shape:
//!
//! * the **primary metric** is perplexity, reported (like all HyperDrive
//!   metrics) as a normalized higher-is-better score:
//!   `value = (ppl_max − ppl) / (ppl_max − ppl_min)` with
//!   `ppl ∈ [ppl_min, ppl_max] = [60, 800]`;
//! * the **secondary metric** is the fraction of weight groups driven to
//!   zero by the regularizer (`0` = dense, `1` = fully sparse), attached
//!   to the profile via [`JobProfile::with_secondary`];
//! * λ controls the trade-off: higher λ yields more sparsity and (beyond a
//!   sweet spot) worse perplexity, lower λ trains dense accurate models.

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

/// The 8-hyperparameter LSTM + group-lasso search space (§9; λ plus the
/// usual medium-LSTM training knobs of Zaremba et al., the paper's \[33\]).
pub fn lstm_space() -> HyperParamSpace {
    HyperParamSpace::builder()
        .continuous_log("lambda", 1e-6, 1e-2)
        .continuous_log("learning_rate", 1e-4, 10.0)
        .continuous("dropout", 0.0, 0.8)
        .integer("hidden_size", 200, 1500)
        .integer("num_layers", 1, 3)
        .integer("seq_len", 10, 70)
        .integer("batch_size", 10, 64)
        .continuous_log("grad_clip", 0.5, 20.0)
        .build()
        .expect("lstm space is statically valid")
}

/// Perplexity range used for normalization.
pub const PPL_RANGE: (f64, f64) = (60.0, 800.0);

/// Synthetic LSTM/PTB-style workload with a sparsity secondary metric.
///
/// # Example
///
/// ```
/// use hyperdrive_workload::{LstmWorkload, Workload};
/// use rand::SeedableRng;
///
/// let workload = LstmWorkload::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let config = workload.space().sample(&mut rng);
/// let profile = workload.profile(&config, 3);
/// assert!(profile.secondary_values().is_some(), "sparsity is reported");
/// ```
#[derive(Debug, Clone)]
pub struct LstmWorkload {
    space: HyperParamSpace,
    max_epochs: u32,
}

impl LstmWorkload {
    /// Creates the workload: 55 epochs of a few minutes each (medium-LSTM
    /// scale).
    pub fn new() -> Self {
        LstmWorkload { space: lstm_space(), max_epochs: 55 }
    }

    /// Overrides the epoch cap (for fast tests).
    pub fn with_max_epochs(mut self, max_epochs: u32) -> Self {
        assert!(max_epochs >= 1);
        self.max_epochs = max_epochs;
        self
    }

    /// The normalizer from raw perplexity to the higher-is-better score:
    /// feed it `-perplexity`.
    pub fn perplexity_normalizer() -> MetricNormalizer {
        MetricNormalizer::new(-PPL_RANGE.1, -PPL_RANGE.0).expect("static range is valid")
    }

    /// Converts a raw perplexity into the normalized primary metric.
    pub fn normalize_perplexity(ppl: f64) -> f64 {
        Self::perplexity_normalizer().normalize(-ppl)
    }

    /// Converts a normalized primary metric back into raw perplexity.
    pub fn denormalize_perplexity(value: f64) -> f64 {
        -Self::perplexity_normalizer().denormalize(value)
    }

    /// Latent quality (training health, ignoring λ) in `[0, 1]` and the
    /// final `(perplexity, sparsity)` pair. Exposed for calibration tests.
    pub fn outcome(&self, config: &Configuration) -> (f64, f64, f64) {
        let lr = config.get_f64("learning_rate").unwrap_or(1.0).log10();
        let dropout = config.get_f64("dropout").unwrap_or(0.5);
        let hidden = config.get_f64("hidden_size").unwrap_or(650.0);
        let layers = config.get_f64("num_layers").unwrap_or(2.0);
        let seq = config.get_f64("seq_len").unwrap_or(35.0);
        let clip = config.get_f64("grad_clip").unwrap_or(5.0).log10();
        let lambda = config.get_f64("lambda").unwrap_or(1e-4);

        let k_lr = kernel(lr, 0.0, 0.6); // SGD lr ~1 for PTB LSTMs
        let k_drop = kernel(dropout, 0.5, 0.25);
        let k_hidden = kernel((hidden / 650.0).log2(), 0.0, 1.0);
        let k_layers = kernel(layers, 2.0, 1.0);
        let k_seq = kernel(seq, 35.0, 20.0);
        let k_clip = kernel(clip, 0.7, 0.8);
        let q = (k_lr
            * k_drop.powf(0.5)
            * k_hidden.powf(0.6)
            * k_layers.powf(0.3)
            * k_seq.powf(0.2)
            * k_clip.powf(0.3))
        .clamp(0.0, 1.0);

        // λ trade-off: sparsity grows with λ; perplexity has a mild sweet
        // spot (a little regularization helps) then degrades.
        let log_lambda = lambda.log10(); // in [-6, -2]
        let sparsity = (1.0 / (1.0 + (-2.2 * (log_lambda + 3.6)).exp())).clamp(0.0, 0.95);
        // Moderate sparsity is nearly free (the §9 "without perplexity
        // loss" operating point); pushing toward full sparsity costs
        // steeply.
        let lambda_ppl_factor =
            1.0 - 0.04 * kernel(log_lambda, -4.2, 0.5) + 0.55 * (sparsity / 0.95).powf(4.0);

        // Base perplexity: good configurations reach ~75–90; poor ones
        // stay in the hundreds.
        let base_ppl = 72.0 + 550.0 * (1.0 - q).powf(2.2);
        let final_ppl = (base_ppl * lambda_ppl_factor).clamp(PPL_RANGE.0, PPL_RANGE.1);
        (q, final_ppl, sparsity)
    }
}

impl Default for LstmWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for LstmWorkload {
    fn name(&self) -> &str {
        "lstm-ptb"
    }

    fn domain_knowledge(&self) -> DomainKnowledge {
        DomainKnowledge {
            domain: LearningDomain::Supervised,
            metric: MetricKind::LowerIsBetter,
            normalizer: Self::perplexity_normalizer(),
            // A model stuck at ~uniform word prediction: ppl near the top
            // of the range, normalized score ≈ 0.
            random_performance: Self::normalize_perplexity(790.0),
            // Kill models whose perplexity never escapes ~700.
            kill_threshold: Self::normalize_perplexity(700.0),
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
        5 // 5–10% of max epochs, the §9 heuristic for b.
    }

    fn default_target(&self) -> f64 {
        Self::normalize_perplexity(95.0)
    }

    fn suspend_model(&self) -> SuspendModel {
        SuspendModel::supervised_snapshot()
    }

    fn profile(&self, config: &Configuration, seed: u64) -> JobProfile {
        let mut rng = StdRng::seed_from_u64(config.stable_hash() ^ 0x157A);
        let mut noise_rng = StdRng::seed_from_u64(seed ^ 0x157A);
        let (q, final_ppl, final_sparsity) = self.outcome(config);

        let hidden = config.get_f64("hidden_size").unwrap_or(650.0);
        let seq = config.get_f64("seq_len").unwrap_or(35.0);
        // Epoch duration grows with model size; sparsity shortens later
        // epochs (the §9 computation-time saving).
        let size_factor = (hidden / 650.0).powf(0.8) * (seq / 35.0).powf(0.3);
        let config_factor = stats::sample_lognormal(&mut rng, 0.0, 0.10).clamp(0.6, 1.6);
        let base_duration = 150.0 * size_factor.clamp(0.3, 4.0) * config_factor;

        let start_ppl = rng.gen_range(650.0..800.0);
        let tau = (8.0 + 20.0 * (1.0 - q)).clamp(6.0, 40.0);
        let sparsity_tau = tau * 1.4;

        let mut rows = Vec::with_capacity(self.max_epochs as usize);
        let mut sparsities = Vec::with_capacity(self.max_epochs as usize);
        let mut noise = 0.0;
        for e in 1..=self.max_epochs {
            let x = f64::from(e);
            let progress = 1.0 - (-(x / tau)).exp();
            let sparsity = final_sparsity * (1.0 - (-(x / sparsity_tau)).exp());
            // Sparse groups shrink compute: up to ~35% per-epoch saving at
            // full sparsity.
            let speedup = 1.0 - 0.35 * sparsity;
            let duration =
                SimTime::from_secs(base_duration * speedup * noise_rng.gen_range(0.97..1.03));
            noise = 0.5 * noise + stats::sample_normal(&mut noise_rng, 0.0, 3.0);
            let ppl = (start_ppl + (final_ppl - start_ppl) * progress + noise)
                .clamp(PPL_RANGE.0, PPL_RANGE.1);
            rows.push(EpochRow { duration, value: Self::normalize_perplexity(ppl) });
            sparsities.push(sparsity.clamp(0.0, 1.0));
        }
        JobProfile::from_rows(rows).with_secondary(sparsities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_round_trips() {
        for ppl in [60.0, 95.0, 400.0, 800.0] {
            let v = LstmWorkload::normalize_perplexity(ppl);
            assert!((0.0..=1.0).contains(&v));
            assert!((LstmWorkload::denormalize_perplexity(v) - ppl).abs() < 1e-9);
        }
        // Lower perplexity -> higher score.
        assert!(
            LstmWorkload::normalize_perplexity(80.0) > LstmWorkload::normalize_perplexity(200.0)
        );
    }

    #[test]
    fn lambda_controls_the_sparsity_perplexity_tradeoff() {
        let w = LstmWorkload::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut base = w.space().sample(&mut rng);
        // Fix a healthy training configuration.
        use hyperdrive_types::ParamValue::{Float, Int};
        base.set("learning_rate", Float(1.0));
        base.set("dropout", Float(0.5));
        base.set("hidden_size", Int(650));
        base.set("num_layers", Int(2));
        base.set("seq_len", Int(35));
        base.set("grad_clip", Float(5.0));

        let outcome_at = |lambda: f64| {
            let mut c = base.clone();
            c.set("lambda", Float(lambda));
            let (_, ppl, sparsity) = w.outcome(&c);
            (ppl, sparsity)
        };
        let (ppl_lo, sp_lo) = outcome_at(1e-6);
        let (ppl_hi, sp_hi) = outcome_at(1e-2);
        assert!(sp_hi > sp_lo + 0.3, "high lambda must sparsify: {sp_lo} -> {sp_hi}");
        assert!(ppl_hi > ppl_lo + 20.0, "too much lambda must cost perplexity");
        // A moderate lambda buys sparsity nearly for free (the paper's
        // "without perplexity loss" operating point).
        let (ppl_mid, sp_mid) = outcome_at(10f64.powf(-3.6));
        assert!(sp_mid > 0.3, "moderate lambda sparsifies: {sp_mid}");
        assert!(ppl_mid < ppl_lo * 1.25, "without large perplexity loss: {ppl_mid} vs {ppl_lo}");
    }

    #[test]
    fn profiles_report_monotone_sparsity() {
        let w = LstmWorkload::new();
        let mut rng = StdRng::seed_from_u64(3);
        let c = w.space().sample(&mut rng);
        let p = w.profile(&c, 7);
        let sparsity = p.secondary_values().expect("lstm reports sparsity");
        for win in sparsity.windows(2) {
            assert!(win[1] >= win[0] - 1e-12, "sparsity only grows");
        }
        assert!(sparsity.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn sparse_models_train_faster_per_epoch() {
        let w = LstmWorkload::new();
        let mut rng = StdRng::seed_from_u64(5);
        use hyperdrive_types::ParamValue::Float;
        let mut c = w.space().sample(&mut rng);
        c.set("lambda", Float(5e-3)); // heavy sparsity
        let p = w.profile(&c, 1);
        let first = p.epoch_duration(1).as_secs();
        let last = p.epoch_duration(p.max_epochs()).as_secs();
        assert!(
            last < first * 0.85,
            "late epochs should be cheaper once groups zero out: {first} -> {last}"
        );
    }

    #[test]
    fn good_configs_reach_low_perplexity() {
        let w = LstmWorkload::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mut best_ppl = f64::INFINITY;
        for i in 0..200 {
            let c = w.space().sample(&mut rng);
            let p = w.profile(&c, i);
            best_ppl = best_ppl.min(LstmWorkload::denormalize_perplexity(p.final_value()));
        }
        assert!(best_ppl < 120.0, "best of 200 configs reached ppl {best_ppl}");
    }

    #[test]
    fn profiles_are_noise_stable_in_outcome() {
        // Different training-noise seeds must not change the config's
        // essential outcome, only perturb it.
        let w = LstmWorkload::new();
        let mut rng = StdRng::seed_from_u64(13);
        let c = w.space().sample(&mut rng);
        let a = w.profile(&c, 1).final_value();
        let b = w.profile(&c, 2).final_value();
        assert!((a - b).abs() < 0.05, "outcome flipped across noise seeds: {a} vs {b}");
    }
}
