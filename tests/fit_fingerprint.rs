//! Every `PredictorConfig` field but `seed` feeds the fit fingerprint: a
//! fidelity change the key missed would let a shared cache serve one
//! budget's posterior to a study asking for another.

use hyperdrive::curve::{fit_fingerprint, PredictorConfig};
use hyperdrive::{LearningCurve, MetricKind, SimTime};

#[test]
fn every_config_field_but_the_seed_changes_the_key() {
    let mut curve = LearningCurve::new(MetricKind::Accuracy);
    for e in 1..=10u32 {
        let x = f64::from(e);
        curve.push(e, SimTime::from_mins(x), 0.7 - 0.6 * x.powf(-0.8));
    }
    let base = PredictorConfig::test();
    // Names every field, so a field added to the config fails to compile
    // here until it gets a case below.
    let PredictorConfig {
        walkers,
        steps,
        burn_in_frac,
        thin,
        max_draws,
        max_obs,
        seed,
        min_observations,
    } = base;
    let perturbed = [
        ("walkers", PredictorConfig { walkers: walkers + 1, ..base }),
        ("steps", PredictorConfig { steps: steps + 1, ..base }),
        ("burn_in_frac", PredictorConfig { burn_in_frac: burn_in_frac + 0.1, ..base }),
        ("thin", PredictorConfig { thin: thin + 1, ..base }),
        ("max_draws", PredictorConfig { max_draws: max_draws + 1, ..base }),
        ("max_obs", PredictorConfig { max_obs: max_obs + 1, ..base }),
        ("min_observations", PredictorConfig { min_observations: min_observations + 1, ..base }),
    ];
    let key = |config: &PredictorConfig| fit_fingerprint(&curve, config, 42, 100, None);
    for (field, config) in &perturbed {
        assert_ne!(key(config), key(&base), "`{field}` left the fingerprint unchanged");
    }
    // The derived per-fit seed (42 above) is what the fit runs on.
    assert_eq!(key(&base.with_seed(seed + 1)), key(&base), "`seed` changed the fingerprint");
}
