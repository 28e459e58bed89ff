//! Property tests for the shared fit cache: whatever order posteriors and
//! answers are inserted and asked for in, a served posterior is bitwise the
//! first one written under its fingerprint, a memoized answer is bitwise
//! the first one recorded for its query, and the counters say exactly what
//! happened. The cache is allowed one failure mode: a miss (the caller
//! then fits cold).

use std::collections::HashMap;

use proptest::prelude::*;

use hyperdrive_curve::ensemble::dimension;
use hyperdrive_curve::{
    fit_fingerprint, CurveFingerprint, CurvePosterior, ExceedanceQuery, PredictorConfig,
    SharedFitCache,
};
use hyperdrive_types::{LearningCurve, MetricKind, SimTime};

fn fingerprint(seed: u64) -> CurveFingerprint {
    let mut c = LearningCurve::new(MetricKind::Accuracy);
    for e in 1..=10u32 {
        let x = f64::from(e);
        c.push(e, SimTime::from_secs(60.0 * x), 0.7 - 0.65 * x.powf(-0.8));
    }
    fit_fingerprint(&c, &PredictorConfig::test(), seed, 100, None)
}

fn posterior(tag: usize) -> CurvePosterior {
    let draws = (0..3 * dimension()).map(|d| tag as f64 + d as f64 * 0.25).collect();
    CurvePosterior::from_parts(draws, 10, 100, 0.37).expect("whole rows")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Inserts land under a handful of keys in arbitrary order, so keys
    /// collide: the first posterior written under a key is the one served,
    /// bitwise, for ever; unknown keys miss; lookups, hits and inserts
    /// count gets, found gets and distinct keys.
    #[test]
    fn first_writer_wins_and_counters_are_exact(
        writes in proptest::collection::vec(0u64..6, 1..24),
        reads in proptest::collection::vec(0u64..9, 0..24),
    ) {
        let cache = SharedFitCache::in_memory();
        let mut truth: HashMap<u64, CurvePosterior> = HashMap::new();
        for (tag, key) in writes.iter().enumerate() {
            cache.insert(fingerprint(*key), &posterior(tag));
            truth.entry(*key).or_insert_with(|| posterior(tag));
        }
        let mut hits = 0;
        for key in &reads {
            let served = cache.get(&fingerprint(*key));
            prop_assert_eq!(served.is_some(), truth.contains_key(key));
            if let Some(p) = served {
                prop_assert_eq!(p.draws(), truth[key].draws());
                hits += 1;
            }
            prop_assert_eq!(cache.peek(&fingerprint(*key)).is_some(), truth.contains_key(key));
        }
        let stats = cache.snapshot();
        prop_assert_eq!(stats.lookups, reads.len() as u64, "peeks are not lookups");
        prop_assert_eq!(stats.shared_hits, hits);
        prop_assert_eq!(stats.inserts, truth.len() as u64);
        prop_assert_eq!(cache.len(), truth.len());
    }

    /// Answers recorded beside one posterior: the first answer per query
    /// is the one served, the first four distinct queries are the ones
    /// kept, and however many arrive the posterior itself is still served.
    #[test]
    fn first_answer_per_query_wins(
        asked in proptest::collection::vec(1u32..12, 1..16),
    ) {
        let cache = SharedFitCache::in_memory();
        let fp = fingerprint(1);
        let query = |epoch: u32| ExceedanceQuery::new(&[epoch, epoch + 5], 0.6);
        let written = posterior(0);
        let mut truth: HashMap<u32, Vec<f64>> = HashMap::new();
        for (i, epoch) in asked.iter().enumerate() {
            let answer = vec![i as f64, 0.5];
            cache.insert_answered(fp, &written, Some((&query(*epoch), &answer)));
            truth.entry(*epoch).or_insert(answer);
        }
        prop_assert_eq!(cache.snapshot().inserts, 1);
        let mut memoized = 0;
        for epoch in 1u32..12 {
            let (p, answer) = cache.get_answered(&fp, Some(&query(epoch))).expect("cached");
            prop_assert_eq!(p.draws(), written.draws());
            if let Some(a) = answer {
                prop_assert_eq!(Some(&a), truth.get(&epoch), "a served answer is the first recorded");
                memoized += 1;
            }
        }
        prop_assert_eq!(memoized, truth.len().min(4), "four answers are kept per posterior");
        let (_, none) = cache.get_answered(&fp, None).expect("cached");
        prop_assert!(none.is_none());
    }
}
