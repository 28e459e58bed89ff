//! The row layout of [`JobProfile`] is invisible: every accessor answers,
//! bit for bit, what it would compute from the two vectors a profile is
//! described by — durations and values — and every input the two-vector
//! constructor rejected is still rejected.

use proptest::prelude::*;

use hyperdrive_types::SimTime;
use hyperdrive_workload::{EpochRow, JobProfile, JobTrace, TraceSet};

fn times(durations: &[f64]) -> Vec<SimTime> {
    durations.iter().map(|d| SimTime::from_secs(*d)).collect()
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accessors_equal_the_two_vector_quantities(
        epochs in proptest::collection::vec((0.001f64..5_000.0, -2.0f64..2.0), 1..80),
        target in -2.0f64..2.0,
    ) {
        let (durations, values): (Vec<f64>, Vec<f64>) = epochs.iter().copied().unzip();
        let profile = JobProfile::new(times(&durations), values.clone());
        let n = durations.len();

        prop_assert_eq!(profile.max_epochs() as usize, n);
        prop_assert_eq!(profile.rows().len(), n);
        for e in 1..=n {
            let row = profile.rows()[e - 1];
            prop_assert_eq!(row.duration.as_secs().to_bits(), durations[e - 1].to_bits());
            prop_assert_eq!(row.value.to_bits(), values[e - 1].to_bits());
            prop_assert_eq!(profile.epoch_duration(e as u32), row.duration);
            prop_assert_eq!(profile.value_at(e as u32).to_bits(), row.value.to_bits());
        }
        prop_assert_eq!(profile.values().len(), n);
        prop_assert_eq!(profile.epoch_durations().len(), n);
        prop_assert_eq!(bits(profile.values()), bits(values.iter().copied()));
        prop_assert_eq!(
            bits(profile.epoch_durations().map(|d| d.as_secs())),
            bits(durations.iter().copied())
        );

        // Summation order is epoch order, as over the old duration vector.
        let total: f64 = durations.iter().sum();
        prop_assert_eq!(profile.total_duration().as_secs().to_bits(), total.to_bits());
        prop_assert_eq!(
            profile.mean_epoch_duration().as_secs().to_bits(),
            (total / n as f64).to_bits()
        );
        let best = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(profile.best_value().to_bits(), best.to_bits());
        prop_assert_eq!(profile.final_value().to_bits(), values[n - 1].to_bits());
        let first = values.iter().position(|v| *v >= target).map(|i| i as u32 + 1);
        prop_assert_eq!(profile.first_epoch_reaching(target), first);

        // Rows written directly describe the same profile.
        let rows = epochs
            .iter()
            .map(|&(d, value)| EpochRow { duration: SimTime::from_secs(d), value })
            .collect();
        prop_assert_eq!(&JobProfile::from_rows(rows), &profile);
    }

    #[test]
    fn trace_sets_round_trip_through_profiles(
        jobs in proptest::collection::vec(
            proptest::collection::vec((0.001f64..5_000.0, 0.0f64..1.0), 1..30),
            1..6,
        ),
    ) {
        let traces = jobs
            .iter()
            .enumerate()
            .map(|(i, epochs)| {
                let (epoch_durations, values) = epochs.iter().copied().unzip();
                JobTrace { config_index: i as u32, epoch_durations, values }
            })
            .collect();
        let set = TraceSet { workload_name: "rows".to_string(), traces };
        let back = TraceSet {
            workload_name: set.workload_name.clone(),
            traces: set
                .traces
                .iter()
                .map(|t| JobTrace::from_profile(t.config_index, &t.to_profile()))
                .collect(),
        };
        prop_assert_eq!(&back, &set);
        // And through the CSV codec, whose floats round-trip bitwise.
        let mut csv = Vec::new();
        set.write(&mut csv).unwrap();
        prop_assert_eq!(&TraceSet::read(csv.as_slice()).unwrap(), &set);
    }

    #[test]
    fn a_secondary_series_rides_beside_the_rows(
        epochs in proptest::collection::vec((0.001f64..5_000.0, 0.0f64..1.0, 0.0f64..1.0), 1..40),
    ) {
        let (durations, rest): (Vec<f64>, Vec<(f64, f64)>) =
            epochs.iter().map(|&(d, v, s)| (d, (v, s))).unzip();
        let (values, secondary): (Vec<f64>, Vec<f64>) = rest.into_iter().unzip();
        let profile = JobProfile::new(times(&durations), values).with_secondary(secondary.clone());
        prop_assert_eq!(profile.secondary_values(), Some(secondary.as_slice()));
        for e in 1..=profile.max_epochs() {
            prop_assert_eq!(profile.secondary_at(e), Some(secondary[e as usize - 1]));
        }
    }
}

#[test]
#[should_panic(expected = "cover every epoch")]
fn a_secondary_series_longer_than_the_rows_is_rejected() {
    let _ = JobProfile::new(times(&[1.0, 2.0]), vec![0.1, 0.2]).with_secondary(vec![0.0; 3]);
}

#[test]
#[should_panic(expected = "cover every epoch")]
fn a_secondary_series_shorter_than_the_rows_is_rejected() {
    let _ = JobProfile::new(times(&[1.0, 2.0]), vec![0.1, 0.2]).with_secondary(vec![0.0]);
}

#[test]
#[should_panic(expected = "equal length")]
fn unequal_lengths_are_rejected() {
    let _ = JobProfile::new(times(&[1.0, 2.0]), vec![0.1]);
}

#[test]
#[should_panic(expected = "equal length")]
fn a_ragged_trace_is_rejected() {
    let _ = JobTrace { config_index: 0, epoch_durations: vec![1.0], values: vec![0.1, 0.2] }
        .to_profile();
}

#[test]
#[should_panic(expected = "at least one epoch")]
fn empty_input_is_rejected() {
    let _ = JobProfile::new(Vec::new(), Vec::new());
}

#[test]
#[should_panic(expected = "at least one epoch")]
fn empty_rows_are_rejected() {
    let _ = JobProfile::from_rows(Vec::new());
}

#[test]
#[should_panic(expected = "bad profile value")]
fn non_finite_values_are_rejected() {
    let _ = JobProfile::new(times(&[1.0, 1.0]), vec![0.1, f64::INFINITY]);
}

#[test]
#[should_panic(expected = "bad epoch duration")]
fn non_positive_durations_are_rejected() {
    let _ = JobProfile::new(times(&[1.0, -1.0]), vec![0.1, 0.2]);
}

#[test]
#[should_panic(expected = "bad epoch duration")]
fn a_bad_duration_is_reported_before_a_bad_value() {
    // The two-vector constructor checked every duration, then every value.
    let _ = JobProfile::new(times(&[1.0, 0.0]), vec![f64::NAN, 0.2]);
}
