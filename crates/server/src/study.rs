//! Studies: the unit of admission.
//!
//! A [`StudySpec`] bundles everything one tenant submits — workload,
//! cluster spec, POP policy configuration, and a single study seed. The
//! server and the standalone runner both lower a spec through the *same*
//! seed derivation ([`derive_study_seed`]) and the same execution
//! primitive ([`run_study`]), so a study's event trace is byte-identical
//! whether it runs alone in its own process or multiplexed across a
//! shard pool with thousands of neighbours.

use std::sync::Arc;
use std::time::Duration;

use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::{CacheStatsSnapshot, FitPool, SharedFitCache};
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload, FitCacheSnapshot};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;

/// Server-assigned study identifier (admission order).
pub type StudyId = u64;

/// Seed stream for the POP policy (curve-fit seed derivation).
pub const STREAM_POLICY: u64 = 0;
/// Seed stream for the executor (suspend-cost sampling).
pub const STREAM_EXECUTOR: u64 = 1;

/// Derives a per-stream seed from one study seed (splitmix64).
///
/// Both the server and [`run_study_standalone`] derive the policy seed
/// and the executor seed through this function, so the two paths feed
/// bit-identical seeds into the deterministic stack below — the
/// foundation of the byte-identity contract.
#[must_use]
pub fn derive_study_seed(study_seed: u64, stream: u64) -> u64 {
    let mut z = study_seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one tenant submits to run a study.
#[derive(Debug, Clone)]
pub struct StudySpec {
    /// Tenant identifier (quota accounting key).
    pub tenant: String,
    /// The fixed configuration set with hidden ground truth.
    pub workload: ExperimentWorkload,
    /// Cluster size, `Tmax`, stopping behaviour. The `seed` field is
    /// overwritten with the derived executor stream of [`StudySpec::seed`].
    pub spec: ExperimentSpec,
    /// POP policy configuration. `seed` is overwritten with the policy
    /// seed derived from [`StudySpec::seed`]. The server ignores
    /// `fit_prefetch` and runs every study with prefetch off;
    /// [`run_study_standalone`] honours it.
    pub policy: PopConfig,
    /// The study seed; all per-stream seeds derive from it.
    pub seed: u64,
}

/// The result of one admitted study.
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// Server-assigned identifier.
    pub id: StudyId,
    /// The submitting tenant.
    pub tenant: String,
    /// The full rendered decision trace (events CSV + allocation timeline
    /// + end line) — the byte-compare target against a standalone run.
    pub trace: String,
    /// Order-independent digest over every memoized posterior.
    pub posterior_digest: u64,
    /// Curve-model predictions the policy consumed.
    pub predictions: u64,
    /// This study's traffic against the shared content-addressed cache.
    pub shared_cache: CacheStatsSnapshot,
    /// This study's speculative-prefetch counters (all zero with prefetch
    /// off). Always zero from a server, which never speculates; kept only
    /// because the repository benchmark reads it; removed with ROADMAP
    /// 1(a).
    pub spec_stats: hyperdrive_curve::SpecStats,
    /// The policy's full fit-cache counters.
    pub fit_cache: Option<FitCacheSnapshot>,
    /// Simulated time at which the target was reached, if it was.
    pub time_to_target: Option<SimTime>,
    /// Simulated experiment end time.
    pub end_time: SimTime,
    /// Total training epochs executed.
    pub total_epochs: u64,
    /// Wall-clock time from submit to dequeue: how long the study waited
    /// in the admission queue for an idle shard worker.
    pub queue_latency: Duration,
    /// Wall-clock time the study spent executing on its shard worker.
    pub run_duration: Duration,
}

/// Runs one study to completion on the calling thread, its fits
/// multiplexed through `pool` (and optionally the shared content-addressed
/// cache). The seeds come from [`derive_study_seed`], so the rendered
/// trace is the same whatever the pool and whoever shares it.
pub fn run_study(
    spec: &StudySpec,
    id: StudyId,
    pool: Arc<FitPool>,
    cache: Option<Arc<SharedFitCache>>,
    queue_latency: Duration,
) -> StudyOutcome {
    let config = PopConfig { seed: derive_study_seed(spec.seed, STREAM_POLICY), ..spec.policy };
    let run_spec = spec.spec.with_seed(derive_study_seed(spec.seed, STREAM_EXECUTOR));
    let started = std::time::Instant::now();
    let mut pop = PopPolicy::new(config, pool, cache);
    let result = run_sim(&mut pop, &spec.workload, run_spec);
    let run_duration = started.elapsed();
    StudyOutcome {
        id,
        tenant: spec.tenant.clone(),
        trace: pop.render_trace(&result),
        posterior_digest: pop.posterior_digest(),
        predictions: pop.predictions_made(),
        shared_cache: pop.shared_cache_snapshot(),
        spec_stats: pop.spec_stats(),
        fit_cache: result.fit_cache,
        time_to_target: result.time_to_target,
        end_time: result.end_time,
        total_epochs: result.total_epochs,
        queue_latency,
        run_duration,
    }
}

/// Runs one study exactly as a dedicated single-study process would: a
/// fit pool of its own with one worker per core, no shared cache, same
/// derived seeds. The reference side of every byte-identity assertion.
#[must_use]
pub fn run_study_standalone(spec: &StudySpec) -> StudyOutcome {
    run_study(spec, 0, FitPool::new(0), None, Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_streams_differ_and_are_stable() {
        let a = derive_study_seed(42, STREAM_POLICY);
        let b = derive_study_seed(42, STREAM_EXECUTOR);
        assert_ne!(a, b, "streams must decorrelate");
        assert_eq!(a, derive_study_seed(42, STREAM_POLICY), "derivation is pure");
        // Nearby study seeds land far apart in both streams.
        assert_ne!(derive_study_seed(43, STREAM_POLICY) ^ a, 1);
    }
}
