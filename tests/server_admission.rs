//! Admission through `hyperdrive-server`: a study that panics is a typed
//! failure that leaves its worker and its tenant's quota slot intact, no
//! shard worker sits idle while a study waits in the admission queue, and
//! studies that fill the fit pool fit on their own shard threads.

use std::time::{Duration, Instant};

use hyperdrive::curve::{FitPool, PredictorConfig};
use hyperdrive::framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive::pop::PopConfig;
use hyperdrive::workload::CifarWorkload;
use hyperdrive::SimTime;
use hyperdrive_server::{run_study, Server, ServerConfig, StudyOutcome, StudySpec};

/// A POP study on 4 CIFAR configurations and 2 machines.
fn study(tenant: &str, seed: u64) -> StudySpec {
    let workload = CifarWorkload::new().with_max_epochs(20);
    StudySpec {
        tenant: tenant.to_string(),
        workload: ExperimentWorkload::from_workload(&workload, 4, seed),
        spec: ExperimentSpec::new(2)
            .with_stop_on_target(false)
            .with_tmax(SimTime::from_hours(24.0)),
        policy: PopConfig { predictor: PredictorConfig::test(), ..Default::default() },
        seed,
    }
}

/// The study run alone, on a one-worker pool of its own.
fn alone(spec: &StudySpec) -> StudyOutcome {
    run_study(spec, 0, FitPool::new(1), None, Duration::ZERO)
}

#[test]
fn a_panicking_study_is_a_typed_failure_and_its_worker_survives() {
    let server = Server::new(ServerConfig {
        shards: 1,
        fit_threads: 1,
        tenant_quota: 1,
        ..Default::default()
    });
    let broken = StudySpec { spec: ExperimentSpec::new(0), ..study("alice", 3) };
    let ticket = server.submit(broken).expect("admission does not inspect the spec");
    let id = ticket.id;
    let failed = ticket.try_wait().expect_err("a study on 0 machines cannot run");
    assert_eq!(failed.id, id);
    assert!(failed.message.contains("at least one machine"), "unexpected panic: {failed}");
    assert_eq!(server.tenant_in_flight("alice"), 0, "the failed study kept its quota slot");

    // The same tenant, the same (only) worker: admitted, run, and
    // byte-equal to the study run alone.
    let spec = study("alice", 3);
    let outcome = server
        .submit(spec.clone())
        .expect("the quota slot was released")
        .try_wait()
        .expect("the worker survived the panic");
    let reference = alone(&spec);
    assert_eq!(outcome.trace, reference.trace, "trace diverged from standalone");
    assert_eq!(outcome.posterior_digest, reference.posterior_digest);
    assert_eq!(outcome.predictions, reference.predictions);
    assert_eq!(server.tenant_in_flight("alice"), 0);
}

#[test]
fn no_worker_idles_while_a_study_waits() {
    // Admission ids 0 and 1 once hashed to the same shard of two, so the
    // second study waited out the first's whole run beside an idle worker.
    let server = Server::new(ServerConfig { shards: 2, fit_threads: 2, ..Default::default() });
    let specs = [study("alice", 5), study("bob", 6)];
    let before = Instant::now();
    let tickets = specs.map(|s| server.submit(s).expect("an idle server admits"));
    let after = Instant::now();
    assert_eq!(tickets.each_ref().map(|t| t.id), [0, 1]);
    let [first, second] = tickets.map(|t| t.wait());
    // The two runs overlap: the second started (at most `after` plus its
    // queueing) before the first ended (at least `before` plus its
    // queueing and its run). A second study that waited for the first's
    // shard starts only once the first has ended; with both shards idle,
    // so does one whose shard the host did not schedule for the first's
    // whole run (milliseconds), the one legal way to fail.
    let second_started = after + second.queue_latency;
    let first_ended = before + first.queue_latency + first.run_duration;
    assert!(
        second_started < first_ended,
        "the second study started {:?} after the first ended (queued {:?}; the first queued \
         {:?} and ran {:?})",
        second_started - first_ended,
        second.queue_latency,
        first.queue_latency,
        first.run_duration
    );
}

#[test]
fn studies_that_fill_the_pool_fit_on_their_shards_and_release_it() {
    let server = Server::new(ServerConfig { shards: 2, fit_threads: 2, ..Default::default() });
    let pool = server.pool();

    // One study on a two-worker pool hands every fit off. Its shard may
    // take back any rest no worker has dequeued yet — all of them, on a
    // busy host — so who ran them is not fixed; that none ran as a full
    // pool's caller fit is.
    let lone = study("alice", 8);
    let outcome = server.submit(lone.clone()).expect("admitted").wait();
    assert_eq!(outcome.trace, alone(&lone).trace);
    let fits = outcome.fit_cache.expect("POP counts its fits").fits;
    assert!(fits > 0 && pool.stats().caller_fits == 0, "a lone study fitted on its shard");
    assert_eq!(pool.services(), 0, "a finished study still occupies the pool");

    // Four studies on two shards keep both busy: the pool is full and
    // the studies fit on their shards, each still byte-equal to its run
    // alone.
    let specs: Vec<StudySpec> =
        (0..4).map(|i| study(["alice", "bob"][i % 2], 20 + i as u64)).collect();
    let tickets: Vec<_> =
        specs.iter().map(|s| server.submit(s.clone()).expect("admitted")).collect();
    for (spec, ticket) in specs.iter().zip(tickets) {
        let outcome = ticket.wait();
        let reference = alone(spec);
        assert_eq!(outcome.trace, reference.trace, "trace diverged from standalone");
        assert_eq!(outcome.posterior_digest, reference.posterior_digest);
    }
    assert!(pool.stats().caller_fits > 0, "two busy shards never fitted on their own threads");
    assert_eq!(pool.services(), 0);

    // A study that panics gives its pool slot back with its quota slot:
    // the unwind drops its fit service.
    let broken = StudySpec { spec: ExperimentSpec::new(0), ..study("alice", 3) };
    let failed = server.submit(broken).expect("admitted").try_wait();
    assert!(failed.is_err());
    assert_eq!(pool.services(), 0, "a panicking study kept its occupancy");
}
