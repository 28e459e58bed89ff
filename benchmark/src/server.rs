//! `server_dup`: a closed loop of clients against the multi-tenant server,
//! a third of whose studies re-submit an earlier study under the other
//! tenant, so the shared fit cache is written by originals and read by
//! duplicates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hyperdrive_core::PopConfig;
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_server::{run_study_standalone, Server, ServerConfig, StudyOutcome, StudySpec};
use hyperdrive_types::SimTime;
use hyperdrive_workload::CifarWorkload;

use crate::host::{cpu_seconds, peak_rss_mb};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::report::{write_trace, Checks, Outcome};
use crate::sequential::{POP_CIFAR, SETUPS};
use crate::spans::{Span, Totals, Tracer};
use crate::stats::{median, Samples};
use crate::RunArgs;

/// Studies every run completes, whatever the time: the basis of the
/// counts and of `time_to_target_h`, which therefore describe fixed work.
const FIRST: usize = 12;

/// Completions per throughput window; throughput is the median over
/// windows, which a slow spell of the host moves little.
const WINDOW: usize = 6;

/// Study indices compared byte for byte with a stand-alone run: two
/// originals and two duplicates.
const SAMPLED: [usize; 4] = [1, 4, 5, 8];

/// The index whose configuration set and seed study `i` submits: every
/// third study from the sixth on repeats the study five places back,
/// which the alternating tenants make the other tenant's.
fn origin_of(i: usize) -> usize {
    if i % 3 == 2 && i >= 5 {
        i - 5
    } else {
        i
    }
}

/// Study `i` of the stream generated from `seed`: the `pop_cifar` study
/// shape on the `pop_cifar` hyperparameter sets, under library defaults.
fn study(seed: u64, i: usize) -> StudySpec {
    let origin = origin_of(i);
    let sets = POP_CIFAR.config_sets;
    let study_seed = 1000 * seed + origin as u64;
    StudySpec {
        tenant: format!("tenant-{}", i % 2),
        workload: ExperimentWorkload::from_workload_with_noise(
            &CifarWorkload::new(),
            POP_CIFAR.jobs,
            sets[origin % sets.len()],
            study_seed,
        ),
        spec: ExperimentSpec::new(POP_CIFAR.machines)
            .with_tmax(SimTime::from_hours(POP_CIFAR.tmax_h)),
        policy: PopConfig::default(),
        seed: study_seed,
    }
}

/// Shards, fit threads and clients: one per core, at most four.
fn width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

fn start_server() -> Server {
    Server::new(ServerConfig { shards: width(), fit_threads: width(), ..Default::default() })
}

/// One completed study as its client saw it.
#[derive(Debug)]
struct Done {
    index: usize,
    submitted_at: Duration,
    done_at: Duration,
    submit_us: f64,
    turnaround_ms: f64,
    rejections: u64,
    outcome: StudyOutcome,
}

/// Everything one closed-loop phase produced.
#[derive(Debug)]
struct Phase {
    done: Vec<Done>,
    wall_s: f64,
    /// Process CPU seconds the phase consumed, all threads.
    cpu_s: f64,
    spans: Vec<Span>,
    pool: hyperdrive_curve::FitPoolStats,
}

/// Runs the stream from index 0 on a fresh server for `seconds` (and at
/// least [`FIRST`] studies): one client per shard, each submitting its
/// next study only after its previous one resolved.
fn closed_loop(seed: u64, seconds: f64, traced: bool) -> Phase {
    let server = start_server();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let spans = Mutex::new(Vec::new());
    let start = Instant::now();
    let cpu_before = cpu_seconds();
    let budget = Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..width() {
            scope.spawn(|| {
                let mut tracer = Tracer::starting_at(start, 0);
                let enter = |t: &mut Tracer, name| traced.then(|| t.enter(name));
                let exit = |t: &mut Tracer, id: Option<u32>| {
                    if let Some(id) = id {
                        t.exit(id);
                    }
                };
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= FIRST && start.elapsed() >= budget {
                        break;
                    }
                    tracer.set_study(index as u32);
                    let id = enter(&mut tracer, "workload.generate");
                    let mut spec = study(seed, index);
                    exit(&mut tracer, id);

                    let submitted_at = start.elapsed();
                    let id = enter(&mut tracer, "server.submit");
                    let mut rejections = 0;
                    let ticket = loop {
                        match server.submit(spec) {
                            Ok(ticket) => break ticket,
                            Err(e) => {
                                rejections += 1;
                                std::thread::sleep(e.retry_after().unwrap_or_default());
                                spec = e.into_spec();
                            }
                        }
                    };
                    let submit_us = (start.elapsed() - submitted_at).as_secs_f64() * 1e6;
                    exit(&mut tracer, id);

                    let id = enter(&mut tracer, "server.wait");
                    let outcome = ticket.wait();
                    exit(&mut tracer, id);
                    let done_at = start.elapsed();
                    done.lock().expect("pushes never panic").push(Done {
                        index,
                        submitted_at,
                        done_at,
                        submit_us,
                        turnaround_ms: (done_at - submitted_at).as_secs_f64() * 1e3,
                        rejections,
                        outcome,
                    });
                }
                spans.lock().expect("pushes never panic").append(&mut tracer.take());
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let pool = server.pool().stats();
    let mut done = done.into_inner().expect("clients have exited");
    done.sort_by_key(|d| d.index);
    Phase { done, wall_s, cpu_s, spans: spans.into_inner().expect("clients have exited"), pool }
}

fn events(outcome: &StudyOutcome) -> u64 {
    // Suspends are not in the outcome; epochs are ~92 % of POP's events.
    outcome.total_epochs
}

/// Per-window rates of `amount` over consecutive blocks of [`WINDOW`]
/// completions.
fn windowed_rates(done: &[Done], amount: impl Fn(&Done) -> f64) -> Vec<f64> {
    let mut by_completion: Vec<&Done> = done.iter().collect();
    by_completion.sort_by_key(|d| d.done_at);
    let mut rates = Vec::new();
    let mut window_start = Duration::ZERO;
    for block in by_completion.chunks_exact(WINDOW) {
        let end = block[WINDOW - 1].done_at;
        rates.push(
            block.iter().map(|d| amount(d)).sum::<f64>() / (end - window_start).as_secs_f64(),
        );
        window_start = end;
    }
    rates
}

fn check_phase(seed: u64, phase: &Phase, warm_trace: &str, checks: &mut Checks) {
    for d in &phase.done {
        checks.expect(d.rejections == 0, || {
            format!("study {}: {} admissions rejected", d.index, d.rejections)
        });
        checks.expect(d.outcome.time_to_target.is_some(), || {
            format!("study {}: POP missed the target", d.index)
        });
        // A duplicate must have read the cache — if its original had
        // finished publishing when it was submitted.
        let origin = origin_of(d.index);
        if origin != d.index && phase.done[origin].done_at <= d.submitted_at {
            checks.expect(d.outcome.shared_cache.shared_hits > 0, || {
                format!("study {}: duplicate of {origin} recorded no shared hit", d.index)
            });
        }
    }
    checks.expect(phase.done[0].outcome.trace == warm_trace, || {
        "study 0: timed run differs from its warm-up run".to_string()
    });
    for i in SAMPLED {
        let alone = run_study_standalone(&study(seed, i));
        checks.expect(phase.done[i].outcome.trace == alone.trace, || {
            format!("study {i}: server trace differs from the stand-alone run")
        });
    }
}

/// Runs `server_dup` for `args.seconds`.
pub fn run(args: &RunArgs) -> Outcome {
    let mut checks = Checks::default();

    // Set-up: start a server, generate study 0, run it through; that
    // server is dropped, so the timed stream meets a cold shared cache.
    let mut setup_s = Vec::new();
    let mut warm_trace = String::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let server = start_server();
        let ticket = server.submit(study(args.seed, 0)).expect("an idle server admits");
        warm_trace = ticket.wait().trace;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // The traced pass spends half its time untraced, half traced.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let untraced = closed_loop(args.seed, seconds, false);
    check_phase(args.seed, &untraced, &warm_trace, &mut checks);
    let mut notes = vec![format!(
        "studies {} in {:.2} s, clients {}",
        untraced.done.len(),
        untraced.wall_s,
        width()
    )];

    let metrics = if args.trace {
        let traced = closed_loop(args.seed, seconds, true);
        per_layer(args, &untraced, &traced, &mut notes)
    } else {
        let mut m = MetricSet::zeroed(END_TO_END);
        m.set("setup_s", median(&setup_s), setup_s.len());
        let ev = windowed_rates(&untraced.done, |d| events(&d.outcome) as f64);
        m.set("events_per_s", median(&ev), ev.len());
        let turnaround = Samples::new(untraced.done.iter().map(|d| d.turnaround_ms).collect());
        m.set("latency_ms_p50", turnaround.median(), turnaround.n());
        if let Some((p, v)) = turnaround.highest_tail() {
            notes.push(format!("latency_ms_p{p} {v:.2} (n {})", turnaround.n()));
        }
        let total_events: u64 = untraced.done.iter().map(|d| events(&d.outcome)).sum();
        m.set("cpu_us_per_event", untraced.cpu_s * 1e6 / total_events as f64, untraced.done.len());
        notes.push(format!("process high-water mark {:.1} MB", peak_rss_mb()));
        m
    };
    Outcome { checks, metrics, notes }
}

fn per_layer(
    args: &RunArgs,
    untraced: &Phase,
    traced: &Phase,
    notes: &mut Vec<String>,
) -> MetricSet {
    let mut m = MetricSet::zeroed(PER_LAYER);
    let first = &traced.done[..FIRST];
    let sum = |f: &dyn Fn(&StudyOutcome) -> u64| first.iter().map(|d| f(&d.outcome)).sum::<u64>();
    let fit = |f: &dyn Fn(&hyperdrive_framework::FitCacheSnapshot) -> u64| {
        sum(&|o| o.fit_cache.as_ref().map_or(0, f)) as f64
    };
    let p50 = |f: &dyn Fn(&Done) -> f64| median(&traced.done.iter().map(f).collect::<Vec<_>>());
    let n = traced.done.len();

    m.set("sim.events", sum(&events) as f64, FIRST);
    let batches: u64 =
        traced.done.iter().map(|d| d.outcome.fit_cache.map_or(0, |f| f.batches)).sum();
    m.set("core.decisions", fit(&|f| f.batches), FIRST);
    m.set("core.decisions_per_s", batches as f64 / traced.wall_s, n);
    let hours: Vec<f64> = first
        .iter()
        .map(|d| d.outcome.time_to_target.unwrap_or(d.outcome.end_time).as_hours())
        .collect();
    m.set("core.time_to_target_h", median(&hours), FIRST);
    m.set("curve.fits", fit(&|f| f.fits), FIRST);
    m.set("curve.batches", fit(&|f| f.batches), FIRST);
    m.set("curve.local_hits", fit(&|f| f.local_hits), FIRST);
    m.set("curve.shared_hits", fit(&|f| f.shared_hits), FIRST);
    m.set("curve.shared_lookups", fit(&|f| f.shared_lookups), FIRST);
    m.set("curve.shared_inserts", fit(&|f| f.shared_inserts), FIRST);
    let lookups = fit(&|f| f.shared_lookups);
    if lookups > 0.0 {
        m.set("curve.shared_hit_rate", fit(&|f| f.shared_hits) / lookups, lookups as usize);
    }
    m.set("curve.spec_speculated", sum(&|o| o.spec_stats.speculated) as f64, FIRST);
    m.set("curve.spec_adopted", sum(&|o| o.spec_stats.adopted) as f64, FIRST);
    // The pool is the server's, shared by every study: whole-phase totals.
    m.set("curve.pool_busy_s", traced.pool.busy_secs, n);
    m.set("curve.pool_stall_s", traced.pool.stall_secs, n);
    m.set("curve.pool_idle_frac", traced.pool.idle_fraction(), n);
    let evals = PopConfig::default().predictor;
    m.set("curve.loglik_evals_per_fit", (evals.walkers * (evals.steps + 1)) as f64, 1);

    m.set("server.submit_us_p50", p50(&|d| d.submit_us), n);
    m.set("server.queue_ms_p50", p50(&|d| d.outcome.queue_latency.as_secs_f64() * 1e3), n);
    m.set("server.run_ms_p50", p50(&|d| d.outcome.run_duration.as_secs_f64() * 1e3), n);
    let overhead = |d: &Done| {
        d.turnaround_ms - (d.outcome.queue_latency + d.outcome.run_duration).as_secs_f64() * 1e3
    };
    m.set("server.overhead_ms_p50", p50(&overhead), n);
    let turnaround = |dup: bool| -> Vec<f64> {
        let of = |d: &&Done| (origin_of(d.index) != d.index) == dup;
        traced.done.iter().filter(of).map(|d| d.turnaround_ms).collect()
    };
    let (fresh, dup) = (turnaround(false), turnaround(true));
    m.set("server.fresh_turnaround_ms_p50", median(&fresh), fresh.len());
    m.set("server.dup_turnaround_ms_p50", median(&dup), dup.len());
    let alone: Vec<f64> = SAMPLED
        .iter()
        .map(|&i| {
            let spec = study(args.seed, i);
            let t = Instant::now();
            std::hint::black_box(run_study_standalone(&spec));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.set("server.standalone_ms_p50", median(&alone), alone.len());
    m.set("server.rejections", traced.done.iter().map(|d| d.rejections).sum::<u64>() as f64, n);
    let rate = |p: &Phase| median(&windowed_rates(&p.done, |_| 1.0));
    m.set("server.studies_per_s", rate(traced), n / WINDOW);

    let mut totals = Totals::default();
    totals.add_unit(&traced.spans);
    let generate = Samples::new(
        traced
            .spans
            .iter()
            .filter(|s| s.name == "workload.generate")
            .map(|s| s.dur_ns() as f64)
            .collect(),
    );
    m.set("workload.generate_ms", generate.median() / 1e6, generate.n());
    m.set("bench.traced_wall_s", traced.wall_s, 1);
    m.set("bench.trace_overhead_frac", rate(untraced) / rate(traced) - 1.0, 1);
    // Client time inside no span: every client runs for the whole phase.
    let clients = width() as f64;
    let in_spans: u64 = traced.spans.iter().map(Span::dur_ns).sum();
    let unattributed = 1.0 - in_spans as f64 / 1e9 / (clients * traced.wall_s);
    m.set("bench.unattributed_frac", unattributed.max(0.0), 1);
    m.set("bench.peak_rss_mb", peak_rss_mb(), 1);

    match write_trace("server_dup", &args.host_json, &totals, &traced.spans, &m) {
        Ok(path) => notes.push(format!("trace written to {}", path.display())),
        Err(e) => notes.push(format!("trace not written: {e}")),
    }
    m
}
