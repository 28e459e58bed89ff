//! The fidelity frontier of the curve predictor (§5.2; ROADMAP item 7a):
//! how far each sampling budget's answers sit from the paper's `100 × 700`
//! operating point, against what it costs — the instrument that chooses
//! [`PredictorConfig::fast`].
//!
//! Over a fixed corpus of observed prefixes from both workload generators
//! the bin fits every point of a `steps × max_draws` grid (plus `walkers`
//! and `burn_in_frac` variants along the steps axis) and the four presets,
//! each under two experiment seeds, and records per point and generator:
//! mean / max |Δconfidence| (POP's prediction confidence, through
//! `ert_query` / `ert_from_exceedance`), mean |ΔP(target at horizon)| and
//! the `prediction_std` ratio against `paper()` at the same seed; the
//! re-seed floors (`paper()` against itself, the point against itself);
//! POP decisions flipped (the 0.05 prune bound, and Promising /
//! Opportunistic at the study's `p*`); and the median fit + query time.
//!
//! **The rule.** `fast()` should sit on the frontier: a swept point that
//!
//! 1. moves a confidence no further from the old default's (same seed)
//!    than re-seeding the old default moves it, on both generators,
//! 2. flips no more decisions against the old default than the old default
//!    flips against itself re-seeded, on both generators, and
//! 3. runs at least twice the knee's steps — the knee being the largest
//!    `steps` on the old default's own axis that fails 1 or 2.
//!
//! The cheapest such point (by `walkers × steps`, then `max_draws`; a tie
//! keeps the old default's `burn_in_frac`) is named beside it. ISSUE 21
//! worded parts 1 and 2 against `paper()` — distance within [`BAND`] of
//! the old default's, flips within the old default's re-seed flips — and
//! that wording is still evaluated and reported per point
//! (`issue_band` / `issue_flips`), but it cannot choose: the old default
//! fails its part 2 itself (every point's flips against `paper()` are
//! mostly `paper()`'s own re-seed noise), and the band is narrower than
//! what reading the same chain at 200 instead of 400 rows moves the
//! distance by.
//!
//! Ensembles under `2 × dimension()` walkers are swept for the record but
//! are not candidates (the stretch move needs that many to mix). Timings
//! are reported, never consulted: the verdict repeats exactly on any host.
//!
//! Emits `FRONTIER.json` into the results directory and the §5.2 claim
//! into the scorecard.

use std::io::Write as _;
use std::time::Instant;

use hyperdrive_bench::{print_table, quick_mode, record_claims, results_dir, Claim};
use hyperdrive_core::{allocate_slots, ert_from_exceedance, ert_query};
use hyperdrive_curve::ensemble::dimension;
use hyperdrive_curve::{derive_fit_seed, CurvePredictor, FitScratch, PredictorConfig, QUERY_LANES};
use hyperdrive_types::{stats, LearningCurve, SimTime};
use hyperdrive_workload::{CifarWorkload, LunarWorkload, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The default this frontier was first drawn around (`fast()` until ISSUE
/// 21): the yardstick of rule parts 1 and 2, kept here as a literal.
const OLD_STEPS: usize = 60;
const OLD_MAX_DRAWS: usize = 400;
const OLD_BURN_IN: f64 = 0.4;

/// ISSUE 21's band: the share of the old default's distance from `paper()`
/// a point's own may exceed it by (reported, not ruled on).
const BAND: f64 = 0.05;
/// POP's confidence prune bound (§5.3).
const PRUNE_BOUND: f64 = 0.05;
/// The two experiment seeds every configuration is fitted under.
const SEEDS: [u64; 2] = [99, 7];
const GENERATORS: [&str; 2] = ["cifar10", "lunarlander"];
/// Observation counts per generator; a (generator, count) pair is a study.
const COUNTS: usize = 3;

/// One workload generator's share of the corpus: the study shape POP's
/// arithmetic needs, the observation counts (the domain's first evaluation
/// boundaries) and how many configurations to draw from which seed.
struct Generator<'a> {
    workload: &'a dyn Workload,
    tmax_h: f64,
    machines: usize,
    observations: [u32; COUNTS],
    configs: usize,
    rng_seed: u64,
}

/// One observed prefix, with the question POP would ask of its fit.
struct Prefix {
    generator: usize,
    /// Configuration index within its generator (seeds the fit).
    index: u64,
    /// Index of the (generator, observation count) group: the "study"
    /// whose `p*` classifies it.
    study: usize,
    obs: u32,
    /// Evaluation boundaries the job has reached (`obs / b`).
    evals: u32,
    curve: LearningCurve,
    target: f64,
    max_future: u32,
    epoch_duration: SimTime,
    budget: SimTime,
}

/// What one fit of one prefix answers, and how long fit + query took.
#[derive(Clone, Copy)]
struct Reading {
    confidence: f64,
    p_horizon: f64,
    std_horizon: f64,
    millis: f64,
}

/// One configuration's readings over the corpus under one seed.
type Column = Vec<Option<Reading>>;

fn corpus(generators: &[Generator<'_>; 2]) -> Vec<Prefix> {
    let mut prefixes = Vec::new();
    for (generator, g) in generators.iter().enumerate() {
        let (workload, seed, counts) = (g.workload, g.rng_seed, g.observations);
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = workload.domain_knowledge().metric;
        for index in 0..g.configs as u64 {
            let config = workload.space().sample(&mut rng);
            let profile = workload.profile(&config, 100 * seed + index);
            for (slot, &obs) in counts.iter().enumerate() {
                if obs >= profile.max_epochs() {
                    continue; // a crashed run too short to have this prefix
                }
                let mut curve = LearningCurve::new(kind);
                let mut elapsed = 0.0;
                for e in 1..=obs {
                    elapsed += profile.epoch_duration(e).as_secs();
                    curve.push(e, SimTime::from_secs(elapsed), profile.value_at(e));
                }
                // POP's own arithmetic (`PopPolicy::refresh_assessments`)
                // for a job that has run since t = 0.
                let budget =
                    SimTime::from_hours(g.tmax_h).saturating_sub(SimTime::from_secs(elapsed));
                let epoch_duration = curve.mean_epoch_duration().expect("a prefix has epochs");
                let m_budget = (budget.as_secs() / epoch_duration.as_secs()).floor() as u32;
                let max_future = m_budget.min(workload.max_epochs() - obs);
                prefixes.push(Prefix {
                    generator,
                    index,
                    study: generator * COUNTS + slot,
                    obs,
                    evals: obs / workload.eval_boundary(),
                    curve,
                    target: workload.default_target(),
                    max_future,
                    epoch_duration,
                    budget,
                });
            }
        }
    }
    prefixes
}

fn read(
    config: PredictorConfig,
    seed: u64,
    prefix: &Prefix,
    scratch: &mut FitScratch,
) -> Option<Reading> {
    let fit_seed = derive_fit_seed(seed, prefix.index, prefix.obs);
    let predictor = CurvePredictor::new(config.with_seed(fit_seed));
    let horizon = prefix.obs + prefix.max_future;
    let query = ert_query(prefix.obs, prefix.max_future, prefix.target);
    let mut cdfs = [0.0f64; QUERY_LANES];
    let cdfs = &mut cdfs[..query.epochs().len()];
    let t = Instant::now();
    let posterior = predictor.fit_with(&prefix.curve, horizon, scratch).ok()?;
    posterior.prob_at_least_many(query.epochs(), prefix.target, cdfs);
    let millis = t.elapsed().as_secs_f64() * 1e3;
    let estimate =
        ert_from_exceedance(&query, prefix.obs, cdfs, prefix.epoch_duration, prefix.budget);
    let (_, std_horizon, p_horizon) = posterior.summary_at(horizon, prefix.target);
    Some(Reading { confidence: estimate.confidence, p_horizon, std_horizon, millis })
}

fn column(
    config: PredictorConfig,
    seed: u64,
    corpus: &[Prefix],
    scratch: &mut FitScratch,
) -> Column {
    corpus.iter().map(|prefix| read(config, seed, prefix, scratch)).collect()
}

/// Two columns compared over one generator's prefixes.
#[derive(Clone, Copy, Default)]
struct Distance {
    prefixes: usize,
    mean_dconf: f64,
    max_dconf: f64,
    mean_dp_horizon: f64,
    /// Mean `prediction_std` of the first column over the second's.
    std_ratio: f64,
    prune_flips: usize,
    class_flips: usize,
}

impl Distance {
    fn flips(&self) -> usize {
        self.prune_flips + self.class_flips
    }
}

/// `x` against `y` per generator. `p_star[study]` is the dynamic threshold
/// of the prefix's study; the prune bound applies from a job's second
/// evaluation on, as in POP.
fn compare(corpus: &[Prefix], p_star: &[f64], x: &Column, y: &Column) -> [Distance; 2] {
    let mut out = [Distance::default(); 2];
    let mut std_sums = [(0.0, 0.0); 2];
    for ((prefix, x), y) in corpus.iter().zip(x).zip(y) {
        let (Some(x), Some(y)) = (x, y) else { continue };
        let d = &mut out[prefix.generator];
        let dconf = (x.confidence - y.confidence).abs();
        d.prefixes += 1;
        d.mean_dconf += dconf;
        d.max_dconf = d.max_dconf.max(dconf);
        d.mean_dp_horizon += (x.p_horizon - y.p_horizon).abs();
        std_sums[prefix.generator].0 += x.std_horizon;
        std_sums[prefix.generator].1 += y.std_horizon;
        let pruned = |r: &Reading| prefix.evals >= 2 && r.confidence < PRUNE_BOUND;
        let promising = |r: &Reading| r.confidence >= p_star[prefix.study];
        d.prune_flips += usize::from(pruned(x) != pruned(y));
        d.class_flips += usize::from(promising(x) != promising(y));
    }
    for (d, (sx, sy)) in out.iter_mut().zip(std_sums) {
        let n = d.prefixes.max(1) as f64;
        d.mean_dconf /= n;
        d.mean_dp_horizon /= n;
        d.std_ratio = sx / sy;
    }
    out
}

/// One measured configuration.
struct Point {
    label: String,
    config: PredictorConfig,
    /// A candidate for the default (presets and under-sized ensembles are
    /// not).
    candidate: bool,
    vs_paper: [Distance; 2],
    vs_old: [Distance; 2],
    reseed: [Distance; 2],
    millis_p50: [f64; 2],
}

impl Point {
    fn evals(&self) -> usize {
        self.config.walkers * self.config.steps
    }
}

/// The rule's verdict on one candidate.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Verdict {
    inside_noise: bool,
    flips_ok: bool,
    above_knee: bool,
}

impl Verdict {
    fn eligible(&self) -> bool {
        self.inside_noise && self.flips_ok && self.above_knee
    }
}

/// What the rule needs of a swept point: whether it is a candidate at
/// all, its swept fields, and its distance (mean |Δconfidence|) and flips
/// against the old default at the same seed, per generator.
#[derive(Clone, Copy)]
struct Candidate {
    candidate: bool,
    walkers: usize,
    steps: usize,
    max_draws: usize,
    burn_in_frac: f64,
    distance: [f64; 2],
    flips: [usize; 2],
}

/// The rule of the module docs over the swept points: `old` is the old
/// default among them, `old_floor` and `old_reseed_flips` its distance and
/// flips against itself re-seeded. Returns `(knee steps, one verdict per
/// point — `None` for a non-candidate —, index of the cheapest eligible
/// point)`.
fn apply_rule(
    points: &[Candidate],
    old: usize,
    old_floor: [f64; 2],
    old_reseed_flips: [usize; 2],
) -> (usize, Vec<Option<Verdict>>, Option<usize>) {
    let base = points[old];
    let inside_noise = |c: &Candidate| (0..2).all(|g| c.distance[g] <= old_floor[g]);
    let flips_ok = |c: &Candidate| (0..2).all(|g| c.flips[g] <= old_reseed_flips[g]);
    let on_old_axis = |c: &Candidate| {
        c.walkers == base.walkers
            && c.max_draws == base.max_draws
            && c.burn_in_frac == base.burn_in_frac
    };
    let knee = points
        .iter()
        .filter(|c| c.candidate && on_old_axis(c) && !(inside_noise(c) && flips_ok(c)))
        .map(|c| c.steps)
        .max()
        .unwrap_or(0);
    let verdicts: Vec<Option<Verdict>> = points
        .iter()
        .map(|c| {
            c.candidate.then(|| Verdict {
                inside_noise: inside_noise(c),
                flips_ok: flips_ok(c),
                above_knee: c.steps >= 2 * knee,
            })
        })
        .collect();
    let cheapest =
        (0..points.len()).filter(|&i| verdicts[i].is_some_and(|v| v.eligible())).min_by_key(|&i| {
            let c = &points[i];
            (c.walkers * c.steps, c.max_draws, c.burn_in_frac != base.burn_in_frac)
        });
    (knee, verdicts, cheapest)
}

fn label(c: &PredictorConfig) -> String {
    format!("w{}_s{}_b{}_d{}", c.walkers, c.steps, c.burn_in_frac, c.max_draws)
}

fn distance_json(d: &Distance) -> String {
    format!(
        "{{\"prefixes\": {}, \"mean_abs_dconfidence\": {:.5}, \"max_abs_dconfidence\": {:.5}, \
         \"mean_abs_dp_target_at_horizon\": {:.5}, \"prediction_std_ratio\": {:.4}, \
         \"prune_flips\": {}, \"class_flips\": {}}}",
        d.prefixes,
        d.mean_dconf,
        d.max_dconf,
        d.mean_dp_horizon,
        d.std_ratio,
        d.prune_flips,
        d.class_flips,
    )
}

/// What ISSUE 21's wording of parts 1 and 2 says of a point: its distance
/// from `paper()` within [`BAND`] of the old default's, and its flips
/// against `paper()` within the old default's own re-seed flips.
fn issue_wording(p: &Point, old: &Point) -> (bool, bool) {
    (
        (0..2).all(|g| p.vs_paper[g].mean_dconf <= old.vs_paper[g].mean_dconf * (1.0 + BAND)),
        (0..2).all(|g| p.vs_paper[g].flips() <= old.reseed[g].flips()),
    )
}

fn point_json(p: &Point, old: &Point, verdict: Option<&Verdict>) -> String {
    let c = &p.config;
    let per_generator: Vec<String> = (0..2)
        .map(|g| {
            format!(
                "      \"{}\": {{\"fit_query_ms_p50\": {:.3},\n        \"vs_paper\": {},\n        \
                 \"vs_old_default\": {},\n        \"reseed_floor\": {}}}",
                GENERATORS[g],
                p.millis_p50[g],
                distance_json(&p.vs_paper[g]),
                distance_json(&p.vs_old[g]),
                distance_json(&p.reseed[g]),
            )
        })
        .collect();
    let verdict = verdict.map_or(String::new(), |v| {
        let (issue_band, issue_flips) = issue_wording(p, old);
        format!(
            " \"inside_noise\": {}, \"flips_ok\": {}, \"above_knee\": {}, \"eligible\": {}, \
             \"issue_band\": {issue_band}, \"issue_flips\": {issue_flips},",
            v.inside_noise,
            v.flips_ok,
            v.above_knee,
            v.eligible()
        )
    });
    format!(
        "    {{\"label\": \"{}\", \"walkers\": {}, \"steps\": {}, \"burn_in_frac\": {}, \
         \"thin\": {}, \"max_draws\": {}, \"max_obs\": {}, \"loglik_evals\": {}, \
         \"candidate\": {},{verdict}\n{}}}",
        p.label,
        c.walkers,
        c.steps,
        c.burn_in_frac,
        c.thin,
        c.max_draws,
        c.max_obs,
        p.evals(),
        p.candidate,
        per_generator.join(",\n"),
    )
}

fn main() {
    let quick = quick_mode();
    let (cifar, lunar) = (CifarWorkload::new(), LunarWorkload::new());
    let generators = [
        Generator {
            workload: &cifar,
            tmax_h: 48.0,
            machines: 4,
            observations: [10, 20, 30],
            configs: if quick { 16 } else { 150 },
            rng_seed: 21,
        },
        Generator {
            workload: &lunar,
            tmax_h: 24.0,
            machines: 15,
            observations: [20, 40, 80],
            configs: if quick { 16 } else { 120 },
            rng_seed: 22,
        },
    ];
    let corpus = corpus(&generators);
    let mut scratch = FitScratch::new();
    let fast = PredictorConfig::fast();
    // Un-swept fields (thin, max_obs) follow fast().
    let swept = |walkers, steps, burn_in_frac, max_draws| PredictorConfig {
        walkers,
        steps,
        burn_in_frac,
        max_draws,
        ..fast
    };
    let old_config = swept(fast.walkers, OLD_STEPS, OLD_BURN_IN, OLD_MAX_DRAWS);

    // The yardsticks: paper() under both seeds, each study's p* from its
    // confidences (k = 1), and the old default at the first seed.
    let paper = SEEDS.map(|seed| column(PredictorConfig::paper(), seed, &corpus, &mut scratch));
    let p_star: Vec<f64> = (0..generators.len() * COUNTS)
        .map(|study| {
            let confidences: Vec<f64> = corpus
                .iter()
                .zip(&paper[0])
                .filter(|(prefix, _)| prefix.study == study)
                .filter_map(|(_, r)| r.map(|r| r.confidence))
                .collect();
            allocate_slots(&confidences, generators[study / COUNTS].machines, 1).p_threshold
        })
        .collect();
    let old_column = column(old_config, SEEDS[0], &corpus, &mut scratch);

    let mut measure = |label: String, config: PredictorConfig, candidate: bool| -> Point {
        let cols = SEEDS.map(|seed| column(config, seed, &corpus, &mut scratch));
        let millis_p50 = [0, 1].map(|g| {
            let times: Vec<f64> = cols
                .iter()
                .flat_map(|col| corpus.iter().zip(col))
                .filter(|(prefix, _)| prefix.generator == g)
                .filter_map(|(_, r)| r.map(|r| r.millis))
                .collect();
            stats::median(&times).unwrap_or(f64::NAN)
        });
        Point {
            label,
            config,
            candidate,
            vs_paper: compare(&corpus, &p_star, &cols[0], &paper[0]),
            vs_old: compare(&corpus, &p_star, &cols[0], &old_column),
            reseed: compare(&corpus, &p_star, &cols[0], &cols[1]),
            millis_p50,
        }
    };

    // The sweep; quick mode keeps the old default, fast() and one point
    // below the knee.
    let steps_axis: &[usize] = if quick { &[6, 30, 60] } else { &[6, 12, 20, 30, 40, 60] };
    let draws_axis: &[usize] = if quick { &[200, 400] } else { &[50, 100, 200, 400] };
    let variants: &[(usize, f64)] = if quick { &[] } else { &[(100, 0.5), (64, 0.4), (64, 0.5)] };
    let mut points = Vec::new();
    for &steps in steps_axis {
        for &max_draws in draws_axis {
            let config = swept(fast.walkers, steps, OLD_BURN_IN, max_draws);
            points.push(measure(label(&config), config, true));
        }
        for &(walkers, burn_in_frac) in variants {
            let config = swept(walkers, steps, burn_in_frac, OLD_MAX_DRAWS);
            points.push(measure(label(&config), config, walkers >= 2 * dimension()));
        }
    }
    let presets = [
        measure("paper()".into(), PredictorConfig::paper(), false),
        measure("reference()".into(), PredictorConfig::reference(), false),
        measure("fast()".into(), fast, false),
        measure("test()".into(), PredictorConfig::test(), false),
    ];

    // The rule.
    let candidates: Vec<Candidate> = points
        .iter()
        .map(|p| Candidate {
            candidate: p.candidate,
            walkers: p.config.walkers,
            steps: p.config.steps,
            max_draws: p.config.max_draws,
            burn_in_frac: p.config.burn_in_frac,
            distance: [0, 1].map(|g| p.vs_old[g].mean_dconf),
            flips: [0, 1].map(|g| p.vs_old[g].flips()),
        })
        .collect();
    let is = |p: &Point, c: &PredictorConfig| {
        (p.config.walkers, p.config.steps, p.config.max_draws) == (c.walkers, c.steps, c.max_draws)
            && p.config.burn_in_frac == c.burn_in_frac
    };
    let old = points
        .iter()
        .position(|p| p.candidate && is(p, &old_config))
        .expect("the sweep contains the old default");
    let old_point = &points[old];
    let old_floor = [0, 1].map(|g| old_point.reseed[g].mean_dconf);
    let old_reseed_flips = [0, 1].map(|g| old_point.reseed[g].flips());
    let (knee, verdicts, cheapest) = apply_rule(&candidates, old, old_floor, old_reseed_flips);
    let cheapest_point = cheapest.map(|i| &points[i]);
    let default_on_frontier =
        points.iter().zip(&verdicts).any(|(p, v)| is(p, &fast) && v.is_some_and(|v| v.eligible()));
    let below_knee_detected = knee > 0;
    // ISSUE 21's wording, for the record: the cheapest point it admits.
    let issue_names = points
        .iter()
        .filter(|p| p.candidate && issue_wording(p, old_point) == (true, true))
        .min_by_key(|p| (p.evals(), p.config.max_draws))
        .map_or("none", |p| p.label.as_str());

    // Terminal table.
    let row = |p: &Point, verdict: Option<&Verdict>| -> Vec<String> {
        let mut cells = vec![p.label.clone(), p.evals().to_string()];
        for g in 0..2 {
            cells.push(format!("{:.4}", p.vs_paper[g].mean_dconf));
            cells.push(format!("{:.4}", p.vs_old[g].mean_dconf));
            cells.push(format!("{:.4}", p.reseed[g].mean_dconf));
            cells.push(format!(
                "{}/{}/{}",
                p.vs_paper[g].flips(),
                p.vs_old[g].flips(),
                p.reseed[g].flips()
            ));
            cells.push(format!("{:.2}", p.millis_p50[g]));
        }
        cells.push(verdict.map_or("-".into(), |v| {
            if v.eligible() {
                "eligible".to_string()
            } else {
                [(v.inside_noise, "noise"), (v.flips_ok, "flips"), (v.above_knee, "knee")]
                    .iter()
                    .filter(|(ok, _)| !ok)
                    .map(|(_, why)| *why)
                    .collect::<Vec<_>>()
                    .join("+")
            }
        }));
        cells
    };
    let mut rows: Vec<Vec<String>> =
        points.iter().zip(&verdicts).map(|(p, v)| row(p, v.as_ref())).collect();
    rows.extend(presets.iter().map(|p| row(p, None)));
    print_table(
        "Fidelity frontier (d = mean |Δconfidence| vs paper() / vs the old default, same seed; \
         floor = vs itself re-seeded; flips = vs paper / vs old / re-seeded)",
        &[
            "point", "evals", "cifar d", "vs old", "floor", "flips", "ms", "lunar d", "vs old",
            "floor", "flips", "ms", "rule",
        ],
        &rows,
    );
    println!(
        "\nknee: {knee} steps; cheapest eligible point: {}; fast() is {}; default_on_frontier = \
         {default_on_frontier}; below_knee_detected = {below_knee_detected}; ISSUE 21's wording \
         names: {issue_names}",
        cheapest_point.map_or("none", |p| p.label.as_str()),
        label(&fast),
    );

    // §5.2: "fewer MCMC samples, >2× faster, no significant degradation".
    // `ours` is paper()'s median fit + query time over fast()'s; the
    // degradation term is fast()'s flips against paper(), allowed up to
    // what re-seeding either side flips by itself.
    let [paper_point, _, fast_point, _] = &presets;
    let total = |d: &[Distance; 2]| d[0].flips() + d[1].flips();
    let speedup = (paper_point.millis_p50[0] + paper_point.millis_p50[1])
        / (fast_point.millis_p50[0] + fast_point.millis_p50[1]);
    let degraded = total(&fast_point.vs_paper);
    let allowed = total(&paper_point.reseed) + total(&fast_point.reseed);
    let claim = Claim::at_least("sec5.2.fewer_samples_no_degradation", 2.0, speedup, 0.0)
        .requiring(degraded <= allowed);

    let path = results_dir().join("FRONTIER.json");
    let mut f = std::fs::File::create(&path).expect("json file creatable");
    let grid_json: Vec<String> =
        points.iter().zip(&verdicts).map(|(p, v)| point_json(p, old_point, v.as_ref())).collect();
    let presets_json: Vec<String> =
        presets.iter().map(|p| point_json(p, old_point, None)).collect();
    let corpus_json: Vec<String> = generators
        .iter()
        .enumerate()
        .map(|(g, generator)| {
            format!(
                "\"{}\": {{\"prefixes\": {}, \"observations\": {:?}}}",
                GENERATORS[g],
                corpus.iter().filter(|p| p.generator == g).count(),
                generator.observations,
            )
        })
        .collect();
    write!(
        f,
        r#"{{
  "quick": {quick},
  "corpus": {{{}, "experiment_seeds": [{}, {}]}},
  "rule": "a candidate is on the frontier when (1) its mean |dconfidence| against the old default at the same seed is within the old default's own re-seed floor and (2) its flips against the old default are within the old default's own re-seed flips, both on both generators, and (3) its steps are at least twice the knee, the largest steps on the old default's axis failing 1 or 2; issue_band / issue_flips report ISSUE 21's wording of 1 and 2 against paper()",
  "old_default": "{}",
  "old_default_reseed_floor": [{:.5}, {:.5}],
  "old_default_reseed_flips": [{}, {}],
  "study_p_star": [{}],
  "knee": {{"steps": {knee}, "axis": "walkers {}, burn_in_frac {OLD_BURN_IN}, max_draws {OLD_MAX_DRAWS}"}},
  "cheapest_eligible": "{}",
  "issue_wording_names": "{issue_names}",
  "fast": "{}",
  "default_on_frontier": {default_on_frontier},
  "below_knee_detected": {below_knee_detected},
  "sec5_2": {{"paper_over_fast_fit_query_time": {speedup:.2}, "fast_flips_vs_paper": {degraded}, "reseed_flips_allowed": {allowed}}},
  "grid": [
{}
  ],
  "presets": [
{}
  ]
}}
"#,
        corpus_json.join(", "),
        SEEDS[0],
        SEEDS[1],
        old_point.label,
        old_floor[0],
        old_floor[1],
        old_reseed_flips[0],
        old_reseed_flips[1],
        p_star
            .iter()
            .map(|p| if p.is_finite() { format!("{p:.4}") } else { "null".to_string() })
            .collect::<Vec<_>>()
            .join(", "),
        fast.walkers,
        cheapest_point.map_or("none", |p| p.label.as_str()),
        label(&fast),
        grid_json.join(",\n"),
        presets_json.join(",\n"),
    )
    .expect("json write");
    println!("wrote {}", path.display());
    record_claims("fit_frontier", &[claim]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(steps: usize, max_draws: usize, d: [f64; 2], flips: [usize; 2]) -> Candidate {
        Candidate {
            candidate: true,
            walkers: 100,
            steps,
            max_draws,
            burn_in_frac: OLD_BURN_IN,
            distance: d,
            flips,
        }
    }

    #[test]
    fn rule_keeps_twice_the_knee_and_names_the_cheapest_eligible_point() {
        let c = [
            candidate(6, 400, [0.0110, 0.0070], [9, 4]),
            candidate(12, 400, [0.0080, 0.0052], [4, 2]),
            candidate(20, 400, [0.0061, 0.0030], [3, 1]),
            candidate(30, 200, [0.0050, 0.0026], [3, 1]),
            candidate(30, 400, [0.0049, 0.0025], [2, 1]),
            candidate(60, 400, [0.0, 0.0], [0, 0]),
        ];
        let (knee, verdicts, cheapest) = apply_rule(&c, 5, [0.0087, 0.0051], [5, 2]);
        // 12 steps is inside the old default's noise on CIFAR, not on Lunar.
        assert_eq!(knee, 12);
        let verdicts: Vec<Verdict> = verdicts.into_iter().flatten().collect();
        assert!(!verdicts[1].inside_noise && verdicts[1].flips_ok);
        assert_eq!(verdicts[2], Verdict { inside_noise: true, flips_ok: true, above_knee: false });
        assert!(!verdicts[0].inside_noise && !verdicts[0].flips_ok);
        assert_eq!(cheapest, Some(3), "30 steps / 200 draws");
    }

    #[test]
    fn a_flat_axis_has_no_knee_and_flips_alone_can_disqualify() {
        let c = [candidate(6, 400, [0.001, 0.001], [4, 0]), candidate(60, 400, [0.0, 0.0], [0, 0])];
        let (knee, verdicts, cheapest) = apply_rule(&c, 1, [0.002, 0.002], [2, 0]);
        assert_eq!(knee, 6, "a point failing on flips alone still marks the knee");
        let first = verdicts[0].expect("a candidate has a verdict");
        assert!(first.inside_noise && !first.flips_ok);
        assert_eq!(cheapest, Some(1));
        let (knee, _, cheapest) = apply_rule(&c, 1, [0.002, 0.002], [4, 0]);
        assert_eq!((knee, cheapest), (0, Some(0)));
        // A non-candidate gets no verdict, marks no knee and is never named.
        let small = Candidate { candidate: false, walkers: 64, ..c[0] };
        let (knee, verdicts, cheapest) = apply_rule(&[small, c[1]], 1, [0.002, 0.002], [2, 0]);
        assert_eq!((knee, verdicts[0], cheapest), (0, None, Some(1)));
    }
}
