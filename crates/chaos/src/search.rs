//! Guided adversary search: a seeded optimizer over attack-schedule space.
//!
//! Random campaigns ([`crate::engine`]) certify average-case luck; the
//! paper's theorems are worst-case claims. This module closes the loop:
//! starting from the *same* seeded schedule stream a random campaign would
//! draw, it scores every observed run with a [`FitnessKind`] signal and
//! climbs — beam selection, [`mutate`]/[`crossover`] children, elitist
//! survival — toward the most adversarial schedules the budget regime
//! admits. The worst finds are emitted as replayable repro files and
//! committed as regression seeds (`tests/data/worst-*.json`).
//!
//! # Determinism
//!
//! The search result is a pure function of its [`SearchConfig`] minus
//! `jobs` and modulo backend choice:
//!
//! * candidate generation (init stream, mutation, crossover, dedup) is
//!   seeded and strictly serial;
//! * execution fans out over a [`RunPool`] but results are reassembled in
//!   submission order, and every fitness signal is a deterministic
//!   function of backend-invariant observables;
//! * selection breaks fitness ties by genome key, never by arrival order.
//!
//! So the same seed yields a bit-identical [`SearchOutcome`] at any
//! `--jobs` and on either backend — the contract `tests/adversary_search.rs`
//! pins.

use crate::engine::{execute_with, judge_executed, per_run_seed, BackendChoice, RunVerdict};
use crate::fitness::{evaluate, Fitness, FitnessKind, FitnessRecord};
use crate::generator::generate_schedule;
use crate::genome::{crossover, genome_key, mutate};
use crate::oracle::{standard_suite, Oracle};
use crate::repro::{schedule_to_json, Repro};
use crate::schedule::{BudgetRegime, ChaosSchedule};
use opr_exec::RunPool;
use opr_obs::json::Json;
use opr_sim::RunMetrics;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Parameters of one guided search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchConfig {
    /// Search seed; the whole trajectory derives from it.
    pub seed: u64,
    /// The fault budget regime every candidate is kept inside.
    pub budget: BudgetRegime,
    /// Which backend(s) execute each candidate.
    pub backend: BackendChoice,
    /// The signal being maximized.
    pub fitness: FitnessKind,
    /// How many survivors breed each generation.
    pub beam: usize,
    /// How many guided generations follow the random init.
    pub generations: usize,
    /// Total evaluation budget (distinct schedules executed), init
    /// included.
    pub evals: usize,
    /// Size of the random init population (drawn from the same
    /// [`per_run_seed`] stream a random campaign uses).
    pub init: usize,
    /// How many of the fittest schedules the report keeps.
    pub top_k: usize,
    /// Worker threads executing candidates (`≤ 1` = serial). Cannot change
    /// anything but elapsed time.
    pub jobs: usize,
}

impl SearchConfig {
    /// A small smoke-sized configuration (CI and tests override fields).
    pub fn smoke(seed: u64) -> SearchConfig {
        SearchConfig {
            seed,
            budget: BudgetRegime::AtBudget,
            backend: BackendChoice::Sim,
            fitness: FitnessKind::Margin,
            beam: 4,
            generations: 4,
            evals: 64,
            init: 16,
            top_k: 3,
            jobs: 1,
        }
    }
}

/// One evaluated candidate, ranked.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoredSchedule {
    /// The genome fingerprint ([`genome_key`]); the deterministic
    /// tiebreaker.
    pub key: u64,
    /// The schedule itself.
    pub schedule: ChaosSchedule,
    /// Its fitness (`i64::MIN` for candidates that never produced a run).
    pub fitness: Fitness,
    /// The verdict digest (`"clean"`, violation kinds, `"panic"`, …).
    pub digest: String,
    /// Whether the verdict fails under the search's budget regime — a
    /// genuine bug find, ranked above every mere near-miss.
    pub failure: bool,
    /// The reference run's network metrics, when a run happened.
    pub metrics: Option<RunMetrics>,
}

/// Progress of one generation (cumulative counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenerationStat {
    /// Generation index (0 = random init).
    pub generation: usize,
    /// Schedules evaluated so far.
    pub evaluated: usize,
    /// Best fitness seen so far.
    pub best: i64,
    /// Duplicate candidates skipped (never evaluated) so far.
    pub deduped: usize,
}

/// The deterministic part of a search result: bit-identical for the same
/// `(seed, budget, fitness, beam, generations, evals, init, top_k)` at any
/// worker count and on either backend.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchOutcome {
    /// Distinct schedules executed.
    pub evaluated: usize,
    /// Duplicate candidates skipped.
    pub deduped: usize,
    /// Per-generation progress, init first.
    pub generations: Vec<GenerationStat>,
    /// The fittest schedules, best first, at most `top_k`.
    pub top: Vec<ScoredSchedule>,
}

/// A finished search: the deterministic outcome plus wall-clock timing.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// The configuration that produced the outcome.
    pub config: SearchConfig,
    /// The deterministic result.
    pub outcome: SearchOutcome,
    /// Wall-clock time of the whole search.
    pub elapsed: Duration,
}

impl SearchReport {
    /// The fittest schedule found, if any candidate was evaluated.
    pub fn best(&self) -> Option<&ScoredSchedule> {
        self.outcome.top.first()
    }

    /// Whether the search surfaced a genuine failure (bug find).
    pub fn found_failure(&self) -> bool {
        self.outcome.top.iter().any(|s| s.failure)
    }

    /// Search throughput (evaluations per second).
    pub fn evals_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.outcome.evaluated as f64 / secs
        } else {
            0.0
        }
    }
}

/// Deterministic selection order: genuine failures first, then fitness,
/// ties broken by genome key (never by arrival order).
fn sort_scored(scored: &mut [ScoredSchedule]) {
    scored.sort_by(|a, b| {
        b.failure
            .cmp(&a.failure)
            .then(b.fitness.cmp(&a.fitness))
            .then(a.key.cmp(&b.key))
    });
}

fn best_of(scored: &[ScoredSchedule]) -> i64 {
    scored.first().map_or(i64::MIN, |s| s.fitness.0)
}

/// Executes a batch on the pool and scores each result serially (the
/// oracle suite is not `Send`; scoring is cheap next to execution).
fn evaluate_batch(
    pool: &RunPool,
    config: &SearchConfig,
    oracles: &[Box<dyn Oracle>],
    batch: Vec<ChaosSchedule>,
) -> Vec<ScoredSchedule> {
    let backend = config.backend;
    let tasks: Vec<_> = batch
        .iter()
        .map(|schedule| {
            let schedule = schedule.clone();
            // Observed runs: the fitness signals read the event stream.
            move || execute_with(&schedule, backend, ChaosSchedule::run_observed)
        })
        .collect();
    let results = pool.run_batch(tasks);
    batch
        .into_iter()
        .zip(results)
        .map(|(schedule, result)| {
            let executed = result.unwrap_or_else(|panic| {
                Err(RunVerdict::Panicked {
                    message: panic.message,
                })
            });
            let key = genome_key(&schedule);
            match executed {
                Ok(run) => {
                    let mut verdict = judge_executed(&schedule, backend, &run, oracles);
                    if let RunVerdict::Violated { .. } = &verdict {
                        if !verdict.is_failure(config.budget) {
                            verdict = RunVerdict::Degraded {
                                digest: verdict.digest(),
                            };
                        }
                    }
                    let failure = verdict.is_failure(config.budget);
                    let (reference_backend, _) = backend.backends();
                    let fitness =
                        evaluate(config.fitness, &schedule, &run.reference, reference_backend);
                    ScoredSchedule {
                        key,
                        fitness,
                        digest: verdict.digest(),
                        failure,
                        metrics: Some(run.reference.metrics),
                        schedule,
                    }
                }
                Err(verdict) => ScoredSchedule {
                    key,
                    fitness: Fitness(i64::MIN),
                    digest: verdict.digest(),
                    failure: true,
                    metrics: None,
                    schedule,
                },
            }
        })
        .collect()
}

/// Draws up to `want` *fresh* (never-seen) schedules from the campaign's
/// seeded stream, counting skipped duplicates into `deduped`.
fn draw_init(
    config: &SearchConfig,
    want: usize,
    seen: &mut BTreeSet<u64>,
    deduped: &mut usize,
    draw_cursor: &mut usize,
) -> Vec<ChaosSchedule> {
    let mut batch = Vec::new();
    let cap = want * 16 + 16;
    let mut attempts = 0;
    while batch.len() < want && attempts < cap {
        attempts += 1;
        let schedule = generate_schedule(per_run_seed(config.seed, *draw_cursor), config.budget);
        *draw_cursor += 1;
        if seen.insert(genome_key(&schedule)) {
            batch.push(schedule);
        } else {
            *deduped += 1;
        }
    }
    batch
}

/// Runs the guided search on a caller-owned pool.
pub fn run_search_on(pool: &RunPool, config: &SearchConfig) -> SearchReport {
    let start = Instant::now();
    let oracles = standard_suite();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut deduped = 0usize;
    let mut evaluated = 0usize;
    let mut draw_cursor = 0usize;
    let mut scored: Vec<ScoredSchedule> = Vec::new();
    let mut generations: Vec<GenerationStat> = Vec::new();

    // Generation 0: the same seeded stream a random campaign draws.
    let init_want = config.init.max(1).min(config.evals.max(1));
    let batch = draw_init(config, init_want, &mut seen, &mut deduped, &mut draw_cursor);
    evaluated += batch.len();
    scored.extend(evaluate_batch(pool, config, &oracles, batch));
    sort_scored(&mut scored);
    generations.push(GenerationStat {
        generation: 0,
        evaluated,
        best: best_of(&scored),
        deduped,
    });

    for generation in 1..=config.generations {
        let remaining = config.evals.saturating_sub(evaluated);
        if remaining == 0 || scored.is_empty() {
            break;
        }
        let beam: Vec<ChaosSchedule> = scored
            .iter()
            .take(config.beam.max(1))
            .map(|s| s.schedule.clone())
            .collect();
        let want = (config.beam.max(1) * 4).min(remaining);
        // A quarter of each generation explores the untouched random
        // stream (restart injection): local moves alone plateau on flat
        // neighbourhoods, and the duplicates they breed would otherwise
        // stall the eval budget.
        let explore = (want / 4).max(1).min(want);
        let mut rng = StdRng::seed_from_u64(
            config.seed
                ^ 0x7365_6172_6368_6765 // "searchge"
                ^ (generation as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let guided_want = want - explore;
        let mut batch: Vec<ChaosSchedule> = Vec::new();
        let cap = guided_want * 16 + 16;
        let mut attempts = 0;
        while batch.len() < guided_want && attempts < cap {
            attempts += 1;
            let parent = &beam[rng.gen_range(0..beam.len())];
            let child = if beam.len() >= 2 && rng.gen_bool(0.3) {
                let other = &beam[rng.gen_range(0..beam.len())];
                crossover(parent, other, config.budget, &mut rng)
            } else {
                mutate(parent, config.budget, &mut rng)
            };
            if seen.insert(genome_key(&child)) {
                batch.push(child);
            } else {
                deduped += 1;
            }
        }
        // Top the batch up to `want` from the random stream — the explore
        // share, plus whatever the exhausted mutation neighbourhood left
        // unfilled.
        let refill = want - batch.len();
        batch.extend(draw_init(
            config,
            refill,
            &mut seen,
            &mut deduped,
            &mut draw_cursor,
        ));
        if batch.is_empty() {
            break;
        }
        evaluated += batch.len();
        scored.extend(evaluate_batch(pool, config, &oracles, batch));
        sort_scored(&mut scored);
        generations.push(GenerationStat {
            generation,
            evaluated,
            best: best_of(&scored),
            deduped,
        });
    }

    scored.truncate(config.top_k.max(1));
    SearchReport {
        config: *config,
        outcome: SearchOutcome {
            evaluated,
            deduped,
            generations,
            top: scored,
        },
        elapsed: start.elapsed(),
    }
}

/// [`run_search_on`] with a pool sized by [`SearchConfig::jobs`].
pub fn run_search(config: &SearchConfig) -> SearchReport {
    run_search_on(&RunPool::new(config.jobs), config)
}

/// The unguided baseline at the same evaluation budget: scores the first
/// `evals` distinct schedules of the identical seeded stream, no
/// selection, no mutation. The comparison partner for the in-test
/// guarantee "best-of-search ≥ best-of-random".
pub fn random_search_on(pool: &RunPool, config: &SearchConfig) -> SearchReport {
    let start = Instant::now();
    let oracles = standard_suite();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut deduped = 0usize;
    let mut draw_cursor = 0usize;
    let batch = draw_init(
        config,
        config.evals.max(1),
        &mut seen,
        &mut deduped,
        &mut draw_cursor,
    );
    let evaluated = batch.len();
    let mut scored = evaluate_batch(pool, config, &oracles, batch);
    sort_scored(&mut scored);
    let best = best_of(&scored);
    scored.truncate(config.top_k.max(1));
    SearchReport {
        config: *config,
        outcome: SearchOutcome {
            evaluated,
            deduped,
            generations: vec![GenerationStat {
                generation: 0,
                evaluated,
                best,
                deduped,
            }],
            top: scored,
        },
        elapsed: start.elapsed(),
    }
}

/// Packages one ranked find as a replayable repro file: the recorded
/// digest *and* fitness must reproduce on replay (the regression contract
/// of `tests/data/worst-*.json`). Candidates that never produced a run
/// (panic, setup refusal) carry no fitness record — their digest is the
/// whole contract.
pub fn repro_for(config: &SearchConfig, rank: usize, scored: &ScoredSchedule) -> Repro {
    Repro {
        campaign_seed: config.seed,
        run_index: rank,
        budget: config.budget,
        backend: config.backend,
        digest: scored.digest.clone(),
        schedule: scored.schedule.clone(),
        metrics: scored.metrics.clone(),
        fitness: scored.metrics.is_some().then_some(FitnessRecord {
            kind: config.fitness,
            score: scored.fitness.0,
        }),
    }
}

/// Renders a search report as JSON (the CI artifact). The document is a
/// pure function of the outcome — bit-identical across worker counts and
/// backends; wall-clock fields stay out of it.
pub fn render_search_json(report: &SearchReport, random: Option<&SearchReport>) -> String {
    let config = &report.config;
    let outcome = &report.outcome;
    let mut fields: Vec<(String, Json)> = vec![
        ("kind".into(), Json::Str("adversary-search".into())),
        ("seed".into(), Json::UInt(config.seed)),
        ("budget".into(), Json::Str(config.budget.label().into())),
        ("backend".into(), Json::Str(config.backend.label().into())),
        ("fitness".into(), Json::Str(config.fitness.label().into())),
        ("beam".into(), Json::UInt(config.beam as u64)),
        ("generations".into(), Json::UInt(config.generations as u64)),
        ("evals".into(), Json::UInt(config.evals as u64)),
        ("init".into(), Json::UInt(config.init as u64)),
        ("top_k".into(), Json::UInt(config.top_k as u64)),
        ("evaluated".into(), Json::UInt(outcome.evaluated as u64)),
        ("deduped".into(), Json::UInt(outcome.deduped as u64)),
        (
            "per_generation".into(),
            Json::Arr(
                outcome
                    .generations
                    .iter()
                    .map(|g| {
                        Json::Obj(vec![
                            ("generation".into(), Json::UInt(g.generation as u64)),
                            ("evaluated".into(), Json::UInt(g.evaluated as u64)),
                            ("best".into(), Json::Int(g.best)),
                            ("deduped".into(), Json::UInt(g.deduped as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "top".into(),
            Json::Arr(
                outcome
                    .top
                    .iter()
                    .enumerate()
                    .map(|(rank, s)| {
                        Json::Obj(vec![
                            ("rank".into(), Json::UInt(rank as u64)),
                            ("fitness".into(), Json::Int(s.fitness.0)),
                            ("digest".into(), Json::Str(s.digest.clone())),
                            ("failure".into(), Json::Bool(s.failure)),
                            ("schedule".into(), schedule_to_json(&s.schedule)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(random) = random {
        fields.push((
            "random_baseline".into(),
            Json::Obj(vec![
                (
                    "evaluated".into(),
                    Json::UInt(random.outcome.evaluated as u64),
                ),
                ("best".into(), Json::Int(best_of(&random.outcome.top))),
            ]),
        ));
    }
    Json::Obj(fields).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> SearchConfig {
        SearchConfig {
            beam: 2,
            generations: 2,
            evals: 14,
            init: 6,
            top_k: 3,
            ..SearchConfig::smoke(seed)
        }
    }

    #[test]
    fn search_is_deterministic_across_worker_counts() {
        let config = tiny(5);
        let serial = run_search_on(&RunPool::new(1), &config);
        let parallel = run_search_on(&RunPool::new(4), &config);
        assert_eq!(serial.outcome, parallel.outcome);
    }

    #[test]
    fn best_fitness_is_monotone_across_generations() {
        let report = run_search(&tiny(9));
        let bests: Vec<i64> = report.outcome.generations.iter().map(|g| g.best).collect();
        assert!(!bests.is_empty());
        assert!(
            bests.windows(2).all(|w| w[1] >= w[0]),
            "elitist selection can never lose the best: {bests:?}"
        );
    }

    #[test]
    fn search_respects_the_eval_budget() {
        let report = run_search(&tiny(3));
        assert!(report.outcome.evaluated <= report.config.evals);
        assert!(report.outcome.top.len() <= report.config.top_k);
        assert!(!report.outcome.top.is_empty());
    }

    #[test]
    fn search_repros_round_trip() {
        let config = tiny(7);
        let report = run_search(&config);
        let best = report.best().expect("non-empty search");
        let repro = repro_for(&config, 0, best);
        let reread = Repro::from_json(&repro.to_json()).unwrap();
        assert_eq!(reread, repro);
        assert_eq!(reread.fitness.unwrap().score, best.fitness.0);
    }

    #[test]
    fn report_json_is_deterministic() {
        let config = tiny(2);
        let a = render_search_json(&run_search(&config), None);
        let b = render_search_json(&run_search(&config), None);
        assert_eq!(a, b);
        assert!(a.contains("\"adversary-search\""));
    }
}
