//! Acceptance gates of the guided adversary search:
//!
//! * the search is a pure function of its seed — bit-identical outcome
//!   across worker counts and across backends,
//! * guided beats (or ties) the unguided random baseline at an equal
//!   evaluation budget,
//! * every committed `tests/data/worst-*.json` regression seed replays
//!   green with its recorded digest *and* fitness, on both backends,
//! * emitted top-K repros round-trip through JSON and replay
//!   bit-identically,
//! * a search-found schedule still shrinks.

use opr::chaos::engine::judge_schedule;
use opr::chaos::{
    evaluate, random_search_on, repro_for, run_search_on, shrink, standard_suite, BackendChoice,
    BudgetRegime, FitnessKind, Repro, SearchConfig,
};
use opr::exec::RunPool;
use opr::transport::BackendKind;

/// The fixed configuration the gates below pin. Small enough for CI,
/// large enough that guided selection has generations to work with.
fn gate_config() -> SearchConfig {
    SearchConfig {
        seed: 42,
        budget: BudgetRegime::AtBudget,
        backend: BackendChoice::Sim,
        fitness: FitnessKind::Margin,
        beam: 3,
        generations: 4,
        evals: 48,
        init: 12,
        top_k: 3,
        jobs: 1,
    }
}

#[test]
fn search_outcome_is_identical_across_worker_counts() {
    let config = gate_config();
    let serial = run_search_on(&RunPool::new(1), &config);
    let parallel = run_search_on(&RunPool::new(4), &config);
    assert_eq!(
        serial.outcome, parallel.outcome,
        "jobs must only change wall-clock time"
    );
}

#[test]
fn search_outcome_is_identical_across_backends() {
    // Every fitness signal is a function of backend-invariant observables,
    // so the whole trajectory — selection included — must match.
    let pool = RunPool::new(2);
    let sim = run_search_on(&pool, &gate_config());
    let pooled = run_search_on(
        &pool,
        &SearchConfig {
            backend: BackendChoice::Pooled,
            ..gate_config()
        },
    );
    assert_eq!(sim.outcome, pooled.outcome);
}

#[test]
fn guided_search_beats_random_at_equal_eval_budget() {
    let config = gate_config();
    let pool = RunPool::new(2);
    let guided = run_search_on(&pool, &config);
    let random = random_search_on(&pool, &config);
    assert_eq!(
        guided.outcome.evaluated, random.outcome.evaluated,
        "the comparison is only fair at an equal budget"
    );
    let best_guided = guided.best().expect("guided top non-empty").fitness.0;
    let best_random = random.best().expect("random top non-empty").fitness.0;
    assert!(
        best_guided >= best_random,
        "guided ({best_guided}) must not lose to random ({best_random})"
    );
}

#[test]
fn committed_worst_seeds_replay_green_with_exact_fitness() {
    let oracles = standard_suite();
    let mut found = 0;
    for entry in std::fs::read_dir("tests/data").expect("tests/data exists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with("worst-") || !name.ends_with(".json") {
            continue;
        }
        found += 1;
        let text = std::fs::read_to_string(&path).expect("readable seed");
        let repro = Repro::from_json(&text).expect("seed parses");
        // The digest reproduces and is green: these are regression seeds
        // pinning near-misses, not failures.
        let verdict = repro.replay(&oracles);
        assert_eq!(verdict.digest(), repro.digest, "{name}: digest drifted");
        assert!(
            !verdict.is_failure(repro.budget),
            "{name}: a committed worst seed must replay green"
        );
        // The recorded fitness reproduces exactly, on every backend.
        let record = repro.fitness.expect("search seeds carry fitness");
        for reference in BackendKind::ALL {
            let run = repro
                .schedule
                .run_observed(reference)
                .expect("seed replays");
            let got = evaluate(record.kind, &repro.schedule, &run, reference).0;
            assert_eq!(
                got, record.score,
                "{name}: fitness {} drifted on {reference}",
                record.kind
            );
        }
    }
    assert!(found >= 3, "expected ≥ 3 committed worst-*.json seeds");
}

#[test]
fn top_k_repros_round_trip_and_replay_bit_identically() {
    let config = gate_config();
    let report = run_search_on(&RunPool::new(2), &config);
    assert!(!report.outcome.top.is_empty());
    let oracles = standard_suite();
    for (rank, scored) in report.outcome.top.iter().enumerate() {
        let repro = repro_for(&config, rank, scored);
        let reread = Repro::from_json(&repro.to_json()).expect("emitted repro parses");
        assert_eq!(reread, repro, "rank {rank} round-trip must be exact");
        // The recorded digest replays on both backends; bit-equality of
        // the two replays is the cross-backend oracle inside Both.
        let verdict = Repro {
            backend: BackendChoice::Both,
            ..reread.clone()
        }
        .replay(&oracles);
        assert_eq!(
            verdict.digest(),
            scored.digest,
            "rank {rank} digest must replay on both backends"
        );
    }
}

#[test]
fn search_found_schedules_still_shrink() {
    let config = gate_config();
    let report = run_search_on(&RunPool::new(2), &config);
    let best = report.best().expect("non-empty search");
    let oracles = standard_suite();
    // Shrink under "same digest" — the predicate a real triage would use.
    let digest = best.digest.clone();
    let result = shrink(&best.schedule, |candidate| {
        judge_schedule(candidate, config.backend, &oracles).digest() == digest
    });
    assert!(result.events <= result.original_events);
    assert_eq!(
        judge_schedule(&result.schedule, config.backend, &oracles).digest(),
        digest,
        "the shrunk schedule preserves the digest"
    );
}
