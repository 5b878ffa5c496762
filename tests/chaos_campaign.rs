//! End-to-end chaos campaign guarantees (the acceptance gates of the chaos
//! engine):
//!
//! * in-budget schedules uphold every paper invariant,
//! * over-budget schedules degrade gracefully — structured diagnoses, no
//!   panics, never an undiagnosed wrong answer,
//! * a failing schedule shrinks to a minimal reproducer that round-trips
//!   through `chaos-repro.json` and replays deterministically,
//! * every committed repro file is canonical, and the `worst-*.json`
//!   regression seeds replay green with their recorded digest.

use opr::chaos::engine::{digests_overlap, judge_schedule, per_run_seed, run_campaign};
use opr::chaos::{
    generate_schedule, standard_suite, BackendChoice, BudgetRegime, CampaignConfig, Failure, Repro,
};

/// Every committed `tests/data/*.json` repro, as `(file name, text)`.
fn committed_repros() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir("tests/data")
        .expect("tests/data exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable repro");
            (name, text)
        })
        .collect();
    files.sort();
    files
}

/// A committed repro is exactly what the writer would emit for it, so no
/// stale or unknown key can linger in it unnoticed (the loader ignores
/// keys it does not know).
#[test]
fn committed_repros_round_trip_byte_for_byte() {
    let files = committed_repros();
    assert!(files.len() >= 4, "expected ≥ 4 committed repros");
    for (name, text) in files {
        let repro = Repro::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            repro.to_json().trim_end(),
            text.trim_end(),
            "{name} is not canonical"
        );
    }
}

/// The committed worst-case seeds pin near-misses, not failures: each
/// reproduces its recorded digest and replays green.
#[test]
fn committed_worst_seeds_replay_green() {
    let oracles = standard_suite();
    let worst: Vec<_> = committed_repros()
        .into_iter()
        .filter(|(name, _)| name.starts_with("worst-"))
        .collect();
    assert!(
        worst.len() >= 3,
        "expected ≥ 3 committed worst-*.json seeds"
    );
    for (name, text) in worst {
        let recorded = Repro::from_json(&text).expect("seed parses");
        let verdict = recorded.replay(&oracles);
        assert_eq!(verdict.digest(), recorded.digest, "{name}");
        assert!(
            !verdict.is_failure(recorded.budget),
            "{name}: a committed worst seed must replay green"
        );
    }
}

/// The headline guarantee: a large seeded campaign of schedules whose
/// effective fault load stays within the algorithm's bound `t` produces
/// zero violations.
#[test]
fn in_budget_campaign_is_clean() {
    let config = CampaignConfig {
        seed: 0xC4A05,
        runs: 1000,
        budget: Some(BudgetRegime::InBudget),
        backend: BackendChoice::Sim,
        jobs: 4,
    };
    let report = run_campaign(&config, &standard_suite());
    assert!(report.passed(), "{report}");
    assert_eq!(report.total, 1000);
    assert_eq!(report.clean, 1000, "{report}");
    assert!(report.failures.is_empty());
}

/// At-budget (exactly `t` effective faults) is the paper's worst legal
/// case and must be just as clean.
#[test]
fn at_budget_campaign_is_clean() {
    let config = CampaignConfig {
        seed: 0xA7B0D6,
        runs: 300,
        budget: Some(BudgetRegime::AtBudget),
        backend: BackendChoice::Sim,
        jobs: 4,
    };
    let report = run_campaign(&config, &standard_suite());
    assert!(report.passed(), "{report}");
    assert_eq!(report.clean, report.total, "{report}");
}

/// Graceful degradation: past the fault bound the algorithms owe no
/// guarantees, but the harness still owes structure — every over-budget
/// run ends in a diagnosis (clean or degraded), never a panic, never an
/// undiagnosed wrong answer.
#[test]
fn over_budget_campaign_degrades_without_panicking() {
    let config = CampaignConfig {
        seed: 0x0EB,
        runs: 300,
        budget: Some(BudgetRegime::OverBudget),
        backend: BackendChoice::Sim,
        jobs: 4,
    };
    let report = run_campaign(&config, &standard_suite());
    assert!(report.passed(), "{report}");
    assert!(report.failures.is_empty(), "{report}");
    assert!(
        report.degraded > 0,
        "an over-budget campaign of this size must degrade at least once: {report}"
    );
}

/// The full failure pipeline on an injected violation: an over-budget
/// schedule judged under at-budget rules fails legitimately; the campaign's
/// shrink→repro step must minimize it and capture the shrunk run's metrics,
/// the repro format must round-trip it bit-exactly, and the replay must
/// reproduce the digest.
#[test]
fn injected_failure_shrinks_and_round_trips_through_repro() {
    let oracles = standard_suite();
    let campaign_seed = 11u64;
    let failure = (0..500usize)
        .find_map(|index| {
            let seed = per_run_seed(campaign_seed, index);
            let schedule = generate_schedule(seed, BudgetRegime::OverBudget);
            let verdict = judge_schedule(&schedule, &oracles);
            verdict
                .is_failure(BudgetRegime::AtBudget)
                .then_some(Failure {
                    index,
                    seed,
                    budget: BudgetRegime::AtBudget,
                    schedule,
                    verdict,
                })
        })
        .expect("over-budget schedules must violate at-budget expectations");

    let (repro, result) = failure.shrink_to_repro(campaign_seed, &oracles);
    assert!(result.events <= result.original_events);
    assert_eq!(repro.schedule, result.schedule);
    assert_eq!(repro.digest, failure.verdict.digest());
    assert_eq!(
        (repro.campaign_seed, repro.run_index),
        (campaign_seed, failure.index)
    );
    // The shrunk schedule still fails with the same digest...
    let shrunk_verdict = judge_schedule(&repro.schedule, &oracles);
    assert!(shrunk_verdict.is_failure(repro.budget));
    assert!(digests_overlap(&shrunk_verdict.digest(), &repro.digest));

    // ...the repro carries the shrunk run's metrics...
    let run = repro.schedule.run().expect("shrunk schedule runs");
    assert_eq!(repro.metrics.as_ref(), Some(&run.metrics));

    // ...round-trips through the repro file format unchanged...
    let text = repro.to_json();
    let reread = Repro::from_json(&text).expect("repro must parse back");
    assert_eq!(reread, repro, "round-trip must be exact:\n{text}");

    // ...and replays deterministically with the recorded digest.
    let first = reread.replay(&oracles);
    let second = reread.replay(&oracles);
    assert_eq!(
        first.digest(),
        second.digest(),
        "replay must be deterministic"
    );
    assert!(digests_overlap(&first.digest(), &repro.digest));
}

/// The mixed-budget smoke campaign (over-budget schedules included) passes:
/// in- and at-budget runs are clean, over-budget ones degrade with a
/// diagnosis.
#[test]
fn mixed_budget_campaign_is_clean() {
    let config = CampaignConfig {
        seed: 0x900_1ED,
        runs: 200,
        budget: None,
        backend: BackendChoice::Sim,
        jobs: 4,
    };
    let report = run_campaign(&config, &standard_suite());
    assert!(report.passed(), "{report}");
    assert_eq!(report.total, 200);
    assert!(report.failures.is_empty(), "{report}");
}

/// Campaigns are a pure function of their seed: the same configuration
/// twice yields the same counts and the same failure set.
#[test]
fn campaigns_are_deterministic_in_their_seed() {
    let config = CampaignConfig {
        seed: 99,
        runs: 120,
        budget: None,
        backend: BackendChoice::Sim,
        jobs: 4,
    };
    let oracles = standard_suite();
    let a = run_campaign(&config, &oracles);
    let b = run_campaign(&config, &oracles);
    assert_eq!(a.total, b.total);
    assert_eq!(a.clean, b.clean);
    assert_eq!(a.degraded, b.degraded);
    assert_eq!(a.failures.len(), b.failures.len());
}
