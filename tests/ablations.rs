//! Integration tests for the ablation knobs and the early-output extension
//! through the public facade.

use opr::core::{run_alg1, run_two_step, Alg1Options, TwoStepOptions};
use opr::core::{Alg1Tweaks, TwoStepTweaks};
use opr::prelude::*;

/// Early output must be *outcome-equivalent* to the full schedule: the
/// frozen value is by construction the value the schedule would converge
/// to, so turning the knob on can change latency but never names.
#[test]
fn early_output_is_outcome_equivalent_to_full_schedule() {
    let cfg = SystemConfig::new(10, 3).unwrap();
    for spec in [
        AdversarySpec::Silent,
        AdversarySpec::CrashMidway,
        AdversarySpec::IdForge,
        AdversarySpec::EchoSplit,
        AdversarySpec::RankSkew,
        AdversarySpec::PairSqueeze,
    ] {
        for seed in 0..4u64 {
            let ids = IdDistribution::SparseRandom.generate(7, seed + 40);
            let run = |early: bool| {
                run_alg1(
                    cfg,
                    Regime::LogTime,
                    &ids,
                    3,
                    |env| spec.build_alg1(env),
                    Alg1Options {
                        seed,
                        tweaks: Alg1Tweaks {
                            early_output: early,
                            ..Alg1Tweaks::default()
                        },
                        ..Alg1Options::default()
                    },
                )
                .unwrap()
            };
            let normal = run(false);
            let early = run(true);
            assert_eq!(
                normal.outcome, early.outcome,
                "{spec} seed {seed}: early output changed the names"
            );
            // Early runs never decide later than the schedule.
            let last = early.probe.last_decision_step().unwrap();
            assert!(last <= cfg.total_steps(Regime::LogTime));
        }
    }
}

#[test]
fn early_output_fires_at_first_voting_step_without_active_faults() {
    let cfg = SystemConfig::new(7, 2).unwrap();
    let ids = IdDistribution::Dense.generate(5, 1);
    let result = run_alg1(
        cfg,
        Regime::LogTime,
        &ids,
        2,
        |_| None, // silent Byzantine
        Alg1Options {
            seed: 9,
            tweaks: Alg1Tweaks {
                early_output: true,
                ..Alg1Tweaks::default()
            },
            ..Alg1Options::default()
        },
    )
    .unwrap();
    for step in result.probe.decision_steps() {
        assert_eq!(step, Some(5), "every process freezes at voting step 1");
    }
    assert!(result.outcome.verify(8).is_empty());
}

/// Extra voting steps are harmless (they only shrink the spread further).
#[test]
fn extra_voting_steps_preserve_correctness() {
    let cfg = SystemConfig::new(7, 2).unwrap();
    let ids = IdDistribution::EvenSpaced.generate(5, 3);
    for extra in [0u32, 1, 2, 5] {
        let out = RenamingRun::builder(cfg, Regime::LogTime)
            .correct_ids(ids.clone())
            .adversary(AdversarySpec::PairSqueeze, 2)
            .seed(4)
            .extra_voting_steps(extra)
            .run()
            .unwrap();
        assert_eq!(out.stats.violations, 0, "extra={extra}");
        assert_eq!(out.stats.rounds, cfg.total_steps(Regime::LogTime) + extra);
    }
}

/// The safe schedule (finding 1 in EXPERIMENTS.md) always reaches the
/// paper's (δ−1)/2 spread target, config by config.
#[test]
fn safe_voting_steps_meet_the_paper_spread_target() {
    for (n, t) in [(7usize, 2usize), (10, 3), (13, 4)] {
        let cfg = SystemConfig::new(n, t).unwrap();
        let ids = IdDistribution::EvenSpaced.generate(n - t, 5);
        let extra = cfg
            .safe_voting_steps()
            .saturating_sub(cfg.voting_steps(Regime::LogTime));
        let result = run_alg1(
            cfg,
            Regime::LogTime,
            &ids,
            t,
            |env| AdversarySpec::PairSqueeze.build_alg1(env),
            Alg1Options {
                seed: 6,
                tweaks: Alg1Tweaks {
                    extra_voting_steps: extra,
                    ..Alg1Tweaks::default()
                },
                ..Alg1Options::default()
            },
        )
        .unwrap();
        let final_spread = *result.probe.spread_series().last().unwrap();
        assert!(
            final_spread < (cfg.delta() - 1.0) / 2.0,
            "N={n} t={t}: {final_spread}"
        );
    }
}

/// The clamp ablation through the public runner: the same adversary, the
/// clamp decides between correct and broken.
#[test]
fn clamp_toggles_half_echo_between_harmless_and_lethal() {
    let cfg = SystemConfig::new(11, 2).unwrap();
    let ids = IdDistribution::EvenSpaced.generate(9, 8);
    let run = |disable_clamp| {
        run_two_step(
            cfg,
            &ids,
            2,
            |env| AdversarySpec::HalfEcho.build_two_step(env),
            TwoStepOptions {
                seed: 1,
                tweaks: TwoStepTweaks { disable_clamp },
                ..TwoStepOptions::default()
            },
        )
        .unwrap()
    };
    let clamped = run(false);
    assert!(clamped.outcome.verify(121).is_empty());
    let unclamped = run(true);
    assert!(
        !unclamped.outcome.verify(121).is_empty(),
        "without the clamp the half-echo adversary must break renaming"
    );
}
