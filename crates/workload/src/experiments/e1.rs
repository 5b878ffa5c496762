//! E1 — early-output extension: decision latency as a function of the
//! *actual* adversary behaviour, in the spirit of the early-deciding
//! renaming of Alistarh et al. \[1\] (`O(log f)` where `f` is the number of
//! actual faults).
//!
//! The rule (see [`Alg1Tweaks::early_output`](opr_core::Alg1Tweaks)): a
//! process outputs as soon as one voting step delivers a unanimous valid
//! quorum equal to its own rank vector — provably the frozen fixed point of
//! every later step. With silent (or absent) faults, views coincide and
//! everyone outputs at the *first* voting step; only actively-equivocating
//! adversaries force the full schedule.

use crate::id_dist::IdDistribution;
use crate::table::ExperimentTable;
use opr_adversary::AdversarySpec;
use opr_core::Alg1Tweaks;
use opr_core::{run_alg1, Alg1Options};
use opr_types::{Regime, SystemConfig};

/// Runs the experiment at `(N, t) = (10, 3)` across adversary behaviours.
pub fn run() -> ExperimentTable {
    let (n, t) = (10usize, 3usize);
    let cfg = SystemConfig::new(n, t).expect("valid");
    let schedule_end = cfg.total_steps(Regime::LogTime);
    let mut table = ExperimentTable::new(
        "E1",
        "early-output extension: worst correct decision step vs adversary (N=10, t=3)",
        [
            "adversary",
            "faulty",
            "decision-step",
            "schedule-end",
            "saved-steps",
        ]
        .map(String::from)
        .to_vec(),
    );
    let cases: Vec<(AdversarySpec, usize)> = vec![
        (AdversarySpec::Silent, 0),
        (AdversarySpec::Silent, t),
        (AdversarySpec::CrashMidway, t),
        (AdversarySpec::IdForge, t),
        (AdversarySpec::EchoSplit, t),
        (AdversarySpec::RankSkew, t),
    ];
    for (spec, faulty) in cases {
        let ids = IdDistribution::SparseRandom.generate(n - faulty, 31);
        let result = run_alg1(
            cfg,
            Regime::LogTime,
            &ids,
            faulty,
            |env| spec.build_alg1(env),
            Alg1Options {
                seed: 5,
                tweaks: Alg1Tweaks {
                    early_output: true,
                    ..Alg1Tweaks::default()
                },
                ..Alg1Options::default()
            },
        )
        .expect("legal run");
        assert!(
            result
                .outcome
                .verify(cfg.namespace_bound(Regime::LogTime))
                .is_empty(),
            "{spec}: early output must never change correctness"
        );
        let decision = result
            .probe
            .last_decision_step()
            .expect("all correct decided");
        table.push_row(vec![
            spec.label().to_owned(),
            faulty.to_string(),
            decision.to_string(),
            schedule_end.to_string(),
            (schedule_end - decision).to_string(),
        ]);
    }
    table.add_note(
        "with f = 0 or silent faults every correct process sees a unanimous \
         quorum at voting step 1 (communication step 5) and outputs 8 steps \
         early; active equivocators (echo-split, rank-skew) delay freezing",
    );
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn silent_faults_decide_at_first_voting_step() {
        let table = super::run();
        for row in &table.rows {
            if row[0] == "silent" {
                assert_eq!(row[2], "5", "silent runs freeze at step 5: {row:?}");
            }
            // Early output never exceeds the schedule.
            let d: u32 = row[2].parse().unwrap();
            let end: u32 = row[3].parse().unwrap();
            assert!(d <= end);
        }
    }
}
