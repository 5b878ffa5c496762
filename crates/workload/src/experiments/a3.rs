//! A3 — schedule ablation and margin study: how many voting steps does
//! Algorithm 1 *actually* need under the divergence adversary, compared to
//! the paper's `3⌈log₂ t⌉ + 3` budget and the analytically safe budget?
//!
//! Also records the reproduction finding on Lemma IV.9: at minimal `N` and
//! small `t` the paper's budget drives the final spread below the
//! *sufficient* rounding threshold `δ − 1` but not below the paper's own
//! `(δ−1)/2` target.

use crate::id_dist::IdDistribution;
use crate::table::ExperimentTable;
use opr_adversary::AdversarySpec;
use opr_core::Alg1Tweaks;
use opr_core::{run_alg1, Alg1Options};
use opr_types::{Regime, SystemConfig};

/// Violating runs when Algorithm 1 is truncated to `steps` voting steps.
fn violations_at(cfg: SystemConfig, steps: u32, seeds: u64) -> (u32, u32, f64) {
    let mut runs = 0;
    let mut violating = 0;
    let mut max_final: f64 = 0.0;
    for seed in 0..seeds {
        let ids = IdDistribution::EvenSpaced.generate(cfg.n() - cfg.t(), seed + 1);
        runs += 1;
        let result = run_alg1(
            cfg,
            Regime::LogTime,
            &ids,
            cfg.t(),
            |env| AdversarySpec::PairSqueeze.build_alg1(env),
            Alg1Options {
                seed,
                tweaks: Alg1Tweaks {
                    voting_steps_override: Some(steps),
                    ..Alg1Tweaks::default()
                },
                ..Alg1Options::default()
            },
        );
        match result {
            Ok(res) => {
                if !res
                    .outcome
                    .verify(cfg.namespace_bound(Regime::LogTime))
                    .is_empty()
                {
                    violating += 1;
                }
                if let Some(&last) = res.probe.spread_series().last() {
                    max_final = max_final.max(last);
                }
            }
            Err(_) => violating += 1,
        }
    }
    (runs, violating, max_final)
}

/// Runs the ablation at `(N, t) = (13, 4)`: truncated schedules vs the
/// paper's and the analytically safe budget.
pub fn run() -> ExperimentTable {
    let (n, t) = (13usize, 4usize);
    let cfg = SystemConfig::new(n, t).expect("valid");
    let paper = cfg.voting_steps(Regime::LogTime);
    let safe = cfg.safe_voting_steps();
    let mut table = ExperimentTable::new(
        "A3",
        "ablation: voting-schedule length vs violations and final spread (N=13, t=4)",
        [
            "voting-steps",
            "schedule",
            "runs",
            "violating-runs",
            "max-final-spread",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut candidates: Vec<(u32, String)> =
        (1..=3u32).map(|s| (s, format!("truncated-{s}"))).collect();
    candidates.push((paper, format!("paper (3⌈log t⌉+3 = {paper})")));
    candidates.push((safe, format!("analytic-safe ({safe})")));
    for (steps, label) in candidates {
        let (runs, violating, max_final) = violations_at(cfg, steps, 6);
        table.push_row(vec![
            steps.to_string(),
            label,
            runs.to_string(),
            violating.to_string(),
            format!("{max_final:.6}"),
        ]);
    }
    table.add_note(&format!(
        "thresholds at this config: paper target (δ−1)/2 = {:.6}, sufficient δ−1 = {:.6}",
        (cfg.delta() - 1.0) / 2.0,
        cfg.delta() - 1.0
    ));
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn truncated_schedules_break_and_full_schedules_do_not() {
        let table = super::run();
        let mut saw_truncated_break = false;
        for row in &table.rows {
            let violating: u32 = row[3].parse().unwrap();
            if (row[1].starts_with("truncated-1") || row[1].starts_with("truncated-2"))
                && violating > 0
            {
                saw_truncated_break = true;
            }
            if row[1].starts_with("paper") || row[1].starts_with("analytic") {
                assert_eq!(violating, 0, "full schedule must be clean: {row:?}");
            }
        }
        assert!(
            saw_truncated_break,
            "severely truncated schedules must exhibit violations"
        );
    }

    #[test]
    fn safe_schedule_meets_the_paper_target_where_paper_budget_does_not() {
        let table = super::run();
        let threshold = {
            let cfg = opr_types::SystemConfig::new(13, 4).unwrap();
            (cfg.delta() - 1.0) / 2.0
        };
        let spread_of = |prefix: &str| -> f64 {
            table
                .rows
                .iter()
                .find(|r| r[1].starts_with(prefix))
                .map(|r| r[4].parse().unwrap())
                .expect("row present")
        };
        assert!(
            spread_of("analytic") < threshold,
            "the analytically safe budget must reach the (δ−1)/2 target"
        );
    }
}
