//! T4 — lemma validation: the paper's structural invariants measured as
//! maxima/minima over the full adversary suite.

use crate::id_dist::IdDistribution;
use crate::table::ExperimentTable;
use opr_adversary::AdversarySpec;
use opr_core::{run_alg1, run_two_step, Alg1Options, TwoStepOptions};
use opr_types::{OriginalId, Regime, SystemConfig};
use std::collections::BTreeSet;

/// Runs the experiment over `(N, t) ∈ {(7,2), (10,3)}` for Algorithm 1 and
/// `(11, 2)` for Algorithm 4, suite × 3 seeds × 2 id layouts.
pub fn run() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "T4",
        "lemma validation: measured worst case vs proved bound, over the adversary suite",
        ["lemma", "claim", "measured-worst", "bound", "holds"]
            .map(String::from)
            .to_vec(),
    );

    // --- Algorithm 1 invariants.
    let mut max_accepted = 0usize;
    let mut accepted_bound = 0usize;
    let mut containment_violations = 0usize;
    let mut min_timely_coverage = usize::MAX;
    let mut max_initial_spread: f64 = 0.0;
    let mut initial_spread_bound: f64 = 0.0;
    // Final spread is threshold-relative, so track it per configuration.
    let mut final_spreads: Vec<(usize, usize, f64, f64)> = Vec::new();
    let mut rejected_votes_total = 0u64;

    for (n, t) in [(7usize, 2usize), (10, 3)] {
        let cfg = SystemConfig::new(n, t).expect("valid");
        accepted_bound = accepted_bound.max(cfg.accepted_bound());
        initial_spread_bound = initial_spread_bound.max(cfg.initial_spread_bound());
        let mut config_final: f64 = 0.0;
        for dist in [IdDistribution::EvenSpaced, IdDistribution::SparseRandom] {
            for spec in AdversarySpec::ALG1 {
                for seed in 0..3u64 {
                    let ids = dist.generate(n - t, seed + 17);
                    let result = run_alg1(
                        cfg,
                        Regime::LogTime,
                        &ids,
                        t,
                        |env| spec.build_alg1(env),
                        Alg1Options {
                            seed,
                            ..Alg1Options::default()
                        },
                    )
                    .expect("legal regime");
                    assert_eq!(
                        result
                            .outcome
                            .verify(cfg.namespace_bound(Regime::LogTime))
                            .len(),
                        0,
                        "{spec} must not break the algorithm"
                    );
                    max_accepted = max_accepted
                        .max(result.probe.accepted_sizes().into_iter().max().unwrap_or(0));
                    containment_violations += result.probe.containment_violations();
                    min_timely_coverage = min_timely_coverage
                        .min(result.probe.timely_sizes().into_iter().min().unwrap_or(0));
                    let series = result.probe.spread_series();
                    if let Some(&first) = series.first() {
                        max_initial_spread = max_initial_spread.max(first);
                    }
                    if let Some(&last) = series.last() {
                        config_final = config_final.max(last);
                    }
                    rejected_votes_total += result.probe.total_rejected_votes();
                }
            }
        }
        final_spreads.push((n, t, config_final, cfg.delta()));
    }
    table.push_row(vec![
        "IV.1".into(),
        "timely anywhere ⊆ accepted everywhere".into(),
        containment_violations.to_string(),
        "0 violations".into(),
        (containment_violations == 0).to_string(),
    ]);
    table.push_row(vec![
        "IV.2".into(),
        "every correct id timely at every correct process".into(),
        format!("min |timely| = {min_timely_coverage}"),
        "≥ N−t (= 5 at the smallest config)".into(),
        (min_timely_coverage >= 5).to_string(),
    ]);
    table.push_row(vec![
        "IV.3".into(),
        "|accepted| ≤ N + ⌊t²/(N−2t)⌋".into(),
        max_accepted.to_string(),
        accepted_bound.to_string(),
        (max_accepted <= accepted_bound).to_string(),
    ]);
    table.push_row(vec![
        "IV.7".into(),
        "initial spread Δ₅ ≤ (t + ⌊t²/(N−2t)⌋)·δ".into(),
        format!("{max_initial_spread:.4}"),
        format!("{initial_spread_bound:.4}"),
        (max_initial_spread <= initial_spread_bound + 1e-9).to_string(),
    ]);
    // Reproduction finding (see EXPERIMENTS.md): at small t the paper's
    // 3⌈log t⌉+3 schedule does NOT reach Lemma IV.9's (δ−1)/2 target under
    // the divergence adversary — the analytic constants are loose there.
    // Order preservation nevertheless held in every run because the
    // *sufficient* rounding condition is the weaker Δ < δ−1, which the
    // schedule does satisfy. Both criteria are reported per configuration.
    for &(n, t, measured, delta) in &final_spreads {
        let paper_target = (delta - 1.0) / 2.0;
        table.push_row(vec![
            format!("IV.9 @N={n},t={t}"),
            "final spread < (δ−1)/2 (paper target)".into(),
            format!("{measured:.6}"),
            format!("{paper_target:.6}"),
            (measured < paper_target).to_string(),
        ]);
        let sufficient = delta - 1.0;
        table.push_row(vec![
            format!("IV.9' @N={n},t={t}"),
            "final spread < δ−1 (sufficient for rounding)".into(),
            format!("{measured:.6}"),
            format!("{sufficient:.6}"),
            (measured < sufficient).to_string(),
        ]);
    }
    table.push_row(vec![
        "IV.4".into(),
        "isValid rejects only non-correct votes (rejections observed)".into(),
        rejected_votes_total.to_string(),
        "> 0 under order-invert/noise".into(),
        (rejected_votes_total > 0).to_string(),
    ]);

    // --- Algorithm 4 invariants.
    let cfg = SystemConfig::new(11, 2).expect("valid");
    let mut max_delta = 0i64;
    let mut min_gap = i64::MAX;
    for spec in AdversarySpec::TWO_STEP {
        for seed in 0..3u64 {
            let ids = IdDistribution::EvenSpaced.generate(9, seed + 3);
            let correct: BTreeSet<OriginalId> = ids.iter().copied().collect();
            let result = run_two_step(
                cfg,
                &ids,
                2,
                |env| spec.build_two_step(env),
                TwoStepOptions {
                    seed,
                    ..TwoStepOptions::default()
                },
            )
            .expect("legal regime");
            assert_eq!(result.outcome.verify(121).len(), 0);
            max_delta = max_delta.max(result.probe.max_discrepancy(&correct));
            min_gap = min_gap.min(result.probe.min_correct_gap(&correct));
        }
    }
    table.push_row(vec![
        "VI.1".into(),
        "two-step discrepancy Δ ≤ 2t²".into(),
        max_delta.to_string(),
        (2 * cfg.t() * cfg.t()).to_string(),
        (max_delta <= 2 * (cfg.t() as i64) * (cfg.t() as i64)).to_string(),
    ]);
    table.push_row(vec![
        "VI.2".into(),
        "consecutive correct names ≥ N−t apart".into(),
        min_gap.to_string(),
        format!("≥ {}", cfg.quorum()),
        (min_gap >= cfg.quorum() as i64).to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_lemmas_hold_except_the_documented_iv9_gap() {
        let table = super::run();
        for row in &table.rows {
            if row[0].starts_with("IV.9 @N=7,t=2") {
                // The documented finding: the paper's schedule misses its
                // own (δ−1)/2 target at the smallest configuration. If this
                // ever flips to "true" the divergence adversary has
                // regressed — investigate before celebrating.
                assert_eq!(row[4], "false", "expected the IV.9 gap: {row:?}");
            } else {
                assert_eq!(row[4], "true", "lemma {} failed: {:?}", row[0], row);
            }
        }
    }
}
