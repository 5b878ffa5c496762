//! F1 — approximate-agreement convergence: the measured rank spread `Δ_r`
//! per voting step vs the `σ_t`-contraction prediction (Lemmas IV.7–IV.9).
//!
//! The adversary is the pair-squeezer running with validation *enabled*:
//! its staggered-fake id-selection phase creates the worst measured initial
//! divergence `Δ₅` (its squeeze votes are rejected by `isValid`, so only
//! the divergence matters here), and the series shows the per-step
//! contraction repairing it.

use crate::id_dist::IdDistribution;
use crate::table::ExperimentTable;
use opr_adversary::AdversarySpec;
use opr_core::{run_alg1, Alg1Options};
use opr_types::{Regime, SystemConfig};

/// Runs the experiment at `(N, t) = (13, 4)` under the strongest
/// divergence adversary.
pub fn run() -> ExperimentTable {
    let (n, t) = (13usize, 4usize);
    let cfg = SystemConfig::new(n, t).expect("valid");
    let ids = IdDistribution::EvenSpaced.generate(n - t, 77);
    // Take the worst spread series across a few seeds.
    let mut worst_series: Vec<f64> = Vec::new();
    for seed in 0..3u64 {
        let result = run_alg1(
            cfg,
            Regime::LogTime,
            &ids,
            t,
            |env| AdversarySpec::PairSqueeze.build_alg1(env),
            Alg1Options {
                seed,
                ..Alg1Options::default()
            },
        )
        .expect("legal regime");
        assert!(result
            .outcome
            .verify(cfg.namespace_bound(Regime::LogTime))
            .is_empty());
        let series = result.probe.spread_series();
        if worst_series.is_empty() {
            worst_series = series;
        } else {
            for (w, s) in worst_series.iter_mut().zip(series) {
                *w = w.max(s);
            }
        }
    }

    let sigma = cfg.sigma() as f64;
    let delta5_bound = cfg.initial_spread_bound();
    let mut table = ExperimentTable::new(
        "F1",
        "AA convergence: measured max rank spread per voting step vs σ_t prediction",
        ["step", "measured-spread", "predicted-bound", "within-bound"]
            .map(String::from)
            .to_vec(),
    );
    for (i, measured) in worst_series.iter().enumerate() {
        // Index 0 is Δ₅ (after id selection); each voting step divides the
        // *bound* by σ_t.
        let bound = delta5_bound / sigma.powi(i as i32);
        table.push_row(vec![
            if i == 0 {
                "after-id-selection".to_owned()
            } else {
                format!("voting-{i}")
            },
            format!("{measured:.6}"),
            format!("{bound:.6}"),
            (*measured <= bound + 1e-9).to_string(),
        ]);
    }
    table.add_note(&format!(
        "N={n}, t={t}, σ_t={}, adversary=pair-squeeze (validated), worst over 3 seeds",
        cfg.sigma()
    ));
    table.add_note(&format!(
        "order-preservation threshold (δ−1)/2 = {:.6}",
        (cfg.delta() - 1.0) / 2.0
    ));
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_step_is_within_the_contracted_bound() {
        let table = super::run();
        for row in &table.rows {
            assert_eq!(row[3], "true", "step {} exceeded its bound", row[0]);
        }
    }

    #[test]
    fn spread_ends_below_the_rounding_threshold() {
        let table = super::run();
        let last = table.rows.last().unwrap();
        let measured: f64 = last[1].parse().unwrap();
        // (δ−1)/2 at N=13, t=4: 1/(6·17).
        assert!(measured < 1.0 / (6.0 * 17.0), "final spread {measured}");
    }
}
