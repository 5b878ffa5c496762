//! F2 — namespace growth in `t` at fixed `N`, per algorithm.

use crate::id_dist::IdDistribution;
use crate::run::Algorithm;
use crate::table::ExperimentTable;
use opr_adversary::AdversarySpec;
use opr_types::SystemConfig;

/// The fixed system size.
pub const N: usize = 31;

/// Runs the experiment: `t` sweeps as far as each regime allows at `N = 31`.
pub fn run() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "F2",
        "namespace vs t at fixed N=31: measured max name and guaranteed bound",
        ["algorithm", "t", "max-name", "bound"]
            .map(String::from)
            .to_vec(),
    );
    let sweeps: [(Algorithm, AdversarySpec, Vec<usize>); 3] = [
        (
            Algorithm::Alg1LogTime,
            AdversarySpec::IdForge,
            vec![1, 2, 4, 6, 8, 10],
        ),
        (
            Algorithm::Alg1ConstantTime,
            AdversarySpec::IdForge,
            vec![1, 2, 3, 4],
        ),
        (Algorithm::TwoStep, AdversarySpec::FakeFlood, vec![1, 2, 3]),
    ];
    for (alg, spec, ts) in sweeps {
        for t in ts {
            assert!(N >= alg.minimal_n(t), "{alg} t={t} out of regime at N={N}");
            let cfg = SystemConfig::new(N, t).expect("valid");
            let mut max_name = 0i64;
            for seed in 0..2u64 {
                let ids = IdDistribution::EvenSpaced.generate(N - t, seed + 2);
                let stats = alg.run(cfg, &ids, t, spec, seed).expect("run");
                assert_eq!(stats.violations, 0, "{alg} t={t}");
                max_name = max_name.max(stats.max_name.unwrap_or(0));
            }
            table.push_row(vec![
                alg.label().to_owned(),
                t.to_string(),
                max_name.to_string(),
                alg.namespace_bound(cfg).to_string(),
            ]);
        }
    }
    table.add_note("alg1-log bound N+t−1 grows with t; alg1-const stays N; alg4 pays N²");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_hold_and_const_variant_stays_flat() {
        let table = run();
        for row in &table.rows {
            let max: i64 = row[2].parse().unwrap();
            let bound: i64 = row[3].parse().unwrap();
            assert!(max <= bound, "{} t={}", row[0], row[1]);
            if row[0] == "alg1-const" {
                assert!(max <= N as i64);
            }
        }
    }

    #[test]
    fn log_variant_namespace_grows_with_t_in_the_bound() {
        let table = run();
        let bounds: Vec<i64> = table
            .rows
            .iter()
            .filter(|r| r[0] == "alg1-log")
            .map(|r| r[3].parse().unwrap())
            .collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }
}
