//! Soak tests: exhaustive adversary × seed × configuration matrices.
//! Ignored by default (minutes of runtime); run with
//! `cargo test --test soak -- --ignored`.
//!
//! The matrices are built serially in row order, executed on a [`RunPool`]
//! (`SOAK_JOBS` workers, default 4 — runs are independent deterministic
//! experiments) and asserted serially: results come back reassembled in
//! submission order, so failure messages still pinpoint the exact cell and
//! the run counts are identical to the old serial loops.

use opr::prelude::*;
use opr::workload::{run_grid, GridPoint};

/// The pool every soak matrix executes on.
fn soak_pool() -> RunPool {
    let jobs = std::env::var("SOAK_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    RunPool::new(jobs)
}

/// Runs the matrix on the pool and asserts every cell, in matrix order.
fn assert_matrix_clean(labels: Vec<String>, points: Vec<GridPoint>) {
    assert_eq!(labels.len(), points.len());
    for (label, result) in labels.iter().zip(run_grid(&soak_pool(), points)) {
        let stats = result.unwrap_or_else(|e| panic!("{label}: {e}"));
        // `violations` counts against each implementation's namespace
        // bound, so zero here is the full renaming property (strong
        // renaming for the constant-time regime, where the bound is `N`).
        assert_eq!(stats.violations, 0, "{label}");
    }
}

#[test]
#[ignore = "soak: large matrix, run explicitly"]
fn alg1_log_time_soak() {
    let mut labels = Vec::new();
    let mut points = Vec::new();
    for t in 1..=4usize {
        for n in (3 * t + 1)..(3 * t + 5) {
            let cfg = SystemConfig::new(n, t).unwrap();
            for spec in AdversarySpec::ALG1 {
                for dist in IdDistribution::ALL {
                    for seed in 0..10u64 {
                        labels.push(format!("N={n} t={t} {spec} {dist} seed={seed}"));
                        points.push(GridPoint {
                            algorithm: Algorithm::Alg1LogTime,
                            cfg,
                            correct_ids: dist.generate(n - t, seed),
                            faulty: t,
                            adversary: spec,
                            seed,
                        });
                    }
                }
            }
        }
    }
    assert_matrix_clean(labels, points);
}

#[test]
#[ignore = "soak: large matrix, run explicitly"]
fn two_step_soak() {
    let mut labels = Vec::new();
    let mut points = Vec::new();
    for t in 1..=3usize {
        for n in (2 * t * t + t + 1)..(2 * t * t + t + 4) {
            let cfg = SystemConfig::new(n, t).unwrap();
            for spec in AdversarySpec::TWO_STEP {
                for dist in IdDistribution::ALL {
                    for seed in 0..10u64 {
                        labels.push(format!("N={n} t={t} {spec} {dist} seed={seed}"));
                        points.push(GridPoint {
                            algorithm: Algorithm::TwoStep,
                            cfg,
                            correct_ids: dist.generate(n - t, seed),
                            faulty: t,
                            adversary: spec,
                            seed,
                        });
                    }
                }
            }
        }
    }
    assert_matrix_clean(labels, points);
}

#[test]
#[ignore = "soak: large matrix, run explicitly"]
fn constant_time_soak() {
    let mut labels = Vec::new();
    let mut points = Vec::new();
    for t in 1..=3usize {
        let n = t * t + 2 * t + 1;
        let cfg = SystemConfig::new(n, t).unwrap();
        for spec in AdversarySpec::ALG1 {
            for seed in 0..20u64 {
                labels.push(format!("N={n} t={t} {spec} seed={seed}"));
                points.push(GridPoint {
                    algorithm: Algorithm::Alg1ConstantTime,
                    cfg,
                    correct_ids: IdDistribution::EvenSpaced.generate(n - t, seed),
                    faulty: t,
                    adversary: spec,
                    seed,
                });
            }
        }
    }
    // Strong renaming at the regime boundary under every attack: the
    // constant-time namespace bound is exactly `N`.
    assert_matrix_clean(labels, points);
}
