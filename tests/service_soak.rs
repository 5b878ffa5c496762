//! The service soak gate: a seeded 1000-epoch run with recycling across 4
//! shards must complete oracle-clean and be bit-identical across worker
//! counts. Beside it, the service smoke sweeps 40
//! small seeded specs over every regime and adversary the soak spec fixes.
//!
//! This is the acceptance gate for the service layer: within-epoch
//! uniqueness/order/namespace discipline plus cross-epoch uniqueness over
//! thousands of protocol instances, with names cycling through the shard
//! pools the whole time, and `jobs` demoted to pure execution strategy (the `ServiceReport` — ledger included — is compared with
//! `==`).

use opr::chaos::engine::per_run_seed;
use opr::prelude::*;
use opr::service::{judge_ledger, ServiceConfig, ServiceSpec};
use opr::transport::BackendKind;
use opr::types::Regime;

/// The soak spec: 4 shards, `(N, t) = (7, 2)` log-time instances with 2
/// silent Byzantine actors each, 16 arrivals per epoch over a 4000-client
/// universe (clients wrap, so returning clients re-acquire after releasing)
/// and holds of 1–3 epochs, so the pools recycle constantly.
fn soak_spec(epochs: u64, jobs: usize) -> ServiceSpec {
    ServiceSpec {
        service: ServiceConfig {
            shards: 4,
            epoch_cfg: SystemConfig::new(7, 2).unwrap(),
            regime: Regime::LogTime,
            byzantine: 2,
            adversary: AdversarySpec::Silent,
            backend: BackendKind::Sim,
            queue_capacity: 64,
            shard_span: 64,
            seed: 0x5eed,
        },
        workload: ServiceWorkload {
            clients: 4000,
            epochs,
            arrivals_per_epoch: 16,
            max_hold: 3,
            seed: 7,
        },
        jobs,
    }
}

#[test]
fn thousand_epoch_soak_is_oracle_clean_and_recycles() {
    let spec = soak_spec(1000, 1);
    let report = spec.run().unwrap();
    assert_eq!(report.epochs, 1000);
    let violations = judge_ledger(&spec.service, &report.ledger);
    assert!(violations.is_empty(), "{violations:?}");
    // The run actually exercised the service: a healthy majority of the
    // open-loop demand was granted, names were released back, and the
    // pools re-issued previously-used names.
    assert!(report.grants > 10_000, "grants = {}", report.grants);
    assert!(report.releases > 5_000, "releases = {}", report.releases);
    assert!(report.recycled > 1_000, "recycled = {}", report.recycled);
    // All four shards served grants.
    for shard in 0..spec.service.shards {
        assert!(
            report.ledger.iter().any(|e| match e {
                opr::service::LedgerEvent::Grant(g) => g.shard == shard,
                _ => false,
            }),
            "shard {shard} never granted"
        );
    }
}

#[test]
fn soak_report_is_bit_identical_across_jobs() {
    let reference = soak_spec(1000, 1).run().unwrap();
    let parallel = soak_spec(1000, 4).run().unwrap();
    assert_eq!(reference, parallel, "jobs must be unobservable");
}

/// The smoke spec drawn from one run seed: 1–4 shards, every regime at
/// `t = 1`, 0–1 Byzantine actors under any adversary of the regime's suite,
/// a 20-client universe (clients wrap around, producing
/// duplicate-acquire and re-acquire traffic) and holds short enough to
/// recycle names within the 10-epoch schedule.
fn smoke_spec(seed: u64) -> ServiceSpec {
    let regime = Regime::ALL[(seed % 3) as usize];
    let suite = AdversarySpec::suite(regime);
    let shards = 1 + (seed % 4) as usize;
    ServiceSpec {
        service: ServiceConfig {
            shards,
            // 4..=6 processes: legal for every regime at t = 1.
            epoch_cfg: SystemConfig::new(4 + ((seed >> 8) % 3) as usize, 1).unwrap(),
            regime,
            byzantine: ((seed >> 16) % 2) as usize,
            adversary: suite[((seed >> 24) as usize) % suite.len()],
            backend: BackendKind::Sim,
            queue_capacity: 64,
            shard_span: 16,
            seed,
        },
        workload: ServiceWorkload {
            clients: 20,
            epochs: 10,
            arrivals_per_epoch: 2 * shards + 1,
            max_hold: 1 + ((seed >> 40) % 3),
            seed: seed ^ 0x0073_6d6f_6b65,
        },
        jobs: 1,
    }
}

/// The service smoke: 40 specs drawn from `per_run_seed(42, i)`, each
/// oracle-clean and bit-identical at `jobs = 1` and `jobs = 4`. It is the
/// one service check covering constant-time and 2-step instances and
/// non-silent adversaries over many epochs.
#[test]
fn seeded_smoke_specs_are_oracle_clean_and_jobs_invariant() {
    let specs: Vec<ServiceSpec> = (0..40).map(|i| smoke_spec(per_run_seed(42, i))).collect();
    let run = |spec: ServiceSpec| spec.run().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
    let mut recycled = 0;
    for (index, &spec) in specs.iter().enumerate() {
        let serial = run(spec);
        let violations = judge_ledger(&spec.service, &serial.ledger);
        assert!(violations.is_empty(), "spec #{index}: {violations:?}");
        let parallel = run(ServiceSpec { jobs: 4, ..spec });
        assert!(serial == parallel, "spec #{index}: jobs=4 diverged");
        recycled += serial.recycled;
    }
    assert!(recycled > 0, "no spec ever recycled a name");
    // The draw covers what the soak spec holds fixed.
    let covers = |pred: &dyn Fn(&ServiceConfig) -> bool| specs.iter().any(|s| pred(&s.service));
    for regime in Regime::ALL {
        assert!(covers(&|c| c.regime == regime), "{regime:?} never drawn");
    }
    for shards in 1..=4 {
        assert!(covers(&|c| c.shards == shards), "{shards} shards");
    }
    assert!(
        covers(&|c| c.byzantine > 0 && c.adversary != AdversarySpec::Silent),
        "no active non-silent adversary drawn"
    );
}
