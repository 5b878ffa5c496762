#![warn(missing_docs)]
//! Renaming-as-a-service: a multi-tenant epoch engine over the paper's
//! one-shot protocol.
//!
//! The source paper solves *one-shot* order-preserving renaming: a fixed
//! set of processes runs one synchronous instance and halts. This crate
//! generalizes it to a long-running *service* (the direction of Chlebus &
//! Kowalski's exclusive-selection framing): clients acquire and release
//! names over time, and the engine multiplexes thousands of protocol
//! instances while preserving the paper's guarantees within every instance
//! and adding cross-epoch guarantees on top.
//!
//! # Architecture
//!
//! * **Admission queue** ([`ServiceEngine::submit`]) — a bounded FIFO of
//!   [`ServiceOp`]s; a full queue rejects with backpressure
//!   ([`AdmissionStats::rejected_queue_full`]) instead of growing.
//! * **Sharded namespaces** ([`ServiceConfig::shards`]) — each shard owns a
//!   disjoint name range and its own free pool/backlog/live table; clients
//!   hash to shards stably.
//! * **Epoch batching** ([`ServiceEngine::run_epoch`]) — per epoch, every
//!   non-empty shard runs one protocol instance (batch originals plus
//!   filler ids up to the instance width) via `opr_workload::RenamingRun`,
//!   dispatched over an `opr_exec::RunPool`; protocol names map
//!   order-preservingly onto the shard's free pool (k-th smallest protocol
//!   name → k-th smallest free name).
//! * **Name recycling** — released names return to the free pool and serve
//!   later clients; the chronological [`LedgerEvent`] stream is judged by
//!   the ledger oracle suite ([`judge_ledger`]), including cross-epoch uniqueness (no name live
//!   twice, ever).
//!
//! Everything is deterministic: a [`ServiceSpec`] (configuration +
//! [`ServiceWorkload`](opr_workload::ServiceWorkload) + jobs) replays to a
//! bit-identical [`ServiceReport`] across `--jobs` counts and backends,
//! which is what the `service --soak` gate and `tests/service_soak.rs`
//! compare. [`ServiceRepro`] round-trips a spec through
//! `service-repro.json`; `service --repro` replays it, judging the ledger
//! and the report against the spec at `jobs = 1` on the simulator.

pub(crate) mod config;
pub(crate) mod driver;
pub(crate) mod engine;
pub(crate) mod oracle;
pub(crate) mod repro;

pub use config::{epoch_seed, ServiceConfig, ServiceError};
pub use driver::{ServiceObs, ServiceReport, ServiceSpec};
pub use engine::{AdmissionStats, EpochStats, Grant, LedgerEvent, ServiceEngine, ServiceOp};
pub use oracle::{judge_ledger, ServiceViolation};
pub use repro::{ServiceReplay, ServiceRepro, ServiceReproError};

#[cfg(test)]
mod tests {
    use super::*;
    use opr_adversary::AdversarySpec;
    use opr_exec::RunPool;
    use opr_transport::BackendKind;
    use opr_types::{OriginalId, Regime, SystemConfig};
    use opr_workload::ClientId;

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            shards: 1,
            epoch_cfg: SystemConfig::new(4, 1).unwrap(),
            regime: Regime::LogTime,
            byzantine: 1,
            adversary: AdversarySpec::Silent,
            backend: BackendKind::Sim,
            queue_capacity: 4,
            shard_span: 8,
            seed: 5,
        }
    }

    fn acquire(client: u64, original: u64) -> ServiceOp {
        ServiceOp::Acquire {
            client: ClientId::new(client),
            original: OriginalId::new(original),
        }
    }

    fn release(client: u64) -> ServiceOp {
        ServiceOp::Release {
            client: ClientId::new(client),
        }
    }

    #[test]
    fn full_queue_applies_backpressure() {
        let mut engine = ServiceEngine::new(small_cfg()).unwrap();
        for i in 0..4 {
            assert!(engine.submit(acquire(i, 10 + i)));
        }
        assert!(!engine.submit(acquire(99, 999)));
        assert_eq!(engine.admission().rejected_queue_full, 1);
        assert_eq!(engine.admission().accepted_acquires, 4);
        // Draining the queue in an epoch restores capacity.
        engine.run_epoch(&RunPool::serial()).unwrap();
        assert!(engine.submit(acquire(99, 999)));
    }

    #[test]
    fn release_before_grant_cancels_the_queued_acquire() {
        let mut engine = ServiceEngine::new(small_cfg()).unwrap();
        engine.submit(acquire(1, 100));
        engine.submit(release(1));
        let stats = engine.run_epoch(&RunPool::serial()).unwrap();
        assert_eq!(stats.grants, 0);
        assert_eq!(engine.admission().cancelled_pending, 1);
        assert_eq!(engine.live_count(), 0);
    }

    #[test]
    fn release_of_unknown_client_is_rejected() {
        let mut engine = ServiceEngine::new(small_cfg()).unwrap();
        engine.submit(release(42));
        engine.run_epoch(&RunPool::serial()).unwrap();
        assert_eq!(engine.admission().rejected_unknown_release, 1);
        assert!(engine.ledger().is_empty());
    }

    #[test]
    fn duplicate_acquire_from_same_client_is_rejected() {
        let mut engine = ServiceEngine::new(small_cfg()).unwrap();
        // Same epoch: second acquire collides with the queued one.
        engine.submit(acquire(1, 100));
        engine.submit(acquire(1, 100));
        engine.run_epoch(&RunPool::serial()).unwrap();
        assert_eq!(engine.admission().rejected_duplicate, 1);
        // Later epoch: collides with the live grant.
        engine.submit(acquire(1, 100));
        engine.run_epoch(&RunPool::serial()).unwrap();
        assert_eq!(engine.admission().rejected_duplicate, 2);
        assert_eq!(engine.live_count(), 1);
    }

    #[test]
    fn empty_epoch_skips_the_protocol_instance() {
        let mut engine = ServiceEngine::new(small_cfg()).unwrap();
        let stats = engine.run_epoch(&RunPool::serial()).unwrap();
        assert_eq!(stats.protocol_runs, 0);
        assert_eq!(stats.skipped_shards, 1);
        assert_eq!(stats.grants, 0);
        assert_eq!(engine.epochs_run(), 1);
    }

    #[test]
    fn grants_are_ordered_and_recycling_reuses_names() {
        let mut engine = ServiceEngine::new(small_cfg()).unwrap();
        engine.submit(acquire(1, 300));
        engine.submit(acquire(2, 100));
        engine.submit(acquire(3, 200));
        engine.run_epoch(&RunPool::serial()).unwrap();
        let grants: Vec<Grant> = engine
            .ledger()
            .iter()
            .filter_map(|e| match e {
                LedgerEvent::Grant(g) => Some(*g),
                _ => None,
            })
            .collect();
        assert_eq!(grants.len(), 3);
        // Fresh pool: compaction grants names 1..=3, ordered by original id.
        let mut by_original = grants;
        by_original.sort_by_key(|g| g.original);
        assert_eq!(
            by_original.iter().map(|g| g.name).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Release the middle name and re-acquire from a new client: the
        // freed name is the smallest free, so it is granted again.
        engine.submit(release(2));
        engine.submit(acquire(4, 150));
        engine.run_epoch(&RunPool::serial()).unwrap();
        let last = engine.ledger().last().unwrap();
        match last {
            LedgerEvent::Grant(g) => {
                assert_eq!(g.client, ClientId::new(4));
                assert_eq!(g.name, 1, "smallest free name is recycled");
            }
            other => panic!("expected a grant, got {other:?}"),
        }
        assert!(judge_ledger(engine.config(), engine.ledger()).is_empty());
    }

    #[test]
    fn backlog_beyond_capacity_carries_over_to_the_next_epoch() {
        let mut cfg = small_cfg();
        cfg.queue_capacity = 16;
        let mut engine = ServiceEngine::new(cfg).unwrap();
        // Capacity per epoch is n − byzantine = 3; admit 5.
        for i in 0..5 {
            assert!(engine.submit(acquire(i, 100 + i)));
        }
        let first = engine.run_epoch(&RunPool::serial()).unwrap();
        assert_eq!(first.grants, 3);
        assert_eq!(engine.backlog_len(), 2);
        let second = engine.run_epoch(&RunPool::serial()).unwrap();
        assert_eq!(second.grants, 2);
        assert_eq!(engine.backlog_len(), 0);
        assert!(judge_ledger(engine.config(), engine.ledger()).is_empty());
    }

    #[test]
    fn batch_collision_on_original_id_is_deferred_not_lost() {
        let mut engine = ServiceEngine::new(small_cfg()).unwrap();
        // Two clients present the same original id: only one can enter an
        // instance, the other is granted in the following epoch.
        engine.submit(acquire(1, 100));
        engine.submit(acquire(2, 100));
        let first = engine.run_epoch(&RunPool::serial()).unwrap();
        assert_eq!(first.grants, 1);
        assert_eq!(first.deferred, 1);
        let second = engine.run_epoch(&RunPool::serial()).unwrap();
        assert_eq!(second.grants, 1);
        assert_eq!(engine.live_count(), 2);
        assert!(judge_ledger(engine.config(), engine.ledger()).is_empty());
    }

    #[test]
    fn spans_record_admission_protocol_and_grant_phases() {
        let log = opr_obs::shared_span_log();
        let mut engine = ServiceEngine::new(small_cfg())
            .unwrap()
            .with_spans(log.clone());
        engine.submit(acquire(1, 100));
        engine.run_epoch(&RunPool::serial()).unwrap();
        let names: Vec<String> = log
            .lock()
            .unwrap()
            .spans()
            .iter()
            .map(|s| s.label())
            .collect();
        assert!(
            names.contains(&"epoch admission 0".to_string()),
            "{names:?}"
        );
        assert!(
            names.contains(&"epoch protocol 0 (0)".to_string()),
            "{names:?}"
        );
        assert!(names.contains(&"epoch grants 0".to_string()), "{names:?}");
    }

    #[test]
    fn metrics_and_flight_observe_epochs_without_changing_results() {
        use opr_metrics::{shared_flight_recorder, MetricsRegistry};
        let registry = MetricsRegistry::new();
        let flight = shared_flight_recorder(8);
        let mut engine = ServiceEngine::new(small_cfg())
            .unwrap()
            .with_metrics(&registry)
            .with_flight(flight.clone());
        engine.submit(acquire(1, 100));
        engine.submit(acquire(2, 200));
        engine.run_epoch(&RunPool::serial()).unwrap();
        // Release + re-acquire: the recycle shows up in stats and metrics.
        engine.submit(release(1));
        engine.submit(acquire(3, 150));
        let stats = engine.run_epoch(&RunPool::serial()).unwrap();
        assert_eq!(stats.recycled, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("opr_service_grants_total"), 3);
        assert_eq!(snap.counter("opr_service_recycled_total"), 1);
        assert_eq!(snap.counter("opr_service_epochs_total"), 2);
        assert_eq!(snap.gauge("opr_service_live_names"), Some(2));
        let hist = snap.histogram("opr_service_epoch_latency_us").unwrap();
        assert_eq!(hist.count, 2);
        assert!(
            snap.histogram("opr_round_ns{backend=\"sim\"}").is_some(),
            "backend round histogram should flow through instances: {:?}",
            snap.histograms.keys().collect::<Vec<_>>()
        );
        let summaries = flight.lock().unwrap().summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[1].recycled, 1);
        assert_eq!(summaries[1].live_names, 2);
    }

    #[test]
    fn oracles_flag_a_corrupted_ledger() {
        use opr_types::NewName;
        let cfg = small_cfg();
        let grant = |epoch, original: u64, protocol: i64, name| {
            LedgerEvent::Grant(Grant {
                epoch,
                shard: 0,
                client: ClientId::new(original),
                original: OriginalId::new(original),
                protocol_name: NewName::new(protocol),
                name,
            })
        };
        // Duplicate in-epoch name, inverted order, out-of-range name,
        // grant-while-live and release-of-free, all in one ledger.
        let ledger = vec![
            grant(0, 10, 1, 2),
            grant(0, 20, 2, 2),  // duplicate name + live twice
            grant(0, 30, 3, 1),  // order inversion vs original 20
            grant(1, 40, 1, 99), // outside shard span 8
            LedgerEvent::Release {
                epoch: 1,
                shard: 0,
                client: ClientId::new(7),
                name: 5,
            }, // never granted
        ];
        let verdicts = judge_ledger(&cfg, &ledger);
        let names: Vec<&str> = verdicts.iter().map(|(n, _)| *n).collect();
        for expected in [
            "epoch-uniqueness",
            "epoch-order",
            "shard-range",
            "cross-epoch-uniqueness",
        ] {
            assert!(names.contains(&expected), "{expected} missing: {names:?}");
        }
    }
}
