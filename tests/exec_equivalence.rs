//! The determinism-equivalence gate for parallel campaign execution.
//!
//! Every chaos run is a deterministic, share-nothing function of its
//! schedule, so farming runs out to a `RunPool` must be unobservable: a
//! campaign executed with `jobs = 4` must produce a **bit-identical**
//! sequence — same `DiagnosedRun`s, same outcomes, same metrics, in the
//! same submission order — as the serial run of the same seed and budget,
//! on both execution backends. This gate is what licenses `--jobs N` on
//! the chaos, sweep and tables binaries: parallelism is an execution
//! strategy, never an observable.

use opr::chaos::engine::{execute_campaign, per_run_seed, run_campaign};
use opr::chaos::{standard_suite, BackendChoice, BudgetRegime, CampaignConfig};
use opr::exec::RunPool;
use opr::obs::{render_jsonl, RunLog};
use opr::transport::BackendKind;
use proptest::prelude::*;
use proptest::sample::select;

/// The worker count the CI smoke step exercises.
const PARALLEL_JOBS: usize = 4;

fn config(
    seed: u64,
    runs: usize,
    budget: Option<BudgetRegime>,
    backend: BackendChoice,
    jobs: usize,
) -> CampaignConfig {
    CampaignConfig {
        seed,
        runs,
        budget,
        backend,
        jobs,
    }
}

/// Every budget regime, plus `None` (cycle through all three per run).
fn budgets() -> impl Strategy<Value = Option<BudgetRegime>> {
    select(vec![
        None,
        Some(BudgetRegime::InBudget),
        Some(BudgetRegime::AtBudget),
        Some(BudgetRegime::OverBudget),
    ])
}

/// `Both` executes the simulator *and* the pooled backend per schedule, so
/// these two choices cover every backend.
fn backends() -> impl Strategy<Value = BackendChoice> {
    select(vec![BackendChoice::Sim, BackendChoice::Both])
}

proptest! {
    // Each case runs the campaign once serially and once on four workers
    // (and `Both` doubles the per-schedule cost), so keep the case count
    // CI-sized; the seed space still varies freely across cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The executed sequence — schedule, seed, budget and the full
    /// `DiagnosedRun` (outcome, metrics, diagnosis) per index — is
    /// bit-identical at any worker count.
    #[test]
    fn parallel_execution_is_bit_identical_to_serial(
        seed in 0u64..u64::MAX,
        runs in 4usize..10,
        budget in budgets(),
        backend in backends(),
    ) {
        let serial = execute_campaign(&config(seed, runs, budget, backend, 1));
        let parallel =
            execute_campaign(&config(seed, runs, budget, backend, PARALLEL_JOBS));
        prop_assert_eq!(serial, parallel);
    }

    /// The judged report is a pure function of the campaign config:
    /// clean/degraded tallies and the exact failure list are independent
    /// of `jobs`.
    #[test]
    fn campaign_reports_are_a_pure_function_of_the_config(
        seed in 0u64..u64::MAX,
        runs in 6usize..12,
        budget in budgets(),
        backend in backends(),
    ) {
        let oracles = standard_suite();
        let serial = run_campaign(&config(seed, runs, budget, backend, 1), &oracles);
        let parallel =
            run_campaign(&config(seed, runs, budget, backend, PARALLEL_JOBS), &oracles);
        prop_assert_eq!(serial.total, parallel.total);
        prop_assert_eq!(serial.clean, parallel.clean);
        prop_assert_eq!(serial.degraded, parallel.degraded);
        prop_assert_eq!(serial.failures, parallel.failures);
        prop_assert_eq!(serial.metrics, parallel.metrics);
    }

    /// The telemetry gate for parallel execution: recording protocol
    /// events on pool workers must be unobservable too. A batch of
    /// recorded runs yields bit-identical `RunLog`s — and byte-identical
    /// JSONL renderings — at one worker and at four.
    #[test]
    fn recorded_event_streams_are_identical_at_any_worker_count(
        seed in 0u64..u64::MAX,
        budget in select(BudgetRegime::ALL.to_vec()),
    ) {
        let schedules: Vec<_> = (0..6)
            .map(|index| opr::chaos::generate_schedule(per_run_seed(seed, index), budget))
            .collect();
        let run_all = |jobs: usize| -> Vec<RunLog> {
            let pool = RunPool::new(jobs);
            let tasks: Vec<_> = schedules
                .iter()
                .map(|schedule| {
                    let schedule = schedule.clone();
                    move || {
                        schedule
                            .run_observed(BackendKind::Sim)
                            .expect("chaos schedules are legal by construction")
                            .events
                            .expect("recorder attached")
                    }
                })
                .collect();
            pool.run_batch(tasks)
                .into_iter()
                .map(|slot| slot.expect("recorded runs do not panic"))
                .collect()
        };
        let serial = run_all(1);
        let parallel = run_all(PARALLEL_JOBS);
        prop_assert_eq!(&serial, &parallel);
        let rendered = |logs: &[RunLog]| -> Vec<String> {
            logs.iter().map(render_jsonl).collect()
        };
        prop_assert_eq!(rendered(&serial), rendered(&parallel));
    }

    /// The pooled substrate's *internal* worker pool is unobservable too:
    /// the same chaos schedule executed with the process-default worker
    /// count pinned to 1 and to `PARALLEL_JOBS` yields bit-identical
    /// `DiagnosedRun`s and telemetry. (Worker-count invariance is also a
    /// determinism property, so the global default racing with concurrent
    /// pooled runs in this binary cannot perturb their assertions.)
    #[test]
    fn pooled_substrate_is_bit_identical_across_worker_counts(
        seed in 0u64..100_000,
        budget in select(BudgetRegime::ALL.to_vec()),
    ) {
        use opr::transport::PooledBackend;
        let schedule = opr::chaos::generate_schedule(seed, budget);
        let run = |workers: usize| {
            PooledBackend::set_process_default_workers(workers);
            let observed = schedule
                .run_observed(BackendKind::Pooled)
                .expect("chaos schedules are legal by construction");
            PooledBackend::set_process_default_workers(0);
            observed
        };
        let one = run(1);
        let four = run(PARALLEL_JOBS);
        let tag = schedule.describe();
        prop_assert_eq!(&one, &four, "diagnosed run: {}", tag);
        let one_log = one.events.as_ref().expect("recorder attached");
        let four_log = four.events.as_ref().expect("recorder attached");
        prop_assert_eq!(one_log, four_log, "event streams: {}", tag);
        prop_assert_eq!(
            render_jsonl(one_log),
            render_jsonl(four_log),
            "JSONL bytes: {}",
            tag
        );
    }

    /// The deterministic service-level `MetricsSnapshot` is a pure function
    /// of the spec: `jobs = 1` and `jobs = 4` fold to bit-identical
    /// snapshots, with or without the wall-plane observation attached.
    #[test]
    fn service_metrics_snapshots_are_jobs_invariant(
        seed in 0u64..100_000,
        shards in 1usize..4,
    ) {
        use opr::adversary::AdversarySpec;
        use opr::metrics::{shared_flight_recorder, MetricsRegistry};
        use opr::service::{ServiceConfig, ServiceObs, ServiceSpec};
        use opr::types::{Regime, SystemConfig};
        use opr::workload::ServiceWorkload;
        let spec = |jobs: usize| ServiceSpec {
            service: ServiceConfig {
                shards,
                epoch_cfg: SystemConfig::new(7, 2).expect("legal config"),
                regime: Regime::LogTime,
                byzantine: 2,
                adversary: AdversarySpec::Silent,
                backend: BackendKind::Sim,
                queue_capacity: 32,
                shard_span: 16,
                seed,
            },
            workload: ServiceWorkload {
                clients: 64,
                epochs: 6,
                arrivals_per_epoch: 3 * shards,
                max_hold: 2,
                seed: seed ^ 0xabcd,
            },
            jobs,
        };
        let serial = spec(1).run().expect("clean spec").metrics_snapshot();
        let obs = ServiceObs {
            metrics: Some(MetricsRegistry::new()),
            flight: Some(shared_flight_recorder(4)),
            ..ServiceObs::default()
        };
        let parallel = spec(PARALLEL_JOBS)
            .run_observed(&obs)
            .expect("clean spec")
            .metrics_snapshot();
        prop_assert_eq!(serial, parallel, "seed {} shards {}", seed, shards);
    }
}
