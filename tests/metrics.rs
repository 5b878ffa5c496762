//! Tier-1 guarantees of the metrics plane:
//!
//! * histogram bucket boundaries are exact powers of two,
//! * sharded registry cells merge losslessly across threads,
//! * the deterministic `MetricsSnapshot` of a run is unchanged by a live
//!   registry, and a service schedule's is bit-identical across `jobs`
//!   counts,
//! * the Prometheus rendering of the deterministic plane is pinned
//!   byte-for-byte against committed goldens (`tests/data/metrics.prom`,
//!   `tests/data/service-metrics.prom`; re-bless with `BLESS_METRICS=1`),
//! * the flight recorder retains exactly the last K epoch summaries and its
//!   dump renders them when an oracle violation is raised.

use opr::adversary::AdversarySpec;
use opr::metrics::{
    bucket_index, render_prometheus, shared_flight_recorder, validate_prometheus, MetricsRegistry,
    MetricsSnapshot, OVERFLOW_BUCKET,
};
use opr::service::{judge_ledger, LedgerEvent, ServiceConfig, ServiceObs, ServiceSpec};
use opr::transport::BackendKind;
use opr::types::{Regime, SystemConfig};
use opr::workload::ServiceWorkload;

const RUN_GOLDEN: &str = "tests/data/metrics.prom";
const SERVICE_GOLDEN: &str = "tests/data/service-metrics.prom";

fn small_service(jobs: usize) -> ServiceSpec {
    ServiceSpec {
        service: ServiceConfig {
            shards: 2,
            epoch_cfg: SystemConfig::new(7, 2).expect("legal config"),
            regime: Regime::LogTime,
            byzantine: 2,
            adversary: AdversarySpec::Silent,
            backend: BackendKind::Sim,
            queue_capacity: 32,
            shard_span: 16,
            seed: 0xfeed,
        },
        workload: ServiceWorkload {
            clients: 64,
            epochs: 10,
            arrivals_per_epoch: 6,
            max_hold: 2,
            seed: 0x1234,
        },
        jobs,
    }
}

#[test]
fn histogram_buckets_sit_on_powers_of_two() {
    // Bucket k covers (2^(k-1), 2^k]; 0 and 1 land in bucket 0.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 0);
    assert_eq!(bucket_index(2), 1);
    assert_eq!(bucket_index(3), 2);
    assert_eq!(bucket_index(4), 2);
    assert_eq!(bucket_index(5), 3);
    for k in 3..63 {
        let bound = 1u64 << k;
        assert_eq!(bucket_index(bound), k, "2^{k} belongs to bucket {k}");
        assert_eq!(bucket_index(bound + 1), k + 1, "2^{k}+1 overflows to {k}");
    }
    assert_eq!(bucket_index(u64::MAX), OVERFLOW_BUCKET);
}

#[test]
fn sharded_cells_merge_losslessly_across_threads() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("x_total");
    let hist = registry.histogram("x_ns");
    let threads: Vec<_> = (0..8u64)
        .map(|i| {
            let counter = counter.clone();
            let hist = hist.clone();
            std::thread::spawn(move || {
                for v in 0..2_000u64 {
                    counter.add(1);
                    hist.record(i * 2_000 + v);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("x_total"), 16_000);
    let h = snap.histogram("x_ns").unwrap();
    assert_eq!(h.count, 16_000);
    assert_eq!(h.sum, (0..16_000u64).sum::<u64>());
}

/// The deterministic plane of a protocol run is a pure function of the
/// schedule: attaching a live registry does not change it.
#[test]
fn run_snapshot_is_unchanged_by_a_live_registry() {
    let schedule = opr::chaos::generate_schedule(11, opr::chaos::BudgetRegime::InBudget);
    let reference = schedule
        .run_observed()
        .expect("legal schedule")
        .metrics_snapshot();
    assert!(!reference.is_empty());
    assert!(reference.counter("opr_rounds_total") > 0);
    let registry = MetricsRegistry::new();
    let instrumented = schedule
        .to_run()
        .and_then(|run| {
            run.record_events()
                .metrics(registry.clone())
                .run_diagnosed()
        })
        .expect("legal schedule")
        .metrics_snapshot();
    assert_eq!(
        reference, instrumented,
        "live registry must be unobservable"
    );
    // Folding the deterministic plane into the same registry mirrors it.
    registry.fold(&instrumented);
    let live = registry.snapshot();
    assert_eq!(
        live.counter("opr_rounds_total"),
        reference.counter("opr_rounds_total")
    );
}

/// The deterministic service snapshot is bit-identical across `jobs`
/// counts, observed or not.
#[test]
fn service_snapshot_is_jobs_invariant() {
    let reference = small_service(1)
        .run()
        .expect("clean spec")
        .metrics_snapshot();
    assert!(reference.counter("opr_service_grants_total") > 0);
    let parallel = small_service(4)
        .run()
        .expect("clean spec")
        .metrics_snapshot();
    assert_eq!(reference, parallel, "snapshot at jobs 4");
    // Full observation attached: report (and so snapshot) unchanged.
    let obs = ServiceObs {
        metrics: Some(MetricsRegistry::new()),
        flight: Some(shared_flight_recorder(4)),
        ..ServiceObs::default()
    };
    let observed = small_service(1)
        .run_observed(&obs)
        .expect("clean spec")
        .metrics_snapshot();
    assert_eq!(reference, observed, "observation must be unobservable");
}

fn check_golden(path: &str, rendered: &str) {
    if std::env::var_os("BLESS_METRICS").is_some() {
        std::fs::write(path, rendered).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden committed (bless with BLESS_METRICS=1)");
    assert_eq!(
        golden, rendered,
        "{path} drifted; re-bless with BLESS_METRICS=1 if deliberate"
    );
}

#[test]
fn prometheus_rendering_matches_the_run_golden() {
    let schedule = opr::chaos::generate_schedule(11, opr::chaos::BudgetRegime::InBudget);
    let snap = schedule
        .run_observed()
        .expect("legal schedule")
        .metrics_snapshot();
    let rendered = render_prometheus(&snap);
    validate_prometheus(&rendered).expect("structurally valid exposition");
    check_golden(RUN_GOLDEN, &rendered);
}

#[test]
fn prometheus_rendering_matches_the_service_golden() {
    let snap = small_service(1)
        .run()
        .expect("clean spec")
        .metrics_snapshot();
    let rendered = render_prometheus(&snap);
    validate_prometheus(&rendered).expect("structurally valid exposition");
    check_golden(SERVICE_GOLDEN, &rendered);
}

/// A snapshot rendered and re-rendered is byte-stable, and histograms
/// satisfy the Prometheus cumulative-bucket contract.
#[test]
fn prometheus_rendering_is_stable_and_cumulative() {
    let mut snap = MetricsSnapshot::default();
    snap.add_counter("a_total", 3);
    snap.set_gauge("g", -7);
    for v in [1u64, 2, 3, 900, 5_000_000] {
        snap.record("h_ns", v);
    }
    let first = render_prometheus(&snap);
    assert_eq!(first, render_prometheus(&snap));
    validate_prometheus(&first).expect("valid");
    let mut last = 0u64;
    for line in first.lines().filter(|l| l.starts_with("h_ns_bucket")) {
        let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(v >= last, "buckets must be cumulative: {line}");
        last = v;
    }
    assert!(first.contains("h_ns_bucket{le=\"+Inf\"} 5"));
    assert!(first.contains("h_ns_count 5"));
}

/// The flight recorder keeps exactly the last K epoch summaries of a
/// service run, and the violation path renders them: injecting an oracle
/// violation into the judged ledger produces a dump carrying the ring.
#[test]
fn flight_recorder_dumps_last_k_on_injected_violation() {
    let flight = shared_flight_recorder(4);
    let obs = ServiceObs {
        flight: Some(flight.clone()),
        ..ServiceObs::default()
    };
    let spec = small_service(1);
    let report = spec.run_observed(&obs).expect("clean spec");
    assert_eq!(report.epochs, 10);
    let summaries = flight.lock().unwrap().summaries();
    let epochs: Vec<u64> = summaries.iter().map(|s| s.epoch).collect();
    assert_eq!(epochs, vec![6, 7, 8, 9], "ring keeps the last 4 of 10");
    assert_eq!(flight.lock().unwrap().dropped(), 6);

    // Inject a violation the way a corrupted engine would surface one: a
    // duplicate in-epoch grant. The judged ledger trips the oracle, which
    // is the dump trigger the service bin wires to this render call.
    let mut ledger = report.ledger;
    let dup = *ledger
        .iter()
        .find(|e| matches!(e, LedgerEvent::Grant(_)))
        .expect("run granted at least once");
    ledger.push(dup);
    let violations = judge_ledger(&spec.service, &ledger);
    assert!(
        !violations.is_empty(),
        "injected duplicate must trip an oracle"
    );
    let dump = flight.lock().unwrap().render("oracle violation");
    assert!(dump.starts_with("flight recorder dump (oracle violation): last 4 of 10 epochs"));
    for epoch in 6..=9 {
        assert!(
            dump.lines()
                .any(|l| l.trim_start().starts_with(&format!("{epoch} "))),
            "epoch {epoch} row missing from dump:\n{dump}"
        );
    }
}
