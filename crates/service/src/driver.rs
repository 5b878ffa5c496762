//! The seeded service driver: runs a [`ServiceEngine`] against a
//! [`ServiceWorkload`] for its full schedule and folds the outcome into a
//! comparable [`ServiceReport`].
//!
//! The driver is the replayability boundary: a [`ServiceSpec`] is a pure
//! value, and `run()` is a deterministic function of it — same spec, same
//! report, bit for bit, across `jobs` counts. Everything the
//! soak/reduction/smoke gates compare is in the report; wall-clock spans are
//! deliberately outside it.

use crate::config::{ServiceConfig, ServiceError};
use crate::engine::{AdmissionStats, EpochStats, LedgerEvent, ServiceEngine, ServiceOp};
use opr_exec::RunPool;
use opr_metrics::{
    labeled, render_dashboard, MetricsRegistry, MetricsSnapshot, SharedFlightRecorder,
};
use opr_obs::SharedSpanLog;
use opr_workload::{ClientId, ServiceWorkload};
use std::collections::BTreeMap;

/// A complete, replayable service experiment: engine configuration, demand
/// schedule, and dispatch parallelism.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServiceSpec {
    /// Engine configuration.
    pub service: ServiceConfig,
    /// Open-loop demand schedule.
    pub workload: ServiceWorkload,
    /// `RunPool` parallelism for shard dispatch (`≤ 1` runs inline).
    pub jobs: usize,
}

/// What a full service run produced — the deterministic result the gates
/// compare (spans and wall time are intentionally absent).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServiceReport {
    /// Epochs executed.
    pub epochs: u64,
    /// Total names granted.
    pub grants: u64,
    /// Total names released back to the pools.
    pub releases: u64,
    /// Grants of a name that had already served an earlier client — the
    /// recycling traffic (0 means no name was ever reused).
    pub recycled: u64,
    /// Admission counters.
    pub admission: AdmissionStats,
    /// The full chronological ledger.
    pub ledger: Vec<LedgerEvent>,
    /// Per-epoch counters.
    pub epoch_stats: Vec<EpochStats>,
}

/// Wall-plane attachments for a service run: spans, a live metrics
/// registry, a flight recorder and an optional periodic dashboard. All
/// optional; `ServiceObs::default()` observes nothing and changes nothing.
#[derive(Clone, Default)]
pub struct ServiceObs {
    /// Wall-clock span log (engine + pool spans).
    pub spans: Option<SharedSpanLog>,
    /// Live metrics registry threaded through the engine, the pool, and
    /// every protocol instance's round clock.
    pub metrics: Option<MetricsRegistry>,
    /// Flight recorder receiving one epoch summary per epoch.
    pub flight: Option<SharedFlightRecorder>,
    /// When `Some(n)` with an attached registry, print the ANSI dashboard
    /// to stderr every `n` epochs (a poor man's `--watch`).
    pub watch_every: Option<u64>,
}

impl ServiceSpec {
    /// Runs the full schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on invalid configuration or a failed
    /// protocol instance.
    pub fn run(&self) -> Result<ServiceReport, ServiceError> {
        self.run_observed(&ServiceObs::default())
    }

    /// [`ServiceSpec::run`] with the full wall-plane observation bundle:
    /// spans, live metrics (engine gauges/histograms, pool queue-wait,
    /// per-round histograms), flight recorder, and an optional
    /// every-N-epochs dashboard on stderr. The returned report is
    /// bit-identical to an unobserved run.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on invalid configuration or a failed
    /// protocol instance.
    pub fn run_observed(&self, obs: &ServiceObs) -> Result<ServiceReport, ServiceError> {
        let mut pool = RunPool::new(self.jobs);
        let mut engine = ServiceEngine::new(self.service)?;
        if let Some(log) = &obs.spans {
            pool = pool.with_spans(log.clone());
            engine = engine.with_spans(log.clone());
        }
        if let Some(registry) = &obs.metrics {
            pool = pool.with_metrics(registry);
            engine = engine.with_metrics(registry);
        }
        if let Some(flight) = &obs.flight {
            engine = engine.with_flight(flight.clone());
        }

        // Releases are materialized from observed grants: a client granted
        // in epoch `g` releases at the start of epoch `g + hold(client)`.
        // Holds are ≥ 1, so a release never races its own grant's epoch.
        let mut due_releases: BTreeMap<u64, Vec<ClientId>> = BTreeMap::new();
        let mut ledger_seen = 0usize;
        for epoch in 0..self.workload.epochs {
            for client in due_releases.remove(&epoch).unwrap_or_default() {
                // A full queue drops the release; the client simply holds
                // its name for the rest of the run (counted as
                // rejected_queue_full backpressure).
                engine.submit(ServiceOp::Release { client });
            }
            for arrival in self.workload.arrivals(epoch) {
                engine.submit(ServiceOp::Acquire {
                    client: arrival.client,
                    original: arrival.original,
                });
            }
            engine.run_epoch(&pool)?;
            if let (Some(every), Some(registry)) = (obs.watch_every, &obs.metrics) {
                if every > 0 && (epoch + 1) % every == 0 {
                    eprintln!(
                        "{}",
                        render_dashboard(
                            &format!("service epoch {epoch}"),
                            &registry.snapshot(),
                            true,
                        )
                    );
                }
            }
            for event in &engine.ledger()[ledger_seen..] {
                if let LedgerEvent::Grant(grant) = event {
                    let due = epoch + self.workload.hold_epochs(grant.client);
                    // Releases falling past the schedule are dropped: the
                    // run ends with those names still live.
                    if due < self.workload.epochs {
                        due_releases.entry(due).or_default().push(grant.client);
                    }
                }
            }
            ledger_seen = engine.ledger().len();
        }

        let ledger = engine.ledger().to_vec();
        let (mut grants, mut releases, mut recycled) = (0u64, 0u64, 0u64);
        let mut granted_before: BTreeMap<(usize, u64), bool> = BTreeMap::new();
        for event in &ledger {
            match event {
                LedgerEvent::Grant(grant) => {
                    grants += 1;
                    if granted_before
                        .insert((grant.shard, grant.name), true)
                        .is_some()
                    {
                        recycled += 1;
                    }
                }
                LedgerEvent::Release { .. } => releases += 1,
            }
        }
        Ok(ServiceReport {
            epochs: engine.epochs_run(),
            grants,
            releases,
            recycled,
            admission: engine.admission(),
            ledger,
            epoch_stats: engine.epoch_stats().to_vec(),
        })
    }
}

impl ServiceReport {
    /// Folds the report into the deterministic metrics plane: a pure
    /// function of the (deterministic) report, so it is bit-identical
    /// across `jobs` counts and safe to pin in goldens.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.add_counter("opr_service_epochs_total", self.epochs);
        snap.add_counter("opr_service_grants_total", self.grants);
        snap.add_counter("opr_service_releases_total", self.releases);
        snap.add_counter("opr_service_recycled_total", self.recycled);
        snap.add_counter(
            labeled("opr_service_admission_total", &[("verdict", "accepted")]),
            self.admission.accepted_acquires + self.admission.accepted_releases,
        );
        snap.add_counter(
            labeled("opr_service_admission_total", &[("verdict", "rejected")]),
            self.admission.rejected_queue_full
                + self.admission.rejected_duplicate
                + self.admission.rejected_id_overflow
                + self.admission.rejected_unknown_release,
        );
        snap.add_counter(
            "opr_service_cancelled_pending_total",
            self.admission.cancelled_pending,
        );
        let mut by_shard: BTreeMap<usize, u64> = BTreeMap::new();
        for event in &self.ledger {
            if let LedgerEvent::Grant(grant) = event {
                *by_shard.entry(grant.shard).or_default() += 1;
            }
        }
        for (shard, count) in by_shard {
            snap.add_counter(
                labeled("opr_service_grants_total", &[("shard", &shard.to_string())]),
                count,
            );
        }
        for stats in &self.epoch_stats {
            snap.record("opr_service_epoch_grants", stats.grants);
            snap.add_counter("opr_service_protocol_runs_total", stats.protocol_runs);
            snap.add_counter("opr_service_deferred_total", stats.deferred);
            snap.add_counter("opr_service_skipped_shards_total", stats.skipped_shards);
        }
        snap
    }
}
