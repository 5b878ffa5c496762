//! The multi-tenant epoch engine: admission queue, sharded free pools,
//! per-epoch protocol instances and the cross-epoch grant ledger.
//!
//! One engine multiplexes many renaming instances over time (epochs) and
//! space (shards). Within an epoch each non-empty shard runs one full
//! protocol instance — the paper's one-shot guarantees (uniqueness, order
//! preservation, tight namespace) hold per instance — and the engine maps
//! the instance's protocol names onto the shard's free pool, preserving
//! order. Released names return to the pool, so a name can serve many
//! clients over the run while never being live twice; the chronological
//! [`LedgerEvent`] stream is the auditable record the service oracles judge.

use crate::config::{epoch_seed, ServiceConfig, ServiceError};
use opr_exec::RunPool;
use opr_metrics::{
    labeled, Counter, EpochSummary, Gauge, Histogram, MetricsRegistry, SharedFlightRecorder,
};
use opr_obs::SharedSpanLog;
use opr_types::{NewName, OriginalId, RenamingError, RenamingOutcome};
use opr_workload::{ClientId, RenamingRun, RunArena};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// A client-facing operation submitted to the admission queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceOp {
    /// Acquire a service name, presenting an original id to the protocol.
    Acquire {
        /// The requesting client.
        client: ClientId,
        /// The original id it presents.
        original: OriginalId,
    },
    /// Release the name the client currently holds (or cancel its queued
    /// acquire).
    Release {
        /// The releasing client.
        client: ClientId,
    },
}

impl ServiceOp {
    /// The client behind the operation.
    pub(crate) fn client(&self) -> ClientId {
        match *self {
            ServiceOp::Acquire { client, .. } | ServiceOp::Release { client } => client,
        }
    }
}

/// Admission-side counters: what the queue accepted, rejected and cancelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AdmissionStats {
    /// Acquires that entered the queue.
    pub accepted_acquires: u64,
    /// Releases that entered the queue.
    pub accepted_releases: u64,
    /// Operations bounced because the queue was full (backpressure).
    pub rejected_queue_full: u64,
    /// Acquires dropped at drain time because the client already holds a
    /// grant or already has an acquire pending.
    pub rejected_duplicate: u64,
    /// Acquires dropped at drain time because their original id lies
    /// within the epoch capacity of `u64::MAX`: the instance's filler ids,
    /// which sit above every real id, would not fit in a `u64`.
    pub rejected_id_overflow: u64,
    /// Releases dropped at drain time because the client neither holds a
    /// grant nor has an acquire pending.
    pub rejected_unknown_release: u64,
    /// Releases that arrived before the grant and cancelled the client's
    /// queued acquire instead of freeing a name.
    pub cancelled_pending: u64,
}

/// One service-level name grant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grant {
    /// The epoch the grant was published in.
    pub epoch: u64,
    /// The shard that served it.
    pub shard: usize,
    /// The granted client.
    pub client: ClientId,
    /// The original id the client presented.
    pub original: OriginalId,
    /// The raw protocol output before pool compaction — what a direct
    /// `RenamingRun` on the same instance decides.
    pub protocol_name: NewName,
    /// The service-level name: the k-th smallest protocol name of the epoch
    /// maps to the k-th smallest free name of the shard, so protocol order
    /// is preserved while gaps are compacted onto the recycled pool.
    pub name: u64,
}

/// One entry of the chronological service ledger.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LedgerEvent {
    /// A name went live.
    Grant(Grant),
    /// A name returned to its shard's free pool.
    Release {
        /// The epoch the release was processed in.
        epoch: u64,
        /// The shard the name belongs to.
        shard: usize,
        /// The client that held it.
        client: ClientId,
        /// The freed service-level name.
        name: u64,
    },
}

/// Per-epoch outcome counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EpochStats {
    /// The epoch index.
    pub epoch: u64,
    /// Names granted this epoch.
    pub grants: u64,
    /// Names released this epoch.
    pub releases: u64,
    /// Protocol instances executed (one per non-empty shard).
    pub protocol_runs: u64,
    /// Shards skipped because they had no admitted demand (empty-epoch
    /// skip: no protocol instance is spent on an idle shard).
    pub skipped_shards: u64,
    /// Requests pushed back to the head of their shard's backlog — batch
    /// collisions on the same original id, or (defensively) an instance
    /// that left a request undecided.
    pub deferred: u64,
    /// Grants of a name that had already been granted (and released) in an
    /// earlier epoch — the cross-epoch recycling the free pool exists for.
    pub recycled: u64,
}

/// A shard: a disjoint name range with its own free pool, backlog of
/// admitted acquires, and live-grant table.
struct Shard {
    /// Names currently free, ascending.
    free: BTreeSet<u64>,
    /// Admitted acquires waiting for an epoch slot, FIFO.
    backlog: VecDeque<(ClientId, OriginalId)>,
    /// Clients present in `backlog` (duplicate-acquire detection).
    backlog_clients: BTreeSet<ClientId>,
    /// Live grants: client → (original, service name).
    live: BTreeMap<ClientId, (OriginalId, u64)>,
    /// Every name granted at least once — a grant whose insert here fails is
    /// a cross-epoch recycle.
    granted_ever: BTreeSet<u64>,
    /// This epoch's batch, taken off the backlog; emptied by the grants.
    batch: Vec<(ClientId, OriginalId)>,
    /// What the shard's last protocol instance left for the next one, its
    /// id list included. Lent to the instance's pool task; `None` before the
    /// shard's first instance and after one that panicked, so a panic never
    /// leaves a half-reset arena behind — the next instance starts from a
    /// new one.
    arena: Option<RunArena>,
}

impl Shard {
    fn new(range: (u64, u64)) -> Self {
        Shard {
            free: (range.0..=range.1).collect(),
            backlog: VecDeque::new(),
            backlog_clients: BTreeSet::new(),
            live: BTreeMap::new(),
            granted_ever: BTreeSet::new(),
            batch: Vec::new(),
            arena: None,
        }
    }
}

/// Pre-created metric handles for the engine's hot paths (wall plane; the
/// deterministic plane is `ServiceReport::metrics_snapshot`).
struct EngineMetrics {
    /// The registry itself, passed down into protocol instances so their
    /// round histograms land in the same store.
    registry: MetricsRegistry,
    queue_depth: Gauge,
    backlog: Gauge,
    live: Gauge,
    free_names: Vec<Gauge>,
    shard_grants: Vec<Counter>,
    grants: Counter,
    releases: Counter,
    recycled: Counter,
    deferred: Counter,
    epochs: Counter,
    protocol_runs: Counter,
    epoch_latency_us: Histogram,
    epoch_grants: Histogram,
    protocol_ns: Histogram,
}

impl EngineMetrics {
    fn new(registry: &MetricsRegistry, shards: usize) -> Self {
        EngineMetrics {
            registry: registry.clone(),
            queue_depth: registry.gauge("opr_service_queue_depth"),
            backlog: registry.gauge("opr_service_backlog"),
            live: registry.gauge("opr_service_live_names"),
            free_names: (0..shards)
                .map(|k| {
                    registry.gauge(&labeled(
                        "opr_service_free_names",
                        &[("shard", &k.to_string())],
                    ))
                })
                .collect(),
            shard_grants: (0..shards)
                .map(|k| {
                    registry.counter(&labeled(
                        "opr_service_grants_total",
                        &[("shard", &k.to_string())],
                    ))
                })
                .collect(),
            grants: registry.counter("opr_service_grants_total"),
            releases: registry.counter("opr_service_releases_total"),
            recycled: registry.counter("opr_service_recycled_total"),
            deferred: registry.counter("opr_service_deferred_total"),
            epochs: registry.counter("opr_service_epochs_total"),
            protocol_runs: registry.counter("opr_service_protocol_runs_total"),
            epoch_latency_us: registry.histogram("opr_service_epoch_latency_us"),
            epoch_grants: registry.histogram("opr_service_epoch_grants"),
            protocol_ns: registry.histogram("opr_service_protocol_ns"),
        }
    }
}

/// The long-running service engine. Drive it by [`ServiceEngine::submit`]ing
/// operations and calling [`ServiceEngine::run_epoch`]; read the results off
/// [`ServiceEngine::ledger`].
pub struct ServiceEngine {
    cfg: ServiceConfig,
    shards: Vec<Shard>,
    /// The bounded admission queue, shared across shards.
    queue: VecDeque<ServiceOp>,
    admission: AdmissionStats,
    ledger: Vec<LedgerEvent>,
    epoch_stats: Vec<EpochStats>,
    epoch: u64,
    spans: Option<SharedSpanLog>,
    metrics: Option<EngineMetrics>,
    flight: Option<SharedFlightRecorder>,
}

impl ServiceEngine {
    /// Builds an engine with full free pools and an empty queue.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when the configuration is invalid.
    pub fn new(cfg: ServiceConfig) -> Result<Self, ServiceError> {
        cfg.validate()?;
        Ok(ServiceEngine {
            cfg,
            shards: (0..cfg.shards)
                .map(|s| Shard::new(cfg.shard_range(s)))
                .collect(),
            queue: VecDeque::new(),
            admission: AdmissionStats::default(),
            ledger: Vec::new(),
            epoch_stats: Vec::new(),
            epoch: 0,
            spans: None,
            metrics: None,
            flight: None,
        })
    }

    /// Attaches a wall-clock span log; the engine records per-epoch
    /// admission/grant spans and per-shard protocol spans (observability
    /// only, never part of the deterministic result).
    pub fn with_spans(mut self, spans: SharedSpanLog) -> Self {
        self.spans = Some(spans);
        self
    }

    /// Attaches a live metrics registry (wall plane): queue-depth/backlog
    /// gauges, per-epoch latency and grant histograms, per-shard grant
    /// counters and free-pool occupancy, cross-epoch recycle counts, and
    /// per-round histograms from the protocol instances themselves.
    /// Without this call the engine touches no atomics at all.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(EngineMetrics::new(registry, self.cfg.shards));
        self
    }

    /// Attaches a flight recorder; the engine pushes one [`EpochSummary`]
    /// per epoch so a later oracle violation or panic can dump the run-up.
    pub(crate) fn with_flight(mut self, flight: SharedFlightRecorder) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Offers an operation to the admission queue. Returns `false` (and
    /// counts backpressure) when the queue is at capacity; the caller owns
    /// the retry policy.
    pub fn submit(&mut self, op: ServiceOp) -> bool {
        if self.queue.len() >= self.cfg.queue_capacity {
            self.admission.rejected_queue_full += 1;
            return false;
        }
        match op {
            ServiceOp::Acquire { .. } => self.admission.accepted_acquires += 1,
            ServiceOp::Release { .. } => self.admission.accepted_releases += 1,
        }
        self.queue.push_back(op);
        if let Some(m) = &self.metrics {
            m.queue_depth.set(self.queue.len() as i64);
        }
        true
    }

    /// Runs one epoch: drains the admission queue into the shards, runs one
    /// protocol instance per non-empty shard (dispatched over `pool`), and
    /// publishes the grants. Returns the epoch's counters.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] when an instance fails — with an
    /// in-budget adversary this indicates a harness bug, so the epoch is not
    /// silently absorbed.
    ///
    /// # Panics
    ///
    /// Re-raises panics from protocol instances executed on the pool.
    pub fn run_epoch(&mut self, pool: &RunPool) -> Result<EpochStats, ServiceError> {
        let epoch = self.epoch;
        let mut stats = EpochStats {
            epoch,
            ..EpochStats::default()
        };
        let epoch_start = (self.metrics.is_some() || self.flight.is_some()).then(Instant::now);
        let queue_depth_at_start = self.queue.len();

        let admission_start = Instant::now();
        self.drain_queue(epoch, &mut stats);
        self.record_span("epoch admission", epoch, admission_start);

        let outcomes = self.run_shard_instances(pool, epoch, &mut stats, run_instance);

        let grant_start = Instant::now();
        for (shard_index, outcome) in outcomes {
            self.publish_grants(epoch, shard_index, &outcome?, &mut stats);
        }
        self.record_span("epoch grants", epoch, grant_start);

        self.observe_epoch(&stats, epoch_start, queue_depth_at_start);
        self.epoch_stats.push(stats);
        self.epoch += 1;
        Ok(stats)
    }

    /// Publishes the epoch's wall-plane observables: gauge refresh, counter
    /// and histogram updates, and the flight-recorder summary. A no-op when
    /// neither a registry nor a recorder is attached.
    fn observe_epoch(
        &mut self,
        stats: &EpochStats,
        epoch_start: Option<Instant>,
        queue_depth_at_start: usize,
    ) {
        if self.metrics.is_none() && self.flight.is_none() {
            return;
        }
        let latency_micros = epoch_start.map_or(0, |s| s.elapsed().as_micros() as u64);
        if let Some(m) = &self.metrics {
            m.epochs.inc();
            m.grants.add(stats.grants);
            m.releases.add(stats.releases);
            m.recycled.add(stats.recycled);
            m.deferred.add(stats.deferred);
            m.protocol_runs.add(stats.protocol_runs);
            m.epoch_grants.record(stats.grants);
            m.epoch_latency_us.record(latency_micros);
            m.queue_depth.set(self.queue.len() as i64);
            m.backlog.set(self.backlog_len() as i64);
            m.live.set(self.live_count() as i64);
            for (k, gauge) in m.free_names.iter().enumerate() {
                gauge.set(self.shards[k].free.len() as i64);
            }
        }
        if let Some(flight) = &self.flight {
            let free_names: usize = self.shards.iter().map(|s| s.free.len()).sum();
            flight
                .lock()
                .expect("flight recorder poisoned")
                .push(EpochSummary {
                    epoch: stats.epoch,
                    grants: stats.grants,
                    releases: stats.releases,
                    deferred: stats.deferred,
                    recycled: stats.recycled,
                    queue_depth: queue_depth_at_start as u64,
                    backlog: self.backlog_len() as u64,
                    free_names: free_names as u64,
                    live_names: self.live_count() as u64,
                    protocol_runs: stats.protocol_runs,
                    latency_micros,
                });
        }
    }

    /// Applies every queued operation to its shard's state.
    fn drain_queue(&mut self, epoch: u64, stats: &mut EpochStats) {
        while let Some(op) = self.queue.pop_front() {
            let shard_index = self.cfg.shard_of(op.client());
            let shard = &mut self.shards[shard_index];
            match op {
                ServiceOp::Acquire { client, original } => {
                    if shard.live.contains_key(&client) || shard.backlog_clients.contains(&client) {
                        self.admission.rejected_duplicate += 1;
                    } else if original.raw() > self.cfg.max_original() {
                        self.admission.rejected_id_overflow += 1;
                    } else {
                        shard.backlog.push_back((client, original));
                        shard.backlog_clients.insert(client);
                    }
                }
                ServiceOp::Release { client } => {
                    if let Some((_, name)) = shard.live.remove(&client) {
                        shard.free.insert(name);
                        self.ledger.push(LedgerEvent::Release {
                            epoch,
                            shard: shard_index,
                            client,
                            name,
                        });
                        stats.releases += 1;
                    } else if shard.backlog_clients.remove(&client) {
                        shard.backlog.retain(|&(c, _)| c != client);
                        self.admission.cancelled_pending += 1;
                    } else {
                        self.admission.rejected_unknown_release += 1;
                    }
                }
            }
        }
    }

    /// Forms one batch per shard and runs the non-empty ones as protocol
    /// instances on the pool, each by `run` in its shard's arena, which the
    /// task borrows ([`run_instance`]; a test substitutes one that fails).
    /// Returns each run shard's index with its instance's outcome, in shard
    /// order.
    fn run_shard_instances(
        &mut self,
        pool: &RunPool,
        epoch: u64,
        stats: &mut EpochStats,
        run: InstanceRunner,
    ) -> Vec<(usize, Result<RenamingOutcome, RenamingError>)> {
        for shard_index in 0..self.shards.len() {
            self.form_batch(shard_index, stats);
        }
        let cfg = &self.cfg;
        let spans = self.spans.as_ref();
        let registry = self.metrics.as_ref().map(|m| &m.registry);
        let protocol_ns = self.metrics.as_ref().map(|m| &m.protocol_ns);
        let mut tasks = Vec::new();
        for (shard_index, shard) in self.shards.iter_mut().enumerate() {
            if shard.batch.is_empty() {
                stats.skipped_shards += 1;
                continue;
            }
            let arena = shard.arena.get_or_insert_with(RunArena::default);
            let mut ids = arena.swap_ids(Vec::new());
            ids.extend(shard.batch.iter().map(|&(_, o)| o));
            tasks.push(move || {
                let start = Instant::now();
                let result = run(cfg, epoch, shard_index, arena, ids, registry);
                if let Some(hist) = protocol_ns {
                    hist.record(start.elapsed().as_nanos() as u64);
                }
                if let Some(log) = spans {
                    log.lock().expect("span log poisoned").record_detailed(
                        "epoch protocol",
                        epoch,
                        shard_index as u64,
                        start,
                    );
                }
                (shard_index, result)
            });
        }
        stats.protocol_runs = tasks.len() as u64;
        let mut outcomes = Vec::with_capacity(tasks.len());
        for (k, task) in pool.run_batch(tasks).into_iter().enumerate() {
            match task {
                Ok(outcome) => outcomes.push(outcome),
                // A panicking instance is a harness bug; surface it exactly
                // like `run_grid` does instead of absorbing it into a slot.
                // Its shard (the k-th that ran) keeps no instance state, so
                // no half-reset arena is ever reused.
                Err(panic) => {
                    if let Some(shard) = self
                        .shards
                        .iter_mut()
                        .filter(|shard| !shard.batch.is_empty())
                        .nth(k)
                    {
                        shard.arena = None;
                    }
                    std::panic::panic_any(panic.message)
                }
            }
        }
        outcomes
    }

    /// Fills the shard's batch with up to `min(backlog, epoch capacity,
    /// free pool)` requests off its backlog, FIFO, skipping (and
    /// re-queueing in order) requests whose original id already appears in
    /// the batch — a protocol instance needs distinct ids.
    fn form_batch(&mut self, shard_index: usize, stats: &mut EpochStats) {
        let shard = &mut self.shards[shard_index];
        let limit = self
            .cfg
            .epoch_capacity()
            .min(shard.free.len())
            .min(shard.backlog.len());
        let batch = &mut shard.batch;
        batch.clear();
        let mut deferred = VecDeque::new();
        while batch.len() < limit {
            let Some((client, original)) = shard.backlog.pop_front() else {
                break;
            };
            // A batch holds at most N ids: a scan is cheaper than a set.
            if batch.iter().all(|&(_, o)| o != original) {
                batch.push((client, original));
            } else {
                deferred.push_back((client, original));
                stats.deferred += 1;
            }
        }
        // Deferred collisions go back to the head, before the untouched
        // backlog tail, so overall FIFO order is preserved.
        for entry in deferred.into_iter().rev() {
            shard.backlog.push_front(entry);
        }
        // Batched clients leave the backlog set; they re-enter `live` at
        // grant time (or the backlog, if the instance leaves them undecided).
        for &(client, _) in batch.iter() {
            shard.backlog_clients.remove(&client);
        }
    }

    /// Maps an instance's protocol names onto the shard's free pool and
    /// publishes the grants: k-th smallest protocol name → k-th smallest
    /// free name. Order preservation of the instance makes the per-original
    /// order of both sides identical.
    fn publish_grants(
        &mut self,
        epoch: u64,
        shard_index: usize,
        outcome: &RenamingOutcome,
        stats: &mut EpochStats,
    ) {
        // Decided batch entries ordered by protocol name. Order preservation
        // means sorting by name and sorting by original agree; sorting by
        // the raw name keeps the compaction monotone even if an instance
        // (buggily) inverted a pair — the oracle then reports the inversion
        // on the protocol names rather than it being masked by the pool.
        let shard = &mut self.shards[shard_index];
        let mut decided: Vec<(ClientId, OriginalId, NewName)> =
            Vec::with_capacity(shard.batch.len());
        for (client, original) in shard.batch.drain(..) {
            match outcome.name_of(original) {
                Some(name) => decided.push((client, original, name)),
                None => {
                    // Defensive: an undecided correct slot would be a
                    // protocol bug; re-queue the request so demand is not
                    // silently lost, and let the grant-count gates notice.
                    shard.backlog.push_front((client, original));
                    shard.backlog_clients.insert(client);
                    stats.deferred += 1;
                }
            }
        }
        decided.sort_by_key(|&(_, _, name)| name);
        let names: Vec<u64> = shard.free.iter().take(decided.len()).copied().collect();
        let mut granted_here = 0u64;
        for ((client, original, protocol_name), name) in decided.into_iter().zip(names) {
            shard.free.remove(&name);
            shard.live.insert(client, (original, name));
            if !shard.granted_ever.insert(name) {
                stats.recycled += 1;
            }
            self.ledger.push(LedgerEvent::Grant(Grant {
                epoch,
                shard: shard_index,
                client,
                original,
                protocol_name,
                name,
            }));
            stats.grants += 1;
            granted_here += 1;
        }
        if let Some(m) = &self.metrics {
            m.shard_grants[shard_index].add(granted_here);
        }
    }

    fn record_span(&self, name: &'static str, index: u64, start: Instant) {
        if let Some(log) = &self.spans {
            log.lock()
                .expect("span log poisoned")
                .record_indexed(name, index, start);
        }
    }

    /// The configuration the engine runs.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The chronological grant/release ledger so far.
    pub fn ledger(&self) -> &[LedgerEvent] {
        &self.ledger
    }

    /// Admission counters so far.
    pub fn admission(&self) -> AdmissionStats {
        self.admission
    }

    /// Per-epoch counters so far.
    pub fn epoch_stats(&self) -> &[EpochStats] {
        &self.epoch_stats
    }

    /// Epochs executed so far.
    pub(crate) fn epochs_run(&self) -> u64 {
        self.epoch
    }

    /// Currently live grants across all shards.
    pub(crate) fn live_count(&self) -> usize {
        self.shards.iter().map(|s| s.live.len()).sum()
    }

    /// Requests admitted but not yet granted, across all shards.
    pub(crate) fn backlog_len(&self) -> usize {
        self.shards.iter().map(|s| s.backlog.len()).sum()
    }
}

/// How a shard's instance runs: [`run_instance`].
type InstanceRunner = fn(
    &ServiceConfig,
    u64,
    usize,
    &mut RunArena,
    Vec<OriginalId>,
    Option<&MetricsRegistry>,
) -> Result<RenamingOutcome, RenamingError>;

/// Runs one shard-epoch protocol instance in the shard's arena: the batch's
/// original ids (`ids`, the arena's own list) plus filler ids above them
/// (so order preservation keeps every filler name above every real name),
/// under the configured adversary. The list goes back to the arena.
fn run_instance(
    cfg: &ServiceConfig,
    epoch: u64,
    shard: usize,
    arena: &mut RunArena,
    mut ids: Vec<OriginalId>,
    metrics: Option<&MetricsRegistry>,
) -> Result<RenamingOutcome, RenamingError> {
    let max_real = ids.iter().map(|o| o.raw()).max().unwrap_or(0);
    let fillers = cfg.epoch_capacity() - ids.len();
    // Admission refuses every original above `ServiceConfig::max_original`,
    // so the largest filler, `max_real + fillers`, fits.
    ids.extend((1..=fillers as u64).map(|i| OriginalId::new(max_real + i)));
    let mut run = RenamingRun::builder(cfg.epoch_cfg, cfg.regime)
        .correct_ids(ids)
        .adversary(cfg.adversary, cfg.byzantine)
        .seed(epoch_seed(cfg.seed, epoch, shard));
    if let Some(registry) = metrics {
        run = run.metrics(registry.clone());
    }
    run.run_in(arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_adversary::AdversarySpec;
    use opr_transport::BackendKind;
    use opr_types::{Regime, SystemConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn engine() -> ServiceEngine {
        ServiceEngine::new(ServiceConfig {
            shards: 2,
            epoch_cfg: SystemConfig::new(7, 2).unwrap(),
            regime: Regime::LogTime,
            byzantine: 0,
            adversary: AdversarySpec::Silent,
            backend: BackendKind::Sim,
            queue_capacity: 64,
            shard_span: 64,
            seed: 7,
        })
        .unwrap()
    }

    /// Fourteen new clients, spread over both shards by the client hash.
    fn submit_epoch(engine: &mut ServiceEngine, epoch: u64) {
        for i in 0..14 {
            let client = ClientId::new(epoch * 14 + i);
            let original = OriginalId::new(1 + (client.raw() * 7_919) % 100_003);
            assert!(engine.submit(ServiceOp::Acquire { client, original }));
        }
    }

    /// An instance that panics part-way takes its shard's arena with it:
    /// the shard keeps no half-reset arena, its next instance runs in a new
    /// one, and that instance decides as a direct run on the same inputs.
    #[test]
    fn a_panicking_instance_leaves_no_arena_in_its_shard() {
        let pool = RunPool::serial();
        let mut engine = engine();
        submit_epoch(&mut engine, 0);
        engine.run_epoch(&pool).unwrap();
        assert!(engine.shards.iter().all(|shard| shard.arena.is_some()));

        submit_epoch(&mut engine, 1);
        let mut stats = EpochStats::default();
        engine.drain_queue(engine.epoch, &mut stats);
        let fails_in_shard_1: InstanceRunner = |cfg, epoch, shard, arena, ids, metrics| {
            if shard == 1 {
                arena.swap_ids(Vec::new());
                panic!("injected: instance half set up");
            }
            run_instance(cfg, epoch, shard, arena, ids, metrics)
        };
        let epoch = engine.epoch;
        let cut = catch_unwind(AssertUnwindSafe(|| {
            engine.run_shard_instances(&pool, epoch, &mut stats, fails_in_shard_1)
        }));
        assert!(cut.is_err(), "the injected panic is re-raised");
        assert!(engine.shards[0].arena.is_some(), "shard 0 ran before it");
        assert!(engine.shards[1].arena.is_none(), "no half-reset arena");

        submit_epoch(&mut engine, 2);
        let epoch = engine.epoch;
        let stats = engine.run_epoch(&pool).unwrap();
        assert!(stats.grants > 0);
        let cfg = *engine.config();
        for shard in 0..cfg.shards {
            let grants: Vec<Grant> = engine
                .ledger()
                .iter()
                .filter_map(|event| match event {
                    LedgerEvent::Grant(g) if g.epoch == epoch && g.shard == shard => Some(*g),
                    _ => None,
                })
                .collect();
            let mut ids: Vec<OriginalId> = grants.iter().map(|g| g.original).collect();
            let max_real = ids.iter().map(|o| o.raw()).max().unwrap();
            let fillers = cfg.epoch_capacity() - ids.len();
            ids.extend((1..=fillers as u64).map(|i| OriginalId::new(max_real + i)));
            let direct = RenamingRun::builder(cfg.epoch_cfg, cfg.regime)
                .correct_ids(ids)
                .seed(epoch_seed(cfg.seed, epoch, shard))
                .run()
                .unwrap();
            for grant in grants {
                assert_eq!(
                    direct.outcome.name_of(grant.original),
                    Some(grant.protocol_name),
                    "shard {shard}"
                );
            }
        }
    }
}
