//! The closed op loops: input generation, one block of ops, and the
//! correctness checks that run outside every timed region.
//!
//! Closed loop, one driver thread, no injected message delay: the lock-step
//! simulator delivers instantly, so an op's latency is processor time only.
//! A service op is one epoch — the driver submits the epoch's due releases
//! and its acquire arrivals, then calls `run_epoch`; a run op is one
//! `RenamingRun::run()`. The program receives only generated inputs: the
//! arrival schedule, hold times and id sets all derive from `--seed` before
//! the first timed op.

use crate::alloc;
use crate::spec::{RunShape, ServiceShape, Shape, WorkloadSpec};
use crate::trace::Tracer;
use opr_exec::RunPool;
use opr_service::{judge_ledger, LedgerEvent, ServiceConfig, ServiceEngine, ServiceOp};
use opr_transport::BackendKind;
use opr_types::{OriginalId, Regime, SystemConfig};
use opr_workload::{Arrival, ClientId, IdDistribution, RenamingRun, ServiceWorkload};
use std::time::Instant;

pub struct ServiceInputs {
    pub cfg: ServiceConfig,
    pub load: ServiceWorkload,
    /// `arrivals[e]` are the acquires of epoch `e`, in arrival order.
    pub arrivals: Vec<Vec<Arrival>>,
}

pub struct RunInputs {
    pub cfg: SystemConfig,
    pub regime: Regime,
    pub ids: Vec<OriginalId>,
    /// Op `i` runs with seed `base_seed + i`.
    pub base_seed: u64,
}

pub enum Inputs {
    Service(ServiceInputs),
    Run(RunInputs),
}

pub fn service_inputs(shape: &ServiceShape, seed: u64, epochs: usize) -> ServiceInputs {
    let load = ServiceWorkload {
        clients: shape.clients,
        epochs: epochs as u64,
        arrivals_per_epoch: shape.arrivals_per_epoch,
        max_hold: shape.max_hold,
        seed,
    };
    let cfg = ServiceConfig {
        shards: shape.shards,
        epoch_cfg: SystemConfig::new(shape.n, shape.t).expect("workload shapes are valid"),
        regime: shape.regime,
        byzantine: shape.byzantine,
        adversary: shape.adversary,
        backend: BackendKind::Sim,
        queue_capacity: shape.queue_capacity,
        shard_span: shape.shard_span,
        seed,
    };
    ServiceInputs {
        cfg,
        load,
        arrivals: (0..epochs as u64).map(|e| load.arrivals(e)).collect(),
    }
}

fn run_inputs(shape: &RunShape, seed: u64) -> RunInputs {
    RunInputs {
        cfg: SystemConfig::new(shape.n, shape.t).expect("workload shapes are valid"),
        regime: shape.regime,
        ids: IdDistribution::SparseRandom.generate(shape.n, seed),
        base_seed: seed,
    }
}

/// Generates everything `ops` ops of `spec` consume, from `seed` alone.
pub fn generate(spec: &WorkloadSpec, seed: u64, ops: usize) -> Inputs {
    match &spec.shape {
        Shape::Service(shape) => Inputs::Service(service_inputs(shape, seed, ops)),
        Shape::Run(shape) => Inputs::Run(run_inputs(shape, seed)),
    }
}

/// FNV-1a over 64-bit words, little-endian.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Exact service-side counts of one block; they repeat for a seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounts {
    pub grants: u64,
    pub releases: u64,
    pub recycled: u64,
    pub deferred: u64,
    pub protocol_runs: u64,
    pub accepted_acquires: u64,
    pub rejected_queue_full: u64,
    pub rejected_duplicate: u64,
    pub submits: u64,
}

/// What one block of ops produced.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Wall time of every op, nanoseconds.
    pub op_ns: Vec<u64>,
    /// Names assigned: ledger grants, or decided correct processes.
    pub names: u64,
    pub failed: u64,
    /// FNV-1a of the ledger and admission counters / of every decision.
    pub digest: u64,
    pub service: ServiceCounts,
    /// Heap allocations and bytes requested inside the ops (zero unless the
    /// counting allocator is installed).
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// `judge_ledger` cost over this many ledger events (service workloads).
    pub judge_ns: u64,
    pub ledger_events: u64,
}

impl Block {
    pub fn op_seconds(&self) -> f64 {
        self.op_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Runs the first `ops` ops of `inputs` on fresh state. `dress` lets the
/// traced pass attach the program's own span log or registry to the engine
/// it is handed; the timed pass passes the identity.
pub fn run_block<T: Tracer>(
    inputs: &Inputs,
    pool: &RunPool,
    ops: usize,
    tracer: &mut T,
    dress: &dyn Fn(ServiceEngine) -> ServiceEngine,
) -> Block {
    match inputs {
        Inputs::Service(inputs) => service_block(inputs, pool, ops, tracer, dress),
        Inputs::Run(inputs) => renaming_block(inputs, ops, tracer),
    }
}

pub fn undressed(engine: ServiceEngine) -> ServiceEngine {
    engine
}

fn service_block<T: Tracer>(
    inputs: &ServiceInputs,
    pool: &RunPool,
    ops: usize,
    tracer: &mut T,
    dress: &dyn Fn(ServiceEngine) -> ServiceEngine,
) -> Block {
    assert!(ops <= inputs.arrivals.len(), "inputs cover the block");
    let mut engine = dress(ServiceEngine::new(inputs.cfg).expect("workload shapes are valid"));
    // Releases are policy, not schedule: a client granted in epoch g
    // releases at the start of epoch g + hold(client), so they are
    // materialized from observed grants between ops, outside the op time.
    let mut due: Vec<Vec<ClientId>> = vec![Vec::new(); ops];
    let mut block = Block {
        op_ns: Vec::with_capacity(ops),
        ..Block::default()
    };
    let mut ledger_seen = 0usize;
    for epoch in 0..ops {
        let releases = std::mem::take(&mut due[epoch]);
        let arrivals = &inputs.arrivals[epoch];
        let op = epoch as u32;

        let allocs_before = alloc::snapshot();
        let start = Instant::now();
        let op_span = tracer.begin("op", op);
        let span = tracer.begin("service.submit", op);
        for &client in &releases {
            engine.submit(ServiceOp::Release { client });
        }
        for arrival in arrivals {
            engine.submit(ServiceOp::Acquire {
                client: arrival.client,
                original: arrival.original,
            });
        }
        tracer.end(span);
        let span = tracer.begin("service.run_epoch", op);
        let result = engine.run_epoch(pool);
        tracer.end(span);
        tracer.end(op_span);
        block.op_ns.push(start.elapsed().as_nanos() as u64);
        let allocs_after = alloc::snapshot();

        block.allocs += allocs_after.0 - allocs_before.0;
        block.alloc_bytes += allocs_after.1 - allocs_before.1;
        block.service.submits += (releases.len() + arrivals.len()) as u64;
        if result.is_err() {
            block.failed += 1;
        }
        for event in &engine.ledger()[ledger_seen..] {
            if let LedgerEvent::Grant(grant) = event {
                let release_at = epoch as u64 + inputs.load.hold_epochs(grant.client);
                // Releases due past the block are dropped: the block ends
                // with those names still live.
                if let Some(slot) = due.get_mut(release_at as usize) {
                    slot.push(grant.client);
                }
            }
        }
        ledger_seen = engine.ledger().len();
    }

    let judge_start = Instant::now();
    let clean = judge_ledger(engine.config(), engine.ledger()).is_empty();
    block.judge_ns = judge_start.elapsed().as_nanos() as u64;
    block.ledger_events = engine.ledger().len() as u64;
    if !clean {
        // The oracles judge the ledger as a whole; a dirty one taints every
        // op that wrote to it.
        block.failed = ops as u64;
    }

    let mut digest = Fnv::new();
    for event in engine.ledger() {
        match *event {
            LedgerEvent::Grant(g) => {
                for word in [
                    1,
                    g.epoch,
                    g.shard as u64,
                    g.client.raw(),
                    g.original.raw(),
                    g.protocol_name.raw() as u64,
                    g.name,
                ] {
                    digest.word(word);
                }
            }
            LedgerEvent::Release {
                epoch,
                shard,
                client,
                name,
            } => {
                for word in [2, epoch, shard as u64, client.raw(), name] {
                    digest.word(word);
                }
            }
        }
    }
    let admission = engine.admission();
    for word in [
        admission.accepted_acquires,
        admission.accepted_releases,
        admission.rejected_queue_full,
        admission.rejected_duplicate,
        admission.rejected_unknown_release,
        admission.cancelled_pending,
    ] {
        digest.word(word);
    }
    block.digest = digest.finish();

    for stats in engine.epoch_stats() {
        block.service.grants += stats.grants;
        block.service.releases += stats.releases;
        block.service.recycled += stats.recycled;
        block.service.deferred += stats.deferred;
        block.service.protocol_runs += stats.protocol_runs;
    }
    block.service.accepted_acquires = admission.accepted_acquires;
    block.service.rejected_queue_full = admission.rejected_queue_full;
    block.service.rejected_duplicate = admission.rejected_duplicate;
    block.names = block.service.grants;
    block
}

fn renaming_block<T: Tracer>(inputs: &RunInputs, ops: usize, tracer: &mut T) -> Block {
    let bound = inputs.cfg.namespace_bound(inputs.regime);
    let steps = inputs.cfg.total_steps(inputs.regime);
    // Builders are assembled before the first op: the op is `run()` alone.
    let runs: Vec<RenamingRun> = (0..ops as u64)
        .map(|i| {
            RenamingRun::builder(inputs.cfg, inputs.regime)
                .correct_ids(inputs.ids.iter().copied())
                .seed(inputs.base_seed.wrapping_add(i))
                .backend(BackendKind::Sim)
        })
        .collect();
    let mut block = Block {
        op_ns: Vec::with_capacity(ops),
        ..Block::default()
    };
    let mut digest = Fnv::new();
    for (i, run) in runs.into_iter().enumerate() {
        let op = i as u32;
        let allocs_before = alloc::snapshot();
        let start = Instant::now();
        let op_span = tracer.begin("op", op);
        let span = tracer.begin("workload.run", op);
        let result = run.run();
        tracer.end(span);
        tracer.end(op_span);
        block.op_ns.push(start.elapsed().as_nanos() as u64);
        let allocs_after = alloc::snapshot();
        block.allocs += allocs_after.0 - allocs_before.0;
        block.alloc_bytes += allocs_after.1 - allocs_before.1;

        let Ok(output) = result else {
            block.failed += 1;
            continue;
        };
        let decided = output
            .outcome
            .decisions()
            .values()
            .filter(|name| name.is_some())
            .count();
        let ok = output.outcome.verify(bound).is_empty()
            && output.stats.rounds == steps
            && decided == inputs.ids.len();
        if !ok {
            block.failed += 1;
        }
        for (id, name) in output.outcome.decisions() {
            digest.word(id.raw());
            digest.word(name.map_or(u64::MAX, |n| n.raw() as u64));
        }
        digest.word(u64::from(output.stats.rounds));
        digest.word(output.stats.messages);
        digest.word(output.stats.bits);
        block.names += decided as u64;
    }
    block.digest = digest.finish();
    block
}
