//! What the benchmark runs and what it reports: the four workloads (names
//! are fixed — later issues cite them) and the metric tables. Everything
//! here is a constant committed with the benchmark, the same on every
//! commit; `BENCHMARK.json` lists the same names and a unit test keeps the
//! two in step.

use opr_adversary::AdversarySpec;
use opr_types::Regime;

/// A `ServiceEngine` driven epoch by epoch; one op is one epoch.
#[derive(Clone, Copy, Debug)]
pub struct ServiceShape {
    pub n: usize,
    pub t: usize,
    pub regime: Regime,
    pub shards: usize,
    pub byzantine: usize,
    pub adversary: AdversarySpec,
    pub jobs: usize,
    pub clients: u64,
    pub arrivals_per_epoch: usize,
    pub max_hold: u64,
    pub queue_capacity: usize,
    pub shard_span: u64,
}

/// Direct fault-free `RenamingRun`s; one op is one `run()`.
#[derive(Clone, Copy, Debug)]
pub struct RunShape {
    pub n: usize,
    pub t: usize,
    pub regime: Regime,
}

#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Service(ServiceShape),
    Run(RunShape),
}

#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
    pub shape: Shape,
    /// Ops per block. A timed pass is blocks of this many ops, each on a
    /// fresh engine and the same inputs, so per-block counts and digests
    /// repeat exactly however many blocks fit into `--seconds`. Sized for
    /// 0.5–1 s a block: the reference container drifts between a faster and
    /// a slower state every few seconds, and a median over blocks shorter
    /// than those phases lands in the state that lasted longest, not between.
    pub block_ops: usize,
    /// Ops of the warm-up block that closes every set-up (sized for ~1 s on
    /// the 2-core reference container, so `setup_s` repeats).
    pub warmup_ops: usize,
    /// Block size under `--quick` (correctness only, never valid for numbers).
    pub quick_ops: usize,
}

impl WorkloadSpec {
    /// Worker threads the workload's `RunPool` uses (the driver thread
    /// blocks while they run).
    pub fn jobs(&self) -> usize {
        match self.shape {
            Shape::Service(s) => s.jobs,
            Shape::Run(_) => 1,
        }
    }
}

pub const SVC_N7_STEADY: WorkloadSpec = WorkloadSpec {
    name: "svc-n7-steady",
    why: "Toy N=7 epochs, fresh clients: per-instance set-up, allocation and the engine dominate; allocs/name target lives here",
    shape: Shape::Service(ServiceShape {
        n: 7,
        t: 2,
        regime: Regime::LogTime,
        shards: 4,
        byzantine: 0,
        adversary: AdversarySpec::Silent,
        jobs: 1,
        clients: 1_000_000,
        arrivals_per_epoch: 28,
        max_hold: 2,
        queue_capacity: 72,
        shard_span: 64,
    }),
    block_ops: 800,
    warmup_ops: 1_500,
    quick_ops: 200,
};

pub const SVC_N7_CHURN: WorkloadSpec = WorkloadSpec {
    name: "svc-n7-churn",
    why: "2-step instances, 160 returning clients at 2x capacity: releases, rejections, backlog and recycled grants dominate",
    shape: Shape::Service(ServiceShape {
        n: 7,
        t: 1,
        regime: Regime::TwoStep,
        shards: 4,
        byzantine: 1,
        adversary: AdversarySpec::FakeFlood,
        jobs: 1,
        clients: 160,
        arrivals_per_epoch: 56,
        max_hold: 3,
        queue_capacity: 64,
        shard_span: 64,
    }),
    block_ops: 5_000,
    warmup_ops: 10_000,
    quick_ops: 1_000,
};

pub const RUN_N64_ALG1: WorkloadSpec = WorkloadSpec {
    name: "run-n64-alg1",
    why: "Fault-free Alg1 at N=64, t=21: 22 steps, 18 of them voting; opr-core ranks and opr-aa do the work",
    shape: Shape::Run(RunShape {
        n: 64,
        t: 21,
        regime: Regime::LogTime,
    }),
    block_ops: 4,
    warmup_ops: 4,
    quick_ops: 1,
};

pub const SVC_N32_FORGE_PAR: WorkloadSpec = WorkloadSpec {
    name: "svc-n32-forge-par",
    why: "N=32 epochs under 10 IdForge processes, 2 shards on 2 pool workers: hostile vectors, an epoch waits for the slower shard",
    shape: Shape::Service(ServiceShape {
        n: 32,
        t: 10,
        regime: Regime::LogTime,
        shards: 2,
        byzantine: 10,
        adversary: AdversarySpec::IdForge,
        jobs: 2,
        clients: 1_000_000,
        arrivals_per_epoch: 44,
        max_hold: 2,
        queue_capacity: 120,
        shard_span: 256,
    }),
    block_ops: 10,
    warmup_ops: 14,
    quick_ops: 3,
};

pub const WORKLOADS: [WorkloadSpec; 4] =
    [SVC_N7_STEADY, SVC_N7_CHURN, RUN_N64_ALG1, SVC_N32_FORGE_PAR];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
    /// Per-layer only: a count that must repeat exactly for a seed, so any
    /// drift is a behaviour change, not noise (`--compare` fails on it).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; reported for every workload by the timed
/// pass (`allocs_per_name` by a counting child process).
///
/// The bounds come from calibration on the shared-host 2-core reference
/// container (see README, "Calibration"): between runs minutes apart the
/// machine alone moves every timing by 10–20 %, and a bound under the
/// benchmark's own spread would reject the benchmark, so timings and the
/// (input-dependent, allocator-chaotic) peak RSS sit at the cap the driver
/// contract allows. The allocation count is exact and keeps a tight bound.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("names_per_sec", "names/s", Higher, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("op_ms_p90", "ms", Lower, 0.25),
    e2e("allocs_per_name", "allocs/name", Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers (layer = crate); reported by the traced pass.
pub const PER_LAYER: [MetricSpec; 54] = [
    layer("service.submit.ns", "ns", Lower),
    layer("service.run_epoch.ms_p50", "ms", Lower),
    layer("service.run_epoch.ms_p99", "ms", Lower),
    layer("service.engine_self.us_per_epoch", "us", Lower),
    layer("service.engine_self.share", "ratio", Lower),
    layer("service.judge_ledger.us_per_kevent", "us", Lower),
    exact("service.grants", "count", Higher),
    exact("service.releases", "count", Higher),
    exact("service.recycled", "count", Higher),
    exact("service.deferred", "count", Lower),
    exact("service.rejected_queue_full", "count", Lower),
    exact("service.rejected_duplicate", "count", Lower),
    exact("service.protocol_runs", "count", Lower),
    exact("service.grant_ratio", "ratio", Higher),
    layer("workload.arrivals.ns_per_arrival", "ns", Lower),
    layer("workload.run_n7.us", "us", Lower),
    layer("workload.run_n16.ms", "ms", Lower),
    layer("workload.run_n32.ms", "ms", Lower),
    layer("workload.run_n64.ms", "ms", Lower),
    layer("workload.run_overhead.us", "us", Lower),
    layer("core.alg1.send.ms", "ms", Lower),
    layer("core.alg1.select.ms", "ms", Lower),
    layer("core.alg1.vote.ms", "ms", Lower),
    layer("core.alg1.vote_share", "ratio", Lower),
    layer("core.alg1_n7.send.us", "us", Lower),
    layer("core.alg1_n7.select.us", "us", Lower),
    layer("core.alg1_n7.vote.us", "us", Lower),
    layer("core.alg1_n7.vote_share", "ratio", Lower),
    layer("core.ranks.from_wire.ns_per_entry", "ns", Lower),
    layer("core.ranks.check_valid.ns_per_entry", "ns", Lower),
    layer("core.ranks.approximate.us", "us", Lower),
    layer("core.two_step.run_ms", "ms", Lower),
    layer("core.alg1_const.run_ms", "ms", Lower),
    layer("aa.reduce.ns", "ns", Lower),
    layer("rbcast.flood.step_us", "us", Lower),
    layer("rbcast.flood.allocs_per_step", "allocs", Lower),
    layer("sim.step.us_per_round", "us", Lower),
    layer("sim.network_new.us", "us", Lower),
    exact("sim.msgs_per_name.n64", "msgs/name", Lower),
    exact("sim.wire_bits_per_name.n64", "bits/name", Lower),
    exact("sim.msgs_per_name.n32_forge", "msgs/name", Lower),
    exact("sim.wire_bits_per_name.n32_forge", "bits/name", Lower),
    layer("transport.sim.round_us", "us", Lower),
    layer("transport.pooled.round_us", "us", Lower),
    layer("transport.pooled_vs_sim", "ratio", Lower),
    layer("exec.run_batch.us_per_task", "us", Lower),
    layer("exec.parallel_efficiency", "ratio", Higher),
    layer("adversary.forge_cost_ratio", "ratio", Lower),
    layer("obs.recorder.overhead_ratio", "ratio", Lower),
    layer("metrics.registry.overhead_ratio", "ratio", Lower),
    layer("metrics.snapshot.us", "us", Lower),
    layer("chaos.campaign.runs_per_sec", "runs/s", Higher),
    layer("alloc.bytes_per_name", "bytes/name", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// `--seconds` when none is given (also `run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 20;
/// A timed pass never reports fewer blocks than this, whatever `--seconds`.
pub const MIN_BLOCKS: usize = 3;
/// Set-ups per timed pass; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
