//! Per-layer probes: timings and exact counts taken from the benchmark's own
//! code around calls into each crate's public functions (layer = crate).
//!
//! Every probe runs on fixed shapes, independent of `--workload`, so a
//! traced pass of any workload reports the whole table; the service-side
//! metrics of the workload itself come from `traced.rs`. Each probe checks
//! its outputs, outside its timed region, and reports a failed check.

use crate::alloc;
use crate::ops::{run_block, service_inputs, undressed, Inputs};
use crate::spec::{Shape, SVC_N32_FORGE_PAR, SVC_N7_STEADY};
use crate::stats::median;
use crate::trace::{Off, Tracer};
use opr_aa::{reduce, OrderedMultiset};
use opr_adversary::AdversarySpec;
use opr_chaos::engine::{run_campaign, BackendChoice, CampaignConfig};
use opr_chaos::{standard_suite, BudgetRegime};
use opr_core::probe::shared_probe;
use opr_core::ranks::approximate;
use opr_core::{run_alg1, Alg1Msg, Alg1Options, OrderPreservingRenaming, RankVector};
use opr_exec::RunPool;
use opr_metrics::MetricsRegistry;
use opr_rbcast::{EchoReadyFlood, FloodMsg, IdInterner, IdSlotSet};
use opr_sim::{Actor, Inbox, Network, Outbox, Sealed, Topology};
use opr_transport::{BackendKind, Job, PooledBackend, Substrate};
use opr_types::{
    LinkId, OriginalId, ProcessIndex, Rank, Regime, RenamingOutcome, Round, SystemConfig,
};
use opr_workload::{IdDistribution, RenamingRun, RunOutput};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// What the probes measured, by metric name, and how their checks went.
#[derive(Default)]
pub struct Probes {
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: u64,
    pub failed_checks: u64,
}

impl Probes {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.checks += 1;
        if !ok {
            self.failed_checks += 1;
            eprintln!("probe check failed: {what}");
        }
    }
}

/// Median seconds per call of `f` over `reps` calls, after one unmeasured
/// call that fills caches and finishes lazy set-up.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Like [`time_median`] for calls too short for one clock read each: every
/// sample times `inner` back-to-back calls.
fn time_median_batched(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    time_median(reps, || {
        for _ in 0..inner {
            f();
        }
    }) / inner as f64
}

fn config(n: usize, t: usize) -> SystemConfig {
    SystemConfig::new(n, t).expect("probe shapes are valid")
}

fn sparse_ids(count: usize, seed: u64) -> Vec<OriginalId> {
    IdDistribution::SparseRandom.generate(count, seed)
}

fn renaming_run(
    cfg: SystemConfig,
    regime: Regime,
    ids: &[OriginalId],
    adversary: AdversarySpec,
    faulty: usize,
    seed: u64,
) -> RenamingRun {
    RenamingRun::builder(cfg, regime)
        .correct_ids(ids.iter().copied())
        .adversary(adversary, faulty)
        .seed(seed)
        .backend(BackendKind::Sim)
}

/// The run-op acceptance rule: `Ok`, no property violation within the
/// regime's namespace, and exactly the regime's step count.
fn run_is_clean(cfg: SystemConfig, regime: Regime, output: &RunOutput) -> bool {
    output
        .outcome
        .verify(cfg.namespace_bound(regime))
        .is_empty()
        && output.stats.rounds == cfg.total_steps(regime)
}

/// Times `reps` runs of one `RenamingRun` shape; returns the median seconds
/// and the last output.
fn time_runs(
    probes: &mut Probes,
    what: &str,
    reps: usize,
    cfg: SystemConfig,
    regime: Regime,
    make: impl Fn() -> RenamingRun,
) -> (f64, Option<RunOutput>) {
    let mut last = None;
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..=reps.max(1) {
        let run = make();
        let start = Instant::now();
        let result = run.run();
        let elapsed = start.elapsed().as_secs_f64();
        // The first run is the warm-up.
        if rep > 0 {
            samples.push(elapsed);
        }
        last = result.ok();
    }
    probes.check(
        what,
        last.as_ref().is_some_and(|o| run_is_clean(cfg, regime, o)),
    );
    (median(&samples), last)
}

/// A process that broadcasts one unit message every round and never
/// decides: the cheapest actor the engines can route for.
struct Chatter(u64);

impl Actor for Chatter {
    type Msg = ();
    type Output = ();

    fn send(&mut self, _round: Round) -> Outbox<()> {
        Outbox::Broadcast(())
    }

    fn deliver(&mut self, _round: Round, inbox: Inbox<()>) {
        self.0 += inbox.len() as u64;
    }

    fn output(&self) -> Option<()> {
        None
    }
}

fn chatters(n: usize) -> Vec<Box<dyn Actor<Msg = (), Output = ()>>> {
    (0..n)
        .map(|_| Box::new(Chatter(0)) as Box<dyn Actor<Msg = (), Output = ()>>)
        .collect()
}

/// Wall time of one hand-driven Algorithm 1 run, split by phase.
#[derive(Clone, Copy, Default)]
pub struct Alg1Split {
    pub send: f64,
    pub select: f64,
    pub vote: f64,
}

impl Alg1Split {
    pub fn vote_share(&self) -> f64 {
        self.vote / (self.send + self.select + self.vote)
    }
}

/// Drives `N` fault-free [`OrderPreservingRenaming`] actors through the
/// public `Actor::send` / `Actor::deliver`, assembled the way
/// `opr_core::run_alg1` assembles them (shared interner, probe attached).
/// `send` sums over all rounds, `select` is `deliver` over rounds 1–4 (wraps
/// the flood), `vote` is `deliver` over rounds ≥ 5. The delivery loop in
/// between is the benchmark's own and not a measured layer.
pub fn hand_drive_alg1<T: Tracer>(
    cfg: SystemConfig,
    ids: &[OriginalId],
    tracer: &mut T,
    op: u32,
) -> (Alg1Split, RenamingOutcome) {
    let regime = Regime::LogTime;
    let n = cfg.n();
    assert_eq!(ids.len(), n, "fault-free: every process is correct");
    let topology = Topology::canonical(n);
    let interner = IdInterner::new();
    let mut actors: Vec<OrderPreservingRenaming> = ids
        .iter()
        .map(|&id| {
            let mut actor =
                OrderPreservingRenaming::new(cfg, regime, id).expect("probe shapes are valid");
            actor.share_interner(interner.clone());
            actor.attach_probe(shared_probe());
            actor
        })
        .collect();
    let mut split = Alg1Split::default();
    let mut round = Round::FIRST;
    let run_span = tracer.begin("run", op);
    for r in 1..=cfg.total_steps(regime) {
        let round_span = tracer.begin("round", op);

        let start = Instant::now();
        let span = tracer.begin("core.send", op);
        let outboxes: Vec<Outbox<Alg1Msg>> = actors.iter_mut().map(|a| a.send(round)).collect();
        tracer.end(span);
        split.send += start.elapsed().as_secs_f64();

        let sealed: Vec<Option<Sealed<Alg1Msg>>> = outboxes
            .into_iter()
            .map(|outbox| match outbox {
                Outbox::Broadcast(msg) => Some(Sealed::new(msg)),
                Outbox::Silent => None,
                Outbox::Multicast(_) => unreachable!("correct processes only broadcast"),
            })
            .collect();
        let inboxes: Vec<Inbox<Alg1Msg>> = (0..n)
            .map(|receiver| {
                let mut entries: Vec<(LinkId, Sealed<Alg1Msg>)> = sealed
                    .iter()
                    .enumerate()
                    .filter_map(|(sender, msg)| {
                        let label = topology
                            .incoming_label(ProcessIndex::new(receiver), ProcessIndex::new(sender));
                        msg.as_ref().map(|m| (label, m.clone()))
                    })
                    .collect();
                entries.sort_by_key(|&(label, _)| label);
                Inbox::from_sealed(entries)
            })
            .collect();
        drop(sealed);

        let start = Instant::now();
        let span = tracer.begin("core.deliver", op);
        for (actor, inbox) in actors.iter_mut().zip(inboxes) {
            actor.deliver(round, inbox);
        }
        tracer.end(span);
        let elapsed = start.elapsed().as_secs_f64();
        if r <= 4 {
            split.select += elapsed;
        } else {
            split.vote += elapsed;
        }

        tracer.end(round_span);
        round = round.next();
    }
    tracer.end(run_span);
    let outcome = RenamingOutcome::new(actors.iter().map(|a| (a.my_id(), a.output())));
    (split, outcome)
}

fn alg1_split_probe(
    probes: &mut Probes,
    cfg: SystemConfig,
    seed: u64,
    reps: usize,
    what: &str,
) -> Alg1Split {
    let ids = sparse_ids(cfg.n(), seed);
    let mut splits = Vec::with_capacity(reps);
    let mut outcome = None;
    for rep in 0..=reps.max(1) {
        let (split, decided) = hand_drive_alg1(cfg, &ids, &mut Off, 0);
        if rep > 0 {
            splits.push(split);
        }
        outcome = Some(decided);
    }
    let reference = renaming_run(cfg, Regime::LogTime, &ids, AdversarySpec::Silent, 0, seed)
        .run()
        .ok()
        .map(|o| o.outcome);
    probes.check(what, outcome.is_some() && outcome == reference);
    let pick = |f: fn(&Alg1Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    Alg1Split {
        send: pick(|s| s.send),
        select: pick(|s| s.select),
        vote: pick(|s| s.vote),
    }
}

/// Runs every probe. `quick` cuts repetitions to the minimum that still
/// checks every output; its numbers mean nothing.
pub fn run_all(seed: u64, quick: bool) -> Probes {
    let mut p = Probes::default();
    let reps = |full: usize| if quick { 1 } else { full };

    // opr-workload: arrival generation and the names/sec-vs-N curve.
    let Shape::Service(steady) = SVC_N7_STEADY.shape else {
        unreachable!("svc-n7-steady is a service workload")
    };
    let arrival_epochs = if quick { 50 } else { 1_000 };
    let generated = service_inputs(&steady, seed, 1);
    let per_epoch = time_median(reps(5), || {
        for epoch in 0..arrival_epochs {
            black_box(generated.load.arrivals(epoch));
        }
    }) / arrival_epochs as f64;
    p.put(
        "workload.arrivals.ns_per_arrival",
        per_epoch * 1e9 / steady.arrivals_per_epoch as f64,
    );

    let mut n64_output = None;
    for (n, name, scale, full_reps) in [
        (7usize, "workload.run_n7.us", 1e6, 200usize),
        (16, "workload.run_n16.ms", 1e3, 20),
        (32, "workload.run_n32.ms", 1e3, 7),
        (64, "workload.run_n64.ms", 1e3, 5),
    ] {
        let cfg = config(n, (n - 1) / 3);
        let ids = sparse_ids(n, seed);
        let (secs, output) = time_runs(&mut p, name, reps(full_reps), cfg, Regime::LogTime, || {
            renaming_run(cfg, Regime::LogTime, &ids, AdversarySpec::Silent, 0, seed)
        });
        p.put(name, secs * scale);
        if n == 64 {
            n64_output = output;
        }
    }
    if let Some(output) = &n64_output {
        p.put(
            "sim.msgs_per_name.n64",
            output.stats.messages as f64 / output.outcome.len() as f64,
        );
        p.put(
            "sim.wire_bits_per_name.n64",
            output.stats.bits as f64 / output.outcome.len() as f64,
        );
    }

    // What RenamingRun adds on top of opr_core::run_alg1 (builder, option
    // forwarding, RunStats::collect), interleaved so drift hits both alike.
    {
        let cfg = config(7, 2);
        let ids = sparse_ids(7, seed);
        let mut through_run = Vec::new();
        let mut direct = Vec::new();
        let mut same = true;
        for rep in 0..=reps(300) {
            let run = renaming_run(cfg, Regime::LogTime, &ids, AdversarySpec::Silent, 0, seed);
            let start = Instant::now();
            let a = run.run();
            let a_secs = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let b = run_alg1(
                cfg,
                Regime::LogTime,
                &ids,
                0,
                |_env| None,
                Alg1Options {
                    seed,
                    backend: BackendKind::Sim,
                    ..Alg1Options::default()
                },
            );
            let b_secs = start.elapsed().as_secs_f64();
            if rep > 0 {
                through_run.push(a_secs);
                direct.push(b_secs);
            }
            same &= matches!((&a, &b), (Ok(a), Ok(b)) if a.outcome == b.outcome);
        }
        p.check("workload.run_overhead.us", same);
        p.put(
            "workload.run_overhead.us",
            (median(&through_run) - median(&direct)) * 1e6,
        );
    }

    // opr-core: Algorithm 1 by phase, the two regimes no workload times,
    // and the rank-vector primitives of one voting step at (64, 21).
    let split = alg1_split_probe(&mut p, config(64, 21), seed, reps(3), "core.alg1 at N=64");
    p.put("core.alg1.send.ms", split.send * 1e3);
    p.put("core.alg1.select.ms", split.select * 1e3);
    p.put("core.alg1.vote.ms", split.vote * 1e3);
    p.put("core.alg1.vote_share", split.vote_share());
    let split = alg1_split_probe(&mut p, config(7, 2), seed, reps(200), "core.alg1 at N=7");
    p.put("core.alg1_n7.send.us", split.send * 1e6);
    p.put("core.alg1_n7.select.us", split.select * 1e6);
    p.put("core.alg1_n7.vote.us", split.vote * 1e6);
    p.put("core.alg1_n7.vote_share", split.vote_share());

    {
        let cfg = config(64, 21);
        let accepted: BTreeSet<OriginalId> = sparse_ids(64, seed).into_iter().collect();
        let own = RankVector::from_accepted(&accepted, cfg.delta());
        let wire = own.to_wire();
        let entries = wire.len() as f64;
        let secs = time_median_batched(reps(50), 100, || {
            black_box(RankVector::from_wire(black_box(&wire)));
        });
        p.put("core.ranks.from_wire.ns_per_entry", secs * 1e9 / entries);
        let secs = time_median_batched(reps(50), 100, || {
            black_box(black_box(&own).check_valid(&accepted, cfg.delta())).ok();
        });
        p.put("core.ranks.check_valid.ns_per_entry", secs * 1e9 / entries);
        let votes = vec![own.clone(); cfg.n()];
        let mut stepped = None;
        let secs = time_median(reps(30), || {
            stepped = Some(approximate(&own, &accepted, &votes, cfg.n(), cfg.t()));
        });
        p.put("core.ranks.approximate.us", secs * 1e6);
        p.check(
            "core.ranks: unanimous votes are a fixed point of the primitives",
            RankVector::from_wire(&wire).as_ref() == Some(&own)
                && own.check_valid(&accepted, cfg.delta()).is_ok()
                && stepped == Some((own.clone(), accepted.clone())),
        );
    }

    {
        let cfg = config(64, 5);
        let ids = sparse_ids(64 - 5, seed);
        let (secs, _) = time_runs(
            &mut p,
            "core.two_step.run_ms",
            reps(5),
            cfg,
            Regime::TwoStep,
            || {
                renaming_run(
                    cfg,
                    Regime::TwoStep,
                    &ids,
                    AdversarySpec::FakeFlood,
                    5,
                    seed,
                )
            },
        );
        p.put("core.two_step.run_ms", secs * 1e3);
        let cfg = config(64, 6);
        let ids = sparse_ids(64 - 6, seed);
        let (secs, _) = time_runs(
            &mut p,
            "core.alg1_const.run_ms",
            reps(5),
            cfg,
            Regime::ConstantTime,
            || {
                renaming_run(
                    cfg,
                    Regime::ConstantTime,
                    &ids,
                    AdversarySpec::IdForge,
                    6,
                    seed,
                )
            },
        );
        p.put("core.alg1_const.run_ms", secs * 1e3);
    }

    // opr-aa: one per-id reduction on 64 votes, t = 21 (`reduce` trims).
    {
        let votes: Vec<Rank> = (0..64)
            .map(|i| Rank::new(10.0 + f64::from(i) * 1e-3))
            .collect();
        let mut reduced = Rank::new(0.0);
        let secs = time_median_batched(reps(50), 100, || {
            let mut multiset = OrderedMultiset::from_vec(black_box(votes.clone()));
            multiset.fill_to(64, votes[0]);
            reduced = reduce(&multiset, 21);
        });
        p.put("aa.reduce.ns", secs * 1e9);
        // trim 21 per side leaves votes 21..=42; select_21 keeps 21 and 42.
        let expected = (votes[21].value() + votes[42].value()) / 2.0;
        p.check("aa.reduce.ns", (reduced.value() - expected).abs() < 1e-9);
    }

    // opr-rbcast: one receiver through the flood's 4 steps against 64
    // senders carrying full sets, on a shared interner.
    {
        let n = 64usize;
        let interner: IdInterner<OriginalId> = IdInterner::new();
        let values = sparse_ids(n, seed);
        let full = IdSlotSet::from_values(&interner, values.iter().copied());
        let inboxes: Vec<Vec<(LinkId, FloodMsg<OriginalId>)>> = (1..=4u32)
            .map(|step| {
                (0..n)
                    .map(|i| {
                        let msg = match step {
                            1 => FloodMsg::Init(values[i]),
                            2 => FloodMsg::Echo(full.clone()),
                            _ => FloodMsg::Ready(full.clone()),
                        };
                        (LinkId::new(i + 1), msg)
                    })
                    .collect()
            })
            .collect();
        let mut accepted = 0usize;
        let mut one_receiver = || {
            let mut flood = EchoReadyFlood::with_interner(n, 21, Some(values[0]), interner.clone());
            for (i, inbox) in inboxes.iter().enumerate() {
                let step = i as u32 + 1;
                black_box(flood.send(step));
                flood.deliver(step, inbox.iter().map(|(l, m)| (*l, m)));
            }
            accepted = flood.result().map_or(0, |r| r.accepted.len());
        };
        let inner = 20;
        let secs = time_median_batched(reps(50), inner, &mut one_receiver);
        p.put("rbcast.flood.step_us", secs * 1e6 / 4.0);
        let before = alloc::snapshot().0;
        for _ in 0..inner {
            one_receiver();
        }
        let allocs = alloc::snapshot().0 - before;
        p.put(
            "rbcast.flood.allocs_per_step",
            allocs as f64 / inner as f64 / 4.0,
        );
        p.check("rbcast.flood accepts all 64 ids", accepted == n);
    }

    // opr-sim and opr-transport: the round engine under the cheapest actors.
    {
        let rounds = 8u32;
        let mut delivered = true;
        let mut samples = Vec::new();
        for _ in 0..=reps(30) {
            let mut network = Network::new(chatters(64), Topology::seeded(64, seed));
            let start = Instant::now();
            for _ in 0..rounds {
                network.step();
            }
            samples.push(start.elapsed().as_secs_f64());
            delivered &= network.metrics().messages_correct() == u64::from(rounds) * 64 * 63;
        }
        p.put(
            "sim.step.us_per_round",
            median(&samples[1..]) * 1e6 / f64::from(rounds),
        );
        p.check("sim.step delivers every broadcast", delivered);

        let batch = if quick { 10 } else { 200 };
        let mut samples = Vec::new();
        for _ in 0..=reps(10) {
            let prepared: Vec<_> = (0..batch)
                .map(|_| (chatters(7), Topology::seeded(7, seed)))
                .collect();
            let start = Instant::now();
            for (actors, topology) in prepared {
                black_box(Network::new(actors, topology));
            }
            samples.push(start.elapsed().as_secs_f64() / batch as f64);
        }
        p.put("sim.network_new.us", median(&samples[1..]) * 1e6);

        let mut rounds_ok = true;
        let mut time_backend = |execute: &dyn Fn(Job<(), ()>) -> u32| {
            let mut samples = Vec::new();
            for _ in 0..=reps(20) {
                let job = Job::new(chatters(64), Topology::seeded(64, seed), rounds);
                let start = Instant::now();
                let executed = execute(job);
                samples.push(start.elapsed().as_secs_f64());
                rounds_ok &= executed == rounds;
            }
            median(&samples[1..]) * 1e6 / f64::from(rounds)
        };
        let sim = time_backend(&|job| BackendKind::Sim.execute(job).rounds_executed);
        let pooled = time_backend(&|job| PooledBackend::new(2).execute(job).rounds_executed);
        p.put("transport.sim.round_us", sim);
        p.put("transport.pooled.round_us", pooled);
        p.put("transport.pooled_vs_sim", pooled / sim);
        p.check("transport backends run every round", rounds_ok);
    }

    // opr-exec: dispatch cost of the pool, and how much of two workers the
    // parallel service shape really uses.
    {
        let pool = RunPool::new(2);
        let tasks = 1_000usize;
        let mut all_ran = true;
        let secs = time_median(reps(20), || {
            let results = pool.run_batch((0..tasks).map(|i| move || i).collect());
            all_ran &= results.len() == tasks && results.iter().all(|r| r.is_ok());
        });
        p.put("exec.run_batch.us_per_task", secs * 1e6 / tasks as f64);
        p.check("exec.run_batch returns every task", all_ran);

        let Shape::Service(forge) = SVC_N32_FORGE_PAR.shape else {
            unreachable!("svc-n32-forge-par is a service workload")
        };
        let ops = if quick { 2 } else { 8 };
        let inputs = Inputs::Service(service_inputs(&forge, seed, ops));
        let serial = RunPool::new(1);
        let block_secs = |pool: &RunPool, ops: usize| {
            let block = run_block(&inputs, pool, ops, &mut Off, &undressed);
            (block.op_seconds(), block.failed, block.digest)
        };
        block_secs(&pool, 2);
        let (one, failed_one, digest_one) = block_secs(&serial, ops);
        let (two, failed_two, digest_two) = block_secs(&pool, ops);
        p.put("exec.parallel_efficiency", one / (2.0 * two));
        p.check(
            "exec.parallel_efficiency: jobs 1 and jobs 2 agree",
            failed_one + failed_two == 0 && digest_one == digest_two,
        );
    }

    // opr-adversary: what 10 IdForge processes cost a (32, 10) run over 10
    // silent ones; opr-obs and opr-metrics: what watching costs.
    {
        let cfg = config(32, 10);
        let ids = sparse_ids(22, seed);
        let with = |adversary| {
            let ids = ids.clone();
            move || renaming_run(cfg, Regime::LogTime, &ids, adversary, 10, seed)
        };
        let (forge, output) = time_runs(
            &mut p,
            "adversary.forge_cost_ratio (IdForge)",
            reps(3),
            cfg,
            Regime::LogTime,
            with(AdversarySpec::IdForge),
        );
        let (silent, _) = time_runs(
            &mut p,
            "adversary.forge_cost_ratio (Silent)",
            reps(3),
            cfg,
            Regime::LogTime,
            with(AdversarySpec::Silent),
        );
        p.put("adversary.forge_cost_ratio", forge / silent);
        if let Some(output) = output {
            p.put(
                "sim.msgs_per_name.n32_forge",
                output.stats.messages as f64 / output.outcome.len() as f64,
            );
            p.put(
                "sim.wire_bits_per_name.n32_forge",
                output.stats.bits as f64 / output.outcome.len() as f64,
            );
        }

        let silent_run = with(AdversarySpec::Silent);
        let mut recorded = Vec::new();
        let mut plain = Vec::new();
        let mut diagnosed = None;
        let mut same = true;
        for rep in 0..=reps(5) {
            let start = Instant::now();
            let off = silent_run().run_diagnosed();
            let off_secs = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let on = silent_run().record_events().run_diagnosed();
            let on_secs = start.elapsed().as_secs_f64();
            if rep > 0 {
                plain.push(off_secs);
                recorded.push(on_secs);
            }
            same &= matches!((&off, &on), (Ok(off), Ok(on))
                if off.full_outcome == on.full_outcome && on.events.is_some());
            diagnosed = on.ok();
        }
        p.put(
            "obs.recorder.overhead_ratio",
            median(&recorded) / median(&plain),
        );
        p.check("obs.recorder leaves the outcome alone", same);
        let mut decisions = 0;
        if let Some(run) = &diagnosed {
            let secs = time_median(reps(20), || {
                decisions = black_box(run.metrics_snapshot()).counter("opr_decisions_total");
            });
            p.put("metrics.snapshot.us", secs * 1e6);
        }
        p.check("metrics.snapshot counts 22 decisions", decisions == 22);
    }

    {
        let ops = if quick { 50 } else { 400 };
        let inputs = Inputs::Service(service_inputs(&steady, seed, ops));
        let pool = RunPool::serial();
        let registry = MetricsRegistry::new();
        let mut watched = Vec::new();
        let mut plain = Vec::new();
        let mut same = true;
        for rep in 0..=reps(3) {
            let off = run_block(&inputs, &pool, ops, &mut Off, &undressed);
            let on = run_block(&inputs, &pool, ops, &mut Off, &|engine| {
                engine.with_metrics(&registry)
            });
            if rep > 0 {
                plain.push(off.op_seconds());
                watched.push(on.op_seconds());
            }
            same &= off.digest == on.digest && off.failed + on.failed == 0;
        }
        p.put(
            "metrics.registry.overhead_ratio",
            median(&watched) / median(&plain),
        );
        p.check("metrics.registry leaves the ledger alone", same);
    }

    // opr-chaos: a seeded in-budget campaign, the CI-time guard.
    {
        let runs = if quick { 20 } else { 200 };
        let report = run_campaign(
            &CampaignConfig {
                seed,
                runs,
                budget: Some(BudgetRegime::InBudget),
                backend: BackendChoice::Sim,
                jobs: 1,
            },
            &standard_suite(),
        );
        p.put("chaos.campaign.runs_per_sec", report.runs_per_sec());
        p.check(
            "chaos.campaign passes",
            report.passed() && report.total == runs,
        );
    }

    p
}
