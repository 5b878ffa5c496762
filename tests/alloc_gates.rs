//! Allocation gates: the "free when off" and "allocation-free hot path"
//! claims of the observability layers, the voting step's "nothing when it
//! converged, one vector per process when it did not", id selection's "no
//! allocation per link", a warm instance's "nothing per process" and small
//! instances' totals in a new and in a warm run arena, as exact allocation
//! counts. `alloc_census` (ignored,
//! `just alloc-census`) prints where each benchmark shape's allocations go.
//!
//! This is the one counting `#[global_allocator]` of the root workspace.
//! It counts per thread, so libtest's own threads and the other tests of
//! this binary cannot perturb the equalities below. Timings of the same
//! layers are `benchmark/`'s job (`obs.recorder.overhead_ratio`,
//! `metrics.registry.overhead_ratio`, `alloc.bytes_per_name`).

use opr::core::{run_alg1_in, Alg1Msg, Alg1Options, Alg1Tweaks, OrderPreservingRenaming};
use opr::obs::SpanLog;
use opr::prelude::*;
use opr::service::{LedgerEvent, ServiceEngine, ServiceOp};
use opr::sim::{Actor, Inbox, Network, Outbox, Topology, Trace};
use opr::transport::BackendKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor registers a TLS dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the counter never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (reallocations included) the calling thread makes in `f`.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The gated run: full Algorithm 1 at `N = 16`, `t = 3` under the
/// echo-split adversary.
fn gate_run() -> RenamingRun {
    let cfg = SystemConfig::new(16, 3).expect("legal config");
    let ids = IdDistribution::SparseRandom.generate(13, 7);
    RenamingRun::builder(cfg, Regime::LogTime)
        .correct_ids(ids)
        .adversary(AdversarySpec::EchoSplit, 3)
        .seed(9)
}

/// One [`gate_run`] with the protocol recorder off or on:
/// `(allocations, events recorded)`.
fn diagnosed_run(record: bool) -> (u64, usize) {
    let mut run = gate_run();
    if record {
        run = run.record_events();
    }
    let (allocs, out) = allocs_in(|| run.run_diagnosed().expect("run starts"));
    assert_eq!(record, out.events.is_some(), "recording follows the knob");
    (allocs, out.events.map_or(0, |log| log.len()))
}

#[test]
fn recorder_off_runs_allocate_identically_around_a_recorded_run() {
    // The warm-up absorbs one-time lazies; the two recorder-off runs then
    // bracket the recorded one, so a disabled recorder that leaked any cost
    // across runs (lazy caches, amortised growth) would break the equality.
    diagnosed_run(false);
    let (off_before, _) = diagnosed_run(false);
    let (on, events) = diagnosed_run(true);
    let (off_after, _) = diagnosed_run(false);
    assert_eq!(off_before, off_after);
    assert!(events > 0, "a recorded run emits events");
    assert!(on >= off_before, "recording allocated {on} < {off_before}");
}

/// One [`gate_run`] with the delivery trace off or bounded at `capacity`:
/// `(allocations, events kept, events dropped)`.
fn traced_run(capacity: Option<usize>) -> (u64, usize, u64) {
    let mut run = gate_run();
    if let Some(capacity) = capacity {
        run = run.trace(capacity);
    }
    let (allocs, out) = allocs_in(|| run.run_diagnosed().expect("run starts"));
    let trace = out.trace.as_ref();
    (
        allocs,
        trace.map_or(0, |t| t.events().len()),
        trace.map_or(0, Trace::dropped),
    )
}

#[test]
fn a_full_trace_bounds_the_work_of_tracing() {
    traced_run(None); // warm-up, as above
    let (untraced, ..) = traced_run(None);
    let (bounded, kept, dropped) = traced_run(Some(4));
    let (_, all, none_dropped) = traced_run(Some(1_000_000));
    assert_eq!((kept, none_dropped), (4, 0));
    assert_eq!(kept as u64 + dropped, all as u64);
    assert_eq!(dropped, 3180);
    // Four rendered events and the trace itself — not one `String` per
    // delivery, and no run-long buffer of them.
    assert!(
        bounded <= untraced + 64,
        "capacity-4 trace allocated {bounded} against {untraced} untraced"
    );
}

#[test]
fn span_recording_into_a_presized_log_does_not_allocate() {
    const SPANS: usize = 4096;
    let mut log = SpanLog::with_capacity(SPANS);
    let start = Instant::now();
    let (allocs, ()) = allocs_in(|| {
        for i in 0..SPANS {
            log.record_indexed("gate span", i as u64, start);
        }
    });
    assert_eq!(allocs, 0);
    assert_eq!(log.spans().len(), SPANS);
}

#[test]
fn metric_writes_through_existing_handles_do_not_allocate() {
    let registry = MetricsRegistry::new();
    for k in 0..128u64 {
        registry.counter(&format!("gate_counter_{k}_total")).add(k);
        registry
            .histogram(&format!("gate_hist_{k}_ns"))
            .record(1 << (k % 20));
    }
    let counter = registry.counter("gate_counter_0_total");
    let hist = registry.histogram("gate_hist_0_ns");
    let (allocs, ()) = allocs_in(|| {
        for i in 0..100_000u64 {
            counter.add(i & 1);
            hist.record(i);
        }
    });
    assert_eq!(allocs, 0);
}

#[test]
fn registry_off_runs_allocate_identically() {
    let run = || {
        let ids: Vec<OriginalId> = (1..=5).map(|i| OriginalId::new(i * 10)).collect();
        let cfg = SystemConfig::new(7, 2).expect("legal config");
        allocs_in(|| {
            RenamingRun::builder(cfg, Regime::LogTime)
                .correct_ids(ids)
                .adversary(AdversarySpec::Silent, 2)
                .seed(0xbeef)
                .run()
                .expect("seed run is clean")
        })
        .0
    };
    run(); // warm-up, as above
    assert_eq!(run(), run());
}

/// Processes of the runs [`voting_run`] counts.
const VOTERS: u64 = 16;

/// Allocations of one Algorithm 1 run at `N = 16` on the simulator, with
/// `extra` voting steps beyond the schedule: fault-free at `t = 5`, or at
/// `t = 3` with three echo-split processes.
fn voting_run(echo_split: bool, extra: u32) -> u64 {
    let (t, faulty) = if echo_split { (3, 3) } else { (5, 0) };
    let cfg = SystemConfig::new(VOTERS as usize, t).expect("legal config");
    let run = RenamingRun::builder(cfg, Regime::LogTime)
        .correct_ids(IdDistribution::SparseRandom.generate(VOTERS as usize - faulty, 7))
        .adversary(AdversarySpec::EchoSplit, faulty)
        .extra_voting_steps(extra)
        .seed(if echo_split { 5 } else { 9 });
    allocs_in(|| run.run().expect("the run is clean")).0
}

#[test]
fn a_voting_step_allocates_a_small_constant_per_process() {
    voting_run(false, 0); // warm-up, as above

    // Two runs that differ only in their number of voting steps: the
    // difference is what voting steps cost, engine and probe included.
    let per_step = (voting_run(false, 8) - voting_run(false, 0)) / 8;
    // Measured 0 (one allocation over the eight steps: the per-round
    // metrics list doubling). A fault-free run has converged by the
    // schedule's end, so each extra step computes every rank bit for bit as
    // before and keeps its vector's slice (`VoteScratch::approximate`). The
    // broadcast, the probe snapshot and every receiver's ballot share that
    // slice; the ballot is the process's own, cleared after each step; the
    // snapshot list is sized for the whole schedule at step 4. The engine
    // adds none: a round's payloads and rows live in tables reused across
    // rounds.
    assert_eq!(
        per_step, 0,
        "allocations per converged voting step of {VOTERS} processes"
    );
}

#[test]
fn a_voting_step_that_moves_ranks_allocates_one_vector_per_process() {
    voting_run(true, 0); // warm-up, as above
    let per_step = (voting_run(true, 8) - voting_run(true, 0)) / 8;
    // Under three echo-split processes almost no step converges (3 of the
    // schedule's 117 process-steps do at this seed): measured 16 per step,
    // one new rank vector's shared slice for each of the 13 correct
    // processes and one link list for each splitter's multicast. One
    // allocation per vote or per id would read ≥ 13 × 16.
    assert!(
        per_step <= 2 * VOTERS,
        "{per_step} allocations per voting step of {VOTERS} processes"
    );
}

/// Processes of the fault-free id selection [`id_selection`] counts.
const SELECTORS: usize = 64;

/// Allocations of the id-selection flood (steps 1–4) of a fault-free
/// Algorithm 1 run at `N = 64`, `t = 21` on the simulator — actors and
/// network built beforehand, on one shared interner as the runner builds
/// them.
fn id_selection() -> u64 {
    let cfg = SystemConfig::new(SELECTORS, 21).expect("legal config");
    let interner = opr::rbcast::IdInterner::new();
    let actors: Vec<Box<dyn Actor<Msg = Alg1Msg, Output = NewName>>> = IdDistribution::SparseRandom
        .generate(SELECTORS, 7)
        .into_iter()
        .map(|id| {
            let mut process =
                OrderPreservingRenaming::new(cfg, Regime::LogTime, id).expect("legal regime");
            process.share_interner(interner.clone());
            Box::new(process) as _
        })
        .collect();
    let mut net = Network::new(actors, Topology::seeded(SELECTORS, 9));
    allocs_in(|| {
        for _ in 0..4 {
            net.step();
        }
    })
    .0
}

#[test]
fn id_selection_allocates_less_than_one_per_link() {
    id_selection(); // warm-up, as above
    let allocs = id_selection();
    // Measured 9.17 per process (587): the flood's two word slices (step
    // 2's `Echo`, whose slice step 4's relay `Ready` reuses, and step 3's
    // `Ready`), its counters, one block of `seen` rows for all 64 links and
    // the two sorted result vectors, read straight off the counters; the
    // step-4 hand-over to voting (the shared `timely` and `accepted` slices
    // and the first rank vector); and, for the run, the interner's tables
    // and the metrics row. New processes allocate all of it once; a warm
    // arena's allocate none (`a_warm_instance_allocates_nothing_per_process`).
    // One allocation per link would read ≥ 64. The ceiling is the
    // measurement plus 10 %, in whole allocations per process.
    assert!(
        allocs <= 10 * SELECTORS as u64,
        "{allocs} allocations in id selection by {SELECTORS} processes"
    );
}

/// One fault-free `N = 7`, `t = 2` Algorithm 1 instance — the shape of the
/// benchmark's `svc-n7-steady` instances — on the simulator, with seed
/// `seed`.
fn n7_instance(seed: u64) -> RenamingRun {
    let cfg = SystemConfig::new(7, 2).expect("legal config");
    RenamingRun::builder(cfg, Regime::LogTime)
        .correct_ids(IdDistribution::SparseRandom.generate(7, seed))
        .seed(seed)
}

#[test]
fn an_n7_instance_stays_under_its_measured_ceiling() {
    let fresh = || allocs_in(|| n7_instance(5).run().expect("fault-free run is clean")).0;
    fresh(); // warm-up, as above
    let allocs = fresh();
    // Measured 154: the ids, a new arena (network, actors, interner), id
    // selection, six voting steps — they converge, so only the vote
    // scratch's first sizing allocates there — and the probes and
    // statistics `run` returns. The ceiling is the measurement plus 10 %.
    assert!(allocs <= 169, "{allocs} allocations in one N = 7 instance");
}

#[test]
fn an_n7_instance_in_a_warm_arena_stays_under_its_measured_ceiling() {
    let mut arena = RunArena::default();
    // Earlier instances with other ids and seeds warm the arena up.
    for seed in 1..4 {
        n7_instance(seed)
            .run_in(&mut arena)
            .expect("fault-free run is clean");
    }
    let run = n7_instance(5);
    let allocs = allocs_in(|| run.run_in(&mut arena).expect("clean")).0;
    // Measured 1: the outcome's map. Each process rewrites its flood's
    // words, counters and result vectors, its `timely` and `accepted`
    // slices and its rank vector in place — every voting step converges and
    // keeps that vector — and the run its interner, fault mask and metrics;
    // the id list goes to the arena. (Before processes kept their sets the
    // count was 60, 8 per process.) The ceiling is the measurement plus
    // 10 %.
    assert!(
        allocs <= 1,
        "{allocs} allocations in one warm N = 7 instance"
    );
}

/// One instance of `regime` at `(n, t)` with `faulty` processes running
/// `spec`, only its outcome asked for (as a service shard runs it), in an
/// arena that three instances of the same shape with other ids and seeds
/// warmed up: its allocations.
fn warm_instance(
    regime: Regime,
    (n, t): (usize, usize),
    faulty: usize,
    spec: AdversarySpec,
) -> u64 {
    let cfg = SystemConfig::new(n, t).expect("legal config");
    let run = |seed| {
        RenamingRun::builder(cfg, regime)
            .correct_ids(IdDistribution::SparseRandom.generate(n - faulty, seed))
            .adversary(spec, faulty)
            .seed(seed)
    };
    let mut arena = RunArena::default();
    for seed in 1..4 {
        run(seed)
            .run_in(&mut arena)
            .expect("warm-up runs are clean");
    }
    let run = run(5);
    allocs_in(|| run.run_in(&mut arena).expect("the run is clean")).0
}

#[test]
fn a_warm_instance_allocates_nothing_per_process() {
    // Algorithm 1 and Algorithm 4, fault-free, at two sizes: the instance
    // nine more processes run costs at most two more allocations. Measured
    // 1 at (7, 2) and 3 at (16, 5) for Algorithm 1, 1 and 3 for Algorithm 4
    // at (7, 1) and (16, 2): all of it the outcome's map, one tree node per
    // eleven names. Every process keeps its flood's words, counters and
    // result, its `timely`/`accepted` slices and its rank vector (or its
    // timely set's words) from the last instance and rewrites them in place;
    // the run keeps its fault mask, metrics, interner and id list.
    for (regime, small, large) in [
        (Regime::LogTime, (7, 2), (16, 5)),
        (Regime::TwoStep, (7, 1), (16, 2)),
    ] {
        let small = warm_instance(regime, small, 0, AdversarySpec::Silent);
        let large = warm_instance(regime, large, 0, AdversarySpec::Silent);
        assert!(
            large <= small + 2,
            "{regime:?}: {large} allocations at N = 16 against {small} at N = 7"
        );
    }
}

#[test]
fn a_two_step_instance_under_fake_flood_in_a_warm_arena_stays_under_its_measured_ceiling() {
    // The shape of the benchmark's `svc-n7-churn` instances. Measured 32:
    // 31 by the FakeFlood process, which is built anew for every instance
    // (itself, its fake ids, link table and announcements) and builds its
    // messages (per correct link a set and its words, and one multicast
    // list per step), and the outcome's map. The six correct processes
    // allocate nothing, as `a_warm_instance_allocates_nothing_per_process`
    // holds fault-free. The ceiling is the measurement plus 10 %.
    let allocs = warm_instance(Regime::TwoStep, (7, 1), 1, AdversarySpec::FakeFlood);
    assert!(
        allocs <= 35,
        "{allocs} allocations in one warm two-step instance"
    );
}

/// Never decides; broadcasts `()` every round.
struct Chatter;

impl Actor for Chatter {
    type Msg = ();
    type Output = ();
    fn send(&mut self, _round: Round) -> Outbox<()> {
        Outbox::Broadcast(())
    }
    fn deliver(&mut self, _round: Round, inbox: Inbox<()>) {
        assert_eq!(inbox.len(), CHATTERS);
    }
    fn output(&self) -> Option<()> {
        None
    }
}

/// Processes of [`chatter_rounds`]' network.
const CHATTERS: usize = 64;

/// Allocations of `rounds` rounds of [`CHATTERS`] broadcasting processes,
/// network construction excluded.
fn chatter_rounds(rounds: usize) -> u64 {
    let actors: Vec<Box<dyn Actor<Msg = (), Output = ()>>> =
        (0..CHATTERS).map(|_| Box::new(Chatter) as _).collect();
    let mut net = Network::new(actors, Topology::seeded(CHATTERS, 4));
    allocs_in(|| {
        for _ in 0..rounds {
            net.step();
        }
    })
    .0
}

#[test]
fn a_broadcast_round_allocates_nothing_in_the_engine() {
    // The per-round metrics row grows its list amortised; everything else a
    // round touches (payload table, row table) is reused. A sealed payload
    // per broadcast and an inbox per receiver would add 2 × 64 a round.
    let extra = chatter_rounds(64) - chatter_rounds(32);
    assert!(extra <= 4, "32 more rounds allocated {extra} times");
}

/// One of the benchmark's four workload shapes, as [`alloc_census`] drives
/// it: the protocol instance, and the service around it (`None` for a
/// one-off run).
struct CensusShape {
    name: &'static str,
    n: usize,
    t: usize,
    regime: Regime,
    byzantine: usize,
    adversary: AdversarySpec,
    /// `(shards, arrivals per epoch, clients, max hold, queue capacity,
    /// shard span)`.
    service: Option<(usize, usize, u64, u64, usize, u64)>,
}

const CENSUS: [CensusShape; 4] = [
    CensusShape {
        name: "svc-n7-steady",
        n: 7,
        t: 2,
        regime: Regime::LogTime,
        byzantine: 0,
        adversary: AdversarySpec::Silent,
        service: Some((4, 28, 1_000_000, 2, 72, 64)),
    },
    CensusShape {
        name: "svc-n7-churn",
        n: 7,
        t: 1,
        regime: Regime::TwoStep,
        byzantine: 1,
        adversary: AdversarySpec::FakeFlood,
        service: Some((4, 56, 160, 3, 64, 64)),
    },
    CensusShape {
        name: "run-n64-alg1",
        n: 64,
        t: 21,
        regime: Regime::LogTime,
        byzantine: 0,
        adversary: AdversarySpec::Silent,
        service: None,
    },
    CensusShape {
        name: "svc-n32-forge-par",
        n: 32,
        t: 10,
        regime: Regime::LogTime,
        byzantine: 10,
        adversary: AdversarySpec::IdForge,
        service: Some((2, 44, 1_000_000, 2, 120, 256)),
    },
];

impl CensusShape {
    fn cfg(&self) -> SystemConfig {
        SystemConfig::new(self.n, self.t).expect("legal config")
    }

    fn ids(&self, seed: u64) -> Vec<OriginalId> {
        IdDistribution::SparseRandom.generate(self.n - self.byzantine, seed)
    }

    /// One instance in `arena`, only its outcome asked for, as a service
    /// shard runs it.
    fn instance(&self, arena: &mut RunArena, seed: u64) -> u64 {
        let run = RenamingRun::builder(self.cfg(), self.regime)
            .correct_ids(self.ids(seed))
            .adversary(self.adversary, self.byzantine)
            .seed(seed);
        allocs_in(|| run.run_in(arena).expect("census instances are clean")).0
    }

    /// The same instance cut after id selection (steps 1–4): no voting
    /// step (Algorithm 1 only).
    fn selection(&self, arena: &mut RunArena, seed: u64) -> u64 {
        let ids = self.ids(seed);
        let opts = Alg1Options {
            seed,
            tweaks: Alg1Tweaks {
                voting_steps_override: Some(0),
                ..Alg1Tweaks::default()
            },
            ..Alg1Options::default()
        };
        let spec = self.adversary;
        allocs_in(|| {
            run_alg1_in::<_, ()>(
                arena,
                self.cfg(),
                self.regime,
                &ids,
                self.byzantine,
                |env| spec.build_alg1(env),
                opts,
            )
            .expect("census instances start")
        })
        .0
    }

    /// Allocations per granted name of `epochs` service epochs after
    /// `warm_up` epochs, on a serial pool (so every instance runs on the
    /// counting thread), and the number of instances they ran.
    fn service(&self, warm_up: u64, epochs: u64) -> Option<(f64, f64)> {
        let (shards, arrivals, clients, max_hold, queue, span) = self.service?;
        let load = ServiceWorkload {
            clients,
            epochs: warm_up + epochs,
            arrivals_per_epoch: arrivals,
            max_hold,
            seed: 42,
        };
        let cfg = ServiceConfig {
            shards,
            epoch_cfg: self.cfg(),
            regime: self.regime,
            byzantine: self.byzantine,
            adversary: self.adversary,
            backend: BackendKind::Sim,
            queue_capacity: queue,
            shard_span: span,
            seed: 42,
        };
        let pool = RunPool::serial();
        let mut engine = ServiceEngine::new(cfg).expect("legal service");
        let mut due: Vec<Vec<ClientId>> = vec![Vec::new(); (warm_up + epochs) as usize + 1];
        let (mut allocs, mut names, mut runs) = (0, 0, 0);
        for epoch in 0..warm_up + epochs {
            let releases = std::mem::take(&mut due[epoch as usize]);
            let arrivals = load.arrivals(epoch);
            let seen = engine.ledger().len();
            let (spent, stats) = allocs_in(|| {
                for &client in &releases {
                    engine.submit(ServiceOp::Release { client });
                }
                for arrival in &arrivals {
                    engine.submit(ServiceOp::Acquire {
                        client: arrival.client,
                        original: arrival.original,
                    });
                }
                engine.run_epoch(&pool).expect("census epochs are clean")
            });
            if epoch >= warm_up {
                allocs += spent;
                names += stats.grants;
                runs += stats.protocol_runs;
            }
            for event in &engine.ledger()[seen..] {
                if let LedgerEvent::Grant(grant) = event {
                    let at = (epoch + load.hold_epochs(grant.client)) as usize;
                    if let Some(slot) = due.get_mut(at) {
                        slot.push(grant.client);
                    }
                }
            }
        }
        Some((allocs as f64 / names as f64, runs as f64 / names as f64))
    }
}

/// Prints where each workload shape's allocations go, per instance and per
/// name, on a fresh arena and on a warm one: set-up with id selection
/// (steps 1–4), the voting steps, and — for the service shapes — the
/// service around the instances. The run path has no seam between set-up
/// and step 1, so those two share a column; the id-selection gate above
/// counts steps 1–4 alone. `just alloc-census` runs it.
#[test]
#[ignore = "a census to read, not a gate: `just alloc-census`"]
fn alloc_census() {
    println!(
        "{:<18} {:>5} {:>11} {:>11} {:>9} {:>11} {:>11} {:>11}",
        "shape",
        "arena",
        "instance",
        "per name",
        "set-up+1-4",
        "voting",
        "service/name",
        "total/name"
    );
    for shape in &CENSUS {
        let names = (shape.n - shape.byzantine) as f64;
        let alg1 = shape.regime != Regime::TwoStep;
        let mut warm = RunArena::default();
        for seed in 1..4 {
            shape.instance(&mut warm, seed);
        }
        let rows = [
            (
                "fresh",
                shape.instance(&mut RunArena::default(), 9),
                alg1.then(|| shape.selection(&mut RunArena::default(), 9)),
            ),
            (
                "warm",
                shape.instance(&mut warm, 9),
                alg1.then(|| shape.selection(&mut warm, 9)),
            ),
        ];
        let service = shape.service(20, 40);
        for (arena, instance, selection) in rows {
            let per_name = instance as f64 / names;
            let (service_name, total_name) = match service {
                // The service's own share: what its epochs cost per name
                // beyond the warm instances they ran.
                Some((total, runs)) if arena == "warm" => (
                    format!("{:.2}", total - runs * instance as f64),
                    format!("{total:.2}"),
                ),
                _ => ("—".into(), "—".into()),
            };
            let (selection, voting) = match selection {
                Some(s) => (s.to_string(), (instance - s).to_string()),
                None => ("—".into(), "—".into()),
            };
            println!(
                "{:<18} {:>5} {:>11} {:>11.2} {:>9} {:>11} {:>11} {:>11}",
                shape.name, arena, instance, per_name, selection, voting, service_name, total_name
            );
        }
    }
    // The one-off path the benchmark's `run-n64-alg1` takes: a new arena,
    // probes and statistics per run.
    let shape = &CENSUS[2];
    let run = RenamingRun::builder(shape.cfg(), shape.regime)
        .correct_ids(shape.ids(9))
        .seed(9);
    let one_off = allocs_in(|| run.run().expect("clean")).0;
    println!(
        "{:<18} one-off `RenamingRun::run`: {} ({:.2} per name)",
        shape.name,
        one_off,
        one_off as f64 / shape.n as f64
    );
}
