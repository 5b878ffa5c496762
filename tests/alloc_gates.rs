//! Allocation gates: the "free when off" and "allocation-free hot path"
//! claims of the observability layers, the voting step's "one allocation
//! per process", id selection's "no allocation per link" and one small
//! instance's total, as exact allocation counts.
//!
//! This is the one counting `#[global_allocator]` of the root workspace.
//! It counts per thread, so libtest's own threads and the other tests of
//! this binary cannot perturb the equalities below. Timings of the same
//! layers are `benchmark/`'s job (`obs.recorder.overhead_ratio`,
//! `metrics.registry.overhead_ratio`, `alloc.bytes_per_name`).

use opr::core::{Alg1Msg, OrderPreservingRenaming};
use opr::obs::SpanLog;
use opr::prelude::*;
use opr::sim::{Actor, Inbox, Network, Outbox, Topology, Trace};
use opr::transport::PooledBackend;
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

/// One [`gate_run`] on `backend` with the delivery trace off or bounded at
/// `capacity`: `(allocations, events kept, events dropped)`.
fn traced_run(backend: BackendKind, capacity: Option<usize>) -> (u64, usize, u64) {
    let mut run = gate_run().backend(backend);
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
fn a_full_trace_bounds_the_work_of_tracing_on_both_backends() {
    // One worker: the pooled schedule then runs on this (counting) thread.
    PooledBackend::set_process_default_workers(1);
    for backend in BackendKind::ALL {
        traced_run(backend, None); // warm-up, as above
        let (untraced, ..) = traced_run(backend, None);
        let (bounded, kept, dropped) = traced_run(backend, Some(4));
        let (_, all, none_dropped) = traced_run(backend, Some(1_000_000));
        assert_eq!((kept, none_dropped), (4, 0), "{backend}");
        assert_eq!(kept as u64 + dropped, all as u64, "{backend}");
        assert_eq!(dropped, 3180, "{backend}");
        // Four rendered events and the trace itself — not one `String` per
        // delivery, and no run-long buffer of them.
        assert!(
            bounded <= untraced + 64,
            "{backend}: capacity-4 trace allocated {bounded} against {untraced} untraced"
        );
    }
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

/// Processes of the fault-free run [`voting_run`] counts.
const VOTERS: u64 = 16;

/// Allocations of one fault-free Algorithm 1 run at `N = 16`, `t = 5` on
/// the simulator, with `extra` voting steps beyond the schedule.
fn voting_run(extra: u32) -> u64 {
    let cfg = SystemConfig::new(VOTERS as usize, 5).expect("legal config");
    let run = RenamingRun::builder(cfg, Regime::LogTime)
        .correct_ids(IdDistribution::SparseRandom.generate(VOTERS as usize, 7))
        .extra_voting_steps(extra)
        .seed(9);
    allocs_in(|| run.run().expect("fault-free run is clean")).0
}

#[test]
fn a_voting_step_allocates_a_small_constant_per_process() {
    voting_run(0); // warm-up, as above

    // Two runs that differ only in their number of voting steps: the
    // difference is what voting steps cost, engine and probe included.
    let per_step = (voting_run(8) - voting_run(0)) / 8;
    // Measured 1.00 per process: the new rank vector's shared slice, which
    // `VoteScratch::approximate` copies out of its reused buffer. The
    // broadcast, the probe snapshot and every receiver's ballot share that
    // slice; the ballot is the process's own, cleared after each step; the
    // snapshot list is sized for the whole schedule at step 4. The engine
    // adds none: a round's payloads and rows live in tables reused across
    // rounds. One allocation per vote or per id would read ≥ 22.
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
    // Measured 26.2 per process: the flood's slot words (the working set
    // of each step, the counters, the step-3 `Ready` kept for step 4 and
    // one block of `seen` rows for all 64 links), the tree nodes of the
    // `timely` and `accepted` sets, read straight off the counters, and the
    // step-4 hand-over to voting (the sorted `timely` ids, the shared sets
    // and the first rank vector). One allocation per link would read ≥ 64.
    assert!(
        allocs <= 32 * SELECTORS as u64,
        "{allocs} allocations in id selection by {SELECTORS} processes"
    );
}

/// Allocations of one fault-free `N = 7`, `t = 2` Algorithm 1 instance — the
/// shape of the benchmark's `svc-n7-steady` instances — on the simulator.
fn n7_instance() -> u64 {
    let cfg = SystemConfig::new(7, 2).expect("legal config");
    let run = RenamingRun::builder(cfg, Regime::LogTime)
        .correct_ids(IdDistribution::SparseRandom.generate(7, 3))
        .seed(5);
    allocs_in(|| run.run().expect("fault-free run is clean")).0
}

#[test]
fn an_n7_instance_stays_under_its_measured_ceiling() {
    n7_instance(); // warm-up, as above
    let allocs = n7_instance();
    // Measured 254, about 36 per name: 42 new rank vectors (six voting
    // steps of seven processes), the rest id selection and the instance's
    // set-up (actors, network, probes, interner, first-step scratch). The
    // ceiling is the measurement plus 10 %.
    assert!(allocs <= 279, "{allocs} allocations in one N = 7 instance");
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
