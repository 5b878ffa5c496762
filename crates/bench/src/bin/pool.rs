//! Round-engine benchmark: the task-scheduled `PooledBackend` vs the sim
//! reference at large N.
//!
//! ```text
//! cargo run --release -p opr-bench --bin pool -- --out crates/bench/BENCH_pool.json
//! ```
//!
//! Every process broadcasts a 64-bit ping each round — the O(N²)
//! messages-per-round traffic of the paper's synchronous model, with the
//! protocol cost stripped out so the engines are compared on delivery
//! machinery alone. Each engine executes the same `Job` (`R` all-to-all
//! rounds at N ∈ {128, 512, 1024}); the pooled backend additionally sweeps
//! worker counts {1, 4, 8}. Reported per engine: runs/sec, mean ns per run
//! and mean ns per round, with the host's `cpus` on every row — on one
//! hardware thread the worker sweep measures dispatch overhead, not scaling.

use opr_sim::{Actor, Inbox, Outbox, Topology, WireSize};
use opr_transport::{BackendKind, Job, PooledBackend, Substrate};
use opr_types::Round;
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Ping(u64);
impl WireSize for Ping {
    fn wire_bits(&self) -> u64 {
        64
    }
}

struct Pinger(u64);
impl Actor for Pinger {
    type Msg = Ping;
    type Output = u64;
    fn send(&mut self, _round: Round) -> Outbox<Ping> {
        Outbox::Broadcast(Ping(self.0))
    }
    fn deliver(&mut self, _round: Round, inbox: Inbox<Ping>) {
        self.0 = inbox.messages().map(|(_, m)| m.0).sum();
    }
    fn output(&self) -> Option<u64> {
        // Never outputs: the run always executes its full round budget.
        None
    }
}

const ROUNDS: u32 = 8;

fn job(n: usize) -> Job<Ping, u64> {
    let actors: Vec<Box<dyn Actor<Msg = Ping, Output = u64>>> =
        (0..n).map(|i| Box::new(Pinger(i as u64)) as _).collect();
    Job::new(actors, Topology::canonical(n), ROUNDS)
}

/// Host parallelism, recorded in every row so a consumer can tell a real
/// regression from a 1-core CI container where parallel backends cannot win.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Row {
    name: String,
    n: usize,
    workers: Option<usize>,
    iterations: usize,
    mean_ns: f64,
}

impl Row {
    fn round_ns(&self) -> f64 {
        self.mean_ns / f64::from(ROUNDS)
    }
    fn runs_per_sec(&self) -> f64 {
        1e9 / self.mean_ns
    }
    fn json(&self) -> String {
        let workers = self.workers.map_or(String::from("null"), |w| w.to_string());
        format!(
            "  {{\"group\": \"pool\", \"name\": \"{}\", \"n\": {}, \"workers\": {workers}, \
             \"cpus\": {}, \"rounds\": {ROUNDS}, \"iterations\": {}, \"mean_ns\": {:.1}, \
             \"round_ns\": {:.1}, \"runs_per_sec\": {:.2}}}",
            self.name,
            self.n,
            host_cpus(),
            self.iterations,
            self.mean_ns,
            self.round_ns(),
            self.runs_per_sec(),
        )
    }
}

/// Times `iterations` fresh executions of the all-to-all job on `engine`,
/// checking each run actually did its O(N²·R) deliveries.
fn measure<S>(name: String, n: usize, workers: Option<usize>, iterations: usize, engine: S) -> Row
where
    S: Substrate<Ping, u64>,
{
    let expected_messages = (n * (n - 1)) as u64 * u64::from(ROUNDS);
    let start = Instant::now();
    for _ in 0..iterations {
        let report = engine.execute(job(n));
        assert_eq!(report.rounds_executed, ROUNDS);
        assert_eq!(report.metrics.messages_correct(), expected_messages);
        black_box(report.metrics.messages_correct());
    }
    let mean_ns = start.elapsed().as_nanos() as f64 / iterations as f64;
    let row = Row {
        name,
        n,
        workers,
        iterations,
        mean_ns,
    };
    eprintln!(
        "pool {}: {:.2} runs/sec, {:.0} ns/round ({} iters)",
        row.name,
        row.runs_per_sec(),
        row.round_ns(),
        row.iterations
    );
    row
}

/// Iteration counts scaled so the O(N²) sizes don't dominate wall-clock:
/// enough repeats at N=128 for a stable mean, fewer at N=1024.
fn iters(n: usize) -> usize {
    match n {
        0..=128 => 30,
        129..=512 => 8,
        _ => 3,
    }
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out_path = it.next(),
            _ => {
                eprintln!("usage: pool [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    for n in [128usize, 512, 1024] {
        rows.push(measure(
            format!("sim/N{n}"),
            n,
            None,
            iters(n),
            opr_transport::SimBackend,
        ));
        for workers in [1usize, 4, 8] {
            rows.push(measure(
                format!("pooled-w{workers}/N{n}"),
                n,
                Some(workers),
                iters(n),
                PooledBackend::new(workers),
            ));
        }
    }

    let lines: Vec<String> = rows.iter().map(Row::json).collect();
    let json = format!("[\n{}\n]\n", lines.join(",\n"));

    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write benchmark output");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    // BackendKind::Pooled must route through the same engine this benchmark
    // exercised; a cheap smoke here keeps the flag wiring honest.
    let report = BackendKind::Pooled.execute(job(16));
    assert_eq!(report.rounds_executed, ROUNDS);
}
