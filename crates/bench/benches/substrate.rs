//! Substrate benchmarks: raw simulator round throughput and the id-selection
//! flood, isolating the cost of the network engine from the algorithms.

use criterion::{criterion_group, criterion_main, Criterion};
use opr_rbcast::{FloodActor, FloodMsg, FloodResult};
use opr_sim::{Actor, Inbox, Network, Outbox, Topology, WireSize};
use opr_transport::{BackendKind, Job};
use opr_types::{OriginalId, Round};
use std::hint::black_box;

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
        None
    }
}

fn bench_all_to_all_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim-rounds");
    for n in [8usize, 32, 128] {
        group.bench_function(format!("all-to-all/N{n}"), |b| {
            b.iter(|| {
                let actors: Vec<Box<dyn Actor<Msg = Ping, Output = u64>>> =
                    (0..n).map(|i| Box::new(Pinger(i as u64)) as _).collect();
                let mut net = Network::new(actors, Topology::canonical(n));
                for _ in 0..10 {
                    net.step();
                }
                black_box(net.metrics().messages_correct())
            });
        });
    }
    group.finish();
}

fn bench_id_selection_flood(c: &mut Criterion) {
    let mut group = c.benchmark_group("id-selection");
    for (n, t) in [(8usize, 2usize), (32, 10), (64, 21)] {
        group.bench_function(format!("flood/N{n}t{t}"), |b| {
            b.iter(|| {
                let actors: Vec<
                    Box<dyn Actor<Msg = FloodMsg<OriginalId>, Output = FloodResult<OriginalId>>>,
                > = (0..n)
                    .map(|i| {
                        Box::new(FloodActor::new(n, t, Some(OriginalId::new(i as u64 * 3)))) as _
                    })
                    .collect();
                let mut net = Network::new(actors, Topology::canonical(n));
                net.run(4);
                black_box(net.output_of(0))
            });
        });
    }
    group.finish();
}

/// Sim vs pooled on the same all-to-all job: what the worker pool's task
/// dispatch and phase fences cost (or buy) relative to the single-threaded
/// reference at each system size.
fn bench_backend_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate-backends");
    for n in [8usize, 32, 128] {
        for backend in BackendKind::ALL {
            group.bench_function(format!("{backend}/N{n}"), |b| {
                b.iter(|| {
                    let actors: Vec<Box<dyn Actor<Msg = Ping, Output = u64>>> =
                        (0..n).map(|i| Box::new(Pinger(i as u64)) as _).collect();
                    let report = backend.execute(Job::new(actors, Topology::canonical(n), 10));
                    black_box(report.metrics.messages_correct())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_all_to_all_rounds,
    bench_id_selection_flood,
    bench_backend_comparison
);
criterion_main!(benches);
