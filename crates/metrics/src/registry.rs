//! Live, thread-safe metric registry.
//!
//! Handles (`Counter`, `Gauge`, `Histogram`) are cheap `Arc` clones whose hot
//! path is a single relaxed `fetch_add` on a per-worker shard — no locks, no
//! allocation, no false sharing (shards are cache-line padded). Shards merge
//! lazily at [`MetricsRegistry::snapshot`] time. When no registry is attached
//! anywhere (the `Option<MetricsRegistry>` is `None`), instrumented code pays
//! literally nothing — `tests/alloc_gates.rs` gates this with alloc bracketing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{bucket_index, HistogramSnapshot, BUCKETS};
use crate::snapshot::MetricsSnapshot;

/// Number of shards per metric. Power of two; eight covers the worker counts
/// the `RunPool` actually spawns while keeping snapshot merges trivial.
pub(crate) const SHARDS: usize = 8;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread gets a round-robin shard assignment on first use; all its
    /// metric writes land on that shard, so two workers never contend on the
    /// same cache line.
    static THREAD_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

#[inline]
fn shard() -> usize {
    THREAD_SHARD.with(|s| *s)
}

/// A `u64` cell padded to a cache line so neighbouring shards never share one.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

struct CounterCells {
    shards: [PaddedU64; SHARDS],
}

impl CounterCells {
    fn new() -> Self {
        Self {
            shards: Default::default(),
        }
    }

    fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Monotonic counter handle. `add` is one relaxed `fetch_add`.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<CounterCells>,
}

impl Counter {
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cells.shards[shard()]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Instantaneous gauge handle: one atomic cell, `set` semantics.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    #[inline]
    pub fn set(&self, value: i64) {
        self.cell.store(value, Ordering::Relaxed);
    }
}

#[repr(align(64))]
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for HistShard {
    fn default() -> Self {
        Self {
            buckets: [(); BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

struct HistCells {
    shards: [HistShard; SHARDS],
}

impl HistCells {
    fn new() -> Self {
        Self {
            shards: Default::default(),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::new();
        for s in &self.shards {
            for (k, b) in s.buckets.iter().enumerate() {
                let c = b.load(Ordering::Relaxed);
                out.buckets[k] += c;
                out.count += c;
            }
            out.sum = out.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
        }
        out
    }
}

/// Log-bucketed histogram handle. `record` is two relaxed `fetch_add`s
/// (bucket + sum) on the caller's shard.
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    #[inline]
    pub fn record(&self, value: u64) {
        let s = &self.cells.shards[shard()];
        s.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Fold a pre-aggregated snapshot in (used when deterministic folds are
    /// mirrored into a live registry).
    pub(crate) fn merge(&self, snap: &HistogramSnapshot) {
        let s = &self.cells.shards[shard()];
        for (k, &c) in snap.buckets.iter().enumerate() {
            if c > 0 {
                s.buckets[k].fetch_add(c, Ordering::Relaxed);
            }
        }
        s.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<CounterCells>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCells>>>,
}

/// Shared registry of named metrics. Cloning shares the underlying store, so
/// one registry can be handed to every backend, pool worker, and service shard
/// and merged with a single [`snapshot`](Self::snapshot) call.
///
/// Handle *creation* takes a lock and may allocate; do it once at setup, then
/// write through the returned handles on the hot path.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.inner.counters.lock().unwrap().len())
            .field("gauges", &self.inner.gauges.lock().unwrap().len())
            .field("histograms", &self.inner.histograms.lock().unwrap().len())
            .finish()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create a counter by full name (labels via [`crate::labeled`]).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().unwrap();
        let cells = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(CounterCells::new()))
            .clone();
        Counter { cells }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().unwrap();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)))
            .clone();
        Gauge { cell }
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().unwrap();
        let cells = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistCells::new()))
            .clone();
        Histogram { cells }
    }

    /// Merge all shards of every metric into an order-stable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, cells) in self.inner.counters.lock().unwrap().iter() {
            snap.counters.insert(name.clone(), cells.total());
        }
        for (name, cell) in self.inner.gauges.lock().unwrap().iter() {
            snap.gauges
                .insert(name.clone(), cell.load(Ordering::Relaxed));
        }
        for (name, cells) in self.inner.histograms.lock().unwrap().iter() {
            snap.histograms.insert(name.clone(), cells.snapshot());
        }
        snap
    }

    /// Mirror a pre-aggregated (deterministic) snapshot into the live store:
    /// counters add, gauges set, histogram buckets add.
    pub fn fold(&self, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name).set(*v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(name).merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_merges_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t_total");
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.snapshot().counter("t_total"), 80_000);
    }

    #[test]
    fn histogram_shards_merge_exactly() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let h = h.clone();
                thread::spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v + i * 1000);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let snap = reg.snapshot();
        let snap = snap.histogram("h").unwrap();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.sum, (0..4000u64).sum::<u64>());
    }

    #[test]
    fn same_name_returns_same_cells() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(3);
        reg.counter("x").add(4);
        assert_eq!(reg.snapshot().counter("x"), 7);
    }

    #[test]
    fn fold_mirrors_deterministic_snapshot() {
        let mut det = MetricsSnapshot::default();
        det.add_counter("c", 9);
        det.set_gauge("g", -2);
        det.record("h", 17);
        let reg = MetricsRegistry::new();
        reg.fold(&det);
        let live = reg.snapshot();
        assert_eq!(live.counter("c"), 9);
        assert_eq!(live.gauge("g"), Some(-2));
        assert_eq!(live.histogram("h").unwrap().count, 1);
        assert_eq!(live.histogram("h").unwrap().sum, 17);
    }
}
