//! # opr-metrics — always-on aggregates for the renaming stack
//!
//! A std-only metrics layer with two strictly separate planes, extending the
//! PR-5 observability discipline:
//!
//! * **Deterministic plane** — protocol facts (messages, wire bits, quorum
//!   crossings, grants, recycled names, oracle margins) derived from run
//!   artefacts into a [`MetricsSnapshot`]. Bit-identical across the Sim
//!   and Pooled backends and any `--jobs` value; safe to pin in
//!   goldens and equivalence suites.
//! * **Wall-clock plane** — latencies and queue waits recorded live through a
//!   [`MetricsRegistry`] of sharded atomic cells. Never enters goldens or
//!   cross-backend equality checks.
//!
//! The hot path is one relaxed `fetch_add`; with no registry attached the
//! instrumented code pays nothing (alloc-bracket gated in `opr-bench`).
//! Renderers: [`render_prometheus`] (stable text exposition) and
//! [`render_dashboard`] (compact ANSI). A [`FlightRecorder`] ring retains the
//! last K epoch summaries for post-mortem dumps on oracle violations.

mod dashboard;
mod flight;
mod hist;
mod prometheus;
mod registry;
mod snapshot;

pub use dashboard::render_dashboard;
pub use flight::{shared_flight_recorder, EpochSummary, FlightRecorder, SharedFlightRecorder};
pub use hist::{bucket_bound_label, bucket_index, HistogramSnapshot, BUCKETS, OVERFLOW_BUCKET};
pub use prometheus::{render_prometheus, validate_prometheus};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, SHARDS};
pub use snapshot::{labeled, split_labels, MetricsSnapshot};
