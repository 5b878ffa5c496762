//! Deterministic protocol telemetry for the renaming protocols.
//!
//! Two strictly separated layers:
//!
//! 1. **Protocol events** ([`ProtocolEvent`], [`MemoryRecorder`], [`RunLog`]) — a
//!    per-process stream of decision points (threshold crossings, vote
//!    validation, trimmed means, king adoptions, name assignments). The
//!    stream is a pure function of the messages a process receives, so for
//!    a fixed schedule it is bit-identical across replays and across
//!    `--jobs` counts; `tests/exec_equivalence.rs` gates exactly that.
//! 2. **Wall-clock spans** ([`Span`], [`SpanLog`]) — real per-round and
//!    per-pool-task timings. Never merged into the deterministic stream,
//!    never equality-gated.
//!
//! Exporters: [`render_jsonl`] (one JSON object per event, machine-diffable)
//! and [`render_trace_json`] (Chrome trace-event JSON, loadable in Perfetto
//! or `chrome://tracing`). [`Json`] is the workspace's integer-only JSON
//! tree, writer and parser — the repro file formats of `opr-chaos` and
//! `opr-service` are built on it.
//!
//! Recording is opt-in and zero-cost when off: emission sites use
//! [`record_if`] with an event-building closure that is never invoked
//! without an attached recorder.

#![warn(missing_docs)]

mod event;
pub(crate) mod json;
mod jsonl;
mod log;
mod perfetto;
mod recorder;
mod span;

pub use event::{ProtocolEvent, ValidityViolation};
pub use json::{Json, JsonError};
pub use jsonl::render_jsonl;
pub use log::{ProcessLog, RunLog};
pub use perfetto::render_trace_json;
pub use recorder::{record_if, shared_recorder, MemoryRecorder, SharedRecorder};
pub use span::{shared_span_log, SharedSpanLog, Span, SpanLog};
