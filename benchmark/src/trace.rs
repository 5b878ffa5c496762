//! In-memory spans at the boundaries the benchmark crosses, written out as
//! Chrome trace-event JSON when the traced pass ends.
//!
//! The op loops are generic over [`Tracer`]: the timed pass instantiates them
//! with [`Off`], whose methods are empty and inline, so the timed code path
//! carries no span cost at all; the traced pass uses [`SpanRecorder`].

use crate::json::Json;
use std::time::Instant;

/// Index of a span in its recorder; [`NO_SPAN`] for "none".
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

pub trait Tracer {
    /// Opens a span named `name` for op `op`, child of the innermost span
    /// still open.
    fn begin(&mut self, name: &'static str, op: u32) -> SpanId;
    /// Closes the span `begin` returned.
    fn end(&mut self, id: SpanId);
}

/// Tracing off: every call compiles to nothing.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn begin(&mut self, _name: &'static str, _op: u32) -> SpanId {
        NO_SPAN
    }

    #[inline(always)]
    fn end(&mut self, _id: SpanId) {}
}

#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one ([`NO_SPAN`] for a root).
    pub parent: SpanId,
    /// The op the span belongs to; spans of one op share it.
    pub op: u32,
    /// Chrome-trace thread lane: 1 for the driver thread, 2.. for spans
    /// adopted from the program's own span log (they may overlap).
    pub lane: u32,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<SpanId>,
}

impl SpanRecorder {
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// The instant span times are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Adds a span measured elsewhere (the program's attached span log),
    /// already on this recorder's clock.
    pub fn adopt(&mut self, span: SpanRec) {
        self.spans.push(span);
    }

    /// Durations in nanoseconds of every span named `name`, in record order.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time of `parent`: its duration minus the part of that interval
    /// its children cover (children on parallel lanes may overlap each
    /// other, so the cover is a union, not a sum).
    pub fn self_time_ns(&self, parent: SpanId, children: &mut [(u64, u64)]) -> u64 {
        let p = self.spans[parent as usize];
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = p.start_ns;
        for &(start, end) in children.iter() {
            let start = start.max(reach);
            let end = end.min(p.end_ns);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        p.duration_ns().saturating_sub(covered)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the spans
    /// `keep` selects — a whole block of small ops would be tens of
    /// megabytes, and the first ops read the same as the rest.
    pub fn render_chrome(&self, workload: &str, keep: impl Fn(&SpanRec) -> bool) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| keep(s))
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.lane))),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                if s.parent == NO_SPAN {
                                    Json::Null
                                } else {
                                    Json::Num(f64::from(s.parent))
                                },
                            ),
                            ("op", Json::Num(f64::from(s.op))),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("otherData", Json::obj([("workload", Json::str(workload))])),
            ("traceEvents", Json::Arr(events)),
        ])
        .render()
    }
}

impl Tracer for SpanRecorder {
    fn begin(&mut self, name: &'static str, op: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        self.open.push(id);
        self.spans.push(SpanRec {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
            lane: 1,
        });
        // Read the clock last, so the span does not time its own record.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    fn end(&mut self, id: SpanId) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close innermost first");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_the_union_of_children() {
        let mut rec = SpanRecorder::with_capacity(4);
        let op = rec.begin("op", 7);
        let child = rec.begin("child", 7);
        rec.end(child);
        rec.end(op);
        assert_eq!(rec.spans()[child as usize].parent, op);
        assert_eq!(rec.spans()[op as usize].parent, NO_SPAN);

        // Hand-set times: parent [0,100], children [10,40] and [30,60]
        // overlap, so they cover 50, not 60.
        rec.spans[op as usize].start_ns = 0;
        rec.spans[op as usize].end_ns = 100;
        let mut children = vec![(30, 60), (10, 40)];
        assert_eq!(rec.self_time_ns(op, &mut children), 50);
        let text = rec.render_chrome("w", |s| s.op < 8);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            Json::parse(&rec.render_chrome("w", |s| s.op < 7))
                .unwrap()
                .get("traceEvents")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            0
        );
    }
}
