//! Chrome trace-event exporter, loadable in Perfetto and `chrome://tracing`.
//!
//! Output is a JSON object `{"traceEvents": [...]}` in the trace-event
//! format. Protocol events become instant events (`"ph":"i"`, thread scope)
//! on pid 1 with one tid per process, at a *synthetic* deterministic
//! timestamp `step·1000 + seq` — lock-step protocols have no meaningful
//! intra-round wall time, and synthetic timestamps keep the export a pure
//! function of the [`RunLog`]. Wall-clock [`Span`]s, when provided, become
//! complete events (`"ph":"X"`) on pid 2 with real microsecond timings; the
//! two pids keep the deterministic and wall-clock layers visually separate.

use std::fmt::Write as _;

use crate::event::{FieldValue, ProtocolEvent};
use crate::json::write_escaped;
use crate::jsonl::{push_field, push_value};
use crate::log::RunLog;
use crate::span::Span;

fn event_args(event: &ProtocolEvent) -> String {
    let mut args = String::from("{");
    let mut sep = "";
    let mut field = |name: &str, value: FieldValue<'_>| {
        let _ = write!(args, "{sep}\"{name}\":");
        sep = ",";
        match value {
            // Flattened: the kind as a string, then the violation's own
            // fields beside it.
            FieldValue::Violation(violation) => {
                let _ = write!(args, "\"{}\"", violation.kind());
                violation.for_each_field(|name, value| push_field(&mut args, name, value));
            }
            value => push_value(&mut args, value),
        }
    };
    event.for_each_field(&mut field);
    args.push('}');
    args
}

/// Renders a run log (and optionally wall-clock spans) as Chrome
/// trace-event JSON.
pub fn render_trace_json(log: &RunLog, spans: Option<&[Span]>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut sep = "";
    // Thread-name metadata so Perfetto labels each lane by process id.
    for (process, plog) in log.processes.iter().enumerate() {
        let _ = write!(
            out,
            "{sep}{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"process id:{}\"}}}}",
            process + 1,
            plog.id.raw()
        );
        sep = ",";
    }
    for m in log.merged() {
        let ts = u64::from(m.event.step()) * 1000 + m.seq as u64;
        let _ = write!(
            out,
            "{sep}{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"name\":",
            m.process + 1
        );
        write_escaped(&mut out, m.event.kind());
        let _ = write!(
            out,
            ",\"cat\":\"protocol\",\"args\":{}}}",
            event_args(&m.event)
        );
        sep = ",";
    }
    if let Some(spans) = spans {
        for span in spans {
            let _ = write!(
                out,
                "{sep}{{\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":{},\"dur\":{},\"name\":",
                span.start_micros, span.duration_micros
            );
            write_escaped(&mut out, &span.label());
            out.push_str(",\"cat\":\"wall\",\"args\":{}}");
            sep = ",";
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ProcessLog;
    use opr_types::{LinkId, NewName, OriginalId};

    #[test]
    fn trace_json_has_metadata_instants_and_spans() {
        let log = RunLog {
            processes: vec![ProcessLog {
                id: OriginalId::new(7),
                events: vec![
                    ProtocolEvent::IdSeen {
                        step: 1,
                        link: LinkId::new(1),
                        id: OriginalId::new(7),
                    },
                    ProtocolEvent::Decided {
                        step: 4,
                        name: NewName::new(1),
                    },
                ],
            }],
        };
        let spans = vec![Span {
            name: "round",
            index: Some(1),
            detail: None,
            start_micros: 10,
            duration_micros: 250,
        }];
        let rendered = render_trace_json(&log, Some(&spans));
        assert!(rendered.starts_with("{\"traceEvents\":["));
        assert!(rendered.ends_with("]}"));
        assert!(rendered.contains("\"thread_name\""));
        assert!(rendered.contains("\"ph\":\"i\""));
        assert!(rendered.contains("\"ts\":1000"));
        assert!(rendered.contains("\"ph\":\"X\""));
        assert!(rendered.contains("\"dur\":250"));
    }

    #[test]
    fn a_violation_is_nested_in_jsonl_and_flattened_here() {
        use crate::event::ValidityViolation;
        use opr_types::Rank;
        let log = RunLog {
            processes: vec![ProcessLog {
                id: OriginalId::new(5),
                events: vec![ProtocolEvent::VoteRejected {
                    step: 5,
                    link: LinkId::new(4),
                    violation: ValidityViolation::InsufficientSpacing {
                        prev: OriginalId::new(3),
                        prev_rank: Rank::new(1.25),
                        id: OriginalId::new(9),
                        rank: Rank::new(2.5),
                        spacing: 1.0 + 1.0 / 27.0,
                    },
                }],
            }],
        };
        let fields = "\"prev\":3,\"prev_rank\":\"1.250000000\",\"id\":9,\
                      \"rank\":\"2.500000000\",\"spacing\":\"1.037037037\"";
        assert!(crate::jsonl::render_jsonl(&log).contains(&format!(
            "\"link\":4,\"violation\":{{\"kind\":\"insufficient-spacing\",{fields}}}}}\n"
        )));
        assert!(render_trace_json(&log, None).contains(&format!(
            "\"args\":{{\"link\":4,\"violation\":\"insufficient-spacing\",{fields}}}}}"
        )));
    }
}
