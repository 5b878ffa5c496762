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

use crate::event::{ProtocolEvent, ValidityViolation};
use crate::json::write_escaped;
use crate::jsonl::rank_field;
use crate::log::RunLog;
use crate::span::Span;

fn event_args(event: &ProtocolEvent) -> String {
    let mut args = String::from("{");
    let mut sep = "";
    let field = |args: &mut String, sep: &mut &str, name: &str, value: String| {
        let _ = write!(args, "{}\"{}\":{}", sep, name, value);
        *sep = ",";
    };
    match event {
        ProtocolEvent::IdSeen { link, id, .. } => {
            field(&mut args, &mut sep, "link", link.label().to_string());
            field(&mut args, &mut sep, "id", id.raw().to_string());
        }
        ProtocolEvent::EchoThreshold {
            id,
            echoes,
            quorum,
            kept,
            ..
        } => {
            field(&mut args, &mut sep, "id", id.raw().to_string());
            field(&mut args, &mut sep, "echoes", echoes.to_string());
            field(&mut args, &mut sep, "quorum", quorum.to_string());
            field(&mut args, &mut sep, "kept", kept.to_string());
        }
        ProtocolEvent::ReadyThreshold {
            id,
            readies,
            quorum,
            weak_quorum,
            timely,
            relayed,
            ..
        } => {
            field(&mut args, &mut sep, "id", id.raw().to_string());
            field(&mut args, &mut sep, "readies", readies.to_string());
            field(&mut args, &mut sep, "quorum", quorum.to_string());
            field(&mut args, &mut sep, "weak_quorum", weak_quorum.to_string());
            field(&mut args, &mut sep, "timely", timely.to_string());
            field(&mut args, &mut sep, "relayed", relayed.to_string());
        }
        ProtocolEvent::AcceptThreshold {
            id,
            readies,
            quorum,
            accepted,
            ..
        } => {
            field(&mut args, &mut sep, "id", id.raw().to_string());
            field(&mut args, &mut sep, "readies", readies.to_string());
            field(&mut args, &mut sep, "quorum", quorum.to_string());
            field(&mut args, &mut sep, "accepted", accepted.to_string());
        }
        ProtocolEvent::VoteVectorSent { ids, .. } => {
            let list = ids
                .iter()
                .map(|id| id.raw().to_string())
                .collect::<Vec<_>>()
                .join(",");
            field(&mut args, &mut sep, "ids", format!("[{list}]"));
        }
        ProtocolEvent::VoteAccepted { link, entries, .. } => {
            field(&mut args, &mut sep, "link", link.label().to_string());
            field(&mut args, &mut sep, "entries", entries.to_string());
        }
        ProtocolEvent::VoteRejected {
            link, violation, ..
        } => {
            field(&mut args, &mut sep, "link", link.label().to_string());
            field(
                &mut args,
                &mut sep,
                "violation",
                format!("\"{}\"", violation.kind()),
            );
            if let ValidityViolation::InsufficientSpacing {
                prev,
                prev_rank,
                id,
                rank,
                spacing,
            } = violation
            {
                field(&mut args, &mut sep, "prev", prev.raw().to_string());
                field(&mut args, &mut sep, "prev_rank", rank_field(*prev_rank));
                field(&mut args, &mut sep, "id", id.raw().to_string());
                field(&mut args, &mut sep, "rank", rank_field(*rank));
                field(&mut args, &mut sep, "spacing", format!("\"{spacing:.9}\""));
            } else if let ValidityViolation::MissingTimelyId { id } = violation {
                field(&mut args, &mut sep, "id", id.raw().to_string());
            }
        }
        ProtocolEvent::IdDropped {
            id, votes, needed, ..
        } => {
            field(&mut args, &mut sep, "id", id.raw().to_string());
            field(&mut args, &mut sep, "votes", votes.to_string());
            field(&mut args, &mut sep, "needed", needed.to_string());
        }
        ProtocolEvent::TrimmedMean {
            id, votes, rank, ..
        } => {
            field(&mut args, &mut sep, "id", id.raw().to_string());
            field(&mut args, &mut sep, "votes", votes.to_string());
            field(&mut args, &mut sep, "rank", rank_field(*rank));
        }
        ProtocolEvent::EchoCounted {
            link, ids, valid, ..
        } => {
            field(&mut args, &mut sep, "link", link.label().to_string());
            field(&mut args, &mut sep, "ids", ids.to_string());
            field(&mut args, &mut sep, "valid", valid.to_string());
        }
        ProtocolEvent::NameOffset {
            id,
            echoes,
            clamped,
            name,
            ..
        } => {
            field(&mut args, &mut sep, "id", id.raw().to_string());
            field(&mut args, &mut sep, "echoes", echoes.to_string());
            field(&mut args, &mut sep, "clamped", clamped.to_string());
            field(&mut args, &mut sep, "name", name.raw().to_string());
        }
        ProtocolEvent::KingRound {
            phase,
            king,
            king_heard,
            adopted,
            ..
        } => {
            field(&mut args, &mut sep, "phase", phase.to_string());
            field(&mut args, &mut sep, "king", king.label().to_string());
            field(&mut args, &mut sep, "king_heard", king_heard.to_string());
            field(&mut args, &mut sep, "adopted", adopted.to_string());
        }
        ProtocolEvent::Decided { name, .. } => {
            field(&mut args, &mut sep, "name", name.raw().to_string());
        }
    }
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
}
