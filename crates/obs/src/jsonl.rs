//! JSONL exporter: one compact JSON object per merged protocol event.
//!
//! Output is a pure function of the [`RunLog`], so two logs that compare
//! equal render byte-identical JSONL — the cross-jobs equivalence gate
//! compares these bytes directly. Rank values are rendered
//! as fixed-precision *strings* (never raw float literals) so that the
//! output stays parseable by strict integer-only JSON readers.

use std::fmt::Write as _;

use opr_types::Rank;

use crate::event::FieldValue;
use crate::log::RunLog;

/// Renders a rank for export: fixed 9-decimal string, quoted.
pub(crate) fn rank_field(rank: Rank) -> String {
    format!("\"{:.9}\"", rank.value())
}

/// Appends one field value as JSON. A violation is a nested object here;
/// the Perfetto writer flattens it instead.
pub(crate) fn push_value(out: &mut String, value: FieldValue<'_>) {
    match value {
        FieldValue::Uint(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::Int(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        FieldValue::Rank(rank) => out.push_str(&rank_field(rank)),
        FieldValue::Spacing(spacing) => {
            let _ = write!(out, "\"{spacing:.9}\"");
        }
        FieldValue::Ids(ids) => {
            out.push('[');
            for (i, id) in ids.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", id.raw());
            }
            out.push(']');
        }
        FieldValue::Violation(violation) => {
            let _ = write!(out, "{{\"kind\":\"{}\"", violation.kind());
            violation.for_each_field(|name, value| push_field(out, name, value));
            out.push('}');
        }
    }
}

/// Appends `,"name":value`.
pub(crate) fn push_field(out: &mut String, name: &str, value: FieldValue<'_>) {
    let _ = write!(out, ",\"{name}\":");
    push_value(out, value);
}

/// Renders the merged event stream as JSONL: one object per line, ordered
/// by (step, process, seq), trailing newline after every line.
pub fn render_jsonl(log: &RunLog) -> String {
    let mut out = String::new();
    for m in log.merged() {
        let _ = write!(
            out,
            "{{\"step\":{},\"process\":{},\"pid\":{},\"seq\":{},\"kind\":\"{}\"",
            m.event.step(),
            m.process,
            m.id.raw(),
            m.seq,
            m.event.kind()
        );
        m.event
            .for_each_field(|name, value| push_field(&mut out, name, value));
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProtocolEvent;
    use crate::log::ProcessLog;
    use opr_types::{LinkId, NewName, OriginalId};

    #[test]
    fn renders_one_object_per_line_with_stable_order() {
        let log = RunLog {
            processes: vec![ProcessLog {
                id: OriginalId::new(5),
                events: vec![
                    ProtocolEvent::IdSeen {
                        step: 1,
                        link: LinkId::new(2),
                        id: OriginalId::new(9),
                    },
                    ProtocolEvent::Decided {
                        step: 4,
                        name: NewName::new(2),
                    },
                ],
            }],
        };
        let rendered = render_jsonl(&log);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"step\":1,\"process\":0,\"pid\":5,\"seq\":0,\"kind\":\"id-seen\",\"link\":2,\"id\":9}"
        );
        assert!(lines[1].contains("\"kind\":\"decided\",\"name\":2"));
        assert!(rendered.ends_with('\n'));
    }

    #[test]
    fn ranks_render_as_fixed_precision_strings() {
        let field = rank_field(opr_types::Rank::new(1.5));
        assert_eq!(field, "\"1.500000000\"");
    }
}
