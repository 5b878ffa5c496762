//! The deterministic protocol event vocabulary.
//!
//! Every variant carries the communication step it happened in and states a
//! *decision*: which threshold was compared against which count, and which
//! way it went. The stream a correct process emits is a pure function of
//! its delivered messages, so it is bit-identical across execution
//! substrates — the equivalence gates enforce exactly that.

use opr_types::{LinkId, NewName, OriginalId, Rank};

/// Why a received vote vector failed the `isValid` filter (Algorithm 2).
#[derive(Clone, Debug, PartialEq)]
pub enum ValidityViolation {
    /// A locally-timely id is missing from the vector.
    MissingTimelyId {
        /// The timely id the vector does not rank.
        id: OriginalId,
    },
    /// The wire form was malformed (duplicate ids) and never reached the
    /// spacing filter.
    MalformedVector,
    /// Two consecutive timely ids are ranked closer than the spacing δ.
    InsufficientSpacing {
        /// The smaller of the two ids.
        prev: OriginalId,
        /// Its rank in the rejected vector.
        prev_rank: Rank,
        /// The larger of the two ids.
        id: OriginalId,
        /// Its rank in the rejected vector.
        rank: Rank,
        /// The required minimum spacing δ.
        spacing: f64,
    },
}

impl ValidityViolation {
    /// A short stable label for exports (`"missing-timely"`,
    /// `"malformed-vector"`, `"insufficient-spacing"`).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ValidityViolation::MissingTimelyId { .. } => "missing-timely",
            ValidityViolation::MalformedVector => "malformed-vector",
            ValidityViolation::InsufficientSpacing { .. } => "insufficient-spacing",
        }
    }

    /// Calls `field(name, value)` for each field of the violation besides
    /// its [`kind`](Self::kind), in export order.
    pub(crate) fn for_each_field(&self, mut field: impl FnMut(&'static str, FieldValue<'_>)) {
        use FieldValue::{Rank, Spacing, Uint};
        match *self {
            ValidityViolation::MissingTimelyId { id } => field("id", Uint(id.raw())),
            ValidityViolation::MalformedVector => {}
            ValidityViolation::InsufficientSpacing {
                prev,
                prev_rank,
                id,
                rank,
                spacing,
            } => {
                field("prev", Uint(prev.raw()));
                field("prev_rank", Rank(prev_rank));
                field("id", Uint(id.raw()));
                field("rank", Rank(rank));
                field("spacing", Spacing(spacing));
            }
        }
    }
}

/// The value of one exported event field — what
/// [`ProtocolEvent::for_each_field`] hands the exporters.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FieldValue<'a> {
    /// An id, link label, count or threshold.
    Uint(u64),
    /// A new name.
    Int(i64),
    /// Which way a comparison went.
    Bool(bool),
    /// A rank.
    Rank(Rank),
    /// The spacing δ a vector had to keep.
    Spacing(f64),
    /// The ids a vote vector ranks, ascending.
    Ids(&'a [OriginalId]),
    /// The constraint a rejected vector violated; its own fields come from
    /// [`ValidityViolation::for_each_field`].
    Violation(&'a ValidityViolation),
}

/// One protocol decision point, recorded by the process that made it.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolEvent {
    /// An original id became visible (flood `Init` in step 1, or a two-step
    /// id announcement in round 1), arriving on `link`.
    IdSeen {
        /// The communication step.
        step: u32,
        /// The link the announcement arrived on.
        link: LinkId,
        /// The announced id.
        id: OriginalId,
    },
    /// Step-2 ECHO count for a candidate id against the `N − t` quorum.
    EchoThreshold {
        /// The communication step.
        step: u32,
        /// The candidate id.
        id: OriginalId,
        /// How many distinct links echoed it.
        echoes: usize,
        /// The `N − t` quorum it was compared against.
        quorum: usize,
        /// Whether the candidate survived (`echoes ≥ quorum`).
        kept: bool,
    },
    /// Step-3 READY count for a candidate id against both thresholds.
    ReadyThreshold {
        /// The communication step.
        step: u32,
        /// The candidate id.
        id: OriginalId,
        /// How many distinct links sent `Ready` for it.
        readies: usize,
        /// The `N − t` quorum for timeliness.
        quorum: usize,
        /// The `N − 2t` weak quorum for relaying.
        weak_quorum: usize,
        /// Whether the id was admitted as timely (`readies ≥ quorum`).
        timely: bool,
        /// Whether this process relays a `Ready` of its own
        /// (`readies ≥ weak_quorum` and no `Ready` sent yet).
        relayed: bool,
    },
    /// Step-4 READY count deciding final acceptance.
    AcceptThreshold {
        /// The communication step.
        step: u32,
        /// The candidate id.
        id: OriginalId,
        /// How many distinct links sent `Ready` for it in total.
        readies: usize,
        /// The `N − t` quorum for acceptance.
        quorum: usize,
        /// Whether the id was accepted (`readies ≥ quorum`).
        accepted: bool,
    },
    /// The vote vector this process broadcast for one AA iteration.
    VoteVectorSent {
        /// The communication step.
        step: u32,
        /// The ids the vector ranks, ascending.
        ids: Vec<OriginalId>,
    },
    /// A received vote vector passed the `isValid` filter.
    VoteAccepted {
        /// The communication step.
        step: u32,
        /// The link the vector arrived on.
        link: LinkId,
        /// How many ids the vector ranks.
        entries: usize,
    },
    /// A received vote vector failed the `isValid` filter.
    VoteRejected {
        /// The communication step.
        step: u32,
        /// The link the vector arrived on.
        link: LinkId,
        /// The first constraint the vector violated.
        violation: ValidityViolation,
    },
    /// An accepted id was dropped from this AA iteration: fewer than
    /// `N − t` valid votes ranked it.
    IdDropped {
        /// The communication step.
        step: u32,
        /// The dropped id.
        id: OriginalId,
        /// How many valid votes ranked it.
        votes: usize,
        /// The `N − t` votes it needed.
        needed: usize,
    },
    /// The trimmed-mean result of one AA iteration for one id
    /// (Algorithm 3: fill to `N`, trim `t` per side, `select_t`, average).
    TrimmedMean {
        /// The communication step.
        step: u32,
        /// The id the votes rank.
        id: OriginalId,
        /// How many valid votes ranked it (before fill-to-`N`).
        votes: usize,
        /// The reduced rank.
        rank: Rank,
    },
    /// A two-step `MultiEcho` was judged against `echo_is_valid`.
    EchoCounted {
        /// The communication step.
        step: u32,
        /// The link the echo arrived on.
        link: LinkId,
        /// How many ids the echo carried.
        ids: usize,
        /// Whether the echo passed validation and was counted.
        valid: bool,
    },
    /// One row of the two-step name table: an accepted id, its raw echo
    /// count, the clamped offset and the resulting name.
    NameOffset {
        /// The communication step.
        step: u32,
        /// The accepted id.
        id: OriginalId,
        /// Raw echo count for the id.
        echoes: usize,
        /// The offset after clamping to the quorum.
        clamped: usize,
        /// The name this row assigns.
        name: NewName,
    },
    /// This process decided its new name.
    Decided {
        /// The communication step.
        step: u32,
        /// The decided name.
        name: NewName,
    },
}

impl ProtocolEvent {
    /// The communication step the event belongs to.
    pub fn step(&self) -> u32 {
        match *self {
            ProtocolEvent::IdSeen { step, .. }
            | ProtocolEvent::EchoThreshold { step, .. }
            | ProtocolEvent::ReadyThreshold { step, .. }
            | ProtocolEvent::AcceptThreshold { step, .. }
            | ProtocolEvent::VoteVectorSent { step, .. }
            | ProtocolEvent::VoteAccepted { step, .. }
            | ProtocolEvent::VoteRejected { step, .. }
            | ProtocolEvent::IdDropped { step, .. }
            | ProtocolEvent::TrimmedMean { step, .. }
            | ProtocolEvent::EchoCounted { step, .. }
            | ProtocolEvent::NameOffset { step, .. }
            | ProtocolEvent::Decided { step, .. } => step,
        }
    }

    /// A short stable kind label for exports and waterfalls.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolEvent::IdSeen { .. } => "id-seen",
            ProtocolEvent::EchoThreshold { .. } => "echo-threshold",
            ProtocolEvent::ReadyThreshold { .. } => "ready-threshold",
            ProtocolEvent::AcceptThreshold { .. } => "accept-threshold",
            ProtocolEvent::VoteVectorSent { .. } => "vote-vector",
            ProtocolEvent::VoteAccepted { .. } => "vote-accepted",
            ProtocolEvent::VoteRejected { .. } => "vote-rejected",
            ProtocolEvent::IdDropped { .. } => "id-dropped",
            ProtocolEvent::TrimmedMean { .. } => "trimmed-mean",
            ProtocolEvent::EchoCounted { .. } => "echo-counted",
            ProtocolEvent::NameOffset { .. } => "name-offset",
            ProtocolEvent::Decided { .. } => "decided",
        }
    }

    /// Calls `field(name, value)` for each field of the event besides its
    /// [`step`](Self::step), in export order — the one table of what an
    /// exported event carries, shared by the JSONL and Perfetto writers.
    pub(crate) fn for_each_field(&self, mut field: impl FnMut(&'static str, FieldValue<'_>)) {
        use FieldValue::{Bool, Ids, Int, Rank, Uint, Violation};
        let count = |n: usize| Uint(n as u64);
        let label = |link: LinkId| count(link.label());
        match *self {
            ProtocolEvent::IdSeen { link, id, .. } => {
                field("link", label(link));
                field("id", Uint(id.raw()));
            }
            ProtocolEvent::EchoThreshold {
                id,
                echoes,
                quorum,
                kept,
                ..
            } => {
                field("id", Uint(id.raw()));
                field("echoes", count(echoes));
                field("quorum", count(quorum));
                field("kept", Bool(kept));
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
                field("id", Uint(id.raw()));
                field("readies", count(readies));
                field("quorum", count(quorum));
                field("weak_quorum", count(weak_quorum));
                field("timely", Bool(timely));
                field("relayed", Bool(relayed));
            }
            ProtocolEvent::AcceptThreshold {
                id,
                readies,
                quorum,
                accepted,
                ..
            } => {
                field("id", Uint(id.raw()));
                field("readies", count(readies));
                field("quorum", count(quorum));
                field("accepted", Bool(accepted));
            }
            ProtocolEvent::VoteVectorSent { ref ids, .. } => field("ids", Ids(ids)),
            ProtocolEvent::VoteAccepted { link, entries, .. } => {
                field("link", label(link));
                field("entries", count(entries));
            }
            ProtocolEvent::VoteRejected {
                link,
                ref violation,
                ..
            } => {
                field("link", label(link));
                field("violation", Violation(violation));
            }
            ProtocolEvent::IdDropped {
                id, votes, needed, ..
            } => {
                field("id", Uint(id.raw()));
                field("votes", count(votes));
                field("needed", count(needed));
            }
            ProtocolEvent::TrimmedMean {
                id, votes, rank, ..
            } => {
                field("id", Uint(id.raw()));
                field("votes", count(votes));
                field("rank", Rank(rank));
            }
            ProtocolEvent::EchoCounted {
                link, ids, valid, ..
            } => {
                field("link", label(link));
                field("ids", count(ids));
                field("valid", Bool(valid));
            }
            ProtocolEvent::NameOffset {
                id,
                echoes,
                clamped,
                name,
                ..
            } => {
                field("id", Uint(id.raw()));
                field("echoes", count(echoes));
                field("clamped", count(clamped));
                field("name", Int(name.raw()));
            }
            ProtocolEvent::Decided { name, .. } => field("name", Int(name.raw())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_and_kind_cover_every_variant() {
        let events = [
            ProtocolEvent::IdSeen {
                step: 1,
                link: LinkId::new(2),
                id: OriginalId::new(7),
            },
            ProtocolEvent::Decided {
                step: 8,
                name: NewName::new(3),
            },
        ];
        assert_eq!(events[0].step(), 1);
        assert_eq!(events[0].kind(), "id-seen");
        assert_eq!(events[1].step(), 8);
        assert_eq!(events[1].kind(), "decided");
    }

    #[test]
    fn violation_kinds_are_stable() {
        let v = ValidityViolation::MissingTimelyId {
            id: OriginalId::new(1),
        };
        assert_eq!(v.kind(), "missing-timely");
    }
}
