//! The protocol interface: what a process does each synchronous round.

use crate::network::{Payload, NO_PAYLOAD};
use crate::sealed::Sealed;
use opr_types::{LinkId, Round};
use std::fmt::{self, Debug};

/// What a process emits in one round.
///
/// Correct protocol code uses [`Outbox::Broadcast`] (the paper's algorithms
/// are all full-information broadcasts) or [`Outbox::Silent`]. Byzantine
/// strategies additionally use [`Outbox::Multicast`] to equivocate — sending
/// different messages on different links — or to address only a subset of
/// links.
#[derive(Clone, Debug)]
pub enum Outbox<M> {
    /// Send nothing this round.
    Silent,
    /// Send the same message on every link, including the self-loop.
    Broadcast(M),
    /// Send per-link messages; at most one per link (the model allows one
    /// message per link per round). Links absent from the list receive
    /// nothing.
    Multicast(Vec<(LinkId, M)>),
}

impl<M> Outbox<M> {
    /// Number of links this outbox addresses in a system of `n` processes.
    pub fn fanout(&self, n: usize) -> usize {
        match self {
            Outbox::Silent => 0,
            Outbox::Broadcast(_) => n,
            Outbox::Multicast(entries) => entries.len(),
        }
    }
}

/// The messages delivered to a process at the end of one round, each tagged
/// with the local label of the link it arrived on, in ascending label order.
///
/// An inbox the engine delivers borrows the round: the receiver's row of
/// the network's `(receiver, incoming label)` table and the round's payload
/// table, for the length of [`Actor::deliver`]. A broadcast is one payload
/// that every receiver's row points at, so
/// [`messages`](Inbox::messages) hands out the *same* `&M` to all of them
/// and nothing is copied or refcounted per link. Hand-built inboxes
/// ([`new`](Inbox::new), [`from_sealed`](Inbox::from_sealed), `collect`)
/// own their entries instead.
#[derive(Clone)]
pub struct Inbox<'a, M> {
    entries: Entries<'a, M>,
}

#[derive(Clone)]
enum Entries<'a, M> {
    /// Built by hand, label-sorted.
    Owned(Vec<(LinkId, Sealed<M>)>),
    /// Delivered by the engine: `row[l - 1]` is the payload that arrived on
    /// label `l`, or [`NO_PAYLOAD`]; `len` of them are set.
    Routed {
        row: &'a [u32],
        len: usize,
        payloads: &'a [Payload<M>],
    },
}

impl<'a, M> Inbox<'a, M> {
    /// Builds an inbox from owned `(link, message)` pairs, sealing each
    /// payload individually — for tests and hand-built inboxes.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the same link delivers twice — the model
    /// allows one message per link per round, and the network enforces it.
    pub fn new(entries: Vec<(LinkId, M)>) -> Self {
        debug_assert!(
            entries
                .iter()
                .enumerate()
                .all(|(i, (l, _))| entries[i + 1..].iter().all(|(l2, _)| l2 != l)),
            "a link delivered more than one message in a round"
        );
        Inbox {
            entries: Entries::Owned(
                entries
                    .into_iter()
                    .map(|(l, m)| (l, Sealed::new(m)))
                    .collect(),
            ),
        }
    }

    /// Builds an inbox from already-sealed pairs in **ascending label
    /// order**, so a hand-built broadcast can share one payload across
    /// receivers.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the entries are not strictly ascending
    /// by label — unsorted input or a link delivering twice.
    pub fn from_sealed(entries: Vec<(LinkId, Sealed<M>)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "a link delivered more than one message in a round \
             (or entries were not label-sorted)"
        );
        Inbox {
            entries: Entries::Owned(entries),
        }
    }

    /// The inbox the engine delivers: `len` set slots of `row`, each an
    /// index into `payloads`.
    pub(crate) fn routed(row: &'a [u32], len: usize, payloads: &'a [Payload<M>]) -> Self {
        Inbox {
            entries: Entries::Routed { row, len, payloads },
        }
    }

    /// Iterates over `(link, message)` pairs in ascending label order,
    /// borrowing the payloads.
    pub fn messages(&self) -> impl Iterator<Item = (LinkId, &M)> {
        match &self.entries {
            Entries::Owned(entries) => Messages::Owned(entries.iter()),
            Entries::Routed { row, len, payloads } => Messages::Routed {
                row: row.iter().enumerate(),
                left: *len,
                payloads,
            },
        }
    }

    /// The number of links that delivered anything.
    pub fn len(&self) -> usize {
        match &self.entries {
            Entries::Owned(entries) => entries.len(),
            Entries::Routed { len, .. } => *len,
        }
    }

    /// Whether nothing arrived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The iterator behind [`Inbox::messages`].
enum Messages<'b, M> {
    Owned(std::slice::Iter<'b, (LinkId, Sealed<M>)>),
    Routed {
        row: std::iter::Enumerate<std::slice::Iter<'b, u32>>,
        /// Set slots not yet reached: the exact size hint, and the stop.
        left: usize,
        payloads: &'b [Payload<M>],
    },
}

impl<'b, M> Iterator for Messages<'b, M> {
    type Item = (LinkId, &'b M);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Messages::Owned(entries) => entries.next().map(|(l, m)| (*l, &**m)),
            Messages::Routed {
                row,
                left,
                payloads,
            } => {
                if *left == 0 {
                    return None;
                }
                let (slot, &payload) = row.find(|(_, &p)| p != NO_PAYLOAD)?;
                *left -= 1;
                Some((LinkId::new(slot + 1), &payloads[payload as usize].msg))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Messages::Owned(entries) => entries.size_hint(),
            Messages::Routed { left, .. } => (*left, Some(*left)),
        }
    }
}

impl<M: Debug> Debug for Inbox<'_, M> {
    /// Renders `Inbox { entries: [(link, message), …] }` on both
    /// representations.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Listed<'i, 'a, M>(&'i Inbox<'a, M>);
        impl<M: Debug> Debug for Listed<'_, '_, M> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.messages()).finish()
            }
        }
        f.debug_struct("Inbox")
            .field("entries", &Listed(self))
            .finish()
    }
}

impl<M> FromIterator<(LinkId, M)> for Inbox<'_, M> {
    fn from_iter<I: IntoIterator<Item = (LinkId, M)>>(iter: I) -> Self {
        Inbox::new(iter.into_iter().collect())
    }
}

impl<M> FromIterator<(LinkId, Sealed<M>)> for Inbox<'_, M> {
    fn from_iter<I: IntoIterator<Item = (LinkId, Sealed<M>)>>(iter: I) -> Self {
        let mut entries: Vec<(LinkId, Sealed<M>)> = iter.into_iter().collect();
        entries.sort_by_key(|(l, _)| *l);
        Inbox::from_sealed(entries)
    }
}

/// A process in the synchronous model.
///
/// Each round `r`, the network first calls [`Actor::send`] on every process,
/// then routes, then calls [`Actor::deliver`] on every process with the full
/// inbox of round `r`. State transitions therefore happen in lock-step, as
/// the model requires. [`Actor::output`] is polled after each round; a run
/// completes once every *correct* actor reports `Some`.
///
/// Actors are `Send` so [`Network::step_on`](crate::Network::step_on) may
/// run the send and deliver phases on worker threads (`opr-transport`'s
/// `PooledBackend`, which no run selects); [`Network::step`](crate::Network::step),
/// the schedule every run uses, does not rely on it.
pub trait Actor: Send {
    /// Message vocabulary of the protocol.
    type Msg;
    /// The value a process decides.
    type Output;

    /// Produce this round's messages. Called exactly once per round, before
    /// any delivery of that round.
    fn send(&mut self, round: Round) -> Outbox<Self::Msg>;

    /// Consume this round's inbox. Called exactly once per round, after all
    /// sends of that round.
    fn deliver(&mut self, round: Round, inbox: Inbox<'_, Self::Msg>);

    /// The decided value, once available. Must be stable: after returning
    /// `Some(v)`, keep returning `Some(v)`.
    fn output(&self) -> Option<Self::Output>;
}

/// A boxed actor is an actor: the default seat of a
/// [`Network`](crate::Network), where each process may run different code.
impl<A: Actor + ?Sized> Actor for Box<A> {
    type Msg = A::Msg;
    type Output = A::Output;

    fn send(&mut self, round: Round) -> Outbox<Self::Msg> {
        (**self).send(round)
    }

    fn deliver(&mut self, round: Round, inbox: Inbox<'_, Self::Msg>) {
        (**self).deliver(round, inbox);
    }

    fn output(&self) -> Option<Self::Output> {
        (**self).output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lnk(l: usize) -> LinkId {
        LinkId::new(l)
    }

    #[test]
    fn outbox_fanout() {
        assert_eq!(Outbox::<u8>::Silent.fanout(5), 0);
        assert_eq!(Outbox::Broadcast(1u8).fanout(5), 5);
        assert_eq!(
            Outbox::Multicast(vec![(lnk(1), 1u8), (lnk(3), 2u8)]).fanout(5),
            2
        );
    }

    #[test]
    #[should_panic(expected = "more than one message")]
    #[cfg(debug_assertions)]
    fn inbox_rejects_duplicate_links() {
        let _ = Inbox::new(vec![(lnk(1), 1), (lnk(1), 2)]);
    }

    #[test]
    #[should_panic(expected = "more than one message")]
    #[cfg(debug_assertions)]
    fn sealed_inbox_rejects_duplicate_links() {
        let _ = Inbox::from_sealed(vec![(lnk(1), Sealed::new(1)), (lnk(1), Sealed::new(2))]);
    }

    #[test]
    fn sealed_inbox_shares_broadcast_payloads() {
        let payload = Sealed::new(42u64);
        let inbox = Inbox::from_sealed(vec![(lnk(1), payload.clone()), (lnk(2), payload.clone())]);
        let borrowed: Vec<&u64> = inbox.messages().map(|(_, m)| m).collect();
        // Both entries borrow the same allocation.
        assert!(std::ptr::eq(borrowed[0], borrowed[1]));
        assert!(std::ptr::eq(borrowed[0], &*payload));
    }

    #[test]
    fn inbox_collects_from_iterator() {
        let inbox: Inbox<u8> = vec![(lnk(1), 1u8), (lnk(2), 2u8)].into_iter().collect();
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
    }
}
