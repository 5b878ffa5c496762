//! The protocol interface: what a process does each synchronous round.

use crate::sealed::Sealed;
use opr_types::{LinkId, Round};

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
/// with the local label of the link it arrived on.
///
/// Payloads are stored [`Sealed`]: a broadcast delivers the *same*
/// allocation to every receiver, so holding an inbox costs refcounts, not
/// copies. The borrowing accessors ([`messages`](Inbox::messages),
/// [`from_link`](Inbox::from_link),
/// [`count_links_where`](Inbox::count_links_where)) hand out `&M` straight
/// from the shared payload; [`into_messages`](Inbox::into_messages) clones
/// owned copies out only when a consumer really needs ownership.
///
/// `Inbox` provides the counting idioms the paper's pseudo-code uses
/// ("received from at least `N − t` distinct links").
#[derive(Clone, Debug)]
pub struct Inbox<M> {
    entries: Vec<(LinkId, Sealed<M>)>,
}

impl<M> Inbox<M> {
    /// Builds an inbox from owned `(link, message)` pairs, sealing each
    /// payload individually. The engines use
    /// [`from_sealed`](Inbox::from_sealed) instead so broadcast payloads
    /// stay shared; this constructor is for tests and hand-built inboxes.
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
            entries: entries
                .into_iter()
                .map(|(l, m)| (l, Sealed::new(m)))
                .collect(),
        }
    }

    /// Builds an inbox from already-sealed pairs in **ascending label
    /// order** — the zero-copy path the engines use after their canonical
    /// per-round sort. Shared broadcast payloads stay shared.
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
        Inbox { entries }
    }

    /// An empty inbox.
    pub fn empty() -> Self {
        Inbox {
            entries: Vec::new(),
        }
    }

    /// Iterates over `(link, message)` pairs, borrowing payloads from the
    /// shared allocations.
    pub fn messages(&self) -> impl Iterator<Item = (LinkId, &M)> {
        self.entries.iter().map(|(l, m)| (*l, m.get()))
    }

    /// Iterates over the sealed `(link, payload)` pairs — for consumers
    /// that want to keep sharing the allocation (a refcount bump per kept
    /// message instead of a clone).
    pub fn sealed_messages(&self) -> impl Iterator<Item = (LinkId, &Sealed<M>)> {
        self.entries.iter().map(|(l, m)| (*l, m))
    }

    /// Consumes the inbox, yielding owned `(link, message)` pairs. Payloads
    /// still shared with other receivers (broadcasts) are cloned out;
    /// prefer [`messages`](Inbox::messages) and cloning only what you keep.
    pub fn into_messages(self) -> impl Iterator<Item = (LinkId, M)>
    where
        M: Clone,
    {
        self.entries.into_iter().map(|(l, m)| (l, m.into_inner()))
    }

    /// The number of links that delivered anything.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing arrived.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counts distinct links whose message satisfies `pred` — the paper's
    /// "received ⟨X⟩ from at least k distinct links" idiom. Links are unique
    /// per round by construction, so this is a plain filter-count.
    pub fn count_links_where<F>(&self, mut pred: F) -> usize
    where
        F: FnMut(&M) -> bool,
    {
        self.entries.iter().filter(|(_, m)| pred(m)).count()
    }

    /// The message delivered on `link`, if any.
    pub fn from_link(&self, link: LinkId) -> Option<&M> {
        self.entries
            .iter()
            .find(|(l, _)| *l == link)
            .map(|(_, m)| m.get())
    }
}

impl<M> FromIterator<(LinkId, M)> for Inbox<M> {
    fn from_iter<I: IntoIterator<Item = (LinkId, M)>>(iter: I) -> Self {
        Inbox::new(iter.into_iter().collect())
    }
}

impl<M> FromIterator<(LinkId, Sealed<M>)> for Inbox<M> {
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
/// pooled backend); [`Network::step`](crate::Network::step) does not rely
/// on it.
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
    fn deliver(&mut self, round: Round, inbox: Inbox<Self::Msg>);

    /// The decided value, once available. Must be stable: after returning
    /// `Some(v)`, keep returning `Some(v)`.
    fn output(&self) -> Option<Self::Output>;
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
    fn inbox_counting_idiom() {
        let inbox = Inbox::new(vec![(lnk(1), 10), (lnk(2), 10), (lnk(3), 20)]);
        assert_eq!(inbox.count_links_where(|m| *m == 10), 2);
        assert_eq!(inbox.count_links_where(|m| *m == 20), 1);
        assert_eq!(inbox.count_links_where(|m| *m == 99), 0);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
    }

    #[test]
    fn inbox_from_link_lookup() {
        let inbox = Inbox::new(vec![(lnk(2), 7u32)]);
        assert_eq!(inbox.from_link(lnk(2)), Some(&7));
        assert_eq!(inbox.from_link(lnk(1)), None);
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
        let borrowed: Vec<&u64> = inbox.sealed_messages().map(|(_, s)| s.get()).collect();
        // Both entries borrow the same allocation — the broadcast fan-out
        // really is zero-copy end to end.
        assert!(std::ptr::eq(borrowed[0], borrowed[1]));
        assert!(std::ptr::eq(borrowed[0], payload.get()));
        assert_eq!(inbox.from_link(lnk(2)), Some(&42));
    }

    #[test]
    fn inbox_collects_from_iterator() {
        let inbox: Inbox<u8> = vec![(lnk(1), 1u8), (lnk(2), 2u8)].into_iter().collect();
        assert_eq!(inbox.len(), 2);
        let owned: Vec<(LinkId, u8)> = inbox.into_messages().collect();
        assert_eq!(owned.len(), 2);
    }

    #[test]
    fn empty_inbox() {
        let inbox = Inbox::<u8>::empty();
        assert!(inbox.is_empty());
        assert_eq!(inbox.len(), 0);
    }
}
