//! Shared, immutable payloads for hand-built inboxes.
//!
//! The engine does not seal anything: a round's payloads live in the
//! network's payload table and receivers borrow them (DESIGN.md §8).
//! `Sealed` is what a caller that assembles inboxes itself — a probe that
//! drives actors without a [`Network`](crate::Network), a test — uses to
//! hand one payload to many receivers without copying it:
//! [`Inbox::from_sealed`](crate::Inbox::from_sealed) takes sealed entries,
//! and cloning a `Sealed` is a refcount bump.
//!
//! A sealed payload is immutable for its entire lifetime — `Sealed` hands
//! out `&M` only, never `&mut M`.

use crate::wire::WireSize;
use std::fmt::{self, Debug};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply-clonable (`Arc`-backed) message payload.
///
/// `Sealed<M>` derefs to `M`, renders (`Debug`) and sizes ([`WireSize`])
/// exactly like the payload it wraps, so sealing is observationally
/// invisible.
pub struct Sealed<M> {
    inner: Arc<M>,
}

impl<M> Sealed<M> {
    /// Seals a payload. From here on the message is immutable and shared.
    pub fn new(msg: M) -> Self {
        Sealed {
            inner: Arc::new(msg),
        }
    }
}

impl<M> Clone for Sealed<M> {
    /// A refcount bump — never a payload copy.
    fn clone(&self) -> Self {
        Sealed {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M> Deref for Sealed<M> {
    type Target = M;
    fn deref(&self) -> &M {
        &self.inner
    }
}

impl<M: WireSize> WireSize for Sealed<M> {
    fn wire_bits(&self) -> u64 {
        self.inner.wire_bits()
    }
}

impl<M: Debug> Debug for Sealed<M> {
    /// Renders exactly like the wrapped payload, alternate form included.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Counted(Vec<u64>);
    impl WireSize for Counted {
        fn wire_bits(&self) -> u64 {
            64 * self.0.len() as u64
        }
    }

    #[test]
    fn clone_shares_the_allocation() {
        let sealed = Sealed::new(Counted(vec![1, 2, 3]));
        let copy = sealed.clone();
        assert!(std::ptr::eq(&*sealed, &*copy));
    }

    #[test]
    fn debug_matches_the_payload_exactly() {
        let payload = Counted(vec![9, 8]);
        let sealed = Sealed::new(payload.clone());
        assert_eq!(format!("{sealed:?}"), format!("{payload:?}"));
        assert_eq!(format!("{sealed:#?}"), format!("{payload:#?}"));
        assert_eq!(sealed.wire_bits(), 128);
    }

    #[test]
    fn deref_exposes_the_payload_api() {
        let sealed = Sealed::new(Counted(vec![1, 2]));
        assert_eq!(sealed.0.len(), 2);
    }
}
