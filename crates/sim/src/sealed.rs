//! Shared, immutable message payloads for zero-copy broadcast fan-out.
//!
//! The paper's algorithms are full-information broadcasts: every correct
//! process sends the *same* `⟨AA, ranks⟩` vector on all `N` links for every
//! voting step. Fanning that out used to deep-copy the payload once per
//! link — O(N²) heap allocations of O(N+t)-sized vectors per round across
//! the system. [`Sealed`] makes the fan-out a refcount bump instead: the
//! engine seals a broadcast payload exactly once and every inbox slot, on
//! either backend, shares the same allocation.
//!
//! # Ownership rules
//!
//! A sealed payload is immutable for its entire lifetime — `Sealed` hands
//! out `&M` only, never `&mut M`. Mutation ends where sealing begins: an
//! actor owns its message exclusively until it returns it from
//! [`Actor::send`](crate::Actor::send); the engine seals it during routing;
//! consumers borrow from the shared allocation.
//!
//! Alongside the payload, `Sealed` caches the two derived values the
//! delivery pipeline used to recompute per link:
//!
//! * [`WireSize::wire_bits`] — computed once, reused for the payload cap
//!   check, metrics and traces on all `N` links.
//! * The `Debug` rendering — traces record `format!("{msg:?}")` per
//!   delivery; sealing renders once and shares the string.

use crate::wire::WireSize;
use std::fmt::{self, Debug};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

struct SealedInner<M> {
    msg: M,
    bits: OnceLock<u64>,
    rendered: OnceLock<String>,
}

/// An immutable, cheaply-clonable (`Arc`-backed) message payload with
/// one-time cached wire size and `Debug` rendering.
///
/// `Sealed<M>` derefs to `M`, renders (`Debug`) and sizes ([`WireSize`])
/// exactly like the payload it wraps, so sealing is observationally
/// invisible: metrics, traces and malformed-send records are bit-for-bit
/// what an owned payload would have produced.
pub struct Sealed<M> {
    inner: Arc<SealedInner<M>>,
}

impl<M> Sealed<M> {
    /// Seals a payload. From here on the message is immutable and shared.
    pub fn new(msg: M) -> Self {
        Sealed {
            inner: Arc::new(SealedInner {
                msg,
                bits: OnceLock::new(),
                rendered: OnceLock::new(),
            }),
        }
    }

    /// Borrows the payload.
    pub(crate) fn get(&self) -> &M {
        &self.inner.msg
    }

    /// The cached `Debug` rendering, computed on first use and shared by
    /// every handle — what the delivery trace records per link.
    pub(crate) fn rendered(&self) -> &str
    where
        M: Debug,
    {
        self.inner
            .rendered
            .get_or_init(|| format!("{:?}", self.inner.msg))
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
        &self.inner.msg
    }
}

impl<M: WireSize> WireSize for Sealed<M> {
    /// The payload's wire size, computed once and cached across all links.
    fn wire_bits(&self) -> u64 {
        *self.inner.bits.get_or_init(|| self.inner.msg.wire_bits())
    }
}

impl<M: Debug> Debug for Sealed<M> {
    /// Renders exactly like the wrapped payload. The common non-alternate
    /// form (`{:?}` — what traces record) is cached; alternate formatting
    /// (`{:#?}`) delegates to the payload directly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            self.inner.msg.fmt(f)
        } else {
            f.write_str(self.rendered())
        }
    }
}

impl<M: PartialEq> PartialEq for Sealed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.inner.msg == other.inner.msg
    }
}

impl<M: Eq> Eq for Sealed<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SIZE_CALLS: AtomicU64 = AtomicU64::new(0);

    #[derive(Clone, Debug, PartialEq)]
    struct Counted(Vec<u64>);
    impl WireSize for Counted {
        fn wire_bits(&self) -> u64 {
            SIZE_CALLS.fetch_add(1, Ordering::SeqCst);
            64 * self.0.len() as u64
        }
    }

    #[test]
    fn clone_shares_the_allocation() {
        let sealed = Sealed::new(Counted(vec![1, 2, 3]));
        let copy = sealed.clone();
        assert!(std::ptr::eq(sealed.get(), copy.get()));
    }

    #[test]
    fn wire_bits_is_computed_once_across_handles() {
        let before = SIZE_CALLS.load(Ordering::SeqCst);
        let sealed = Sealed::new(Counted(vec![7; 4]));
        let copy = sealed.clone();
        assert_eq!(sealed.wire_bits(), 64 * 4);
        assert_eq!(copy.wire_bits(), 64 * 4);
        assert_eq!(sealed.wire_bits(), 64 * 4);
        assert_eq!(SIZE_CALLS.load(Ordering::SeqCst) - before, 1);
    }

    #[test]
    fn debug_matches_the_payload_exactly() {
        let payload = Counted(vec![9, 8]);
        let sealed = Sealed::new(payload.clone());
        assert_eq!(format!("{sealed:?}"), format!("{payload:?}"));
        assert_eq!(format!("{sealed:#?}"), format!("{payload:#?}"));
        assert_eq!(sealed.rendered(), format!("{payload:?}"));
    }

    #[test]
    fn deref_exposes_the_payload_api() {
        let sealed = Sealed::new(Counted(vec![1, 2]));
        assert_eq!(sealed.0.len(), 2);
    }
}
