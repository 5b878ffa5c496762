//! Open-loop service workload: a seeded arrival schedule of acquire/release
//! intent for up to millions of synthetic clients.
//!
//! The service layer (`opr-service`) multiplexes many renaming instances
//! over epochs; this module generates the *demand* side deterministically,
//! so every service run is an exactly replayable function of its seeds. The
//! schedule is open-loop in the queueing sense: acquire arrivals happen at a
//! configured rate regardless of how the service is keeping up (a saturated
//! admission queue rejects them — that is the backpressure signal under
//! test, not a reason to slow arrivals down).
//!
//! Releases are described by *policy* rather than by a precomputed list:
//! every client has a deterministic hold time in epochs, and the service
//! driver materializes the release operation once the grant actually lands
//! (a release cannot be scheduled open-loop against a name that was never
//! granted — though clients that wrap around the universe *do* produce
//! release-before-grant and duplicate-acquire traffic naturally, which is
//! exactly the admission-edge behaviour the service tests exercise).

use opr_types::math::mix64;
use opr_types::OriginalId;
use std::fmt;

/// A synthetic service client (tenant), identified by a dense `u64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(u64);

impl ClientId {
    /// Wraps a raw client number.
    pub const fn new(raw: u64) -> Self {
        ClientId(raw)
    }

    /// The raw client number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Stream `stream` of `seed`, independent of any RNG crate so workload
/// generation is stable across rand-shim versions.
fn mix(seed: u64, stream: u64) -> u64 {
    mix64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream)
            .wrapping_add(0x9e37_79b9_7f4a_7c15),
    )
}

/// One acquire arrival: a client asking the service for a name, presenting
/// its original id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Arrival {
    /// Who is asking.
    pub client: ClientId,
    /// The original id the client presents to the renaming protocol.
    pub original: OriginalId,
}

/// A deterministic open-loop workload over a universe of synthetic clients.
///
/// Everything is a pure function of the fields: arrivals for an epoch can be
/// generated on demand (no per-client state, so "millions of clients" costs
/// nothing until they arrive), and two workloads with equal fields produce
/// bit-identical schedules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServiceWorkload {
    /// Size of the client universe. Arrival `k` comes from client
    /// `k mod clients`, so a universe smaller than the total arrival count
    /// wraps around: returning clients re-acquire after their release (the
    /// recycling traffic) or collide with their own live grant (the
    /// duplicate-acquire traffic).
    pub clients: u64,
    /// How many epochs of arrivals the schedule describes.
    pub epochs: u64,
    /// Acquire arrivals per epoch, independent of service state (open loop).
    pub arrivals_per_epoch: usize,
    /// Upper bound on per-client hold time; each client holds its grant for
    /// a deterministic `1 ⋯ max_hold` epochs before releasing.
    pub max_hold: u64,
    /// Workload seed (original ids, hold times).
    pub seed: u64,
}

impl ServiceWorkload {
    /// The acquire arrivals of `epoch`, in arrival order.
    pub fn arrivals(&self, epoch: u64) -> Vec<Arrival> {
        (0..self.arrivals_per_epoch as u64)
            .map(|i| {
                let k = epoch * self.arrivals_per_epoch as u64 + i;
                let client = ClientId::new(k % self.clients.max(1));
                Arrival {
                    client,
                    original: self.original_id(client),
                }
            })
            .collect()
    }

    /// The original id `client` presents — stable per client, drawn from
    /// `[1, 2⁴⁷]` so the service keeps headroom above every real id for its
    /// per-epoch filler ids.
    pub(crate) fn original_id(&self, client: ClientId) -> OriginalId {
        OriginalId::new(1 + mix(self.seed ^ 0x6f72_6967, client.raw()) % (1 << 47))
    }

    /// How many epochs `client` holds a grant before releasing it
    /// (`1 ⋯ max_hold`, deterministic per client).
    pub fn hold_epochs(&self, client: ClientId) -> u64 {
        1 + mix(self.seed ^ 0x686f_6c64, client.raw()) % self.max_hold.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ServiceWorkload {
        ServiceWorkload {
            clients: 1000,
            epochs: 10,
            arrivals_per_epoch: 8,
            max_hold: 3,
            seed: 42,
        }
    }

    #[test]
    fn arrivals_are_deterministic_and_open_loop() {
        let w = base();
        assert_eq!(w.arrivals(3), w.arrivals(3));
        for epoch in 0..w.epochs {
            assert_eq!(w.arrivals(epoch).len(), w.arrivals_per_epoch);
        }
    }

    #[test]
    fn clients_wrap_around_the_universe() {
        let w = ServiceWorkload {
            clients: 5,
            ..base()
        };
        let first = w.arrivals(0);
        let second = w.arrivals(1);
        // 8 arrivals over 5 clients: epoch 0 reuses clients 0–2, epoch 1
        // continues the global counter.
        assert_eq!(first[0].client, ClientId::new(0));
        assert_eq!(first[5].client, ClientId::new(0));
        assert_eq!(second[0].client, ClientId::new(3));
        // A returning client always presents the same original id.
        assert_eq!(first[0].original, first[5].original);
    }

    #[test]
    fn original_ids_leave_filler_headroom() {
        let w = base();
        for c in [0u64, 1, 999, u64::MAX] {
            let id = w.original_id(ClientId::new(c));
            assert!(id.raw() >= 1 && id.raw() <= 1 << 47, "{id:?}");
        }
    }

    #[test]
    fn hold_times_are_in_range_and_vary() {
        let w = base();
        let holds: Vec<u64> = (0..100).map(|c| w.hold_epochs(ClientId::new(c))).collect();
        assert!(holds.iter().all(|&h| (1..=3).contains(&h)));
        assert!(holds.iter().any(|&h| h != holds[0]));
    }

    #[test]
    fn zero_guards_do_not_divide_by_zero() {
        let w = ServiceWorkload {
            clients: 0,
            max_hold: 0,
            ..base()
        };
        assert_eq!(w.arrivals(0)[0].client, ClientId::new(0));
        assert_eq!(w.hold_epochs(ClientId::new(7)), 1);
    }
}
