//! Protocol-agnostic Byzantine behaviours.

use opr_sim::{Actor, Inbox, Outbox};
use opr_types::{LinkId, Round};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wraps an honest actor and crashes it (permanent silence) after
/// `alive_rounds` rounds of correct behaviour.
///
/// Crash faults are a strict subset of Byzantine faults; running the crash
/// strategy under the Byzantine algorithms checks that nothing *relies* on
/// faulty processes being malicious.
pub struct CrashAfter<A> {
    inner: A,
    alive_rounds: u32,
}

impl<A> CrashAfter<A> {
    /// Crash `inner` after it has sent in `alive_rounds` rounds.
    pub fn new(inner: A, alive_rounds: u32) -> Self {
        CrashAfter {
            inner,
            alive_rounds,
        }
    }
}

impl<A: Actor> Actor for CrashAfter<A> {
    type Msg = A::Msg;
    type Output = A::Output;

    fn send(&mut self, round: Round) -> Outbox<A::Msg> {
        if round.number() > self.alive_rounds {
            Outbox::Silent
        } else {
            self.inner.send(round)
        }
    }

    fn deliver(&mut self, round: Round, inbox: Inbox<A::Msg>) {
        if round.number() <= self.alive_rounds {
            self.inner.deliver(round, inbox);
        }
    }

    fn output(&self) -> Option<A::Output> {
        // A crashed process never outputs; it is faulty, so the network
        // does not wait for it anyway.
        None
    }
}

/// Replays previously-observed messages on random links: each round, for
/// each link, picks a random message from everything received so far (or
/// stays silent while nothing has been observed).
///
/// Replay keeps messages *syntactically perfect* — every byte once came from
/// a correct process — which probes whether protocols are confused by stale
/// or cross-delivered content.
pub(crate) struct Replay<M, O> {
    n: usize,
    pool: Vec<M>,
    rng: StdRng,
    _output: std::marker::PhantomData<O>,
}

impl<M, O> Replay<M, O> {
    /// Creates a replayer for a system of `n` processes.
    pub(crate) fn new(n: usize, seed: u64) -> Self {
        Replay {
            n,
            pool: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x7265_706c_6179),
            _output: std::marker::PhantomData,
        }
    }
}

impl<M: Clone + Send, O: Send> Actor for Replay<M, O> {
    type Msg = M;
    type Output = O;

    fn send(&mut self, _round: Round) -> Outbox<M> {
        if self.pool.is_empty() {
            return Outbox::Silent;
        }
        let entries = (1..=self.n)
            .map(|l| {
                let pick = self.rng.gen_range(0..self.pool.len());
                (LinkId::new(l), self.pool[pick].clone())
            })
            .collect();
        Outbox::Multicast(entries)
    }

    fn deliver(&mut self, _round: Round, inbox: Inbox<M>) {
        for (_, m) in inbox.messages() {
            // Bound the pool so long runs cannot grow without limit, and
            // clone only the messages actually kept — everything past the
            // cap stays a borrow of the shared payload.
            if self.pool.len() < 4096 {
                self.pool.push(m.clone());
            }
        }
    }

    fn output(&self) -> Option<O> {
        None
    }
}

/// Sends messages produced by a caller-supplied sampler, equivocating per
/// link — the chassis for protocol-specific random-noise strategies.
pub(crate) struct Noise<M, O, F> {
    n: usize,
    sampler: F,
    rng: StdRng,
    _types: std::marker::PhantomData<(M, O)>,
}

impl<M, O, F> Noise<M, O, F>
where
    F: FnMut(&mut StdRng, Round) -> Option<M>,
{
    /// Creates a noise generator; `sampler` is invoked once per link per
    /// round and may return `None` for silence on that link.
    pub(crate) fn new(n: usize, seed: u64, sampler: F) -> Self {
        Noise {
            n,
            sampler,
            rng: StdRng::seed_from_u64(seed ^ 0x6e_6f69_7365),
            _types: std::marker::PhantomData,
        }
    }
}

impl<M, O, F> Actor for Noise<M, O, F>
where
    M: Send,
    O: Send,
    F: FnMut(&mut StdRng, Round) -> Option<M> + Send,
{
    type Msg = M;
    type Output = O;

    fn send(&mut self, round: Round) -> Outbox<M> {
        let entries: Vec<(LinkId, M)> = (1..=self.n)
            .filter_map(|l| (self.sampler)(&mut self.rng, round).map(|m| (LinkId::new(l), m)))
            .collect();
        if entries.is_empty() {
            Outbox::Silent
        } else {
            Outbox::Multicast(entries)
        }
    }

    fn deliver(&mut self, _round: Round, _inbox: Inbox<M>) {}

    fn output(&self) -> Option<O> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_sim::WireSize;

    #[derive(Clone, Debug, PartialEq)]
    struct M(u32);
    impl WireSize for M {
        fn wire_bits(&self) -> u64 {
            32
        }
    }

    struct Echoer;
    impl Actor for Echoer {
        type Msg = M;
        type Output = u32;
        fn send(&mut self, round: Round) -> Outbox<M> {
            Outbox::Broadcast(M(round.number()))
        }
        fn deliver(&mut self, _round: Round, _inbox: Inbox<M>) {}
        fn output(&self) -> Option<u32> {
            Some(1)
        }
    }

    #[test]
    fn crash_after_silences_and_never_outputs() {
        let mut c = CrashAfter::new(Echoer, 2);
        assert!(matches!(c.send(Round::new(1)), Outbox::Broadcast(_)));
        assert!(matches!(c.send(Round::new(2)), Outbox::Broadcast(_)));
        assert!(matches!(c.send(Round::new(3)), Outbox::Silent));
        assert_eq!(c.output(), None, "faulty actors never decide");
    }

    #[test]
    fn replay_is_silent_until_it_has_material_then_equivocates() {
        let mut r: Replay<M, ()> = Replay::new(3, 5);
        assert!(matches!(r.send(Round::new(1)), Outbox::Silent));
        r.deliver(
            Round::new(1),
            Inbox::new(vec![(LinkId::new(1), M(7)), (LinkId::new(2), M(9))]),
        );
        match r.send(Round::new(2)) {
            Outbox::Multicast(entries) => {
                assert_eq!(entries.len(), 3);
                for (_, m) in entries {
                    assert!(m == M(7) || m == M(9), "replay only replays");
                }
            }
            other => panic!("expected multicast, got {:?}", other.fanout(3)),
        }
    }

    #[test]
    fn noise_invokes_sampler_per_link() {
        let mut noise: Noise<M, (), _> = Noise::new(4, 9, |rng, _| Some(M(rng.gen_range(0..100))));
        match noise.send(Round::new(1)) {
            Outbox::Multicast(entries) => assert_eq!(entries.len(), 4),
            _ => panic!("expected multicast"),
        }
    }

    #[test]
    fn noise_sampler_can_stay_silent() {
        let mut noise: Noise<M, (), _> = Noise::new(4, 9, |_, _| None);
        assert!(matches!(noise.send(Round::new(1)), Outbox::Silent));
    }
}
