//! A run in a used arena is a run in a new one. One `RunArena` is driven
//! through sequences of instances — ids, id counts, seeds, fault counts,
//! adversaries, tracing and system sizes all changing between
//! them — and every instance is compared with a fresh run of the same
//! inputs: outcome, `RunMetrics`, rounds, completion, malformed sends, the
//! delivery trace, the protocol events and the probes. The service's path
//! (`RenamingRun::run_in`, outcome only) is held to `RenamingRun::run`.

use opr::core::{
    run_alg1_in, run_alg1_observed, run_two_step_in, run_two_step_observed, Alg1Options, Alg1Probe,
    ObservedRun, TwoStepMsg, TwoStepOptions, TwoStepProbe,
};
use opr::prelude::*;
use opr::rbcast::IdSlotSet;
use opr::sim::{Actor, Inbox, Outbox};
use proptest::prelude::*;

/// The adversaries each family is driven under.
const ALG1_ADVERSARIES: [AdversarySpec; 6] = [
    AdversarySpec::Silent,
    AdversarySpec::IdForge,
    AdversarySpec::EchoSplit,
    AdversarySpec::RankSkew,
    AdversarySpec::PairSqueeze,
    AdversarySpec::RandomNoise,
];
const TWO_STEP_ADVERSARIES: [AdversarySpec; 4] = [
    AdversarySpec::Silent,
    AdversarySpec::FakeFlood,
    AdversarySpec::HalfEcho,
    AdversarySpec::RandomNoise,
];

/// Everything one instance takes.
#[derive(Clone, Debug)]
struct Instance {
    regime: Regime,
    cfg: SystemConfig,
    faulty: usize,
    spec: AdversarySpec,
    ids: Vec<OriginalId>,
    seed: u64,
    trace: Option<usize>,
    events: bool,
    payload_cap: Option<u64>,
}

/// splitmix64: every parameter of an instance drawn from one number.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }
}

impl Instance {
    fn draw(regime: Regime, raw: u64) -> Self {
        let mut d = Draw(raw);
        let t = 1 + d.below(2) as usize;
        let n = SystemConfig::minimal_n(t, regime) + d.below(4) as usize;
        let cfg = SystemConfig::new(n, t).expect("legal config");
        let faulty = d.below(t as u64 + 1) as usize;
        let spec = if regime == Regime::TwoStep {
            d.pick(&TWO_STEP_ADVERSARIES)
        } else {
            d.pick(&ALG1_ADVERSARIES)
        };
        let dist = d.pick(&IdDistribution::ALL);
        let seed = d.next();
        Instance {
            regime,
            cfg,
            faulty,
            spec,
            ids: dist.generate(n - faulty, seed),
            seed,
            trace: (d.below(3) == 0).then_some(1 << 12),
            events: d.below(3) == 0,
            // Tight enough to turn the widest votes and floods away.
            payload_cap: (d.below(4) == 0).then_some(300 + 40 * d.below(10)),
        }
    }

    fn alg1_opts(&self) -> Alg1Options {
        let mut opts = Alg1Options {
            seed: self.seed,
            record_events: self.events,
            ..Alg1Options::default()
        };
        opts.exec.trace_capacity = self.trace;
        opts.exec.payload_cap = self.payload_cap;
        opts
    }

    /// The instance in `arena` (a new one when `None`), as an observation
    /// every field of which the comparison reads.
    fn observe(&self, arena: Option<&mut RunArena>) -> String {
        let spec = self.spec;
        let (cfg, ids, faulty) = (self.cfg, &self.ids, self.faulty);
        match (self.regime, arena) {
            (Regime::TwoStep, arena) => {
                let opts: TwoStepOptions = self.alg1_opts().with_tweaks(Default::default());
                let run: ObservedRun<TwoStepProbe> = match arena {
                    Some(arena) => run_two_step_in(
                        arena,
                        cfg,
                        ids,
                        faulty,
                        |env| spec.build_two_step(env),
                        opts,
                    ),
                    None => run_two_step_observed(
                        cfg,
                        ids,
                        faulty,
                        |env| spec.build_two_step(env),
                        opts,
                    ),
                }
                .expect("instances are legal");
                render(&run)
            }
            (regime, arena) => {
                let opts = self.alg1_opts();
                let run: ObservedRun<Alg1Probe> = match arena {
                    Some(arena) => run_alg1_in(
                        arena,
                        cfg,
                        regime,
                        ids,
                        faulty,
                        |env| spec.build_alg1(env),
                        opts,
                    ),
                    None => run_alg1_observed(
                        cfg,
                        regime,
                        ids,
                        faulty,
                        |env| spec.build_alg1(env),
                        opts,
                    ),
                }
                .expect("instances are legal");
                render(&run)
            }
        }
    }

    /// The service's path: the outcome alone, judged strictly.
    fn decide(&self, arena: &mut RunArena) -> Result<RenamingOutcome, RenamingError> {
        self.builder().run_in(arena)
    }

    fn builder(&self) -> RenamingRun {
        RenamingRun::builder(self.cfg, self.regime)
            .correct_ids(self.ids.iter().copied())
            .adversary(self.spec, self.faulty)
            .seed(self.seed)
    }
}

/// Every observable of a run, probes included, rendered bit-exactly
/// (`{:?}` tells `-0.0` from `0.0`).
fn render<P: std::fmt::Debug>(run: &ObservedRun<P>) -> String {
    format!("{run:?}")
}

/// Runs `instances` one after another in one arena and checks each against
/// a fresh run, on both paths.
fn assert_arena_runs_are_fresh_runs(instances: &[Instance]) {
    let mut observed = RunArena::default();
    let mut decided = RunArena::default();
    for (k, instance) in instances.iter().enumerate() {
        let tag = format!("instance {k} of {instances:#?}");
        assert_eq!(
            instance.observe(Some(&mut observed)),
            instance.observe(None),
            "observation: {tag}"
        );
        let fresh = instance.builder().run().map(|run| run.outcome);
        assert_eq!(instance.decide(&mut decided), fresh, "decision: {tag}");
    }
}

fn sequence(regimes: &[Regime], raws: &[u64]) -> Vec<Instance> {
    raws.iter()
        .enumerate()
        .map(|(k, &raw)| Instance::draw(regimes[k % regimes.len()], raw))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn log_time_arena_runs_are_fresh_runs(raws in proptest::collection::vec(0u64..u64::MAX, 3..6)) {
        assert_arena_runs_are_fresh_runs(&sequence(&[Regime::LogTime], &raws));
    }

    #[test]
    fn constant_time_arena_runs_are_fresh_runs(raws in proptest::collection::vec(0u64..u64::MAX, 3..6)) {
        assert_arena_runs_are_fresh_runs(&sequence(&[Regime::ConstantTime], &raws));
    }

    #[test]
    fn two_step_arena_runs_are_fresh_runs(raws in proptest::collection::vec(0u64..u64::MAX, 3..6)) {
        assert_arena_runs_are_fresh_runs(&sequence(&[Regime::TwoStep], &raws));
    }

    /// One arena serving every family in turn, at whatever size each draws.
    #[test]
    fn a_shared_arena_serves_every_family(raws in proptest::collection::vec(0u64..u64::MAX, 4..7)) {
        let regimes = [Regime::LogTime, Regime::TwoStep, Regime::ConstantTime];
        assert_arena_runs_are_fresh_runs(&sequence(&regimes, &raws));
    }
}

/// An instance of another size rebuilds the arena's network, and the size
/// after it rebuilds it again; a faulty seat's correct process is kept for
/// a later run and comes back reset.
#[test]
fn an_instance_of_another_size_rebuilds_the_network() {
    let at = |n: usize, faulty: usize, spec: AdversarySpec, seed: u64| {
        let cfg = SystemConfig::new(n, 2).expect("legal config");
        Instance {
            regime: Regime::LogTime,
            cfg,
            faulty,
            spec,
            ids: IdDistribution::SparseRandom.generate(n - faulty, seed),
            seed,
            trace: Some(1 << 12),
            events: true,
            payload_cap: None,
        }
    };
    assert_arena_runs_are_fresh_runs(&[
        at(7, 0, AdversarySpec::Silent, 1),
        at(7, 2, AdversarySpec::IdForge, 2),
        at(10, 1, AdversarySpec::EchoSplit, 3),
        at(7, 0, AdversarySpec::Silent, 4),
        at(7, 2, AdversarySpec::RankSkew, 5),
    ]);
}

/// Silent in step 1, then echoes the correct ids and one fake below them:
/// a receiver must reject the echo, its link having announced nothing.
struct EchoOnly(IdSlotSet<OriginalId>);

impl Actor for EchoOnly {
    type Msg = TwoStepMsg;
    type Output = NewName;
    fn send(&mut self, round: Round) -> Outbox<TwoStepMsg> {
        match round.number() {
            2 => Outbox::Broadcast(TwoStepMsg::MultiEcho(self.0.clone())),
            _ => Outbox::Silent,
        }
    }
    fn deliver(&mut self, _round: Round, _inbox: Inbox<TwoStepMsg>) {}
    fn output(&self) -> Option<NewName> {
        None
    }
}

/// A link that announced in the last instance and is silent in step 1 of
/// this one is unannounced: its echo is rejected, as in a new arena. (An
/// accepted echo would rank the fake id and shift every name above it.)
#[test]
fn last_instance_announcements_do_not_validate_this_instance_echoes() {
    let cfg = SystemConfig::new(4, 1).expect("legal config");
    let ids: Vec<OriginalId> = [20u64, 30, 40, 50].map(OriginalId::new).into();
    let run = |arena: &mut RunArena, ids: &[OriginalId], faulty: usize| {
        let opts = TwoStepOptions {
            seed: 3,
            ..TwoStepOptions::default()
        };
        let run: ObservedRun<TwoStepProbe> = run_two_step_in(
            arena,
            cfg,
            ids,
            faulty,
            |env| {
                let echo = env.correct_ids.iter().copied().chain([OriginalId::new(1)]);
                let echo = IdSlotSet::from_values(&env.interner, echo);
                Some(Box::new(EchoOnly(echo)) as _)
            },
            opts,
        )
        .expect("legal instance");
        render(&run)
    };
    let mut arena = RunArena::default();
    run(&mut arena, &ids, 0);
    let warm = run(&mut arena, &ids[..3], 1);
    assert_eq!(warm, run(&mut RunArena::default(), &ids[..3], 1));
}
