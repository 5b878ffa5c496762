//! Cross-backend equivalence: the pooled substrate — the round engine's
//! real-threads schedule — must be observationally
//! indistinguishable from the single-threaded reference simulator. For any
//! legal `(N, t, seed, adversary, id distribution)`, both backends
//! must produce identical renaming outcomes, round counts and message/bit
//! metrics — the tentpole guarantee of `opr-transport`.

use opr::prelude::*;
use opr::workload::RenamingRun;
use proptest::prelude::*;

/// Strategy: a legal (n, t) for the given regime, with t ≥ 1 so the
/// adversary is never vacuous.
fn config_for(regime: Regime) -> impl Strategy<Value = (usize, usize)> {
    (1usize..=3).prop_flat_map(move |t| {
        let min_n = SystemConfig::minimal_n(t, regime);
        (min_n..min_n + 5).prop_map(move |n| (n, t))
    })
}

fn adversary_for(regime: Regime) -> impl Strategy<Value = AdversarySpec> {
    let suite: Vec<AdversarySpec> = AdversarySpec::suite(regime).to_vec();
    proptest::sample::select(suite)
}

fn distribution() -> impl Strategy<Value = IdDistribution> {
    proptest::sample::select(IdDistribution::ALL.to_vec())
}

/// Runs the same configuration on every backend and asserts each
/// observable equals the sim reference's.
fn assert_backends_agree(
    regime: Regime,
    n: usize,
    t: usize,
    spec: AdversarySpec,
    dist: IdDistribution,
    seed: u64,
) {
    let cfg = SystemConfig::new(n, t).unwrap();
    let ids = dist.generate(n - t, seed);
    let run = |backend: BackendKind| {
        RenamingRun::builder(cfg, regime)
            .correct_ids(ids.clone())
            .adversary(spec, t)
            .seed(seed)
            .backend(backend)
            .run()
            .unwrap()
    };
    let sim = run(BackendKind::Sim);
    let backend = BackendKind::Pooled;
    let other = run(backend);
    let tag = format!("{backend}: {spec}/{dist}/N{n}t{t}s{seed}");
    assert_eq!(sim.outcome, other.outcome, "outcome: {tag}");
    assert_eq!(sim.stats.rounds, other.stats.rounds, "rounds: {tag}");
    assert_eq!(sim.stats.messages, other.stats.messages, "messages: {tag}");
    assert_eq!(sim.stats.bits, other.stats.bits, "bits: {tag}");
    assert_eq!(
        sim.stats.max_message_bits, other.stats.max_message_bits,
        "max bits: {tag}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn alg1_log_time_backends_agree(
        (n, t) in config_for(Regime::LogTime),
        spec in adversary_for(Regime::LogTime),
        dist in distribution(),
        seed in 0u64..1000,
    ) {
        assert_backends_agree(Regime::LogTime, n, t, spec, dist, seed);
    }

    #[test]
    fn alg1_constant_time_backends_agree(
        (n, t) in config_for(Regime::ConstantTime),
        spec in adversary_for(Regime::ConstantTime),
        dist in distribution(),
        seed in 0u64..1000,
    ) {
        assert_backends_agree(Regime::ConstantTime, n, t, spec, dist, seed);
    }

    #[test]
    fn two_step_backends_agree(
        (n, t) in config_for(Regime::TwoStep),
        spec in adversary_for(Regime::TwoStep),
        dist in distribution(),
        seed in 0u64..1000,
    ) {
        assert_backends_agree(Regime::TwoStep, n, t, spec, dist, seed);
    }
}

// Pin for the zero-copy fan-out: payloads shared by every link of a
// broadcast must be observationally invisible. For arbitrary chaos
// schedules — Byzantine placements, transport faults, payload caps — both
// backends must produce bit-identical diagnosed runs *and* byte-identical
// rendered delivery traces. The trace comparison is what exercises the
// engine's once-per-payload `Debug` rendering, reused by every delivery
// event of that payload; the `DiagnosedRun` comparison covers outcomes,
// metrics, rounds, malformed sends, masks and exclusions.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sealed_broadcast_delivery_is_bit_identical_across_backends(
        seed in 0u64..100_000,
        budget in proptest::sample::select(opr::chaos::BudgetRegime::ALL.to_vec()),
    ) {
        let schedule = opr::chaos::generate_schedule(seed, budget);
        let capacity = 1usize << 16;
        let run = |backend: BackendKind| {
            schedule
                .to_run(backend)
                .and_then(|run| run.trace(capacity).run_diagnosed())
                .expect("chaos schedules are legal by construction")
        };
        let sim = run(BackendKind::Sim);
        let tag = schedule.describe();
        let rendered = |run: &opr::workload::DiagnosedRun| -> Vec<String> {
            run.trace
                .as_ref()
                .expect("trace requested")
                .events()
                .iter()
                .map(|event| event.to_string())
                .collect()
        };
        let backend = BackendKind::Pooled;
        let other = run(backend);
        prop_assert_eq!(&sim, &other, "diagnosed run on {}: {}", backend, tag);
        prop_assert_eq!(rendered(&sim), rendered(&other), "trace on {}: {}", backend, tag);
    }
}

// The telemetry determinism gate: a correct process's protocol event
// stream is a pure function of its delivered messages, so attaching the
// recorder to both backends must yield bit-identical `RunLog`s — and, by
// extension, byte-identical JSONL renderings (the exporter is a pure
// function of the log). Network metrics are part of the same contract
// (satellite of the observability PR): the per-round counters must agree
// exactly for any chaos schedule, in and out of budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn protocol_event_streams_are_bit_identical_across_backends(
        seed in 0u64..100_000,
        budget in proptest::sample::select(opr::chaos::BudgetRegime::ALL.to_vec()),
    ) {
        let schedule = opr::chaos::generate_schedule(seed, budget);
        let run = |backend: BackendKind| {
            schedule
                .run_observed(backend)
                .expect("chaos schedules are legal by construction")
        };
        let sim = run(BackendKind::Sim);
        let tag = schedule.describe();
        let sim_log = sim.events.as_ref().expect("recorder attached");
        let backend = BackendKind::Pooled;
        let other = run(backend);
        let other_log = other.events.as_ref().expect("recorder attached");
        prop_assert_eq!(sim_log, other_log, "event streams on {}: {}", backend, tag);
        prop_assert_eq!(
            opr::obs::render_jsonl(sim_log),
            opr::obs::render_jsonl(other_log),
            "JSONL bytes on {}: {}",
            backend,
            tag
        );
        // One log per correct process, every process attributed.
        prop_assert_eq!(
            sim_log.processes.len(),
            schedule.n - schedule.byzantine,
            "process coverage: {}",
            tag
        );
    }

    #[test]
    fn run_metrics_agree_across_backends(
        seed in 0u64..100_000,
        budget in proptest::sample::select(opr::chaos::BudgetRegime::ALL.to_vec()),
    ) {
        let schedule = opr::chaos::generate_schedule(seed, budget);
        let sim = schedule
            .run_on(BackendKind::Sim)
            .expect("chaos schedules are legal by construction");
        let tag = schedule.describe();
        let backend = BackendKind::Pooled;
        let other = schedule
            .run_on(backend)
            .expect("chaos schedules are legal by construction");
        prop_assert_eq!(&sim.metrics, &other.metrics, "metrics on {}: {}", backend, tag);
        prop_assert_eq!(
            sim.metrics.rounds_executed(),
            sim.rounds,
            "round counters: {}",
            tag
        );
    }

    /// The deterministic `MetricsSnapshot` fold — counters, gauges and the
    /// per-round message histogram, including the event-derived quorum and
    /// vote counters — is bit-identical across both backends.
    #[test]
    fn deterministic_metrics_snapshots_agree_across_backends(
        seed in 0u64..100_000,
        budget in proptest::sample::select(opr::chaos::BudgetRegime::ALL.to_vec()),
    ) {
        let schedule = opr::chaos::generate_schedule(seed, budget);
        let tag = schedule.describe();
        let reference = schedule
            .run_observed(BackendKind::Sim)
            .expect("chaos schedules are legal by construction")
            .metrics_snapshot();
        prop_assert!(!reference.is_empty(), "snapshot never empty: {}", tag);
        let backend = BackendKind::Pooled;
        let other = schedule
            .run_observed(backend)
            .expect("chaos schedules are legal by construction")
            .metrics_snapshot();
        prop_assert_eq!(&reference, &other, "snapshot on {}: {}", backend, tag);
    }
}

/// Every adversary in both suites, deterministically (not sampled): the
/// equivalence must hold for each strategy, not just most of them.
#[test]
fn every_adversary_agrees_across_backends() {
    for spec in AdversarySpec::ALG1 {
        assert_backends_agree(Regime::LogTime, 7, 2, spec, IdDistribution::SparseRandom, 5);
    }
    for spec in AdversarySpec::TWO_STEP {
        assert_backends_agree(Regime::TwoStep, 11, 2, spec, IdDistribution::Clustered, 9);
    }
}

/// A probe actor that broadcasts its own index every round and records,
/// per round, which senders' messages arrived — a transport-level
/// observation instrument for pinning fault-onset semantics.
struct Probe {
    me: usize,
    rounds: u32,
    seen: Vec<Vec<usize>>,
}

impl opr::sim::Actor for Probe {
    type Msg = OriginalId;
    type Output = Vec<Vec<usize>>;

    fn send(&mut self, _round: Round) -> opr::sim::Outbox<OriginalId> {
        opr::sim::Outbox::Broadcast(OriginalId::new(self.me as u64))
    }

    fn deliver(&mut self, _round: Round, inbox: opr::sim::Inbox<OriginalId>) {
        let mut senders: Vec<usize> = inbox.messages().map(|(_, m)| m.raw() as usize).collect();
        senders.sort_unstable();
        self.seen.push(senders);
    }

    fn output(&self) -> Option<Vec<Vec<usize>>> {
        (self.seen.len() as u32 >= self.rounds).then(|| self.seen.clone())
    }
}

/// Runs `n` probes for `rounds` rounds under `plan` and returns, for each
/// receiver, the per-round sorted list of sender indices it heard from.
fn probe_deliveries(
    backend: BackendKind,
    n: usize,
    rounds: u32,
    plan: FaultPlan,
) -> Vec<Vec<Vec<usize>>> {
    let topology = opr::sim::Topology::seeded(n, 7);
    let actors: Vec<Box<dyn opr::sim::Actor<Msg = OriginalId, Output = Vec<Vec<usize>>>>> = (0..n)
        .map(|me| {
            Box::new(Probe {
                me,
                rounds,
                seen: Vec::new(),
            }) as Box<dyn opr::sim::Actor<Msg = OriginalId, Output = Vec<Vec<usize>>>>
        })
        .collect();
    let report = backend.execute(opr::transport::Job::new(actors, topology, rounds).opts(
        opr::transport::ExecOptions {
            faults: plan,
            ..Default::default()
        },
    ));
    assert!(report.completed, "probe run must complete");
    report
        .outputs
        .into_iter()
        .map(|o| o.expect("every probe outputs"))
        .collect()
}

/// Regression pin for the silence-onset boundary: a link silenced "from
/// round r" delivers its message in round r−1 and drops it in round r —
/// exactly, on both backends, with no off-by-one drift between them.
#[test]
fn link_silence_onset_boundary_is_exact_on_both_backends() {
    let n = 5;
    let rounds = 5u32;
    let onset = 3u32;
    let sender = 0usize;
    let link = LinkId::new(2);
    // Same topology seed as `probe_deliveries` — resolve the victim (the
    // peer `sender` reaches over `link`; link labels < n are never the
    // self-loop).
    let victim = opr::sim::Topology::seeded(n, 7)
        .peer(ProcessIndex::new(sender), link)
        .index();
    assert_ne!(victim, sender);
    let plan = FaultPlan::default().silence_link_from(sender, link, Round::new(onset));
    for backend in BackendKind::ALL {
        let seen = probe_deliveries(backend, n, rounds, plan.clone());
        // The boundary itself, stated explicitly: round onset−1 delivers,
        // round onset drops.
        assert!(
            seen[victim][(onset - 2) as usize].contains(&sender),
            "{backend}: round {} must still deliver",
            onset - 1
        );
        assert!(
            !seen[victim][(onset - 1) as usize].contains(&sender),
            "{backend}: round {onset} must drop"
        );
        // And the full delivery matrix: only (victim, round ≥ onset) is
        // affected.
        for (receiver, rows) in seen.iter().enumerate() {
            for r in 1..=rounds {
                let got = rows[(r - 1) as usize].contains(&sender);
                let expect = !(receiver == victim && r >= onset);
                assert_eq!(got, expect, "{backend}: receiver {receiver} round {r}");
            }
        }
    }
}

/// The same boundary for process-wide silence: a crash "from round r"
/// delivers on every link in round r−1 and on none from round r.
#[test]
fn crash_onset_boundary_is_exact_on_both_backends() {
    let n = 5;
    let rounds = 5u32;
    let onset = 3u32;
    let sender = 1usize;
    let plan = FaultPlan::default().crash_from(sender, Round::new(onset));
    for backend in BackendKind::ALL {
        let seen = probe_deliveries(backend, n, rounds, plan.clone());
        for receiver in (0..n).filter(|&r| r != sender) {
            for r in 1..=rounds {
                let got = seen[receiver][(r - 1) as usize].contains(&sender);
                assert_eq!(got, r < onset, "{backend}: receiver {receiver} round {r}");
            }
        }
    }
}

/// Crash composition: silencing a correct process at `Round::FIRST` is
/// observationally identical — to every receiver and to the oracle's
/// judged set — to removing that process from the correct set and placing
/// a silent Byzantine actor at its index. The diagnosed outcomes must
/// match exactly, on both backends.
#[test]
fn crash_at_first_round_composes_as_removal_from_correct_set() {
    for regime in [Regime::LogTime, Regime::ConstantTime, Regime::TwoStep] {
        let t = 1usize;
        let n = SystemConfig::minimal_n(t, regime) + 2;
        let cfg = SystemConfig::new(n, t).unwrap();
        let seed = 13u64;
        // The index a 1-fault placement picks under this seed — the crash
        // victim, so both runs disturb the same process.
        let placement = opr::core::fault_placement(n, 1, seed);
        let victim = placement.iter().position(|&f| f).unwrap();
        let all_ids = IdDistribution::SparseRandom.generate(n, 21);
        let reduced_ids: Vec<OriginalId> = all_ids
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| i != victim)
            .map(|(_, id)| id)
            .collect();
        for backend in BackendKind::ALL {
            // Run A: everyone correct, the victim crashed by the transport
            // before it can send anything.
            let crashed = RenamingRun::builder(cfg, regime)
                .correct_ids(all_ids.clone())
                .adversary(AdversarySpec::Silent, 0)
                .seed(seed)
                .backend(backend)
                .faults(FaultPlan::default().crash_from(victim, Round::FIRST))
                .run_diagnosed()
                .unwrap();
            // Run B: the victim's index is a silent Byzantine process and
            // its id is gone from the correct set.
            let removed = RenamingRun::builder(cfg, regime)
                .correct_ids(reduced_ids.clone())
                .adversary(AdversarySpec::Silent, 1)
                .seed(seed)
                .backend(backend)
                .run_diagnosed()
                .unwrap();
            let tag = format!("{regime:?}/{backend}");
            assert_eq!(crashed.excluded, vec![all_ids[victim]], "excluded: {tag}");
            assert_eq!(crashed.effective_faults(), 1, "effective: {tag}");
            assert_eq!(removed.effective_faults(), 1, "effective: {tag}");
            assert_eq!(crashed.degraded, removed.degraded, "diagnosis: {tag}");
            assert!(
                crashed.degraded.violations.is_empty(),
                "one fault is within budget: {tag}"
            );
        }
    }
}

/// Baselines execute on every substrate too (they go through the same
/// `Job`/`Substrate` path in the workload harness).
#[test]
fn baselines_agree_across_backends() {
    use opr::workload::Algorithm;
    for alg in Algorithm::ALL {
        let t = 1usize;
        let n = alg.minimal_n(t).max(6);
        let cfg = SystemConfig::new(n, t).unwrap();
        let ids = IdDistribution::EvenSpaced.generate(n - t, 4);
        let sim = alg
            .run_on(BackendKind::Sim, cfg, &ids, t, AdversarySpec::Silent, 4)
            .unwrap();
        let backend = BackendKind::Pooled;
        let other = alg
            .run_on(backend, cfg, &ids, t, AdversarySpec::Silent, 4)
            .unwrap();
        assert_eq!(sim.rounds, other.rounds, "{alg} on {backend}");
        assert_eq!(sim.messages, other.messages, "{alg} on {backend}");
        assert_eq!(sim.bits, other.bits, "{alg} on {backend}");
        assert_eq!(sim.max_name, other.max_name, "{alg} on {backend}");
        assert_eq!(sim.violations, other.violations, "{alg} on {backend}");
    }
}
