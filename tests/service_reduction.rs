//! The reduction gate: the service layer is a *pure multiplexer*.
//!
//! A service configured with one shard and run for one epoch with no
//! releases adds nothing to the protocol: the protocol names it records per
//! original id must be **bit-identical** to a direct `RenamingRun` on the
//! same inputs (same ids — batch originals plus the service's filler
//! padding — same adversary, same seed), and the service names must be the
//! order-preserving compaction of those protocol names onto the fresh pool
//! (`1..=k` in original-id order). Property-tested over `(N, t)`, batch
//! size and id layout, for the log-time and two-step regimes.

use opr::prelude::*;
use opr::service::{epoch_seed, LedgerEvent, ServiceConfig, ServiceEngine, ServiceOp};
use opr::transport::BackendKind;
use opr::types::NewName;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Distributions whose ids stay ≲ 2⁴⁰, leaving the service's filler ids
/// comfortable headroom below `N_max = 2⁴⁸`.
fn distribution() -> impl Strategy<Value = IdDistribution> {
    proptest::sample::select(vec![
        IdDistribution::Dense,
        IdDistribution::Clustered,
        IdDistribution::EvenSpaced,
    ])
}

fn adversary_for(regime: Regime) -> impl Strategy<Value = AdversarySpec> {
    proptest::sample::select(AdversarySpec::suite(regime).to_vec())
}

/// A legal `(n, t)` with `t ≥ 1` for the regime.
fn config_for(regime: Regime) -> impl Strategy<Value = (usize, usize)> {
    (1usize..=2).prop_flat_map(move |t| {
        let min_n = SystemConfig::minimal_n(t, regime);
        (min_n..min_n + 4).prop_map(move |n| (n, t))
    })
}

/// Runs the one-shard one-epoch service on `batch` acquires and checks both
/// halves of the reduction against the direct run.
fn assert_reduces(
    regime: Regime,
    n: usize,
    t: usize,
    batch: usize,
    dist: IdDistribution,
    spec: AdversarySpec,
    seed: u64,
) {
    let cfg = SystemConfig::new(n, t).unwrap();
    let capacity = n - t;
    let batch = batch.clamp(1, capacity);
    let originals = dist.generate(batch, seed);

    let service = ServiceConfig {
        shards: 1,
        epoch_cfg: cfg,
        regime,
        byzantine: t,
        adversary: spec,
        backend: BackendKind::Sim,
        queue_capacity: capacity.max(1),
        shard_span: capacity as u64 + 8,
        seed,
    };
    let mut engine = ServiceEngine::new(service).unwrap();
    for (i, &original) in originals.iter().enumerate() {
        assert!(engine.submit(ServiceOp::Acquire {
            client: ClientId::new(i as u64),
            original,
        }));
    }
    engine.run_epoch(&RunPool::serial()).unwrap();

    // The direct run on the same inputs: the service pads its batch with
    // filler ids directly above the largest real id, up to the instance
    // width, and uses the epoch-0 derived seed.
    let max_real = originals.iter().map(|o| o.raw()).max().unwrap();
    let ids: Vec<OriginalId> = originals
        .iter()
        .copied()
        .chain((1..=(capacity - batch) as u64).map(|i| OriginalId::new(max_real + i)))
        .collect();
    let direct = RenamingRun::builder(cfg, regime)
        .correct_ids(ids)
        .adversary(spec, t)
        .seed(epoch_seed(seed, 0, 0))
        .run()
        .unwrap();

    let granted: BTreeMap<OriginalId, (NewName, u64)> = engine
        .ledger()
        .iter()
        .map(|event| match event {
            LedgerEvent::Grant(g) => (g.original, (g.protocol_name, g.name)),
            other => panic!("no releases were submitted, got {other:?}"),
        })
        .collect();
    assert_eq!(granted.len(), batch, "every request granted in one epoch");

    // Half one: protocol names are bit-identical to the direct run.
    for (&original, &(protocol_name, _)) in &granted {
        assert_eq!(
            Some(protocol_name),
            direct.outcome.name_of(original),
            "protocol name mismatch for {original:?}"
        );
    }
    // Half two: service names are the compaction onto the fresh pool —
    // 1..=batch, ascending in original-id order (order preservation).
    let service_names: Vec<u64> = granted.values().map(|&(_, name)| name).collect();
    assert_eq!(
        service_names,
        (1..=batch as u64).collect::<Vec<_>>(),
        "fresh-pool compaction must grant 1..=k in original order"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn one_shard_one_epoch_reduces_to_a_direct_run_log_time(
        (n, t) in config_for(Regime::LogTime),
        batch in 1usize..8,
        dist in distribution(),
        spec in adversary_for(Regime::LogTime),
        seed in 0u64..1000,
    ) {
        assert_reduces(Regime::LogTime, n, t, batch, dist, spec, seed);
    }

    #[test]
    fn one_shard_one_epoch_reduces_to_a_direct_run_two_step(
        (n, t) in config_for(Regime::TwoStep),
        batch in 1usize..8,
        dist in distribution(),
        spec in adversary_for(Regime::TwoStep),
        seed in 0u64..1000,
    ) {
        assert_reduces(Regime::TwoStep, n, t, batch, dist, spec, seed);
    }
}
