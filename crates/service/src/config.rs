//! Service-level configuration: shard layout, per-epoch protocol shape,
//! admission-queue bounds, and the seed discipline that keeps every epoch
//! replayable.

use opr_adversary::AdversarySpec;
use opr_transport::BackendKind;
use opr_types::math::mix64;
use opr_types::{ConfigError, Regime, RenamingError, SystemConfig};
use opr_workload::ClientId;
use std::fmt;

/// Why the service could not be configured or an epoch could not run.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// `shards == 0` — the engine needs at least one namespace shard.
    NoShards,
    /// `queue_capacity == 0` — the admission queue must admit something.
    ZeroQueueCapacity,
    /// More Byzantine actors per instance than the fault bound `t`.
    TooManyByzantine {
        /// Requested Byzantine actors per epoch instance.
        byzantine: usize,
        /// The configured fault bound.
        t: usize,
    },
    /// A shard's name range is smaller than one epoch's grant capacity, so
    /// a full epoch could never be granted even with an empty shard.
    ShardSpanTooSmall {
        /// The configured span.
        span: u64,
        /// The per-epoch grant capacity it must at least cover.
        capacity: usize,
    },
    /// The per-epoch `(N, t)` does not support the chosen regime.
    Config(ConfigError),
    /// An epoch's protocol instance failed — with in-budget silent-or-worse
    /// adversaries this indicates a harness bug, so it is an error, not a
    /// degradation.
    Protocol(RenamingError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::NoShards => write!(f, "service needs at least one shard"),
            ServiceError::ZeroQueueCapacity => write!(f, "admission queue capacity must be ≥ 1"),
            ServiceError::TooManyByzantine { byzantine, t } => {
                write!(
                    f,
                    "{byzantine} Byzantine actors per instance exceeds t = {t}"
                )
            }
            ServiceError::ShardSpanTooSmall { span, capacity } => write!(
                f,
                "shard span {span} cannot hold one epoch's {capacity} grants"
            ),
            ServiceError::Config(e) => write!(f, "{e}"),
            ServiceError::Protocol(e) => write!(f, "epoch protocol instance failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::Config(e)
    }
}

impl From<RenamingError> for ServiceError {
    fn from(e: RenamingError) -> Self {
        ServiceError::Protocol(e)
    }
}

/// Static configuration of a renaming service instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServiceConfig {
    /// Number of namespace shards. Each shard owns a disjoint name range
    /// and runs independent protocol instances.
    pub shards: usize,
    /// The `(N, t)` shape of every per-epoch protocol instance.
    pub epoch_cfg: SystemConfig,
    /// Which of the paper's algorithms each instance runs.
    pub regime: Regime,
    /// Byzantine actors placed in every instance (`≤ t`). The remaining
    /// `N − byzantine` slots carry client requests (padded with filler ids
    /// when demand is short).
    pub byzantine: usize,
    /// Byzantine strategy of the faulty actors.
    pub adversary: AdversarySpec,
    /// Execution substrate for the protocol instances.
    pub backend: BackendKind,
    /// Admission-queue bound: operations beyond this are rejected with
    /// backpressure instead of queueing unboundedly.
    pub queue_capacity: usize,
    /// Names per shard: shard `s` owns `[s·span + 1, (s+1)·span]`.
    pub shard_span: u64,
    /// Service seed; every `(epoch, shard)` protocol instance derives its
    /// run seed from it via [`epoch_seed`].
    pub seed: u64,
}

impl ServiceConfig {
    /// Checks the configuration invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when a bound is violated; see the variant
    /// docs for the exact conditions.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.shards == 0 {
            return Err(ServiceError::NoShards);
        }
        if self.queue_capacity == 0 {
            return Err(ServiceError::ZeroQueueCapacity);
        }
        if self.byzantine > self.epoch_cfg.t() {
            return Err(ServiceError::TooManyByzantine {
                byzantine: self.byzantine,
                t: self.epoch_cfg.t(),
            });
        }
        self.epoch_cfg.require(self.regime)?;
        let capacity = self.epoch_capacity();
        if self.shard_span < capacity as u64 {
            return Err(ServiceError::ShardSpanTooSmall {
                span: self.shard_span,
                capacity,
            });
        }
        Ok(())
    }

    /// How many client requests one epoch instance can carry per shard:
    /// the correct slots of the protocol instance.
    pub fn epoch_capacity(&self) -> usize {
        self.epoch_cfg.n() - self.byzantine
    }

    /// The inclusive name range shard `s` owns.
    pub fn shard_range(&self, shard: usize) -> (u64, u64) {
        let base = shard as u64 * self.shard_span;
        (base + 1, base + self.shard_span)
    }

    /// Which shard serves `client` — a stable hash, independent of the
    /// service seed so a client's shard never moves.
    pub fn shard_of(&self, client: ClientId) -> usize {
        (mix(0x0073_6861_7264, client.raw()) % self.shards as u64) as usize
    }
}

/// The run seed of the protocol instance shard `shard` executes in `epoch`,
/// derived from the service seed. Public so reduction gates can run the
/// identical instance directly through `RenamingRun`.
pub fn epoch_seed(service_seed: u64, epoch: u64, shard: usize) -> u64 {
    mix(mix(service_seed, epoch), shard as u64)
}

/// Stream `stream` of `seed`, independent of any RNG crate.
fn mix(seed: u64, stream: u64) -> u64 {
    mix64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream)
            .wrapping_add(0x9e37_79b9_7f4a_7c15),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ServiceConfig {
        ServiceConfig {
            shards: 4,
            epoch_cfg: SystemConfig::new(7, 2).unwrap(),
            regime: Regime::LogTime,
            byzantine: 2,
            adversary: AdversarySpec::Silent,
            backend: BackendKind::Sim,
            queue_capacity: 64,
            shard_span: 32,
            seed: 1,
        }
    }

    #[test]
    fn valid_config_passes() {
        base().validate().unwrap();
        assert_eq!(base().epoch_capacity(), 5);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = base();
        c.shards = 0;
        assert_eq!(c.validate(), Err(ServiceError::NoShards));
        c = base();
        c.queue_capacity = 0;
        assert_eq!(c.validate(), Err(ServiceError::ZeroQueueCapacity));
        c = base();
        c.byzantine = 3;
        assert!(matches!(
            c.validate(),
            Err(ServiceError::TooManyByzantine { .. })
        ));
        c = base();
        c.shard_span = 4;
        assert!(matches!(
            c.validate(),
            Err(ServiceError::ShardSpanTooSmall { .. })
        ));
        c = base();
        c.regime = Regime::TwoStep; // 7 ≤ 2t² + t = 10
        assert!(matches!(c.validate(), Err(ServiceError::Config(_))));
    }

    #[test]
    fn shard_ranges_are_disjoint_and_cover() {
        let c = base();
        let mut hi_prev = 0;
        for s in 0..c.shards {
            let (lo, hi) = c.shard_range(s);
            assert_eq!(lo, hi_prev + 1);
            assert_eq!(hi - lo + 1, c.shard_span);
            hi_prev = hi;
        }
    }

    #[test]
    fn shard_mapping_is_stable_and_spread() {
        let c = base();
        let shards: Vec<usize> = (0..100).map(|k| c.shard_of(ClientId::new(k))).collect();
        assert_eq!(
            shards,
            (0..100)
                .map(|k| c.shard_of(ClientId::new(k)))
                .collect::<Vec<_>>()
        );
        for s in 0..c.shards {
            assert!(shards.contains(&s), "shard {s} never hit");
        }
    }

    #[test]
    fn epoch_seeds_differ_across_epochs_and_shards() {
        assert_ne!(epoch_seed(1, 0, 0), epoch_seed(1, 1, 0));
        assert_ne!(epoch_seed(1, 0, 0), epoch_seed(1, 0, 1));
        assert_eq!(epoch_seed(1, 5, 3), epoch_seed(1, 5, 3));
    }
}
