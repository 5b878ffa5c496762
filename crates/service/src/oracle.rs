//! Service-level oracles: judge a grant/release ledger against the
//! guarantees the service inherits from the paper and adds on top.
//!
//! The protocol-level chaos oracles (`opr-chaos`) judge one instance from
//! its diagnosed run; these judge the *service* from its ledger — across
//! epochs, shards and recycling. The two suites compose: every epoch's
//! instance is the paper's protocol (covered there), and the ledger oracles
//! check that the multiplexing layer never breaks uniqueness, order or
//! namespace discipline while names cycle through the pools.

use crate::config::ServiceConfig;
use crate::engine::{Grant, LedgerEvent};
use opr_workload::ClientId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A ledger-level guarantee violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceViolation {
    /// Two grants in the same epoch and shard assigned the same name.
    DuplicateNameInEpoch {
        /// The epoch.
        epoch: u64,
        /// The shard.
        shard: usize,
        /// The doubly-assigned name.
        name: u64,
    },
    /// Within one epoch and shard, a smaller original id received a larger
    /// name (order preservation broken).
    OrderInversion {
        /// The epoch.
        epoch: u64,
        /// The shard.
        shard: usize,
        /// The smaller original id of the inverted pair.
        smaller: u64,
        /// The larger original id of the inverted pair.
        larger: u64,
    },
    /// A grant named outside its shard's range.
    NameOutOfShardRange {
        /// The epoch.
        epoch: u64,
        /// The shard.
        shard: usize,
        /// The out-of-range name.
        name: u64,
    },
    /// A name was granted while still live from an earlier grant (recycling
    /// broke cross-epoch uniqueness).
    NameLiveTwice {
        /// The epoch of the second grant.
        epoch: u64,
        /// The shard.
        shard: usize,
        /// The name that was live twice.
        name: u64,
        /// The client already holding the name.
        holder: ClientId,
    },
    /// A release of a name that was not live.
    ReleaseOfFreeName {
        /// The epoch of the bogus release.
        epoch: u64,
        /// The shard.
        shard: usize,
        /// The name that was not live.
        name: u64,
    },
}

impl fmt::Display for ServiceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ServiceViolation::DuplicateNameInEpoch { epoch, shard, name } => {
                write!(f, "epoch {epoch} shard {shard}: name {name} granted twice")
            }
            ServiceViolation::OrderInversion {
                epoch,
                shard,
                smaller,
                larger,
            } => write!(
                f,
                "epoch {epoch} shard {shard}: originals {smaller} < {larger} got inverted names"
            ),
            ServiceViolation::NameOutOfShardRange { epoch, shard, name } => {
                write!(
                    f,
                    "epoch {epoch} shard {shard}: name {name} outside shard range"
                )
            }
            ServiceViolation::NameLiveTwice {
                epoch,
                shard,
                name,
                holder,
            } => write!(
                f,
                "epoch {epoch} shard {shard}: name {name} granted while live (held by {holder})"
            ),
            ServiceViolation::ReleaseOfFreeName { epoch, shard, name } => {
                write!(
                    f,
                    "epoch {epoch} shard {shard}: release of free name {name}"
                )
            }
        }
    }
}

/// A ledger-level oracle: a named check over the full chronological ledger.
pub(crate) trait ServiceOracle {
    /// A short stable name for reports.
    fn name(&self) -> &'static str;
    /// Judges the ledger; an empty vector means the guarantee held.
    fn check(&self, cfg: &ServiceConfig, ledger: &[LedgerEvent]) -> Vec<ServiceViolation>;
}

/// Groups an epoch's grants by `(epoch, shard)`.
fn grants_by_cell(ledger: &[LedgerEvent]) -> BTreeMap<(u64, usize), Vec<&Grant>> {
    let mut cells: BTreeMap<(u64, usize), Vec<&Grant>> = BTreeMap::new();
    for event in ledger {
        if let LedgerEvent::Grant(grant) = event {
            cells
                .entry((grant.epoch, grant.shard))
                .or_default()
                .push(grant);
        }
    }
    cells
}

/// Within one epoch and shard, every granted name is unique.
pub(crate) struct EpochUniqueness;

impl ServiceOracle for EpochUniqueness {
    fn name(&self) -> &'static str {
        "epoch-uniqueness"
    }

    fn check(&self, _cfg: &ServiceConfig, ledger: &[LedgerEvent]) -> Vec<ServiceViolation> {
        let mut violations = Vec::new();
        for ((epoch, shard), grants) in grants_by_cell(ledger) {
            let mut seen = BTreeSet::new();
            for grant in grants {
                if !seen.insert(grant.name) {
                    violations.push(ServiceViolation::DuplicateNameInEpoch {
                        epoch,
                        shard,
                        name: grant.name,
                    });
                }
            }
        }
        violations
    }
}

/// Within one epoch and shard, service names (and the protocol names under
/// them) are ordered like the original ids — the paper's order preservation
/// survives pool compaction.
pub(crate) struct EpochOrder;

impl ServiceOracle for EpochOrder {
    fn name(&self) -> &'static str {
        "epoch-order"
    }

    fn check(&self, _cfg: &ServiceConfig, ledger: &[LedgerEvent]) -> Vec<ServiceViolation> {
        let mut violations = Vec::new();
        for ((epoch, shard), mut grants) in grants_by_cell(ledger) {
            grants.sort_by_key(|g| g.original);
            for pair in grants.windows(2) {
                let ordered =
                    pair[0].name < pair[1].name && pair[0].protocol_name < pair[1].protocol_name;
                if !ordered {
                    violations.push(ServiceViolation::OrderInversion {
                        epoch,
                        shard,
                        smaller: pair[0].original.raw(),
                        larger: pair[1].original.raw(),
                    });
                }
            }
        }
        violations
    }
}

/// Every grant's name lies inside its shard's disjoint range.
pub(crate) struct ShardRange;

impl ServiceOracle for ShardRange {
    fn name(&self) -> &'static str {
        "shard-range"
    }

    fn check(&self, cfg: &ServiceConfig, ledger: &[LedgerEvent]) -> Vec<ServiceViolation> {
        let mut violations = Vec::new();
        for event in ledger {
            if let LedgerEvent::Grant(grant) = event {
                let (lo, hi) = cfg.shard_range(grant.shard);
                if grant.name < lo || grant.name > hi {
                    violations.push(ServiceViolation::NameOutOfShardRange {
                        epoch: grant.epoch,
                        shard: grant.shard,
                        name: grant.name,
                    });
                }
            }
        }
        violations
    }
}

/// Across the whole run, no name is ever live twice: a chronological sweep
/// of the ledger in which every grant must target a non-live name and every
/// release must target a live one — the recycling guarantee.
pub(crate) struct CrossEpochUniqueness;

impl ServiceOracle for CrossEpochUniqueness {
    fn name(&self) -> &'static str {
        "cross-epoch-uniqueness"
    }

    fn check(&self, _cfg: &ServiceConfig, ledger: &[LedgerEvent]) -> Vec<ServiceViolation> {
        let mut violations = Vec::new();
        let mut live: BTreeMap<(usize, u64), ClientId> = BTreeMap::new();
        for event in ledger {
            match *event {
                LedgerEvent::Grant(grant) => {
                    if let Some(&holder) = live.get(&(grant.shard, grant.name)) {
                        violations.push(ServiceViolation::NameLiveTwice {
                            epoch: grant.epoch,
                            shard: grant.shard,
                            name: grant.name,
                            holder,
                        });
                    } else {
                        live.insert((grant.shard, grant.name), grant.client);
                    }
                }
                LedgerEvent::Release {
                    epoch, shard, name, ..
                } => {
                    if live.remove(&(shard, name)).is_none() {
                        violations.push(ServiceViolation::ReleaseOfFreeName { epoch, shard, name });
                    }
                }
            }
        }
        violations
    }
}

/// The full service oracle suite.
pub(crate) fn service_suite() -> Vec<Box<dyn ServiceOracle>> {
    vec![
        Box::new(EpochUniqueness),
        Box::new(EpochOrder),
        Box::new(ShardRange),
        Box::new(CrossEpochUniqueness),
    ]
}

/// Runs every ledger oracle and collects all violations,
/// tagged with the oracle that raised them.
pub fn judge_ledger(
    cfg: &ServiceConfig,
    ledger: &[LedgerEvent],
) -> Vec<(&'static str, ServiceViolation)> {
    service_suite()
        .iter()
        .flat_map(|oracle| {
            let name = oracle.name();
            oracle
                .check(cfg, ledger)
                .into_iter()
                .map(move |violation| (name, violation))
        })
        .collect()
}
