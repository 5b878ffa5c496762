#![warn(missing_docs)]
//! The paper's contribution: order-preserving renaming algorithms for
//! synchronous systems with Byzantine faults.
//!
//! # Algorithms
//!
//! * [`OrderPreservingRenaming`] — **Algorithm 1**: a 4-step id-selection
//!   phase (via [`opr_rbcast::EchoReadyFlood`]) followed by per-id validated
//!   Byzantine approximate agreement. Two voting schedules, selected by
//!   [`Regime`](opr_types::Regime):
//!   - `LogTime` (`N > 3t`): `3⌈log₂ t⌉ + 3` voting steps, namespace
//!     `N + t − 1`, total `3⌈log t⌉ + 7` steps;
//!   - `ConstantTime` (`N > t² + 2t`): 4 voting steps, *strong* namespace
//!     `N`, total 8 steps (Theorem V.3).
//! * [`TwoStepRenaming`] — **Algorithm 4** (`N > 2t² + t`): two
//!   communication steps, echo counting with clamped offsets, namespace
//!   `N²`.
//!
//! # Key mechanisms
//!
//! * [`ranks::RankVector::is_valid`] — the `isValid` filter (Algorithm 2)
//!   that makes approximate agreement order-preserving: a received vote
//!   vector is accepted only if it ranks every locally-timely id, δ-spaced
//!   in id order.
//! * [`ranks::approximate`] — one voting step (Algorithm 3): per-id vote
//!   multisets, fill-to-`N` with own votes, trim `t` per side, `select_t`,
//!   average.
//!
//! # Running a protocol
//!
//! The [`runner`] module executes a full system (correct actors plus
//! caller-supplied Byzantine actors) on the simulator and returns the
//! [`RenamingOutcome`](opr_types::RenamingOutcome), the network metrics and
//! the invariant probes the experiments consume. Most users go through the
//! higher-level `opr-workload` harness instead.
//!
//! ```
//! use opr_core::runner::{run_alg1, Alg1Options};
//! use opr_types::{OriginalId, Regime, SystemConfig};
//!
//! let cfg = SystemConfig::new(4, 1)?;
//! let ids: Vec<OriginalId> = [30u64, 10, 20].iter().map(|&x| x.into()).collect();
//! // One silent Byzantine process (factory returns None ⇒ silent).
//! let result = run_alg1(cfg, Regime::LogTime, &ids, 1, |_env| None, Alg1Options::default())?;
//! let m = cfg.namespace_bound(Regime::LogTime);
//! assert!(result.outcome.verify(m).is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub(crate) mod messages;
pub mod probe;
pub mod ranks;
pub(crate) mod renaming;
pub mod runner;
pub(crate) mod two_step;

pub use messages::{Alg1Msg, TwoStepMsg};
pub use probe::{Alg1Probe, TwoStepProbe, VotingSnapshot};
pub use ranks::RankVector;
pub use renaming::{Alg1Tweaks, OrderPreservingRenaming};
pub use runner::{
    fault_placement, run_alg1, run_alg1_observed, run_two_step, run_two_step_observed,
    AdversaryEnv, Alg1Options, ObservedRun, RunOptions, TwoStepOptions,
};
pub use two_step::{TwoStepRenaming, TwoStepTweaks};
