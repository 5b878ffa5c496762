#![warn(missing_docs)]
//! Domain types shared by every crate in the order-preserving renaming
//! workspace.
//!
//! This crate is dependency-free and defines the vocabulary of the system
//! model from Denysyuk & Rodrigues, *Order-Preserving Renaming in Synchronous
//! Systems with Byzantine Faults* (ICDCS 2013):
//!
//! * [`OriginalId`], [`NewName`], [`ProcessIndex`], [`LinkId`], [`Round`] —
//!   strongly-typed identifiers.
//! * [`SystemConfig`] — the `(N, t, N_max)` triple together with the paper's
//!   thresholds (`N−t`, `N−2t`), the stretch factor `δ = 1 + 1/(3(N+t))`, the
//!   resilience [`Regime`]s of the three algorithms, and their round budgets.
//! * [`Rank`] — the totally-ordered finite value that approximate agreement
//!   iterates on.
//! * [`RenamingOutcome`] — the map from old ids to new names produced by a
//!   run, plus the checkers for the problem's four properties: validity,
//!   termination, uniqueness and order preservation.
//!
//! # Example
//!
//! ```
//! use opr_types::{SystemConfig, Regime};
//!
//! let cfg = SystemConfig::new(10, 3)?;
//! assert!(cfg.supports(Regime::LogTime));        // N > 3t
//! assert!(!cfg.supports(Regime::ConstantTime));  // N must exceed t² + 2t
//! assert_eq!(cfg.quorum(), 7);                   // N − t
//! # Ok::<(), opr_types::ConfigError>(())
//! ```

pub(crate) mod config;
pub(crate) mod degraded;
pub(crate) mod error;
pub(crate) mod ids;
pub mod math;
pub(crate) mod outcome;
pub(crate) mod rank;

pub use config::{Regime, SystemConfig};
pub use degraded::{DegradedOutcome, MalformedKind, MalformedSend, Violation};
pub use error::{ConfigError, RenamingError};
pub use ids::{LinkId, NewName, OriginalId, ProcessIndex, Round};
pub use outcome::{PropertyViolation, RenamingOutcome};
pub use rank::Rank;
