#![warn(missing_docs)]
//! Baseline renaming algorithms from the related work, used as comparators
//! in the experiments (see DESIGN.md §3).
//!
//! | Baseline | Model | Source | Steps | Namespace | Why it is here |
//! |---|---|---|---|---|---|
//! | [`CrashAaRenaming`] (B1) | crash | Okun, TCS 2010 — simplified | `O(log t)` | ≈ `N` | the crash-fault algorithm the paper generalizes; shows the Byzantine version costs the same |
//! | [`ConsensusRenaming`] (B2) | Byzantine, `N ≥ 4t+2` + granted global numbering | folklore via phase king | `4 + 2(t+1)` | `N + t − 1` | the Ω(t)-round consensus route the paper argues against |
//! | [`ChtRenaming`] (B3) | crash | Chaudhuri–Herlihy–Tuttle, TCS 1999 — simplified | `1 + ⌈log₂ N⌉` | `N` (crash-free) | the classic log-time *non*-order-preserving strong renaming |
//! | [`TranslatedRenaming`] (B4) | Byzantine | Okun–Barak–Gafni, DC 2008 — cost model | `2(1 + ⌈log₂ 2N⌉)` | ≤ `2N` | shows the crash-to-Byzantine translation's 2× round and 2N namespace blow-up |
//!
//! # Fidelity notes (also in DESIGN.md)
//!
//! * B1 follows the *structure* of Okun's algorithm (rank by position, then
//!   iterate AA until ranks are within rounding distance) with a simpler
//!   midpoint AA and stretch factor 2; it reproduces the `O(log t)` step
//!   complexity, which is what the comparisons use.
//! * B2 is granted globally consistent numbering (impossible in the paper's
//!   model, where it would make renaming trivial); it is a *cost* baseline.
//!   The simple two-round phase king also needs `N ≥ 4t + 2`; its substrate,
//!   phase-king consensus over a vector of binary instances, is
//!   [`phase_king`].
//! * B3/B4: full CHT and the full Bazzi–Neiger translation are large
//!   systems; B3 implements interval-splitting CHT faithfully enough for
//!   crash-free and crash-at-start runs, and B4 wraps each B3 step in an
//!   echo-validation double round, reproducing exactly the costs the paper
//!   cites (round doubling, echo traffic, namespace 2N under id forgery).
//!   B4 is exercised under forge-only adversaries; hardening it against
//!   arbitrary equivocation would require the complete translation of
//!   [3, 13], which is out of scope *because the paper's whole point* is
//!   that the translation is expensive.

pub mod cht;
pub mod consensus_renaming;
pub mod crash_aa;
pub mod phase_king;
pub mod translated;

pub use cht::ChtRenaming;
pub use consensus_renaming::ConsensusRenaming;
pub use crash_aa::CrashAaRenaming;
pub use translated::TranslatedRenaming;
