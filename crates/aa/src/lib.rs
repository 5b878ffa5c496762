#![warn(missing_docs)]
//! Approximate-agreement building blocks.
//!
//! In *approximate agreement* (AA) processes start with arbitrary real
//! values and must output values within a bounded distance of each other,
//! inside the range of the correct inputs. The paper's voting phase
//! (Algorithm 3) is a per-id parallel composition of the synchronous
//! Byzantine AA of Dolev, Lynch, Pinter, Stark & Weihl (JACM 1986), referred
//! to as DLPSW throughout this workspace.
//!
//! This crate provides:
//!
//! * [`OrderedMultiset`] — a sorted multiset of votes, padded with one's
//!   own vote by [`OrderedMultiset::fill_to`] (Algorithm 3, lines 10–11).
//! * [`reduce`] — the full DLPSW reduction `avg(select_t(trim_t(votes)))`,
//!   and [`reduce_runs`], the same reduction read from ascending
//!   `(value, copies)` runs (what `opr-core`'s voting step calls: one run
//!   per distinct vote); its guaranteed contraction rate `σ_t` is
//!   `SystemConfig::sigma` in `opr-types`.
//!
//! # Example: one DLPSW reduction step
//!
//! ```
//! use opr_aa::{OrderedMultiset, reduce};
//!
//! // N = 7, t = 1: seven votes, one of which (99.0) is Byzantine garbage.
//! let votes = OrderedMultiset::from_iter([3.0f64, 3.1, 3.2, 2.9, 3.0, 3.1, 99.0]
//!     .map(ordered_float));
//! let new_value = reduce(&votes, 1);
//! assert!(new_value >= ordered_float(2.9) && new_value <= ordered_float(3.2));
//! # use opr_types::Rank;
//! # fn ordered_float(x: f64) -> Rank { Rank::new(x) }
//! ```

pub(crate) mod multiset;
pub(crate) mod select;

pub use multiset::OrderedMultiset;
pub use select::{reduce, reduce_runs};
