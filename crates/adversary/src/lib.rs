#![warn(missing_docs)]
//! A library of Byzantine strategies against the renaming protocols.
//!
//! The paper's correctness claims quantify over *all* adversaries; an
//! implementation can only test against concrete ones. This crate
//! implements the attack families the paper's lemmas specifically defend
//! against, plus generic fuzzing, so that the test-suite and the
//! lemma-validation experiment (T4) can measure the bounds as maxima over a
//! hostile suite:
//!
//! | Strategy | Attacks | Defended by |
//! |---|---|---|
//! | `IdForger` | floods fake ids, equivocating one per link | Echo threshold `N−t` (Lemma IV.3) |
//! | `EchoSplitter` | delivers fakes to exactly `N−2t` correct processes, echoes asymmetrically | `Ready` amplification + `accepted ⊇ timely` (Lemmas IV.1/A.1) |
//! | `RankSkewer` | sends *valid* but extremal vote vectors, different per link | trim-`t` + `select_t` (Lemma IV.8) |
//! | `OrderInverter` | votes with inverted/missing ranks | `isValid` (Algorithm 2, Lemma IV.4) |
//! | `FakeFlooder` | per-receiver echo sets with `2t` fakes each, sized to pass `isValid` | offset clamp `min(counter, N−t)` (Lemma VI.1) |
//! | `EchoWithholder` | echoes fakes to asymmetric halves | discrepancy bound `Δ ≤ 2t²` (Lemma VI.1) |
//! | [`generic::CrashAfter`] | correct-then-silent (crash) behaviour | all (crash ⊂ Byzantine) |
//! | `Replay` | replays observed messages on random links | typed thresholds |
//! | random noise (via [`AdversarySpec::RandomNoise`]) | fuzzing with well-formed garbage | everything |
//!
//! [`AdversarySpec`] is the serializable face of the suite: experiments
//! enumerate `AdversarySpec::ALG1` / `AdversarySpec::TWO_STEP` and build
//! actors via [`AdversarySpec::build_alg1`] / [`AdversarySpec::build_two_step`].
//!
//! # Coordination
//!
//! Byzantine processes in the model collude with zero cost. Strategies here
//! coordinate *deterministically*: every faulty actor derives the same plan
//! from the shared [`AdversaryEnv`](opr_core::AdversaryEnv) (seed, slot
//! count, correct ids, topology), so no side channel is needed.

pub(crate) mod alg1;
pub(crate) mod divergence;
pub(crate) mod fakes;
pub mod generic;
pub(crate) mod spec;
pub(crate) mod two_step;

pub use spec::AdversarySpec;
