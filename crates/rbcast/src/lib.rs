#![warn(missing_docs)]
//! Echo/Ready reliable flooding, bounded to four synchronous steps.
//!
//! The id-selection phase of Algorithm 1 is a *batched, sender-anonymous*
//! variant of the control-message core of Bracha's reliable broadcast
//! (Bracha & Toueg, JACM 1985): every process floods a value, everyone
//! echoes what it received, `Ready` messages amplify, and two thresholds
//! (`N − t` to act, `N − 2t` to relay) bound what Byzantine processes can
//! inject. Unlike full reliable broadcast the paper's variant terminates in
//! exactly 4 steps and does **not** guarantee all correct processes accept
//! the same set — it guarantees the weaker containment that suffices for
//! renaming:
//!
//! * every correct value is `timely` everywhere (Lemma IV.2);
//! * anything `timely` *somewhere* is `accepted` *everywhere*
//!   (Lemma IV.1);
//! * at most `t + ⌊t²/(N−2t)⌋` Byzantine values are accepted anywhere
//!   (Lemmas IV.3 / A.1).
//!
//! [`EchoReadyFlood`] implements the four steps over any ordered value type;
//! `opr-core` instantiates it with original ids, and the test-suite uses it
//! directly to validate the three properties above.

pub(crate) mod flood;
pub(crate) mod slots;

pub use flood::{EchoReadyFlood, FloodMsg, FloodObserver, FloodResult};
pub use slots::{for_each_slot, IdInterner, IdSlotSet, WORD_BITS};
