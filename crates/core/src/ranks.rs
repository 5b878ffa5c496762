//! Rank vectors, the `isValid` filter (Algorithm 2) and the per-step
//! approximation (Algorithm 3).
//!
//! Votes are read as strictly-ascending `(id, rank)` slices — the
//! *canonical form* — so both algorithms are merge-walks of sorted
//! sequences and a received vector is never rebuilt (DESIGN.md §15, "Vote
//! path"). A vector is one shared `Arc<[(OriginalId, Rank)]>` from the
//! step that computes it to every link, snapshot and ballot that holds it.
//! A vote bit-identical to one already read in the step is not read again:
//! it joins that vote's entry as one more copy ([`Ballot`]), and Algorithm 3
//! works on distinct votes with copy counts (DESIGN.md §15, "Distinct
//! votes").

use opr_aa::reduce_runs;
use opr_obs::ValidityViolation;
use opr_types::{OriginalId, Rank};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A process's current rank for every id it tracks — the paper's `ranks`
/// sparse array, held as `(id, rank)` pairs in strictly ascending id order.
/// The pairs are one shared slice: a clone, the broadcast
/// ([`to_wire`](RankVector::to_wire)) and a probe snapshot cost a reference
/// count, not a copy.
///
/// # Example
///
/// ```
/// use opr_core::RankVector;
/// use opr_types::OriginalId;
/// use std::collections::BTreeSet;
///
/// let accepted: BTreeSet<OriginalId> =
///     [5u64, 9, 2].iter().map(|&x| OriginalId::new(x)).collect();
/// let delta = 1.01;
/// let ranks = RankVector::from_accepted(&accepted, delta);
/// // Ranks are the 1-based positions in id order, stretched by δ.
/// assert_eq!(ranks.get(OriginalId::new(2)).unwrap().value(), delta);
/// assert_eq!(ranks.get(OriginalId::new(9)).unwrap().value(), 3.0 * delta);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RankVector {
    entries: Arc<[(OriginalId, Rank)]>,
}

fn strictly_ascending(entries: &[(OriginalId, Rank)]) -> bool {
    entries.windows(2).all(|w| w[0].0 < w[1].0)
}

/// The canonical form of a received vote vector: the entries in strictly
/// ascending id order — borrowed as sent when they already are (every
/// correct sender's), a sorted copy otherwise. `None` if an id occurs twice:
/// such a message is malformed and treated as invalid. An unsorted vector
/// without duplicates names the same id → rank map as its sorted self, so
/// it is read as that.
pub(crate) fn canonical(wire: &[(OriginalId, Rank)]) -> Option<Cow<'_, [(OriginalId, Rank)]>> {
    if strictly_ascending(wire) {
        return Some(Cow::Borrowed(wire));
    }
    let mut sorted = wire.to_vec();
    sorted.sort_unstable_by_key(|&(id, _)| id);
    strictly_ascending(&sorted).then_some(Cow::Owned(sorted))
}

/// Whether two wires are the same bits: the same ids and the same
/// `f64::to_bits` of every rank. Not `==`, which equates `-0.0` and `0.0` —
/// values the trimmed mean's sort and sum tell apart.
fn same_bits(a: &[(OriginalId, Rank)], b: &[(OriginalId, Rank)]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // Eight entries per early exit, one OR of XORs per field: the block has
    // no branch and no id/rank shuffle, so the compiler keeps it in
    // straight-line registers.
    let (a8, b8) = (a.chunks_exact(8), b.chunks_exact(8));
    let (a_tail, b_tail) = (a8.remainder(), b8.remainder());
    a8.zip(b8).all(|(x, y)| {
        let (mut ids, mut ranks) = (0, 0);
        for (p, q) in x.iter().zip(y) {
            ids |= p.0.raw() ^ q.0.raw();
            ranks |= p.1.value().to_bits() ^ q.1.value().to_bits();
        }
        ids | ranks == 0
    }) && a_tail
        .iter()
        .zip(b_tail)
        .all(|(p, q)| p.0 == q.0 && p.1.value().to_bits() == q.1.value().to_bits())
}

/// Entries a [`fingerprint`] reads, spread evenly over the wire.
const FINGERPRINT_SAMPLES: usize = 16;

/// A 64-bit fingerprint of a wire: its length and the bits (id and
/// `f64::to_bits` of the rank) of up to [`FINGERPRINT_SAMPLES`] entries
/// spread evenly over it, so its cost does not grow with the wire.
/// Bit-identical wires have equal fingerprints. Two different wires that
/// collide cost [`Ballot::cast`] one comparison, never a wrong fold.
fn fingerprint(wire: &[(OriginalId, Rank)]) -> u64 {
    let stride = wire.len().div_ceil(FINGERPRINT_SAMPLES).max(1);
    wire.iter()
        .step_by(stride)
        .fold(wire.len() as u64, |hash, &(id, rank)| {
            let mixed = (hash ^ id.raw()).rotate_left(23) ^ rank.value().to_bits();
            mixed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        })
}

/// One voting step's received votes, folded: each distinct accepted vote
/// once, in canonical form, with the number of links that sent it. A wire
/// bit-identical to one already cast this step is not read again — it
/// takes that wire's verdict and, if accepted, adds one copy to its entry.
///
/// The previous link's wire is compared first, so a fault-free step — one
/// vote on every link — costs one comparison per link and no more. Only a
/// wire that differs from it is fingerprinted and looked up among the
/// step's earlier distinct wires, accepted and rejected; the table of
/// those is filled from the step's second distinct wire on.
///
/// A process keeps one ballot across its voting steps and clears it at
/// the end of each. Entries are shared handles on the wires as delivered
/// (a sorted copy for a wire sent out of order), so only the tables'
/// capacity outlives the step: no wire outlives its round and nothing is
/// shared with another receiver (DESIGN.md §15, "Distinct votes").
#[derive(Clone, Debug)]
pub struct Ballot {
    votes: Vec<(Vote, usize)>,
    /// The previous wire cast and its fate.
    last: Option<(Vote, Fate)>,
    /// Every distinct wire cast this step, once a second one arrived.
    seen: Vec<Seen>,
}

/// A wire or a vote in canonical form: the wire itself, or its sorted copy.
type Vote = Arc<[(OriginalId, Rank)]>;

/// What `isValid` (or `canonical`, for a malformed vector) says of a vote.
type Verdict = Result<(), ValidityViolation>;

/// Where a distinct wire went: the index of its entry in `votes`, or why
/// it was rejected.
type Fate = Result<usize, ValidityViolation>;

/// A distinct wire of the step, keyed by its bits as sent — so a repeated
/// unsorted wire is matched, and sorted, once.
#[derive(Clone, Debug)]
struct Seen {
    fingerprint: u64,
    wire: Vote,
    fate: Fate,
}

impl Ballot {
    /// An empty ballot with room for one distinct vote per link.
    pub fn with_capacity(links: usize) -> Self {
        Ballot {
            votes: Vec::with_capacity(links),
            last: None,
            seen: Vec::new(),
        }
    }

    /// Reads one link's wire and returns its verdict. A wire bit-identical
    /// to one cast earlier this step takes that wire's verdict. Any other
    /// is put in canonical form — `MalformedVector` if an id repeats — and
    /// judged by `judge` (`isValid`, or nothing in the ablation that skips
    /// it).
    pub fn cast(
        &mut self,
        wire: &Vote,
        judge: impl FnOnce(&[(OriginalId, Rank)]) -> Verdict,
    ) -> Verdict {
        let fate = match &self.last {
            // A repeat keeps the previous wire as `last`: same bits, same fate.
            Some((previous, fate)) if same_bits(previous, wire) => fate.clone(),
            _ => {
                let fate = self.look_up_or_judge(wire, judge);
                self.last = Some((Arc::clone(wire), fate.clone()));
                fate
            }
        };
        match fate {
            Ok(entry) => {
                self.votes[entry].1 += 1;
                Ok(())
            }
            Err(violation) => Err(violation),
        }
    }

    /// The fate of a wire that is not the previous one's bits: that of an
    /// earlier distinct wire with the same bits, or a new entry or
    /// rejection (an accepted new entry starts at no copies; `cast` counts
    /// it).
    fn look_up_or_judge(
        &mut self,
        wire: &Vote,
        judge: impl FnOnce(&[(OriginalId, Rank)]) -> Verdict,
    ) -> Fate {
        let mut key = None;
        if let Some((first, fate)) = &self.last {
            // The step's second distinct wire: until now every link sent the
            // first one, so the table starts with it.
            if self.seen.is_empty() {
                self.seen.reserve(self.votes.capacity());
                self.seen.push(Seen {
                    fingerprint: fingerprint(first),
                    wire: Arc::clone(first),
                    fate: fate.clone(),
                });
            }
            let fingerprint = fingerprint(wire);
            let earlier = self
                .seen
                .iter()
                .find(|seen| seen.fingerprint == fingerprint && seen.wire.len() == wire.len());
            // Only the first fingerprint match is compared: a collision
            // makes the wire a new entry, which changes no output (folding
            // is optional) and caps a crafted collision at one comparison.
            if let Some(seen) = earlier.filter(|seen| same_bits(&seen.wire, wire)) {
                return seen.fate.clone();
            }
            key = Some(fingerprint);
        }
        let fate = match canonical(wire) {
            None => Err(ValidityViolation::MalformedVector),
            Some(vote) => judge(&vote).map(|()| {
                let vote = match vote {
                    Cow::Borrowed(_) => Arc::clone(wire),
                    Cow::Owned(sorted) => sorted.into(),
                };
                self.votes.push((vote, 0));
                self.votes.len() - 1
            }),
        };
        if let Some(fingerprint) = key {
            self.seen.push(Seen {
                fingerprint,
                wire: Arc::clone(wire),
                fate: fate.clone(),
            });
        }
        fate
    }

    /// The accepted distinct votes, each with its number of copies.
    pub fn votes(&self) -> &[(Vote, usize)] {
        &self.votes
    }

    /// Accepted votes counted in copies.
    pub fn copies(&self) -> usize {
        self.votes.iter().map(|&(_, copies)| copies).sum()
    }

    /// Ends the step: drops every wire and verdict, keeps the capacity.
    pub(crate) fn clear(&mut self) {
        self.votes.clear();
        self.last = None;
        self.seen.clear();
    }
}

/// One step of a merge-walk: advances `rest` (ascending ids) to `id` and
/// returns its rank, `None` if `id` is not there. A miss also consumes the
/// entry that proved it, so callers stop walking at their first miss.
fn seek(rest: &mut std::slice::Iter<'_, (OriginalId, Rank)>, id: OriginalId) -> Option<Rank> {
    match rest.find(|entry| entry.0 >= id) {
        Some(&(found, rank)) if found == id => Some(rank),
        _ => None,
    }
}

/// The `isValid` check (Algorithm 2) on a canonical vote: one merge-walk of
/// `entries` against the receiver's `timely` ids, both ascending. Reports
/// the first violated constraint in id order.
pub(crate) fn check_valid(
    entries: &[(OriginalId, Rank)],
    timely: impl IntoIterator<Item = OriginalId>,
    spacing: f64,
) -> Result<(), ValidityViolation> {
    let mut rest = entries.iter();
    let mut prev: Option<(OriginalId, Rank)> = None;
    for id in timely {
        let rank = seek(&mut rest, id).ok_or(ValidityViolation::MissingTimelyId { id })?;
        if let Some((prev_id, prev_rank)) = prev {
            if !prev_rank.spaced_at_least(rank, spacing) {
                return Err(ValidityViolation::InsufficientSpacing {
                    prev: prev_id,
                    prev_rank,
                    id,
                    rank,
                    spacing,
                });
            }
        }
        prev = Some((id, rank));
    }
    Ok(())
}

impl RankVector {
    /// An empty vector.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Initial ranks after id selection (Algorithm 1, lines 26–28): the
    /// 1-based position of each accepted id, stretched by `delta`.
    pub fn from_accepted(accepted: &BTreeSet<OriginalId>, delta: f64) -> Self {
        let accepted: Vec<OriginalId> = accepted.iter().copied().collect();
        let mut ranks = RankVector::new();
        ranks.reset_to_first(&accepted, delta);
        ranks
    }

    /// Makes this vector [`from_accepted`](RankVector::from_accepted)'s
    /// over `accepted` (ascending ids), written into this vector's own
    /// slice while it is that slice's one holder and has `accepted`'s
    /// length — a process's last vector, when a run arena reruns it — and
    /// into a new slice otherwise.
    pub(crate) fn reset_to_first(&mut self, accepted: &[OriginalId], delta: f64) {
        let first = accepted
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, Rank::from_position(i + 1, delta)));
        crate::refill(&mut self.entries, first);
    }

    /// The rank of `id`, if tracked.
    pub fn get(&self, id: OriginalId) -> Option<Rank> {
        self.entries
            .binary_search_by_key(&id, |&(entry, _)| entry)
            .ok()
            .map(|at| self.entries[at].1)
    }

    /// Number of tracked ids.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// `(id, rank)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (OriginalId, Rank)> + '_ {
        self.entries.iter().copied()
    }

    /// The tracked ids in ascending order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = OriginalId> + '_ {
        self.entries.iter().map(|&(id, _)| id)
    }

    /// The vector for the wire (ascending id order): the shared slice
    /// itself, not a copy.
    pub fn to_wire(&self) -> Arc<[(OriginalId, Rank)]> {
        Arc::clone(&self.entries)
    }

    /// Parses a received vote vector into an owned copy of its canonical
    /// form. Returns `None` if the sender supplied duplicate ids — such a
    /// message is malformed and treated as invalid.
    pub fn from_wire(entries: &[(OriginalId, Rank)]) -> Option<Self> {
        canonical(entries).map(|entries| RankVector {
            entries: entries.into(),
        })
    }

    /// The `isValid` check (Algorithm 2): this vector is an acceptable vote
    /// with respect to the receiver's `timely` set iff it ranks **every**
    /// timely id and consecutive timely ids are spaced by at least
    /// `spacing` (= δ) in id order.
    ///
    /// Consecutive spacing implies the paper's all-pairs condition by
    /// transitivity. Rank comparisons use [`Rank::EPS`] tolerance so
    /// correct votes are never rejected over floating-point dust
    /// (Lemma IV.4 must hold in the implementation, not only on paper).
    pub fn is_valid(&self, timely: &BTreeSet<OriginalId>, spacing: f64) -> bool {
        self.check_valid(timely, spacing).is_ok()
    }

    /// [`is_valid`](RankVector::is_valid), reporting *which* constraint a
    /// rejected vector violated (the first one encountered in id order) —
    /// the telemetry layer attaches this to `vote-rejected` events.
    pub fn check_valid(
        &self,
        timely: &BTreeSet<OriginalId>,
        spacing: f64,
    ) -> Result<(), ValidityViolation> {
        check_valid(&self.entries, timely.iter().copied(), spacing)
    }
}

impl AsRef<[(OriginalId, Rank)]> for RankVector {
    fn as_ref(&self) -> &[(OriginalId, Rank)] {
        &self.entries
    }
}

/// Collects in any order; of two entries for one id the later wins, as in a
/// map.
impl FromIterator<(OriginalId, Rank)> for RankVector {
    fn from_iter<I: IntoIterator<Item = (OriginalId, Rank)>>(iter: I) -> Self {
        let mut entries: Vec<(OriginalId, Rank)> = iter.into_iter().collect();
        entries.sort_by_key(|&(id, _)| id);
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                *kept = *later;
            }
            same
        });
        RankVector {
            entries: entries.into(),
        }
    }
}

/// A gathered vote: one distinct vote's rank for one id, and its copies.
type Run = (Rank, usize);

/// Runs of gathered vote columns resident at once: 128 KiB, so a tile stays
/// in a core's L2 whatever `N` is. One `N × |accepted|` matrix per process
/// instead is `N²` ranks per process and `N³` resident over a run's actors
/// (4.9 GB at `N = 1024`).
const TILE_RUNS: usize = 128 * 1024 / std::mem::size_of::<Run>();

/// One cache line of runs between columns, so that a power-of-two column
/// length (`N = 1024`) does not map every column onto the same cache sets.
const STRIDE_PAD: usize = 64 / std::mem::size_of::<Run>();

/// Reusable working memory of [`approximate`](VoteScratch::approximate):
/// one cursor per distinct vote, one tile of vote columns and the new
/// vector's entries. A process keeps one across its voting steps (and
/// across the instances of a run arena), so once the first step has sized
/// it a step allocates here only the new vector's shared slice — and not
/// even that when the step changed no rank.
#[derive(Clone, Debug)]
pub struct VoteScratch {
    /// [`TILE_RUNS`], except in the unit test that forces many tiles.
    tile_runs: usize,
    /// Per vote, the first entry not yet walked past — carried from tile to
    /// tile, so every vote is walked once per step.
    cursors: Vec<usize>,
    /// Column-major tile of runs: column `c` starts at `c * stride`.
    columns: Vec<Run>,
    /// Per column of the tile, the runs gathered so far and the copies
    /// they hold.
    filled: Vec<(usize, usize)>,
    /// The new vector's entries, copied into its shared slice at the end.
    ranks: Vec<(OriginalId, Rank)>,
}

impl Default for VoteScratch {
    fn default() -> Self {
        VoteScratch {
            tile_runs: TILE_RUNS,
            cursors: Vec::new(),
            columns: Vec::new(),
            filled: Vec::new(),
            ranks: Vec::new(),
        }
    }
}

impl VoteScratch {
    /// One voting step (Algorithm 3, `approximate`): for each accepted id
    /// (`accepted` ascending), gather the validated votes, drop ids with
    /// fewer than `N − t` votes, pad each multiset to `N` votes with our own
    /// rank, trim `t` per side, select and average.
    ///
    /// `valid_votes` are distinct votes in canonical form (strictly
    /// ascending ids — what [`RankVector`] holds), each with its number of
    /// copies; each copy counts as one vote. A column gathers one `(rank, copies)`
    /// run per distinct vote, the padding is one run of the own rank, and
    /// the sorted runs are reduced by [`opr_aa::reduce_runs`] — the ranks
    /// are bit for bit those of the expanded votes. Returns the new rank
    /// vector; its ids are the surviving accepted set. When its entries are
    /// bit-identical to `my_ranks` (the same ids and the same `f64::to_bits`
    /// of every rank, so `-0.0` is not `0.0`), it is `my_ranks`' own shared
    /// slice. Each id's fate goes to `observe`, in id order: the number of
    /// valid votes (copies) that
    /// ranked it, and `Some(rank)` with the trimmed mean if it survived the
    /// `N − t` vote threshold, `None` if it was discarded.
    ///
    /// # Panics
    ///
    /// Panics if `my_ranks` is missing an accepted id that survives the
    /// vote threshold — an internal-invariant breach (correct processes
    /// always rank their whole accepted set).
    pub fn approximate<V: AsRef<[(OriginalId, Rank)]>>(
        &mut self,
        my_ranks: &RankVector,
        accepted: &[OriginalId],
        valid_votes: &[(V, usize)],
        n: usize,
        t: usize,
        mut observe: impl FnMut(OriginalId, usize, Option<Rank>),
    ) -> RankVector {
        debug_assert!(valid_votes
            .iter()
            .all(|(v, _)| strictly_ascending(v.as_ref())));
        debug_assert!(accepted.windows(2).all(|w| w[0] < w[1]));
        self.cursors.clear();
        self.cursors.resize(valid_votes.len(), 0);
        // A column holds one run per distinct vote and one of the own rank.
        let stride = valid_votes.len() + 1 + STRIDE_PAD;
        let width = (self.tile_runs / stride).clamp(1, accepted.len().max(1));
        if self.columns.len() < width * stride {
            self.columns.resize(width * stride, (Rank::default(), 0));
        }
        let mut own = my_ranks.entries.iter();
        self.ranks.clear();
        self.ranks.reserve(accepted.len());
        for tile in accepted.chunks(width) {
            self.filled.clear();
            self.filled.resize(tile.len(), (0, 0));
            for ((vote, copies), cursor) in valid_votes.iter().zip(&mut self.cursors) {
                let vote = &vote.as_ref()[*cursor..];
                let mut at = 0;
                for (col, &id) in tile.iter().enumerate() {
                    while at < vote.len() && vote[at].0 < id {
                        at += 1;
                    }
                    match vote.get(at) {
                        None => break,
                        Some(&(found, rank)) if found == id => {
                            let (runs, votes) = &mut self.filled[col];
                            self.columns[col * stride + *runs] = (rank, *copies);
                            *runs += 1;
                            *votes += copies;
                            at += 1;
                        }
                        Some(_) => {}
                    }
                }
                *cursor += at;
            }
            for (col, (&id, &(runs, votes))) in tile.iter().zip(&self.filled).enumerate() {
                if votes < n - t {
                    observe(id, votes, None);
                    continue; // discard this id (Algorithm 3, line 08)
                }
                let own_rank =
                    seek(&mut own, id).expect("correct process must rank every accepted id");
                // The padding run is empty once N copies ranked the id.
                let column = &mut self.columns[col * stride..][..=runs];
                column[runs] = (own_rank, n.saturating_sub(votes));
                column.sort_unstable_by_key(|&(rank, _)| rank);
                let rank = reduce_runs(column.iter().copied(), t);
                observe(id, votes, Some(rank));
                self.ranks.push((id, rank));
            }
        }
        // A converged step — every rank bit-identical to the last — keeps
        // the last step's slice instead of copying the same entries.
        if same_bits(&self.ranks, &my_ranks.entries) {
            return my_ranks.clone();
        }
        RankVector {
            entries: self.ranks.as_slice().into(),
        }
    }
}

/// One voting step (Algorithm 3) on owned vectors with a one-off
/// [`VoteScratch`]; see [`VoteScratch::approximate`]. Bit-identical votes
/// are folded into one entry by a [`Ballot`], as a receiver folds them.
///
/// Returns the new rank vector together with the surviving accepted set.
///
/// # Panics
///
/// As [`VoteScratch::approximate`].
pub fn approximate(
    my_ranks: &RankVector,
    accepted: &BTreeSet<OriginalId>,
    valid_votes: &[RankVector],
    n: usize,
    t: usize,
) -> (RankVector, BTreeSet<OriginalId>) {
    let mut ballot = Ballot::with_capacity(valid_votes.len());
    for vote in valid_votes {
        // Already canonical and, by this function's contract, valid.
        let _ = ballot.cast(&vote.entries, |_| Ok(()));
    }
    let accepted: Vec<OriginalId> = accepted.iter().copied().collect();
    let new_ranks =
        VoteScratch::default().approximate(my_ranks, &accepted, ballot.votes(), n, t, |_, _, _| {});
    let new_accepted = new_ranks.ids().collect();
    (new_ranks, new_accepted)
}

/// The `BTreeMap` oracle shared with `tests/vote_equiv.rs` (which also uses
/// its Algorithm 2 half).
#[cfg(test)]
#[path = "../tests/vote_model/mod.rs"]
#[allow(dead_code)]
mod vote_model;

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u64]) -> BTreeSet<OriginalId> {
        raw.iter().map(|&x| OriginalId::new(x)).collect()
    }

    fn sorted(ids: &BTreeSet<OriginalId>) -> Vec<OriginalId> {
        ids.iter().copied().collect()
    }

    fn vector(pairs: &[(u64, f64)]) -> RankVector {
        pairs
            .iter()
            .map(|&(id, r)| (OriginalId::new(id), Rank::new(r)))
            .collect()
    }

    #[test]
    fn from_accepted_assigns_stretched_positions() {
        let delta = 1.0 + 1.0 / 39.0;
        let ranks = RankVector::from_accepted(&ids(&[100, 7, 42]), delta);
        assert_eq!(ranks.get(OriginalId::new(7)), Some(Rank::new(delta)));
        assert_eq!(ranks.get(OriginalId::new(42)), Some(Rank::new(2.0 * delta)));
        assert_eq!(
            ranks.get(OriginalId::new(100)),
            Some(Rank::new(3.0 * delta))
        );
        assert_eq!(ranks.len(), 3);
    }

    /// The first vector goes into the last one's slice while nothing else
    /// holds it and the lengths agree, and into a new slice otherwise: a
    /// held vector never changes.
    #[test]
    fn the_first_vector_reuses_an_unheld_slice_of_its_length() {
        let (delta, three) = (1.25, sorted(&ids(&[4, 8, 9])));
        let mut ranks = RankVector::from_accepted(&ids(&[1, 2, 3]), 1.0);
        let slice = Arc::as_ptr(&ranks.entries);
        ranks.reset_to_first(&three, delta);
        assert_eq!(Arc::as_ptr(&ranks.entries), slice, "unheld: in place");
        assert_eq!(ranks, RankVector::from_accepted(&ids(&[4, 8, 9]), delta));
        let held = ranks.clone();
        ranks.reset_to_first(&sorted(&ids(&[5, 6, 7])), delta);
        assert!(!Arc::ptr_eq(&ranks.entries, &held.entries));
        assert_eq!(held, RankVector::from_accepted(&ids(&[4, 8, 9]), delta));
        ranks.reset_to_first(&three[..2], delta);
        assert_eq!(ranks.len(), 2, "another length: a new slice");
    }

    #[test]
    fn own_initial_ranks_are_always_valid() {
        // Lemma IV.4 base case: ranks built by from_accepted pass isValid
        // against any subset of the accepted set.
        let delta = 1.0 + 1.0 / 33.0;
        let accepted = ids(&[1, 5, 9, 12, 30]);
        let ranks = RankVector::from_accepted(&accepted, delta);
        assert!(ranks.is_valid(&accepted, delta));
        assert!(ranks.is_valid(&ids(&[1, 9, 30]), delta));
        assert!(ranks.is_valid(&BTreeSet::new(), delta));
    }

    #[test]
    fn is_valid_rejects_missing_timely_id() {
        let ranks = vector(&[(1, 1.0), (3, 2.5)]);
        assert!(!ranks.is_valid(&ids(&[1, 2, 3]), 1.0));
    }

    #[test]
    fn is_valid_rejects_insufficient_spacing() {
        let ranks = vector(&[(1, 1.0), (2, 1.5)]);
        assert!(!ranks.is_valid(&ids(&[1, 2]), 1.0));
        // And accepts exact spacing.
        let ok = vector(&[(1, 1.0), (2, 2.0)]);
        assert!(ok.is_valid(&ids(&[1, 2]), 1.0));
    }

    #[test]
    fn check_valid_names_the_violated_constraint() {
        let ranks = vector(&[(1, 1.0), (3, 2.5)]);
        assert_eq!(
            ranks.check_valid(&ids(&[1, 2, 3]), 1.0),
            Err(ValidityViolation::MissingTimelyId {
                id: OriginalId::new(2)
            })
        );
        let tight = vector(&[(1, 1.0), (2, 1.5)]);
        match tight.check_valid(&ids(&[1, 2]), 1.0) {
            Err(ValidityViolation::InsufficientSpacing {
                prev,
                prev_rank,
                id,
                rank,
                spacing,
            }) => {
                assert_eq!(prev, OriginalId::new(1));
                assert_eq!(prev_rank, Rank::new(1.0));
                assert_eq!(id, OriginalId::new(2));
                assert_eq!(rank, Rank::new(1.5));
                assert_eq!(spacing, 1.0);
            }
            other => panic!("expected spacing violation, got {other:?}"),
        }
        assert_eq!(tight.check_valid(&ids(&[1]), 1.0), Ok(()));
    }

    #[test]
    fn approximate_reports_vote_counts_and_fates() {
        let (n, t) = (4usize, 1usize);
        let accepted = ids(&[1, 2]);
        let mine = vector(&[(1, 1.0), (2, 2.0)]);
        // Counts are copies: four votes rank id 1, two rank id 2.
        let votes = [
            (vector(&[(1, 1.0), (2, 2.0)]), 1),
            (vector(&[(1, 1.1), (2, 2.1)]), 1),
            (vector(&[(1, 0.9)]), 2),
        ];
        let mut seen = Vec::new();
        let new_ranks = VoteScratch::default().approximate(
            &mine,
            &sorted(&accepted),
            &votes,
            n,
            t,
            |id, count, rank| {
                seen.push((id.raw(), count, rank.is_some()));
            },
        );
        assert_eq!(seen, vec![(1, 4, true), (2, 2, false)]);
        assert_eq!(new_ranks.len(), 1);
    }

    /// Forty accepted ids through tiles of 1, 2, 3 and 7 columns (and one
    /// tile, for reference) on one reused scratch: votes that skip ids, rank
    /// ids outside `accepted` between tiles, stop early or start late must
    /// come out as the per-id `BTreeMap` lookups of the model do, because
    /// each vote's cursor is carried across tile boundaries. Votes arrive
    /// in runs of one to three bit-identical copies, folded by [`Ballot`]
    /// into one entry each — a run's copies cross every tile boundary
    /// together.
    #[test]
    fn approximate_is_the_model_across_tile_boundaries() {
        let (n, t) = (10usize, 3usize);
        let accepted = ids(&(0..40).map(|i| 10 + 3 * i).collect::<Vec<u64>>());
        let mine = RankVector::from_accepted(&accepted, 1.01);
        let vote = |k: u64| -> RankVector {
            (0..140u64)
                // Vote k skips every (k+5)-th id, votes 5.. stop at id 100
                // and votes ..2 start at id 40; two thirds of what is left
                // is outside `accepted`.
                .filter(|id| id % (k + 5) != 0 && (k < 5 || *id < 100) && (k > 1 || *id >= 40))
                .map(|id| (OriginalId::new(id), Rank::new(id as f64 + k as f64 / 16.0)))
                .collect()
        };
        let votes: Vec<RankVector> = (0..n as u64)
            .flat_map(|k| std::iter::repeat_n(vote(k), 1 + k as usize % 3))
            .collect();
        let model_votes: Vec<vote_model::Model> =
            votes.iter().map(|v| v.iter().collect()).collect();
        let (expected_ranks, expected_fates) =
            vote_model::approximate(&mine.iter().collect(), &accepted, &model_votes, n, t);
        assert!(expected_fates.iter().any(|fate| fate.2.is_none()));
        assert!(expected_fates.iter().any(|fate| fate.2.is_some()));

        let mut ballot = Ballot::with_capacity(votes.len());
        for vote in &votes {
            assert_eq!(ballot.cast(&vote.to_wire(), |_| Ok(())), Ok(()));
        }
        assert_eq!((ballot.votes().len(), ballot.copies()), (n, votes.len()));
        let stride = n + 1 + STRIDE_PAD;
        let mut scratch = VoteScratch::default();
        for columns_per_tile in [1, 2, 3, 7, 40] {
            scratch.tile_runs = columns_per_tile * stride;
            let mut fates = Vec::new();
            let new_ranks = scratch.approximate(
                &mine,
                &sorted(&accepted),
                ballot.votes(),
                n,
                t,
                |id, votes, rank| {
                    fates.push((id, votes, rank));
                },
            );
            assert_eq!(fates, expected_fates, "{columns_per_tile} columns per tile");
            assert_eq!(
                new_ranks.iter().collect::<vote_model::Model>(),
                expected_ranks,
                "{columns_per_tile} columns per tile"
            );
            assert!(scratch.columns.len() <= 40 * stride);
        }
    }

    /// The bits of each entry of `ballot`, with its copies.
    fn folded(ballot: &Ballot) -> Vec<(Vec<(u64, u64)>, usize)> {
        ballot
            .votes()
            .iter()
            .map(|(vote, copies)| (bits(vote), *copies))
            .collect()
    }

    fn bits(wire: &[(OriginalId, Rank)]) -> Vec<(u64, u64)> {
        wire.iter()
            .map(|(id, r)| (id.raw(), r.value().to_bits()))
            .collect()
    }

    /// Every bit-identical wire of a step shares an entry and a verdict,
    /// whatever links lie between its copies; an equal-but-not-identical one
    /// (`-0.0` after `0.0`) does not.
    #[test]
    fn a_ballot_folds_every_bit_identical_wire() {
        let a = vector(&[(1, 0.0), (2, 2.0)]).to_wire();
        let signed = vector(&[(1, -0.0), (2, 2.0)]).to_wire();
        let b = vector(&[(1, 1.0), (2, 3.0)]).to_wire();
        let malformed = Arc::from([a[0], a[0]]);
        let mut judged = 0;
        let mut ballot = Ballot::with_capacity(8);
        for wire in [&a, &a, &signed, &b, &a, &malformed, &malformed, &a] {
            let _ = ballot.cast(wire, |_| {
                judged += 1;
                Ok(())
            });
        }
        assert_eq!(
            folded(&ballot),
            vec![(bits(&a), 4), (bits(&signed), 1), (bits(&b), 1)]
        );
        // Judged: the first `a`, `signed` and `b`. The malformed wire is
        // rejected by `canonical`, its repeat by folding, and the later `a`s
        // fold into the first.
        assert_eq!(judged, 3);
        assert_eq!(ballot.copies(), 6);
        assert_eq!(
            ballot.cast(&malformed, |_| panic!("a folded wire is not judged")),
            Err(ValidityViolation::MalformedVector)
        );
        assert_eq!(
            ballot.cast(&b, |_| panic!("a folded wire is not judged")),
            Ok(())
        );
        assert_eq!(ballot.copies(), 7);
    }

    /// Across the eight-entry blocks and the tail: one differing id, one
    /// differing rank or one zero of the other sign, at any position, makes
    /// two wires different; equal bits and nothing else make them equal.
    #[test]
    fn same_bits_sees_one_changed_entry_anywhere() {
        for len in 0..=20u64 {
            let wire: Vec<_> = (0..len)
                .map(|i| {
                    (
                        OriginalId::new(3 * i),
                        Rank::new(if i == 0 { 0.0 } else { i as f64 }),
                    )
                })
                .collect();
            assert!(same_bits(&wire, &wire.clone()));
            assert!(!same_bits(&wire, &wire[..wire.len().saturating_sub(1)]) || len == 0);
            for at in 0..wire.len() {
                let (id, rank) = wire[at];
                let mut other = wire.clone();
                other[at].0 = OriginalId::new(id.raw() + 1);
                assert!(!same_bits(&wire, &other), "id at {at} of {len}");
                let mut other = wire.clone();
                other[at].1 = Rank::new(-rank.value());
                assert!(!same_bits(&wire, &other), "rank sign at {at} of {len}");
            }
        }
    }

    /// A rejected wire keeps its violation for every later copy, however far
    /// apart, without being judged again.
    #[test]
    fn a_rejected_wire_is_judged_once_per_step() {
        let good = vector(&[(1, 1.0), (2, 2.0)]).to_wire();
        let bad = vector(&[(1, 1.0), (2, 1.5)]).to_wire();
        let spaced = |vote: &[(OriginalId, Rank)]| check_valid(vote, ids(&[1, 2]), 1.0);
        let mut judged = 0;
        let mut ballot = Ballot::with_capacity(6);
        let verdicts: Vec<Verdict> = [&bad, &good, &bad, &good, &good, &bad]
            .into_iter()
            .map(|wire| {
                ballot.cast(wire, |vote| {
                    judged += 1;
                    spaced(vote)
                })
            })
            .collect();
        assert_eq!(judged, 2);
        let violation = spaced(&bad).unwrap_err();
        assert_eq!(
            verdicts,
            [0, 1, 0, 1, 1, 0].map(|ok| if ok == 1 {
                Ok(())
            } else {
                Err(violation.clone())
            })
        );
        assert_eq!(folded(&ballot), vec![(bits(&good), 3)]);
    }

    /// `t` links carrying one descending wire — between correct votes — cost
    /// one sorted copy per receiver-step, not one per copy: the ballot holds
    /// a single owned entry with `t` copies.
    #[test]
    fn an_unsorted_wire_is_sorted_once() {
        let t = 5;
        let correct = vector(&[(1, 1.0), (2, 2.0), (3, 3.0)]).to_wire();
        let descending: Arc<[_]> = vector(&[(1, 1.5), (2, 2.5), (3, 3.5)])
            .to_wire()
            .iter()
            .rev()
            .copied()
            .collect();
        // `canonical` sorts right before `judge` sees the sorted copy.
        let mut sorted = 0;
        let mut ballot = Ballot::with_capacity(2 * t);
        for _ in 0..t {
            for wire in [&correct, &descending] {
                let _ = ballot.cast(wire, |vote| {
                    sorted += usize::from(vote.as_ptr() != wire.as_ptr());
                    Ok(())
                });
            }
        }
        assert_eq!(sorted, 1);
        let owned: Vec<usize> = ballot
            .votes()
            .iter()
            .filter(|(vote, _)| !Arc::ptr_eq(vote, &correct) && !Arc::ptr_eq(vote, &descending))
            .map(|&(_, copies)| copies)
            .collect();
        assert_eq!(owned, vec![t]);
        assert_eq!(ballot.votes().len(), 2);
    }

    #[test]
    #[should_panic(expected = "must rank every accepted id")]
    fn approximate_panics_on_an_unranked_surviving_id() {
        let accepted = ids(&[1, 2]);
        let votes = vec![vector(&[(1, 1.0), (2, 2.0)]); 4];
        let _ = approximate(&vector(&[(1, 1.0)]), &accepted, &votes, 4, 1);
    }

    #[test]
    fn from_wire_reads_an_unsorted_vector_as_its_sorted_self() {
        let sorted = vector(&[(1, 1.0), (5, 2.0), (9, 3.0)]);
        let wire = sorted.to_wire();
        assert!(matches!(canonical(&wire), Some(Cow::Borrowed(_))));
        let descending: Vec<_> = wire.iter().rev().copied().collect();
        assert!(matches!(canonical(&descending), Some(Cow::Owned(_))));
        assert_eq!(RankVector::from_wire(&descending), Some(sorted));
        // A duplicate is malformed wherever it sits.
        let mut dup = descending;
        dup.push(wire[1]);
        assert_eq!(RankVector::from_wire(&dup), None);
    }

    #[test]
    fn collecting_keeps_the_later_of_two_entries_for_one_id() {
        let v = vector(&[(3, 1.0), (1, 2.0), (3, 4.0), (3, 5.0)]);
        assert_eq!(v.to_wire(), vector(&[(1, 2.0), (3, 5.0)]).to_wire());
    }

    #[test]
    fn is_valid_rejects_inverted_order() {
        // Larger id with smaller rank: spacing is negative.
        let ranks = vector(&[(1, 5.0), (2, 1.0)]);
        assert!(!ranks.is_valid(&ids(&[1, 2]), 1.0));
    }

    #[test]
    fn is_valid_checks_containment_even_for_singleton_timely() {
        // Stricter than the paper's pair-only loop, harmless for correct
        // senders (their votes rank the whole accepted ⊇ timely set).
        let ranks = vector(&[(1, 1.0)]);
        assert!(ranks.is_valid(&ids(&[1]), 1.0));
        assert!(!ranks.is_valid(&ids(&[2]), 1.0));
    }

    #[test]
    fn from_wire_rejects_duplicates() {
        let id = OriginalId::new(4);
        let wire = vec![(id, Rank::new(1.0)), (id, Rank::new(2.0))];
        assert!(RankVector::from_wire(&wire).is_none());
        let ok = vec![(id, Rank::new(1.0)), (OriginalId::new(5), Rank::new(2.0))];
        assert_eq!(RankVector::from_wire(&ok).unwrap().len(), 2);
    }

    #[test]
    fn wire_roundtrip_preserves_order() {
        let v = vector(&[(9, 3.0), (1, 1.0), (5, 2.0)]);
        let wire = v.to_wire();
        assert!(wire.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(RankVector::from_wire(&wire).unwrap(), v);
    }

    #[test]
    fn approximate_unanimous_votes_are_fixed_point() {
        let (n, t) = (4usize, 1usize);
        let accepted = ids(&[1, 2, 3, 4]);
        let mine = RankVector::from_accepted(&accepted, 1.01);
        let votes = vec![mine.clone(), mine.clone(), mine.clone(), mine.clone()];
        let (new_ranks, new_accepted) = approximate(&mine, &accepted, &votes, n, t);
        assert_eq!(new_accepted, accepted);
        for (id, rank) in new_ranks.iter() {
            assert!(rank.distance(mine.get(id).unwrap()) < 1e-12);
        }
    }

    /// A step whose entries are bit-identical to the own vector returns the
    /// own slice; one rank moved by one ulp gets a fresh slice.
    #[test]
    fn a_converged_step_keeps_its_slice() {
        let (n, t) = (4usize, 1usize);
        let accepted = ids(&[1, 2, 3]);
        let mine = vector(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let step = |votes: &[RankVector]| {
            let mut ballot = Ballot::with_capacity(n);
            for vote in votes {
                let _ = ballot.cast(&vote.entries, |_| Ok(()));
            }
            VoteScratch::default().approximate(
                &mine,
                &sorted(&accepted),
                ballot.votes(),
                n,
                t,
                |_, _, _| {},
            )
        };
        let converged = step(&[mine.clone(), mine.clone(), mine.clone(), mine.clone()]);
        assert!(Arc::ptr_eq(&converged.entries, &mine.entries));

        let nudged = Rank::new(f64::from_bits(2.0f64.to_bits() + 1));
        let moved: RankVector = mine
            .iter()
            .map(|(id, rank)| (id, if id.raw() == 2 { nudged } else { rank }))
            .collect();
        let fresh = step(&[moved.clone(), moved.clone(), moved.clone(), moved.clone()]);
        assert!(!Arc::ptr_eq(&fresh.entries, &mine.entries));
        assert_eq!(bits(&fresh.entries), bits(&moved.entries));
    }

    #[test]
    fn approximate_drops_ids_below_vote_threshold() {
        let (n, t) = (4usize, 1usize);
        let accepted = ids(&[1, 2]);
        let mine = vector(&[(1, 1.0), (2, 2.0)]);
        // Only 2 votes rank id 2 (need N−t = 3).
        let votes = vec![
            vector(&[(1, 1.0), (2, 2.0)]),
            vector(&[(1, 1.1), (2, 2.1)]),
            vector(&[(1, 0.9)]),
            vector(&[(1, 1.0)]),
        ];
        let (new_ranks, new_accepted) = approximate(&mine, &accepted, &votes, n, t);
        assert!(new_accepted.contains(&OriginalId::new(1)));
        assert!(!new_accepted.contains(&OriginalId::new(2)));
        assert!(new_ranks.get(OriginalId::new(2)).is_none());
    }

    #[test]
    fn approximate_outputs_stay_in_correct_range() {
        let (n, t) = (4usize, 1usize);
        let accepted = ids(&[7]);
        let mine = vector(&[(7, 5.0)]);
        // Three correct-ish votes in [4.9, 5.1], one Byzantine outlier.
        let votes = vec![
            vector(&[(7, 4.9)]),
            vector(&[(7, 5.0)]),
            vector(&[(7, 5.1)]),
            vector(&[(7, 1000.0)]),
        ];
        let (new_ranks, _) = approximate(&mine, &accepted, &votes, n, t);
        let out = new_ranks.get(OriginalId::new(7)).unwrap();
        assert!(out >= Rank::new(4.9) && out <= Rank::new(5.1), "{out}");
    }

    #[test]
    fn approximate_preserves_delta_spacing_between_timely_ids() {
        // Lemma A.3: if all valid votes space two ids by ≥ δ, the averages
        // stay spaced by ≥ δ.
        let (n, t) = (4usize, 1usize);
        let delta = 1.0;
        let accepted = ids(&[1, 2]);
        let mine = vector(&[(1, 1.0), (2, 2.5)]);
        let votes = vec![
            vector(&[(1, 1.0), (2, 2.5)]),
            vector(&[(1, 1.4), (2, 2.4)]),
            vector(&[(1, 0.8), (2, 1.9)]),
            vector(&[(1, 1.2), (2, 2.2)]),
        ];
        for v in &votes {
            assert!(v.is_valid(&accepted, delta));
        }
        let (new_ranks, _) = approximate(&mine, &accepted, &votes, n, t);
        let a = new_ranks.get(OriginalId::new(1)).unwrap();
        let b = new_ranks.get(OriginalId::new(2)).unwrap();
        assert!(a.spaced_at_least(b, delta), "spacing violated: {a} vs {b}");
    }
}
