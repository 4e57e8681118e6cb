//! The reduced search's visited table.
//!
//! Plain stateful search caches states by fingerprint and never re-enters
//! one. Under sleep sets that rule is unsound: a state first reached with
//! a large sleep set was only *partially* expanded, so reaching it again
//! with a smaller (or incomparable) sleep set must re-explore the choices
//! the first visit slept through. The classical fix (Godefroid) is kept
//! here: a visit is redundant iff some recorded visit used a sleep set
//! that is a **subset** of the current one.
//!
//! The optional reorder bound adds a second dominance axis: a state
//! explored with more remaining budget has seen everything a poorer
//! arrival could reach. The combined rule: an arrival is *dominated* —
//! skipped — iff some recorded visit had `sleep ⊆ current.sleep` **and**
//! `remaining ≥ current.remaining`.
//!
//! # Layout
//!
//! The table is probed once per walked edge, so it is flat: every
//! recorded visit is one 16-byte `Entry`, and its sleep set is a window of
//! one append-only slab of choices. A state's visits — an antichain under
//! the rule above — form a linked list through `Entry::next`; a visit that
//! a later one dominates is unlinked (its slab window is not reclaimed:
//! re-exploration is the exception, and the window is a handful of
//! choices). Heads, entries and slab are [`Segmented`]: they grow in
//! segments that never move, so growing copies nothing, and no window
//! straddles two segments.
//!
//! The slab holds the slept *choices* only, 16 bytes each, not their
//! footprints: a surviving sleep entry carries the footprint its choice
//! has at the state it reaches (the [`sleep`](crate::sleep) module docs),
//! so two sleep sets of one state agree on the footprint of every choice
//! they share, and compare by choice. A caller must keep that contract:
//! the footprint of an entry of `sleep` in [`VisitTable::try_claim`] is
//! the one its choice has at the state claimed.
//!
//! What varies is how a state finds the head of its list ([`Heads`]): by
//! fingerprint through a hash map ([`FpHeads`], the default, which the
//! `benchmark/` harness times), or — when the caller already names states
//! by dense ids handed out in first-visit order, as the checker's walk
//! does — by plain indexing ([`DenseHeads`]), where a first visit is an
//! append and a revisit touches no hash at all.

use wbmem::{FpMap, SchedElem};

use crate::segmented::Segmented;
use crate::sleep::{choices_subset, SleepSet};

/// "No entry": the end of a list, or a state without one.
const NIL: u32 = u32::MAX;

/// One recorded exploration of a state.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// The sleep set's choices are the slab window `off..off + len`.
    off: u32,
    len: u32,
    remaining: u32,
    /// The state's next recorded visit, or [`NIL`].
    next: u32,
}

/// How a [`VisitTable`] finds a state's list of recorded visits.
pub trait Heads: Default {
    /// What names a state.
    type Key: Copy;
    /// The head of `key`'s list, [`u32::MAX`] for a state never claimed.
    fn slot(&mut self, key: Self::Key) -> &mut u32;
    /// Forget every state, keeping what is allocated.
    fn clear(&mut self);
}

/// States named by their 128-bit fingerprint.
#[derive(Debug, Default)]
pub struct FpHeads(FpMap<u32>);

impl Heads for FpHeads {
    type Key = u128;

    fn slot(&mut self, fp: u128) -> &mut u32 {
        self.0.entry(fp).or_insert(NIL)
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// States named by dense ids: `0, 1, 2, …` in (roughly) first-visit
/// order, so the heads are a plain array.
#[derive(Debug, Default)]
pub struct DenseHeads(Segmented<u32>);

impl Heads for DenseHeads {
    type Key = u32;

    fn slot(&mut self, id: u32) -> &mut u32 {
        let id = id as usize;
        if id >= self.0.len() {
            self.0.resize(id, NIL);
            self.0.push(NIL);
        }
        self.0.get_mut(id)
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// Visit records with sleep-set/budget dominance; see the module docs.
#[derive(Debug, Default)]
pub struct VisitTable<H = FpHeads> {
    heads: H,
    entries: Segmented<Entry>,
    slab: Segmented<SchedElem>,
    /// States claimed at least once.
    states: usize,
    /// Entries still linked into some state's list.
    live: usize,
}

impl VisitTable {
    /// An empty fingerprint-keyed table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl<H: Heads> VisitTable<H> {
    /// Whether the state `key`, reached with `sleep` and `remaining`
    /// reorder budget, must be (re)explored. Claiming records the visit
    /// and unlinks recorded visits the new one dominates, so the
    /// per-state list stays an antichain. Every entry of `sleep` must
    /// carry the footprint its choice has at the state (the module docs'
    /// Layout).
    ///
    /// # Panics
    ///
    /// If the table outgrows its 32-bit entry or slab offsets.
    pub fn try_claim(&mut self, key: H::Key, sleep: &SleepSet, remaining: u32) -> bool {
        let sleep = sleep.entries();
        let slept = || sleep.iter().map(|&(e, _)| e);
        let head = self.heads.slot(key);
        if *head == NIL {
            self.states += 1;
        } else {
            // Dominated by a recorded visit? Decided before anything is
            // unlinked, so a refused claim leaves the list as it was.
            let mut at = *head;
            while at != NIL {
                let e = *self.entries.get(at as usize);
                if e.remaining >= remaining && choices_subset(window(&self.slab, e), slept()) {
                    return false;
                }
                at = e.next;
            }
            // Unlink the recorded visits the new one dominates.
            let (mut at, mut prev) = (*head, NIL);
            while at != NIL {
                let e = *self.entries.get(at as usize);
                if remaining >= e.remaining && choices_subset(slept(), window(&self.slab, e)) {
                    if prev == NIL {
                        *head = e.next;
                    } else {
                        self.entries.get_mut(prev as usize).next = e.next;
                    }
                    self.live -= 1;
                } else {
                    prev = at;
                }
                at = e.next;
            }
        }
        let entry = Entry {
            off: offset(self.slab.push_window(slept())),
            len: offset(sleep.len()),
            remaining,
            next: *head,
        };
        *head = offset(self.entries.len());
        self.entries.push(entry);
        self.live += 1;
        true
    }

    /// Number of distinct states explored at least once.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states
    }

    /// Whether no state has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states == 0
    }

    /// Total recorded visits still standing, across all states (≥
    /// [`len`](Self::len); the excess measures re-exploration forced by
    /// incomparable sleep sets or budgets).
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.live
    }

    /// Forget every recorded visit, keeping the heads', entries' and
    /// slab's segments for the claims that come next: a cleared table
    /// answers every claim as a new one does.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.entries.clear();
        self.slab.clear();
        self.states = 0;
        self.live = 0;
    }
}

impl VisitTable<DenseHeads> {
    /// Heap bytes allocated: heads, entries and slab.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.heads.0.capacity() * size_of::<u32>()
            + self.entries.capacity() * size_of::<Entry>()
            + self.slab.capacity() * size_of::<SchedElem>()
    }
}

/// `n` as a 32-bit offset distinct from [`NIL`].
fn offset(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&i| i != NIL)
        .expect("visit table outgrew its u32 offsets")
}

/// The choices of the sleep set `e` was recorded with.
fn window(slab: &Segmented<SchedElem>, e: Entry) -> impl ExactSizeIterator<Item = SchedElem> + '_ {
    slab.window(e.off as usize, e.len as usize).iter().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbmem::{Footprint, FootprintKind, ProcId, RegId, SchedElem};

    fn sleeping(elems: &[(u32, u32)]) -> SleepSet {
        let mut z = SleepSet::new();
        for &(p, r) in elems {
            z.insert(
                SchedElem::commit(ProcId(p), RegId(r)),
                Footprint {
                    proc: ProcId(p),
                    kind: FootprintKind::Commit(RegId(r)),
                },
            );
        }
        z
    }

    #[test]
    fn first_visit_claims() {
        let mut t = VisitTable::new();
        assert!(t.is_empty());
        assert!(t.try_claim(7, &SleepSet::new(), u32::MAX));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn superset_sleep_is_dominated_subset_reexplores() {
        let mut t = VisitTable::new();
        let small = sleeping(&[(0, 1)]);
        let big = sleeping(&[(0, 1), (1, 2)]);
        assert!(t.try_claim(7, &small, u32::MAX));
        assert!(
            !t.try_claim(7, &big, u32::MAX),
            "bigger sleep set explores strictly less: covered"
        );
        assert!(
            t.try_claim(7, &SleepSet::new(), u32::MAX),
            "smaller sleep set explores more: must re-enter"
        );
        // The empty-sleep visit dominates both earlier records.
        assert_eq!(t.total_entries(), 1);
        assert!(!t.try_claim(7, &small, u32::MAX));
    }

    #[test]
    fn richer_budget_reexplores() {
        let mut t = VisitTable::new();
        let z = SleepSet::new();
        assert!(t.try_claim(7, &z, 1));
        assert!(!t.try_claim(7, &z, 1));
        assert!(!t.try_claim(7, &z, 0), "poorer arrival is dominated");
        assert!(t.try_claim(7, &z, 3), "richer arrival must re-enter");
        assert_eq!(t.total_entries(), 1, "richer visit pruned the poorer");
    }

    #[test]
    fn choice_only_windows_keep_dominance_across_segments() {
        // The three tests above, state by state, on enough states that the
        // heads, entries and slab span several segments (the slab skips a
        // segment's tail rather than split a window).
        let mut t = VisitTable::<DenseHeads>::default();
        let states = 400u32;
        for id in 0..states {
            let k = id % 6;
            let pairs: Vec<(u32, u32)> = (0..=k + 1).map(|p| (p, id % 5 + p)).collect();
            let small = sleeping(&pairs[..pairs.len() - 1]);
            let big = sleeping(&pairs);
            assert!(t.try_claim(id, &big, 5));
            assert!(t.try_claim(id, &small, 5), "subset sleep re-explores");
            assert!(!t.try_claim(id, &big, 5), "superset sleep is dominated");
            assert!(!t.try_claim(id, &small, 4), "poorer arrival is dominated");
            assert!(t.try_claim(id, &small, 6), "richer arrival re-explores");
            assert!(t.try_claim(id, &sleeping(&[(9, 9)]), 1), "incomparable");
            assert!(!t.try_claim(id, &big, 6));
        }
        assert_eq!(t.len(), states as usize);
        assert_eq!(t.total_entries(), 2 * states as usize);
        assert!(t.slab.segments() >= 4 && t.entries.segments() >= 4);
        // Every window reads back the choices it was recorded with.
        for id in (0..states).step_by(37) {
            assert!(!t.try_claim(id, &sleeping(&[(9, 9), (10, 1)]), 0));
        }
    }

    #[test]
    fn incomparable_entries_coexist() {
        let mut t = VisitTable::new();
        // (more sleep, more budget) vs (less sleep, less budget): neither
        // dominates the other.
        assert!(t.try_claim(7, &sleeping(&[(0, 1)]), 5));
        assert!(t.try_claim(7, &SleepSet::new(), 2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.total_entries(), 2);
    }
}
