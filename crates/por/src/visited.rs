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
//! recorded visit is one 16-byte `Entry` in a single `Vec`, and its
//! sleep set is a window of one append-only slab of `(choice, footprint)`
//! pairs. A state's visits — an antichain under the rule above — form a
//! linked list through `Entry::next`; a visit that a later one dominates
//! is unlinked (its slab window is not reclaimed: re-exploration is the
//! exception, and the window is a handful of pairs).
//!
//! What varies is how a state finds the head of its list ([`Heads`]): by
//! fingerprint through a hash map ([`FpHeads`], the default), or — when
//! the caller already names states by dense ids handed out in first-visit
//! order — by plain indexing ([`DenseHeads`]), where a first visit is an
//! append and a revisit touches no hash at all.

use wbmem::{Footprint, FpMap, SchedElem};

use crate::sleep::{is_subset, SleepSet};

/// "No entry": the end of a list, or a state without one.
const NIL: u32 = u32::MAX;

/// One recorded exploration of a state.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// The sleep set is `slab[off..off + len]`.
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
}

/// States named by their 128-bit fingerprint.
#[derive(Debug, Default)]
pub struct FpHeads(FpMap<u32>);

impl Heads for FpHeads {
    type Key = u128;

    fn slot(&mut self, fp: u128) -> &mut u32 {
        self.0.entry(fp).or_insert(NIL)
    }
}

/// States named by dense ids: `0, 1, 2, …` in (roughly) first-visit
/// order, so the heads are a plain array.
#[derive(Debug, Default)]
pub struct DenseHeads(Vec<u32>);

impl Heads for DenseHeads {
    type Key = u32;

    fn slot(&mut self, id: u32) -> &mut u32 {
        let id = id as usize;
        if id >= self.0.len() {
            self.0.resize(id + 1, NIL);
        }
        &mut self.0[id]
    }
}

/// Visit records with sleep-set/budget dominance; see the module docs.
#[derive(Debug, Default)]
pub struct VisitTable<H = FpHeads> {
    heads: H,
    entries: Vec<Entry>,
    slab: Vec<(SchedElem, Footprint)>,
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
    /// per-state list stays an antichain.
    ///
    /// # Panics
    ///
    /// If the table outgrows its 32-bit entry or slab offsets.
    pub fn try_claim(&mut self, key: H::Key, sleep: &SleepSet, remaining: u32) -> bool {
        let sleep = sleep.entries();
        let head = self.heads.slot(key);
        if *head == NIL {
            self.states += 1;
        } else {
            // Dominated by a recorded visit? Decided before anything is
            // unlinked, so a refused claim leaves the list as it was.
            let mut at = *head;
            while at != NIL {
                let e = self.entries[at as usize];
                if e.remaining >= remaining && is_subset(window(&self.slab, e), sleep) {
                    return false;
                }
                at = e.next;
            }
            // Unlink the recorded visits the new one dominates.
            let (mut at, mut prev) = (*head, NIL);
            while at != NIL {
                let e = self.entries[at as usize];
                if remaining >= e.remaining && is_subset(sleep, window(&self.slab, e)) {
                    if prev == NIL {
                        *head = e.next;
                    } else {
                        self.entries[prev as usize].next = e.next;
                    }
                    self.live -= 1;
                } else {
                    prev = at;
                }
                at = e.next;
            }
        }
        let entry = Entry {
            off: offset(self.slab.len()),
            len: offset(sleep.len()),
            remaining,
            next: *head,
        };
        *head = offset(self.entries.len());
        self.entries.push(entry);
        self.slab.extend_from_slice(sleep);
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
}

/// `n` as a 32-bit offset distinct from [`NIL`].
fn offset(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&i| i != NIL)
        .expect("visit table outgrew its u32 offsets")
}

/// The sleep set `e` was recorded with.
fn window(slab: &[(SchedElem, Footprint)], e: Entry) -> &[(SchedElem, Footprint)] {
    &slab[e.off as usize..][..e.len as usize]
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
