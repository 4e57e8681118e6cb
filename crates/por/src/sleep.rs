//! Sleep sets.
//!
//! A sleep set holds schedule choices that are provably redundant at a
//! state: each slept choice was already explored from an ancestor, and
//! every step on the path since then is independent of it, so any
//! execution starting with the slept choice commutes — step by step — into
//! one that was (or will be) explored on the sibling branch. Exploring it
//! again could only re-derive known states.
//!
//! Entries carry the [`Footprint`] the choice had when it went to sleep.
//! Footprints of pending choices are state-dependent (a CAS flips between
//! read-like and write-like with the cell's contents), but the *only*
//! steps that can change a choice's footprint are steps whose own
//! footprint conflicts with it — and those wake (remove) the entry via
//! [`SleepSet::inherit`]. A surviving entry therefore still denotes the
//! same transition it did when it was put to sleep, and its footprint is
//! the one its choice has at every state the entry reaches: two sleep sets
//! of one state agree on the footprint of every choice they share. That is
//! why the [`VisitTable`](crate::VisitTable) records choices only (the
//! reduced walk of the `modelcheck` crate asserts it in debug builds at
//! every state it expands).

use wbmem::{Footprint, MemoryModel, SchedElem};

/// An ordered set of `(choice, footprint)` pairs; see the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SleepSet {
    /// Sorted by [`key`] so membership and subset tests are cheap; the
    /// sets stay tiny (bounded by a state's out-degree).
    entries: Vec<(SchedElem, Footprint)>,
}

/// Total order on schedule elements (process, then crash flag, then
/// commit register with `⊥` last).
fn key(e: SchedElem) -> (u32, u8, u32, u32) {
    let (has_reg, reg) = match e.reg {
        Some(r) => (0, r.0),
        None => (1, 0),
    };
    (e.proc.0, u8::from(e.crash), has_reg, reg)
}

/// Whether every choice of `a` appears in `b`, both sorted by [`key`]: the
/// subset test of two sleep sets of one state, whose shared choices carry
/// the same footprint (the module docs) — how the
/// [`VisitTable`](crate::VisitTable) compares the choices it stores.
pub(crate) fn choices_subset(
    a: impl ExactSizeIterator<Item = SchedElem>,
    mut b: impl ExactSizeIterator<Item = SchedElem>,
) -> bool {
    if a.len() > b.len() {
        return false;
    }
    'outer: for mine in a {
        for theirs in b.by_ref() {
            if theirs == mine {
                continue 'outer;
            }
            if key(theirs) > key(mine) {
                return false;
            }
        }
        return false;
    }
    true
}

/// Whether every entry of `a` (element *and* footprint) appears in `b`,
/// both sorted by [`key`]: the subset test behind
/// [`SleepSet::is_subset_of`].
fn is_subset(a: &[(SchedElem, Footprint)], b: &[(SchedElem, Footprint)]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    // Walk both sides in lockstep.
    let mut it = b.iter();
    'outer: for mine in a {
        for theirs in it.by_ref() {
            if theirs.0 == mine.0 {
                if theirs.1 != mine.1 {
                    return false;
                }
                continue 'outer;
            }
            if key(theirs.0) > key(mine.0) {
                return false;
            }
        }
        return false;
    }
    true
}

impl SleepSet {
    /// The empty sleep set (used at the root).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `elem` is asleep.
    #[must_use]
    pub fn contains(&self, elem: SchedElem) -> bool {
        self.entries
            .binary_search_by_key(&key(elem), |&(e, _)| key(e))
            .is_ok()
    }

    /// Put `elem` (with the footprint it has right now) to sleep.
    /// Re-inserting an element replaces its stored footprint.
    pub fn insert(&mut self, elem: SchedElem, fp: Footprint) {
        match self
            .entries
            .binary_search_by_key(&key(elem), |&(e, _)| key(e))
        {
            Ok(i) => self.entries[i].1 = fp,
            Err(i) => self.entries.insert(i, (elem, fp)),
        }
    }

    /// The sleep set a child state inherits after taking a step with
    /// footprint `step`: every entry independent of the step survives,
    /// every dependent entry wakes.
    #[must_use]
    pub fn inherit(&self, step: Footprint, model: MemoryModel) -> SleepSet {
        let mut child = SleepSet::new();
        self.inherit_into(step, model, &mut child);
        child
    }

    /// [`inherit`](Self::inherit), overwriting `child` in place so a
    /// caller can reuse its buffer.
    pub fn inherit_into(&self, step: Footprint, model: MemoryModel, child: &mut SleepSet) {
        child.entries.clear();
        child.entries.extend(
            self.entries
                .iter()
                .filter(|&&(_, fp)| fp.independent(step, model)),
        );
    }

    /// Whether every entry of `self` (element *and* footprint) appears in
    /// `other`. A visit recorded with sleep set `Z` covers a later arrival
    /// with sleep set `Z' ⊇ Z`: the earlier visit explored a superset of
    /// the choices the later one would.
    #[must_use]
    pub fn is_subset_of(&self, other: &SleepSet) -> bool {
        is_subset(&self.entries, &other.entries)
    }

    /// The `(choice, footprint)` pairs in key order.
    pub(crate) fn entries(&self) -> &[(SchedElem, Footprint)] {
        &self.entries
    }

    /// Number of slept choices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is asleep.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(choice, footprint-at-sleep-time)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SchedElem, Footprint)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbmem::{FootprintKind, ProcId, RegId};

    fn fp(p: u32, kind: FootprintKind) -> Footprint {
        Footprint {
            proc: ProcId(p),
            kind,
        }
    }

    #[test]
    fn insert_contains_and_order() {
        let mut z = SleepSet::new();
        assert!(z.is_empty());
        z.insert(SchedElem::op(ProcId(1)), fp(1, FootprintKind::Local));
        z.insert(
            SchedElem::commit(ProcId(0), RegId(3)),
            fp(0, FootprintKind::Commit(RegId(3))),
        );
        z.insert(SchedElem::crash(ProcId(0)), fp(0, FootprintKind::Local));
        assert_eq!(z.len(), 3);
        assert!(z.contains(SchedElem::op(ProcId(1))));
        assert!(z.contains(SchedElem::commit(ProcId(0), RegId(3))));
        assert!(!z.contains(SchedElem::commit(ProcId(0), RegId(4))));
        assert!(!z.contains(SchedElem::op(ProcId(0))));
        let keys: Vec<_> = z.iter().map(|(e, _)| key(e)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "entries stay sorted");
    }

    #[test]
    fn inherit_wakes_conflicting_entries() {
        let mut z = SleepSet::new();
        z.insert(
            SchedElem::commit(ProcId(0), RegId(1)),
            fp(0, FootprintKind::Commit(RegId(1))),
        );
        z.insert(
            SchedElem::op(ProcId(1)),
            fp(1, FootprintKind::Read(RegId(2))),
        );
        // A commit to reg 2 by proc 2 conflicts with the slept read of reg
        // 2 but not with the slept commit of reg 1.
        let step = fp(2, FootprintKind::Commit(RegId(2)));
        let child = z.inherit(step, wbmem::MemoryModel::Pso);
        assert!(child.contains(SchedElem::commit(ProcId(0), RegId(1))));
        assert!(!child.contains(SchedElem::op(ProcId(1))), "read woke up");
    }

    #[test]
    fn inherit_into_overwrites_a_reused_set() {
        let mut z = SleepSet::new();
        z.insert(
            SchedElem::commit(ProcId(0), RegId(1)),
            fp(0, FootprintKind::Commit(RegId(1))),
        );
        let step = fp(2, FootprintKind::Commit(RegId(2)));
        // Stale contents of the recycled buffer must not survive.
        let mut child = SleepSet::new();
        child.insert(SchedElem::op(ProcId(7)), fp(7, FootprintKind::Local));
        z.inherit_into(step, wbmem::MemoryModel::Pso, &mut child);
        assert_eq!(child, z.inherit(step, wbmem::MemoryModel::Pso));
        assert_eq!(child, z);
    }

    #[test]
    fn subset_requires_matching_footprints() {
        let mut small = SleepSet::new();
        small.insert(
            SchedElem::op(ProcId(0)),
            fp(0, FootprintKind::Read(RegId(5))),
        );
        let mut big = small.clone();
        big.insert(SchedElem::op(ProcId(1)), fp(1, FootprintKind::Local));
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(SleepSet::new().is_subset_of(&small));

        // Same element, different footprint: not a subset.
        let mut other = SleepSet::new();
        other.insert(
            SchedElem::op(ProcId(0)),
            fp(0, FootprintKind::Write(RegId(5))),
        );
        assert!(!small.is_subset_of(&other));
        assert!(!other.is_subset_of(&small));
    }

    #[test]
    fn reinsert_replaces_the_footprint() {
        let mut z = SleepSet::new();
        z.insert(
            SchedElem::op(ProcId(0)),
            fp(0, FootprintKind::Read(RegId(1))),
        );
        z.insert(
            SchedElem::op(ProcId(0)),
            fp(0, FootprintKind::Write(RegId(1))),
        );
        assert_eq!(z.len(), 1);
        let (_, stored) = z.iter().next().unwrap();
        assert_eq!(stored.kind, FootprintKind::Write(RegId(1)));
    }
}
