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

use wbmem::FpMap;

use crate::sleep::SleepSet;

/// One recorded exploration of a state.
#[derive(Clone, Debug)]
struct VisitEntry {
    sleep: SleepSet,
    remaining: u32,
}

/// Fingerprint-keyed visit records with sleep-set/budget dominance.
#[derive(Debug, Default)]
pub struct VisitTable {
    map: FpMap<Vec<VisitEntry>>,
}

impl VisitTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the state `fp`, reached with `sleep` and `remaining` reorder
    /// budget, must be (re)explored. Claiming records the visit and prunes
    /// recorded visits the new one dominates, so the per-state list stays
    /// an antichain.
    pub fn try_claim(&mut self, fp: u128, sleep: &SleepSet, remaining: u32) -> bool {
        let entries = self.map.entry(fp).or_default();
        if entries
            .iter()
            .any(|e| e.remaining >= remaining && e.sleep.is_subset_of(sleep))
        {
            return false;
        }
        entries.retain(|e| !(remaining >= e.remaining && sleep.is_subset_of(&e.sleep)));
        entries.push(VisitEntry {
            sleep: sleep.clone(),
            remaining,
        });
        true
    }

    /// Number of distinct states explored at least once.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no state has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total recorded visits, across all states (≥ [`len`](Self::len);
    /// the excess measures re-exploration forced by incomparable sleep
    /// sets or budgets).
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }
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
