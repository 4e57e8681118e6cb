//! Minimum hitting set over counterexample cores.
//!
//! Each refinement iteration of the CEGAR loop contributes one **core**: a
//! set of candidate fence sites such that fencing *any one of them* kills
//! that iteration's counterexample. A placement is feasible iff it hits
//! every accumulated core, so choosing the next placement is a
//! hitting-set problem — NP-hard in general, tiny in practice (lock
//! programs have a handful of stores).
//!
//! The solver runs greedy set-cover (the site that covers the most
//! uncovered cores, ties to the smallest site) and, when the site universe
//! is small enough, an exact branch-and-bound seeded with the greedy
//! bound. Greedy alone would be sound — the re-check validates every
//! placement — but exactness keeps each candidate as small as its cores
//! allow.

use std::collections::BTreeSet;

/// A candidate fence site: "insert a fence immediately after `pc` in
/// process `proc`'s program" (pc in the synthesis baseline's index space).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Site {
    /// Process index.
    pub proc: usize,
    /// Baseline pc of the store the fence follows.
    pub pc: usize,
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}@{}", self.proc, self.pc)
    }
}

/// A counterexample core: fencing any member site breaks the schedule the
/// core was extracted from.
pub type Core = BTreeSet<Site>;

/// A fewest-sites hitting set for `cores`.
///
/// If the site universe has at most `exact_limit` sites, the greedy
/// solution is refined by exact branch-and-bound, so the result has
/// minimum cardinality.
///
/// Returns the chosen sites, sorted. Empty input → empty placement.
#[must_use]
pub fn hitting_set(cores: &[Core], exact_limit: usize) -> Vec<Site> {
    let cores: Vec<&Core> = cores.iter().filter(|c| !c.is_empty()).collect();
    if cores.is_empty() {
        return Vec::new();
    }
    let universe: BTreeSet<Site> = cores.iter().flat_map(|c| c.iter().copied()).collect();
    let greedy = greedy_cover(&cores, &universe);
    if universe.len() <= exact_limit {
        if let Some(exact) = branch_and_bound(&cores, &greedy) {
            return exact;
        }
    }
    greedy
}

fn greedy_cover(cores: &[&Core], universe: &BTreeSet<Site>) -> Vec<Site> {
    let mut chosen: Vec<Site> = Vec::new();
    let mut uncovered: Vec<&Core> = cores.to_vec();
    while !uncovered.is_empty() {
        // Pick the site that covers the most uncovered cores; ties go to
        // the smaller site (determinism).
        let best = universe
            .iter()
            .filter(|s| !chosen.contains(s))
            .map(|&s| {
                let covered = uncovered.iter().filter(|c| c.contains(&s)).count();
                (covered, std::cmp::Reverse(s))
            })
            .max()
            .map(|(_, std::cmp::Reverse(s))| s)
            .expect("non-empty universe with uncovered cores");
        debug_assert!(uncovered.iter().any(|c| c.contains(&best)));
        chosen.push(best);
        uncovered.retain(|c| !c.contains(&best));
    }
    chosen.sort_unstable();
    chosen
}

/// Exact minimum-cardinality hitting set by branching on the sites of the
/// first uncovered core, with the incumbent (greedy) size as the bound.
/// The node budget caps pathological inputs; `None` means the budget ran
/// out and the caller should keep the greedy answer.
fn branch_and_bound(cores: &[&Core], incumbent: &[Site]) -> Option<Vec<Site>> {
    fn recurse(
        cores: &[&Core],
        partial: &mut Vec<Site>,
        best: &mut Vec<Site>,
        budget: &mut usize,
    ) -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        let Some(open) = cores
            .iter()
            .find(|c| !c.iter().any(|s| partial.contains(s)))
        else {
            // Everything hit — new incumbent (strictly smaller by the prune).
            *best = partial.clone();
            best.sort_unstable();
            return true;
        };
        for &s in open.iter() {
            if partial.len() + 1 >= best.len() {
                break;
            }
            partial.push(s);
            let ok = recurse(cores, partial, best, budget);
            partial.pop();
            if !ok {
                return false;
            }
        }
        true
    }
    let mut best = incumbent.to_vec();
    let mut budget = 200_000usize;
    recurse(cores, &mut Vec::new(), &mut best, &mut budget).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(proc: usize, pc: usize) -> Site {
        Site { proc, pc }
    }

    fn core(sites: &[Site]) -> Core {
        sites.iter().copied().collect()
    }

    #[test]
    fn empty_cores_need_no_sites() {
        assert!(hitting_set(&[], 16).is_empty());
    }

    #[test]
    fn shared_site_covers_multiple_cores() {
        let cores = [
            core(&[s(0, 1), s(0, 2)]),
            core(&[s(0, 2), s(0, 3)]),
            core(&[s(0, 2), s(1, 7)]),
        ];
        assert_eq!(hitting_set(&cores, 16), vec![s(0, 2)]);
    }

    #[test]
    fn every_core_is_hit() {
        let cores = [
            core(&[s(0, 1), s(1, 4)]),
            core(&[s(1, 2)]),
            core(&[s(0, 3), s(1, 4), s(1, 2)]),
        ];
        let got = hitting_set(&cores, 0);
        for c in &cores {
            assert!(got.iter().any(|g| c.contains(g)), "core {c:?} unhit");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random families of up to 6 cores on up to 8 sites, the
        /// exact answer hits every core with as few sites as the
        /// brute-force minimum, and the greedy one hits every core.
        #[test]
        fn exact_matches_brute_force_minimum(
            masks in prop::collection::vec(1u16..256, 0..7),
        ) {
            let u: Vec<Site> = (0..8).map(|i| s(i % 2, i)).collect();
            let of = |bits: u16| -> Vec<Site> {
                (0..8).filter(|&i| bits >> i & 1 == 1).map(|i| u[i]).collect()
            };
            let cores: Vec<Core> = masks.iter().map(|&m| core(&of(m))).collect();
            let hits_all = |pick: &[Site]| cores.iter().all(|c| pick.iter().any(|x| c.contains(x)));
            let minimum = (0u16..256)
                .map(of)
                .filter(|pick| hits_all(pick))
                .map(|pick| pick.len())
                .min()
                .expect("all eight sites hit every core");
            let exact = hitting_set(&cores, 16);
            prop_assert!(hits_all(&exact), "{exact:?} misses a core of {cores:?}");
            prop_assert_eq!(exact.len(), minimum, "{:?} for {:?}", exact, cores);
            let greedy = hitting_set(&cores, 0);
            prop_assert!(hits_all(&greedy), "{greedy:?} misses a core of {cores:?}");
        }
    }
}
