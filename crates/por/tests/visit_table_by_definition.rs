//! The flat [`VisitTable`] against the table by definition: the
//! `FpMap<Vec<VisitEntry>>` it replaced, one owned [`SleepSet`] per
//! recorded visit, kept here as the reference. Random claim sequences over
//! a small universe — so states are revisited with equal, nested and
//! incomparable sleep sets and budgets — must get the same answer from
//! both after every call, under the fingerprint and the dense keying
//! alike. The reference compares footprints too; the flat table stores
//! choices only, which its contract allows because a choice has one
//! footprint at a state (`por::sleep`'s module docs), so each state's
//! footprints here are a fixed function of the state. A table cleared
//! between runs of claims must answer each run as a new table does.

use proptest::prelude::*;

use por::{DenseHeads, SleepSet, VisitTable};
use wbmem::{Footprint, FootprintKind, FpMap, ProcId, RegId, SchedElem};

/// One recorded exploration of a state.
struct VisitEntry {
    sleep: SleepSet,
    remaining: u32,
}

/// The dominance rule, executed literally.
#[derive(Default)]
struct ByDefinition {
    map: FpMap<Vec<VisitEntry>>,
}

impl ByDefinition {
    fn try_claim(&mut self, fp: u128, sleep: &SleepSet, remaining: u32) -> bool {
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

    fn len(&self) -> usize {
        self.map.len()
    }

    fn total_entries(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }
}

const CHOICES: usize = 6;
const BUDGETS: [u32; 4] = [0, 1, 3, u32::MAX];

/// Choice `i` of the universe, with the `alt`-th of its two footprints.
fn choice(i: usize, alt: bool) -> (SchedElem, Footprint) {
    let (p, r) = (ProcId(i as u32 / 2), RegId(i as u32));
    let elem = match i % 3 {
        0 => SchedElem::op(p),
        1 => SchedElem::commit(p, r),
        _ => SchedElem::crash(p),
    };
    let kind = if alt {
        FootprintKind::Write(r)
    } else {
        FootprintKind::Read(r)
    };
    (elem, Footprint { proc: p, kind })
}

/// The footprints of state `id`'s choices: bit `i` picks choice `i`'s.
fn alts_of(id: u32) -> u8 {
    (id.wrapping_mul(37) + 11) as u8
}

/// The sleep set holding choice `i` iff bit `i` of `members`, with the
/// footprint bit `i` of `alts` selects.
fn sleep_set(members: u8, alts: u8) -> SleepSet {
    let mut z = SleepSet::new();
    for i in (0..CHOICES).filter(|i| members >> i & 1 == 1) {
        let (elem, fp) = choice(i, alts >> i & 1 == 1);
        z.insert(elem, fp);
    }
    z
}

/// A fingerprint for state `id` that shares no low bits with its
/// neighbours'.
fn fingerprint(id: u32) -> u128 {
    (u128::from(id) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_tables_answer_like_the_table_by_definition(
        claims in prop::collection::vec((0u32..8, 0u8..64, 0usize..4), 0..80)
    ) {
        let mut reference = ByDefinition::default();
        let mut by_fp = VisitTable::new();
        let mut dense = VisitTable::<DenseHeads>::default();
        prop_assert!(by_fp.is_empty() && dense.is_empty());
        for (id, members, budget) in claims {
            let (sleep, remaining) = (sleep_set(members, alts_of(id)), BUDGETS[budget]);
            let expect = reference.try_claim(fingerprint(id), &sleep, remaining);
            prop_assert_eq!(by_fp.try_claim(fingerprint(id), &sleep, remaining), expect);
            prop_assert_eq!(dense.try_claim(id, &sleep, remaining), expect);
            for (len, total) in [
                (by_fp.len(), by_fp.total_entries()),
                (dense.len(), dense.total_entries()),
            ] {
                prop_assert_eq!(len, reference.len());
                prop_assert_eq!(total, reference.total_entries());
            }
        }
    }

    #[test]
    fn a_cleared_table_answers_like_a_new_one(
        runs in prop::collection::vec(
            prop::collection::vec((0u32..300, 0u8..64, 0usize..4), 0..120),
            1..5,
        )
    ) {
        // Ids up to 300 so a run spans several segments, and the runs
        // differ in length, so a run may end short of or past the
        // segments the one before filled.
        let mut reused = VisitTable::<DenseHeads>::default();
        for claims in runs {
            reused.clear();
            prop_assert!(reused.is_empty());
            prop_assert_eq!(reused.total_entries(), 0);
            let mut reference = ByDefinition::default();
            for (id, members, budget) in claims {
                let (sleep, remaining) = (sleep_set(members, alts_of(id)), BUDGETS[budget]);
                let expect = reference.try_claim(fingerprint(id), &sleep, remaining);
                prop_assert_eq!(reused.try_claim(id, &sleep, remaining), expect);
                prop_assert_eq!(reused.len(), reference.len());
                prop_assert_eq!(reused.total_entries(), reference.total_entries());
            }
        }
    }
}
