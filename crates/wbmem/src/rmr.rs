//! Hybrid DSM + CC locality tracking.
//!
//! The paper's lower bound is proved in a model **combining** the Distributed
//! Shared Memory and Cache-Coherent models, so that every step it classifies
//! as remote is an RMR in *both*. Concretely (Section 2):
//!
//! * A `read(R)` step by `p` is **local** iff `R ∈ R_p` (DSM locality), *or*
//!   the read returns a value `x` such that `p` previously executed
//!   `write(R, x)` or previously read `x` from `R` (cache validity).
//! * `write` and `fence` steps are always local.
//! * A commit of `(R, x)` by `p` is **local** iff `R ∈ R_p`, *or* `p` was
//!   the last process to commit a write to `R` (exclusive/dirty ownership).
//!
//! [`LocalityTracker`] maintains the value caches and last-committer map and
//! answers these questions; a [`Machine`](crate::Machine) that keeps one
//! consults it on every read and commit, and on every undo of one. A
//! machine that [forgot](crate::Machine::forget_locality) its tracker —
//! the machine a search walks — classifies nothing: ρ is the cost of one
//! execution, not a property of a state space. Each cache is a sparse
//! hash set of the pairs its process observed — memory proportional to
//! those pairs, never to processes × registers — and ownership is indexed
//! by register; neither hashes with `RandomState`. Each cache also keeps
//! the pair its process observed last, which the set holds too: a process
//! spinning on a register reads the same pair again and again, and the
//! repeat is answered from there without a probe. Two trackers are equal
//! when they hold the same pairs and owners, whatever their tables grew to
//! and whichever pair each process saw last.

use crate::fingerprint::{folded_mul, MUL_A, MUL_B};
use crate::reg::{FlatKey, FlatTable, MemoryLayout, ProcId, RegId, RegMap};
use crate::value::Value;

impl FlatKey for (RegId, Value) {
    /// One multiply: register and value kind sit above bit 32, so keys
    /// whose payloads fit in 32 bits — every ticket, flag and process id
    /// the locks write — enter the fold distinct.
    fn hash64(self) -> u64 {
        let (reg, value) = self;
        let (kind, payload, nonce) = match value {
            Value::Bot => (0, 0, 0),
            Value::Int(x) => (1, x, 0),
            Value::Tagged { payload, nonce } => (2, payload, nonce),
        };
        let key = (u64::from(reg.0) << 34 | kind << 32) ^ payload ^ nonce.rotate_left(17);
        folded_mul(key ^ MUL_B, MUL_A)
    }
}

/// One process's CC cache: the `(R, x)` pairs it has written or observed.
#[derive(Clone, Debug, Default)]
struct Cache {
    pairs: FlatTable<(RegId, Value), ()>,
    /// The pair last observed, if `pairs` still holds it.
    last: Option<(RegId, Value)>,
}

/// Tracks per-process value caches and per-register commit ownership.
#[derive(Clone, Debug, Default)]
pub struct LocalityTracker {
    /// The CC cache of each process.
    caches: Vec<Cache>,
    /// The last process to commit to each register.
    last_committer: RegMap<ProcId>,
}

impl PartialEq for LocalityTracker {
    fn eq(&self, other: &Self) -> bool {
        self.last_committer == other.last_committer
            && self.caches.len() == other.caches.len()
            && self
                .caches
                .iter()
                .zip(&other.caches)
                .all(|(a, b)| a.pairs == b.pairs)
    }
}

impl Eq for LocalityTracker {}

impl LocalityTracker {
    /// A tracker for `n` processes with empty caches.
    #[must_use]
    pub fn new(n: usize) -> Self {
        LocalityTracker {
            caches: vec![Cache::default(); n],
            last_committer: RegMap::default(),
        }
    }

    /// Whether a read of `reg` by `p` returning `value` is local.
    #[must_use]
    pub fn read_is_local(
        &self,
        layout: &MemoryLayout,
        p: ProcId,
        reg: RegId,
        value: Value,
    ) -> bool {
        let (cache, pair) = (&self.caches[p.index()], (reg, value));
        layout.is_local_to(reg, p) || cache.last == Some(pair) || cache.pairs.get(pair).is_some()
    }

    /// Record that `p` observed (read or wrote) `value` at `reg`. Returns
    /// whether the cache entry is new (so an undo-log knows whether to
    /// remove it again).
    pub fn observe(&mut self, p: ProcId, reg: RegId, value: Value) -> bool {
        let cache = &mut self.caches[p.index()];
        let pair = (reg, value);
        if cache.last == Some(pair) {
            return false;
        }
        cache.last = Some(pair);
        cache.pairs.insert(pair, ()).is_none()
    }

    /// Remove a cache entry previously added by [`observe`](Self::observe).
    /// Only correct for entries whose `observe` returned `true` (an undo
    /// must not evict an entry that predated the step being reversed).
    pub fn unobserve(&mut self, p: ProcId, reg: RegId, value: Value) {
        let cache = &mut self.caches[p.index()];
        let pair = (reg, value);
        if cache.last == Some(pair) {
            cache.last = None;
        }
        cache.pairs.remove(pair);
    }

    /// Whether a commit to `reg` by `p` is local, i.e. `reg` is in `p`'s
    /// segment or `p` also performed the previous commit to `reg`.
    #[must_use]
    pub fn commit_is_local(&self, layout: &MemoryLayout, p: ProcId, reg: RegId) -> bool {
        layout.is_local_to(reg, p) || self.last_committer.get(reg) == Some(p)
    }

    /// Record that `p` committed to `reg`. Returns the previous committer
    /// (so an undo-log can restore ownership).
    pub fn record_commit(&mut self, p: ProcId, reg: RegId) -> Option<ProcId> {
        self.last_committer.set(reg, Some(p))
    }

    /// Restore `reg`'s commit ownership to `owner` (`None` clears it).
    /// The inverse of [`record_commit`](Self::record_commit).
    pub fn set_last_committer(&mut self, reg: RegId, owner: Option<ProcId>) {
        self.last_committer.set(reg, owner);
    }

    /// The last committer to `reg`, if any commit has happened.
    #[must_use]
    pub fn last_committer(&self, reg: RegId) -> Option<ProcId> {
        self.last_committer.get(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::DENSE_REGS;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The tracker as it was before it went flat — one `HashSet` of pairs
    /// per process, one `HashMap` of owners — kept as the definition the
    /// flat one is held to.
    struct MapTracker {
        caches: Vec<HashSet<(RegId, Value)>>,
        last_committer: HashMap<RegId, ProcId>,
    }

    impl MapTracker {
        fn read_is_local(
            &self,
            layout: &HashMap<RegId, ProcId>,
            p: ProcId,
            reg: RegId,
            value: Value,
        ) -> bool {
            layout.get(&reg) == Some(&p) || self.caches[p.index()].contains(&(reg, value))
        }
        fn commit_is_local(&self, layout: &HashMap<RegId, ProcId>, p: ProcId, reg: RegId) -> bool {
            layout.get(&reg) == Some(&p) || self.last_committer.get(&reg) == Some(&p)
        }
        fn set_last_committer(&mut self, reg: RegId, owner: Option<ProcId>) -> Option<ProcId> {
            match owner {
                Some(p) => self.last_committer.insert(reg, p),
                None => self.last_committer.remove(&reg),
            }
        }
    }

    const PROCS: u32 = 3;

    /// Registers on both sides of the dense bound, the largest id included.
    fn regs() -> Vec<RegId> {
        let bound = u32::try_from(DENSE_REGS).expect("fits");
        [
            0,
            1,
            2,
            7,
            300,
            bound - 1,
            bound,
            bound + 1,
            u32::MAX - 1,
            u32::MAX,
        ]
        .map(RegId)
        .to_vec()
    }

    fn values() -> Vec<Value> {
        let tagged = |payload, nonce| Value::Tagged { payload, nonce };
        vec![
            Value::Bot,
            Value::Int(0),
            Value::Int(1),
            Value::Int(u64::MAX),
            tagged(1, 0),
            tagged(1, 1),
            tagged(0, u64::MAX),
        ]
    }

    proptest! {
        /// Any sequence of calls gets the same answers from the flat
        /// tracker and layout as from the map-based ones, and equality
        /// sees content only: once every entry is taken back the tracker
        /// equals a fresh one, however far its tables grew meanwhile, and
        /// which pair a process saw last is no part of it. Half the calls
        /// go back to the pair their process observed last, so a repeat
        /// of it, a read of it and an `unobserve` of it each come up in
        /// most cases.
        #[test]
        fn flat_tracker_and_layout_answer_like_the_map_based_ones(
            assignments in prop::collection::vec((0usize..10, 0..PROCS), 0..8),
            calls in prop::collection::vec(
                ((0u8..6, any::<bool>()), 0..PROCS, 0usize..10, 0usize..7),
                0..200,
            ),
        ) {
            let (regs, values) = (regs(), values());
            let mut layout = MemoryLayout::unowned();
            let mut owners: HashMap<RegId, ProcId> = HashMap::new();
            for (r, p) in assignments {
                if let std::collections::hash_map::Entry::Vacant(slot) = owners.entry(regs[r]) {
                    slot.insert(ProcId(p));
                    layout.assign(regs[r], ProcId(p));
                }
            }
            prop_assert_eq!(layout.assigned_len(), owners.len());
            let mut sorted: Vec<_> = owners.iter().map(|(&r, &p)| (r, p)).collect();
            sorted.sort_unstable();
            prop_assert_eq!(layout.iter().collect::<Vec<_>>(), sorted);
            prop_assert_eq!(layout.clone(), sorted.iter().copied().collect::<MemoryLayout>());

            let mut flat = LocalityTracker::new(PROCS as usize);
            let mut maps = MapTracker {
                caches: vec![HashSet::new(); PROCS as usize],
                last_committer: HashMap::new(),
            };
            // The indices of the pair each process observed last.
            let mut last: Vec<Option<(usize, usize)>> = vec![None; PROCS as usize];
            for ((call, again), p, r, v) in calls {
                let (r, v) = match last[p as usize] {
                    Some(pair) if again => pair,
                    _ => (r, v),
                };
                let (p, reg, value) = (ProcId(p), regs[r], values[v]);
                prop_assert_eq!(layout.owner(reg), owners.get(&reg).copied());
                match call {
                    0 => {
                        last[p.index()] = Some((r, v));
                        let before = flat.clone();
                        let fresh = flat.observe(p, reg, value);
                        prop_assert_eq!(fresh, maps.caches[p.index()].insert((reg, value)));
                        if !fresh {
                            prop_assert_eq!(&flat, &before);
                        }
                    }
                    1 => {
                        flat.unobserve(p, reg, value);
                        maps.caches[p.index()].remove(&(reg, value));
                    }
                    2 => prop_assert_eq!(
                        flat.record_commit(p, reg),
                        maps.set_last_committer(reg, Some(p))
                    ),
                    3 => {
                        // `v` doubles as the owner to restore (or none).
                        let owner = (v < PROCS as usize).then_some(ProcId(v as u32));
                        flat.set_last_committer(reg, owner);
                        maps.set_last_committer(reg, owner);
                    }
                    4 => prop_assert_eq!(
                        flat.commit_is_local(&layout, p, reg),
                        maps.commit_is_local(&owners, p, reg)
                    ),
                    _ => prop_assert_eq!(
                        flat.read_is_local(&layout, p, reg, value),
                        maps.read_is_local(&owners, p, reg, value)
                    ),
                }
                prop_assert_eq!(
                    flat.last_committer(reg),
                    maps.last_committer.get(&reg).copied()
                );
            }
            for &reg in &regs {
                for p in (0..PROCS).map(ProcId) {
                    for &value in &values {
                        prop_assert_eq!(
                            flat.read_is_local(&MemoryLayout::unowned(), p, reg, value),
                            maps.caches[p.index()].contains(&(reg, value))
                        );
                    }
                }
            }
            prop_assert_eq!(flat.clone(), flat.clone());
            let grown = flat.clone();
            for &reg in &regs {
                flat.set_last_committer(reg, None);
                for p in (0..PROCS).map(ProcId) {
                    for &value in &values {
                        flat.unobserve(p, reg, value);
                    }
                }
            }
            prop_assert_eq!(&flat, &LocalityTracker::new(PROCS as usize));
            let untouched = maps.last_committer.is_empty()
                && maps.caches.iter().all(HashSet::is_empty);
            prop_assert_eq!(grown == flat, untouched);
        }
    }

    fn layout_r0_owned_by_p0() -> MemoryLayout {
        let mut l = MemoryLayout::unowned();
        l.assign(RegId(0), ProcId(0));
        l
    }

    #[test]
    fn segment_reads_are_local() {
        let t = LocalityTracker::new(2);
        let l = layout_r0_owned_by_p0();
        assert!(t.read_is_local(&l, ProcId(0), RegId(0), Value::Bot));
        assert!(!t.read_is_local(&l, ProcId(1), RegId(0), Value::Bot));
    }

    #[test]
    fn cached_value_reads_are_local() {
        let mut t = LocalityTracker::new(2);
        let l = MemoryLayout::unowned();
        let (r, v) = (RegId(5), Value::Int(7));
        assert!(
            !t.read_is_local(&l, ProcId(1), r, v),
            "first read is remote"
        );
        t.observe(ProcId(1), r, v);
        assert!(
            t.read_is_local(&l, ProcId(1), r, v),
            "re-reading same value is a cache hit"
        );
        assert!(
            !t.read_is_local(&l, ProcId(1), r, Value::Int(8)),
            "a different value at the same register misses"
        );
    }

    #[test]
    fn commit_ownership_transfers() {
        let mut t = LocalityTracker::new(3);
        let l = MemoryLayout::unowned();
        let r = RegId(2);
        assert!(
            !t.commit_is_local(&l, ProcId(0), r),
            "very first commit is remote"
        );
        t.record_commit(ProcId(0), r);
        assert!(
            t.commit_is_local(&l, ProcId(0), r),
            "repeat commit by owner is local"
        );
        assert!(!t.commit_is_local(&l, ProcId(1), r));
        t.record_commit(ProcId(1), r);
        assert!(
            !t.commit_is_local(&l, ProcId(0), r),
            "ownership moved to p1"
        );
        assert_eq!(t.last_committer(r), Some(ProcId(1)));
    }

    #[test]
    fn segment_commits_always_local() {
        let mut t = LocalityTracker::new(2);
        let l = layout_r0_owned_by_p0();
        assert!(t.commit_is_local(&l, ProcId(0), RegId(0)));
        t.record_commit(ProcId(1), RegId(0));
        assert!(
            t.commit_is_local(&l, ProcId(0), RegId(0)),
            "segment locality is unconditional"
        );
    }
}
