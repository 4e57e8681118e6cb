//! Register and process identifiers, and the DSM segment layout.
//!
//! The paper partitions the register set `R` into per-process memory
//! segments `R_0, …, R_{n-1}`. [`MemoryLayout`] records which process (if
//! any) owns each register; registers with no recorded owner belong to a
//! notional extra segment local to nobody, which is a conservative choice
//! (it can only classify more steps as remote, never fewer, so lower-bound
//! measurements remain valid).
//!
//! Everything the machine keeps per register — shared memory, commit
//! ownership, the layout — lives in a `RegMap`: a `Vec` indexed by
//! register id (programs number their registers `0..R`), with a small
//! in-house hash table (`FlatTable`) for the stray id beyond `DENSE_REGS`.
//! Neither hashes with `RandomState`: the machine's step rules consult
//! these maps several times per step.

use std::fmt;

use crate::fingerprint::{folded_mul, MUL_A};

/// A process identifier in `[0, n)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The identifier as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcId {
    fn from(i: usize) -> Self {
        ProcId(u32::try_from(i).expect("process index fits in u32"))
    }
}

/// A shared-register identifier. Registers are totally ordered by id, which
/// the schedule semantics relies on (a fence commits the write to the
/// *smallest* buffered register).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

impl RegId {
    /// The identifier as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<usize> for RegId {
    fn from(i: usize) -> Self {
        RegId(u32::try_from(i).expect("register index fits in u32"))
    }
}

/// A set of register identifiers, stored as a bitset.
///
/// Used for static access summaries (see
/// [`Process::future_access`](crate::Process::future_access)): the sets are
/// dense over the small id ranges programs actually name, so membership and
/// union are a word operation each.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `reg`; returns whether it was newly inserted.
    pub fn insert(&mut self, reg: RegId) -> bool {
        let (w, b) = (reg.index() / 64, reg.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Whether `reg` is a member.
    #[must_use]
    pub fn contains(&self, reg: RegId) -> bool {
        let (w, b) = (reg.index() / 64, reg.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Add every member of `other`; returns whether the set grew.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut grew = false;
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            grew |= *dst | *src != *dst;
            *dst |= *src;
        }
        grew
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over the members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = RegId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1 << b) != 0)
                .map(move |b| RegId::from(w * 64 + b))
        })
    }
}

impl FromIterator<RegId> for RegSet {
    fn from_iter<I: IntoIterator<Item = RegId>>(iter: I) -> Self {
        let mut s = RegSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

/// A key of a [`FlatTable`], hashed by multiply-fold.
pub(crate) trait FlatKey: Copy + Eq {
    /// A well-mixed 64-bit hash of the key (the table indexes by its low
    /// bits).
    fn hash64(self) -> u64;
}

impl FlatKey for RegId {
    fn hash64(self) -> u64 {
        folded_mul(u64::from(self.0) ^ MUL_A, MUL_A)
    }
}

/// An open-addressing hash table: linear probing over a power-of-two slot
/// array kept at most seven-eighths full, deletion by backward shift (no
/// tombstones, so a table that filled and emptied probes like a fresh
/// one). It allocates nothing until the first insert and only when it
/// grows afterwards. Equality is by content, not by layout.
#[derive(Debug)]
pub(crate) struct FlatTable<K, V> {
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

impl<K: Clone, V: Clone> Clone for FlatTable<K, V> {
    fn clone(&self) -> Self {
        FlatTable {
            slots: self.slots.clone(),
            len: self.len,
        }
    }

    /// Reuses `self`'s slot array.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.len = source.len;
    }
}

impl<K, V> Default for FlatTable<K, V> {
    fn default() -> Self {
        FlatTable {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<K: FlatKey, V: Copy> FlatTable<K, V> {
    /// Slots of the first allocation.
    const MIN_SLOTS: usize = 8;

    /// Where `key`'s probe sequence starts in an array of `mask + 1` slots.
    fn home(key: K, mask: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let hash = key.hash64() as usize;
        hash & mask
    }

    /// The slot holding `key`, or the empty slot its probe sequence ends
    /// at. Requires a non-empty slot array (which always has a free slot).
    fn probe(&self, key: K) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(key, mask);
        while self.slots[i].is_some_and(|(k, _)| k != key) {
            i = (i + 1) & mask;
        }
        i
    }

    pub(crate) fn get(&self, key: K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        self.slots[self.probe(key)].map(|(_, v)| v)
    }

    /// Map `key` to `value`; returns the value it was mapped to before.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let i = self.probe(key);
        let old = self.slots[i].replace((key, value));
        if old.is_none() {
            self.len += 1;
        }
        old.map(|(_, v)| v)
    }

    fn grow(&mut self) {
        let doubled = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![None; doubled]);
        for (key, value) in old.into_iter().flatten() {
            let i = self.probe(key);
            self.slots[i] = Some((key, value));
        }
    }

    /// Unmap `key`; returns the value it was mapped to.
    pub(crate) fn remove(&mut self, key: K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut hole = self.probe(key);
        let (_, value) = self.slots[hole].take()?;
        self.len -= 1;
        // Close the gap: an entry further along the run moves into the
        // hole unless its home slot lies cyclically after the hole.
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some((k, _)) = self.slots[i] else { break };
            let home = Self::home(k, mask);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
        }
        Some(value)
    }

    /// Every entry, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        self.slots.iter().flatten().copied()
    }
}

impl<K: FlatKey, V: Copy + PartialEq> PartialEq for FlatTable<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: FlatKey, V: Copy + Eq> Eq for FlatTable<K, V> {}

/// Register ids below this index a `RegMap`'s dense array; ids at or
/// above it — a register computed at run time from garbage, say — go to
/// its hash table, so no id makes the map allocate in proportion to itself
/// beyond this bound. A [`RegSet`] has no sparse side: whoever fills one
/// from program text keeps to ids below this.
pub const DENSE_REGS: usize = 1 << 16;

/// A map from [`RegId`] to `T`, indexed by the id. The dense array grows
/// to the largest small id stored and never shrinks; equality is by
/// content, so a map that grew a slot and emptied it again equals one that
/// never did.
#[derive(Debug)]
pub(crate) struct RegMap<T> {
    dense: Vec<Option<T>>,
    stray: FlatTable<RegId, T>,
    len: usize,
}

impl<T: Clone> Clone for RegMap<T> {
    fn clone(&self) -> Self {
        RegMap {
            dense: self.dense.clone(),
            stray: self.stray.clone(),
            len: self.len,
        }
    }

    /// Reuses `self`'s allocations.
    fn clone_from(&mut self, source: &Self) {
        self.dense.clone_from(&source.dense);
        self.stray.clone_from(&source.stray);
        self.len = source.len;
    }
}

impl<T> Default for RegMap<T> {
    fn default() -> Self {
        RegMap {
            dense: Vec::new(),
            stray: FlatTable::default(),
            len: 0,
        }
    }
}

impl<T: Copy> RegMap<T> {
    /// Number of registers mapped.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, reg: RegId) -> Option<T> {
        if reg.index() < DENSE_REGS {
            self.dense.get(reg.index()).copied().flatten()
        } else {
            self.stray.get(reg)
        }
    }

    /// Map `reg` to `value` (`None` unmaps it); returns what it was mapped
    /// to before.
    pub(crate) fn set(&mut self, reg: RegId, value: Option<T>) -> Option<T> {
        let i = reg.index();
        let old = if i >= DENSE_REGS {
            match value {
                Some(v) => self.stray.insert(reg, v),
                None => self.stray.remove(reg),
            }
        } else if let Some(slot) = self.dense.get_mut(i) {
            std::mem::replace(slot, value)
        } else {
            if value.is_some() {
                self.dense.resize(i + 1, None);
                self.dense[i] = value;
            }
            None
        };
        self.len = self.len + usize::from(value.is_some()) - usize::from(old.is_some());
        old
    }

    /// Every mapping, in register order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (RegId, T)> + '_ {
        let dense = (0u32..).zip(&self.dense);
        let mut stray: Vec<(RegId, T)> = self.stray.iter().collect();
        stray.sort_unstable_by_key(|&(reg, _)| reg);
        dense
            .filter_map(|(i, slot)| slot.map(|v| (RegId(i), v)))
            .chain(stray)
    }
}

impl<T: Copy + PartialEq> PartialEq for RegMap<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Copy + Eq> Eq for RegMap<T> {}

/// The DSM partition: which process's local memory segment each register
/// lives in.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MemoryLayout {
    owners: RegMap<ProcId>,
}

impl Clone for MemoryLayout {
    fn clone(&self) -> Self {
        MemoryLayout {
            owners: self.owners.clone(),
        }
    }

    /// Reuses `self`'s allocations.
    fn clone_from(&mut self, source: &Self) {
        self.owners.clone_from(&source.owners);
    }
}

impl MemoryLayout {
    /// A layout in which no register is local to any process (pure CC-model
    /// accounting: locality can only come from the value cache).
    #[must_use]
    pub fn unowned() -> Self {
        Self::default()
    }

    /// Assign register `reg` to process `owner`'s local segment.
    ///
    /// # Panics
    ///
    /// Panics if `reg` was already assigned to a *different* owner: segment
    /// membership is a partition, not a preference.
    pub fn assign(&mut self, reg: RegId, owner: ProcId) {
        if let Some(prev) = self.owners.set(reg, Some(owner)) {
            assert_eq!(
                prev, owner,
                "register {reg} reassigned from {prev} to {owner}"
            );
        }
    }

    /// The owner of `reg`, if any.
    #[must_use]
    pub fn owner(&self, reg: RegId) -> Option<ProcId> {
        self.owners.get(reg)
    }

    /// Whether `reg` lies in `p`'s local memory segment.
    #[must_use]
    pub fn is_local_to(&self, reg: RegId, p: ProcId) -> bool {
        self.owner(reg) == Some(p)
    }

    /// Number of registers with an assigned owner.
    #[must_use]
    pub fn assigned_len(&self) -> usize {
        self.owners.len()
    }

    /// Iterate over `(register, owner)` assignments in register order.
    pub fn iter(&self) -> impl Iterator<Item = (RegId, ProcId)> + '_ {
        self.owners.iter()
    }
}

impl FromIterator<(RegId, ProcId)> for MemoryLayout {
    fn from_iter<I: IntoIterator<Item = (RegId, ProcId)>>(iter: I) -> Self {
        let mut layout = MemoryLayout::unowned();
        for (r, p) in iter {
            layout.assign(r, p);
        }
        layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unowned_layout_has_no_locals() {
        let layout = MemoryLayout::unowned();
        assert_eq!(layout.owner(RegId(3)), None);
        assert!(!layout.is_local_to(RegId(3), ProcId(0)));
        assert_eq!(layout.assigned_len(), 0);
    }

    #[test]
    fn assignment_and_lookup() {
        let mut layout = MemoryLayout::unowned();
        layout.assign(RegId(7), ProcId(2));
        assert!(layout.is_local_to(RegId(7), ProcId(2)));
        assert!(!layout.is_local_to(RegId(7), ProcId(1)));
        assert_eq!(layout.owner(RegId(7)), Some(ProcId(2)));
    }

    #[test]
    fn reassigning_same_owner_is_idempotent() {
        let mut layout = MemoryLayout::unowned();
        layout.assign(RegId(1), ProcId(0));
        layout.assign(RegId(1), ProcId(0));
        assert_eq!(layout.assigned_len(), 1);
    }

    #[test]
    #[should_panic(expected = "reassigned")]
    fn reassigning_different_owner_panics() {
        let mut layout = MemoryLayout::unowned();
        layout.assign(RegId(1), ProcId(0));
        layout.assign(RegId(1), ProcId(1));
    }

    #[test]
    fn from_iterator_collects() {
        let layout: MemoryLayout = [(RegId(0), ProcId(0)), (RegId(1), ProcId(1))]
            .into_iter()
            .collect();
        assert_eq!(layout.owner(RegId(1)), Some(ProcId(1)));
    }

    #[test]
    fn regset_membership_union_iter() {
        let mut a = RegSet::new();
        assert!(a.is_empty());
        assert!(a.insert(RegId(3)));
        assert!(!a.insert(RegId(3)), "re-insert reports no growth");
        assert!(a.insert(RegId(70)), "spans multiple words");
        assert!(a.contains(RegId(3)) && a.contains(RegId(70)));
        assert!(!a.contains(RegId(4)) && !a.contains(RegId(200)));
        assert_eq!(a.len(), 2);

        let b: RegSet = [RegId(4), RegId(70)].into_iter().collect();
        assert!(a.union_with(&b), "union adds R4");
        assert!(!a.union_with(&b), "second union is a fixpoint");
        let members: Vec<RegId> = a.iter().collect();
        assert_eq!(members, vec![RegId(3), RegId(4), RegId(70)]);
    }

    /// A deterministic stream of small and huge keys.
    fn key_stream(len: usize) -> impl Iterator<Item = (u64, RegId)> {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        (0..len).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            #[allow(clippy::cast_possible_truncation)]
            let small = (x >> 8) as u32 % 97;
            let reg = match x % 5 {
                0 => RegId(u32::MAX - small),
                1 => RegId(small + DENSE_REGS as u32 - 40),
                _ => RegId(small),
            };
            (x, reg)
        })
    }

    #[test]
    fn flat_table_agrees_with_a_std_map_through_growth_and_gap_closing() {
        let mut flat: FlatTable<RegId, u64> = FlatTable::default();
        let mut map = std::collections::HashMap::new();
        for (step, (x, reg)) in key_stream(20_000).enumerate() {
            if x % 3 == 0 {
                assert_eq!(flat.remove(reg), map.remove(&reg));
            } else {
                assert_eq!(flat.insert(reg, x), map.insert(reg, x));
            }
            assert_eq!(flat.get(reg), map.get(&reg).copied());
            if step % 500 == 0 {
                let mut entries: Vec<_> = flat.iter().collect();
                entries.sort_unstable();
                let mut expect: Vec<_> = map.iter().map(|(&r, &v)| (r, v)).collect();
                expect.sort_unstable();
                assert_eq!(entries, expect);
                assert!(
                    flat.slots.len() <= 8 * (map.len() + 1),
                    "slots track entries"
                );
            }
        }
        // Content equality: same entries, different growth histories.
        let rebuilt = {
            let mut t = FlatTable::default();
            for (reg, v) in flat.iter() {
                t.insert(reg, v);
            }
            t
        };
        assert!(flat == rebuilt);
        for reg in map.into_keys() {
            flat.remove(reg);
        }
        assert!(flat == FlatTable::default(), "emptied equals fresh");
    }

    #[test]
    fn reg_map_agrees_with_a_btree_map_and_never_allocates_by_id() {
        let mut flat: RegMap<u64> = RegMap::default();
        let mut map = std::collections::BTreeMap::new();
        for (x, reg) in key_stream(20_000) {
            let value = (x % 4 != 0).then_some(x);
            let expect = match value {
                Some(v) => map.insert(reg, v),
                None => map.remove(&reg),
            };
            assert_eq!(flat.set(reg, value), expect);
            assert_eq!(flat.get(reg), value);
            assert_eq!(flat.len(), map.len());
        }
        let expect: Vec<_> = map.iter().map(|(&r, &v)| (r, v)).collect();
        assert_eq!(flat.iter().collect::<Vec<_>>(), expect, "in register order");
        assert!(flat.dense.len() <= DENSE_REGS);

        // A lone huge id costs one small table, not an array up to it.
        let mut lone: RegMap<u64> = RegMap::default();
        lone.set(RegId(u32::MAX), Some(1));
        assert_eq!(lone.get(RegId(u32::MAX)), Some(1));
        assert_eq!(lone.get(RegId(u32::MAX - 1)), None);
        assert!(lone.dense.is_empty() && lone.stray.slots.len() <= 8);

        // Equality is by content: a slot grown and emptied is no slot.
        let mut grown: RegMap<u64> = RegMap::default();
        grown.set(RegId(500), Some(1));
        grown.set(RegId(u32::MAX), Some(1));
        grown.set(RegId(500), None);
        grown.set(RegId(u32::MAX), None);
        assert!(grown == RegMap::default());
    }

    #[test]
    fn ids_order_and_display() {
        assert!(RegId(1) < RegId(2));
        assert!(ProcId(0) < ProcId(1));
        assert_eq!(RegId(5).to_string(), "R5");
        assert_eq!(ProcId(5).to_string(), "p5");
        assert_eq!(RegId::from(4usize).index(), 4);
        assert_eq!(ProcId::from(4usize).index(), 4);
    }
}
