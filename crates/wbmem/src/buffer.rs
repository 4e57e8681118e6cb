//! Per-process write buffers.
//!
//! * Under **PSO** the buffer is the paper's `WB_p ⊆ R × D`: an
//!   unordered set with at most one entry per register (a new write to `R`
//!   replaces the buffered one), and the system may commit *any* entry.
//! * Under **TSO** the buffer is a FIFO queue; only the oldest entry may
//!   commit, so writes reach memory in program order. A later write to the
//!   same register enqueues behind the earlier one.
//! * Under **SC** writes never enter a buffer (the machine commits them
//!   directly), so the buffer is permanently empty.
//!
//! The PSO buffer is a `Vec` sorted by register ([`PsoWrites`]): buffers
//! hold a handful of entries, so a binary search and a short shift beat a
//! tree, "smallest buffered register" is the first entry, and a buffer that
//! drains keeps its allocation for the next write.

use std::collections::VecDeque;

use crate::model::MemoryModel;
use crate::reg::RegId;
use crate::value::Value;

/// The pending writes of a PSO buffer: at most one per register,
/// sorted by register. Dereferences to the sorted slice.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct PsoWrites(Vec<(RegId, Value)>);

impl Clone for PsoWrites {
    fn clone(&self) -> Self {
        PsoWrites(self.0.clone())
    }

    /// Reuses `self`'s allocation.
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl PsoWrites {
    fn position(&self, reg: RegId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&reg, |&(r, _)| r)
    }

    fn get(&self, reg: RegId) -> Option<Value> {
        self.position(reg).ok().map(|i| self.0[i].1)
    }

    /// Buffer `val` for `reg`; returns the write it replaces.
    fn insert(&mut self, reg: RegId, val: Value) -> Option<Value> {
        match self.position(reg) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, val)),
            Err(i) => {
                self.0.insert(i, (reg, val));
                None
            }
        }
    }

    fn remove(&mut self, reg: RegId) -> Option<Value> {
        self.position(reg).ok().map(|i| self.0.remove(i).1)
    }
}

impl std::ops::Deref for PsoWrites {
    type Target = [(RegId, Value)];
    fn deref(&self) -> &[(RegId, Value)] {
        &self.0
    }
}

/// A process's write buffer, with model-specific structure.
#[derive(Debug, PartialEq, Eq, Hash)]
pub enum WriteBuffer {
    /// SC: writes are never buffered.
    Sc,
    /// TSO: FIFO of pending writes, oldest first.
    Tso(VecDeque<(RegId, Value)>),
    /// PSO: unordered pending writes, one per register.
    Pso(PsoWrites),
}

impl Clone for WriteBuffer {
    fn clone(&self) -> Self {
        match self {
            WriteBuffer::Sc => WriteBuffer::Sc,
            WriteBuffer::Tso(q) => WriteBuffer::Tso(q.clone()),
            WriteBuffer::Pso(m) => WriteBuffer::Pso(m.clone()),
        }
    }

    /// Reuses `self`'s allocation when both buffers are of one model.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (WriteBuffer::Tso(q), WriteBuffer::Tso(src)) => q.clone_from(src),
            (WriteBuffer::Pso(m), WriteBuffer::Pso(src)) => m.clone_from(src),
            (this, _) => *this = source.clone(),
        }
    }
}

/// How to reverse one buffer mutation (see [`WriteBuffer::push_recorded`]
/// and [`WriteBuffer::take_recorded`]). Applying the undo of a mutation to
/// the buffer that performed it restores the exact prior buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferUndo {
    /// The buffer was not mutated.
    None,
    /// Reverse a TSO push: drop the youngest entry.
    PopBack,
    /// Reverse a PSO push: restore the register's prior entry (`None`
    /// removes it).
    RestorePso(RegId, Option<Value>),
    /// Reverse a TSO take: requeue the entry at the front (oldest).
    PushFront(RegId, Value),
    /// Reverse a PSO take: re-insert the entry.
    Insert(RegId, Value),
}

impl WriteBuffer {
    /// An empty buffer appropriate for `model`.
    #[must_use]
    pub fn new(model: MemoryModel) -> Self {
        match model {
            MemoryModel::Sc => WriteBuffer::Sc,
            MemoryModel::Tso => WriteBuffer::Tso(VecDeque::new()),
            MemoryModel::Pso => WriteBuffer::Pso(PsoWrites::default()),
        }
    }

    /// Whether no writes are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            WriteBuffer::Sc => true,
            WriteBuffer::Tso(q) => q.is_empty(),
            WriteBuffer::Pso(m) => m.is_empty(),
        }
    }

    /// Number of pending writes.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            WriteBuffer::Sc => 0,
            WriteBuffer::Tso(q) => q.len(),
            WriteBuffer::Pso(m) => m.len(),
        }
    }

    /// The value a read of `reg` by the owning process observes from this
    /// buffer, if any (the *youngest* pending write to `reg`).
    #[must_use]
    pub fn read(&self, reg: RegId) -> Option<Value> {
        match self {
            WriteBuffer::Sc => None,
            WriteBuffer::Tso(q) => q.iter().rev().find(|(r, _)| *r == reg).map(|&(_, v)| v),
            WriteBuffer::Pso(m) => m.get(reg),
        }
    }

    /// The pending writes in the order a fence drains them: oldest first
    /// under TSO, smallest register first under PSO.
    pub fn iter(&self) -> impl Iterator<Item = (RegId, Value)> + '_ {
        type Writes = [(RegId, Value)];
        let none: &Writes = &[];
        let (front, back) = match self {
            WriteBuffer::Sc => (none, none),
            WriteBuffer::Tso(q) => q.as_slices(),
            WriteBuffer::Pso(m) => (&**m, none),
        };
        front.iter().chain(back).copied()
    }

    /// Record a write.
    ///
    /// # Panics
    ///
    /// Panics on an SC buffer: SC writes must be committed directly by the
    /// machine, never buffered.
    pub fn push(&mut self, reg: RegId, val: Value) {
        match self {
            WriteBuffer::Sc => panic!("SC writes are not buffered"),
            WriteBuffer::Tso(q) => q.push_back((reg, val)),
            WriteBuffer::Pso(m) => {
                m.insert(reg, val);
            }
        }
    }

    /// Record a write, returning how to reverse it. Same semantics as
    /// [`push`](Self::push).
    ///
    /// # Panics
    ///
    /// Panics on an SC buffer, like `push`.
    pub fn push_recorded(&mut self, reg: RegId, val: Value) -> BufferUndo {
        match self {
            WriteBuffer::Sc => panic!("SC writes are not buffered"),
            WriteBuffer::Tso(q) => {
                q.push_back((reg, val));
                BufferUndo::PopBack
            }
            WriteBuffer::Pso(m) => BufferUndo::RestorePso(reg, m.insert(reg, val)),
        }
    }

    /// The registers whose pending writes the *system* may commit right now:
    /// every buffered register under PSO, only the oldest under TSO.
    /// Allocates; search loops use
    /// [`for_each_commit_choice`](Self::for_each_commit_choice).
    #[must_use]
    pub fn commit_choices(&self) -> Vec<RegId> {
        let mut regs = Vec::new();
        self.for_each_commit_choice(|reg| regs.push(reg));
        regs
    }

    /// Visit every register in [`commit_choices`](Self::commit_choices)
    /// order without allocating.
    pub fn for_each_commit_choice(&self, mut f: impl FnMut(RegId)) {
        match self {
            WriteBuffer::Sc => {}
            WriteBuffer::Tso(q) => {
                if let Some(&(r, _)) = q.front() {
                    f(r);
                }
            }
            WriteBuffer::Pso(m) => {
                for &(r, _) in m.iter() {
                    f(r);
                }
            }
        }
    }

    /// Whether a commit of `reg` is currently permitted.
    #[must_use]
    pub fn can_commit(&self, reg: RegId) -> bool {
        match self {
            WriteBuffer::Sc => false,
            WriteBuffer::Tso(q) => q.front().is_some_and(|&(r, _)| r == reg),
            WriteBuffer::Pso(m) => m.position(reg).is_ok(),
        }
    }

    /// Whether any pending write (committable now or not) targets `reg`.
    #[must_use]
    pub fn contains(&self, reg: RegId) -> bool {
        self.read(reg).is_some()
    }

    /// The register a fence-blocked process commits next: the smallest
    /// buffered register under PSO (the paper's rule), the oldest under TSO.
    #[must_use]
    pub fn fence_commit_target(&self) -> Option<RegId> {
        match self {
            WriteBuffer::Sc => None,
            WriteBuffer::Tso(q) => q.front().map(|&(r, _)| r),
            WriteBuffer::Pso(m) => m.first().map(|&(r, _)| r),
        }
    }

    /// Remove and return the write a fence commits next
    /// ([`fence_commit_target`](Self::fence_commit_target)'s).
    pub fn pop_drain(&mut self) -> Option<(RegId, Value)> {
        match self {
            WriteBuffer::Sc => None,
            WriteBuffer::Tso(q) => q.pop_front(),
            WriteBuffer::Pso(m) => (!m.is_empty()).then(|| m.0.remove(0)),
        }
    }

    /// Drop every pending write, keeping the allocation.
    pub fn clear(&mut self) {
        match self {
            WriteBuffer::Sc => {}
            WriteBuffer::Tso(q) => q.clear(),
            WriteBuffer::Pso(m) => m.0.clear(),
        }
    }

    /// Remove and return the pending write to `reg`, if committable.
    pub fn take(&mut self, reg: RegId) -> Option<Value> {
        match self {
            WriteBuffer::Sc => None,
            WriteBuffer::Tso(q) => {
                if q.front().is_some_and(|&(r, _)| r == reg) {
                    q.pop_front().map(|(_, v)| v)
                } else {
                    None
                }
            }
            WriteBuffer::Pso(m) => m.remove(reg),
        }
    }

    /// Remove and return the pending write to `reg` (if committable)
    /// together with how to reverse the removal.
    pub fn take_recorded(&mut self, reg: RegId) -> (Option<Value>, BufferUndo) {
        match self.take(reg) {
            None => (None, BufferUndo::None),
            Some(v) => {
                let undo = match self {
                    WriteBuffer::Sc => unreachable!("SC take never succeeds"),
                    WriteBuffer::Tso(_) => BufferUndo::PushFront(reg, v),
                    WriteBuffer::Pso(_) => BufferUndo::Insert(reg, v),
                };
                (Some(v), undo)
            }
        }
    }

    /// Reverse a mutation previously recorded by
    /// [`push_recorded`](Self::push_recorded) or
    /// [`take_recorded`](Self::take_recorded). Undos must be applied to the
    /// buffer that produced them, in reverse order of the mutations.
    pub fn apply_undo(&mut self, undo: BufferUndo) {
        match (undo, self) {
            (BufferUndo::None, _) => {}
            (BufferUndo::PopBack, WriteBuffer::Tso(q)) => {
                q.pop_back();
            }
            (BufferUndo::RestorePso(reg, old), WriteBuffer::Pso(m)) => match old {
                Some(v) => {
                    m.insert(reg, v);
                }
                None => {
                    m.remove(reg);
                }
            },
            (BufferUndo::PushFront(reg, v), WriteBuffer::Tso(q)) => q.push_front((reg, v)),
            (BufferUndo::Insert(reg, v), WriteBuffer::Pso(m)) => {
                m.insert(reg, v);
            }
            (undo, buf) => panic!("buffer undo {undo:?} does not match buffer {buf:?}"),
        }
    }

    /// The set of distinct registers with pending writes, ascending.
    #[must_use]
    pub fn regs(&self) -> Vec<RegId> {
        match self {
            WriteBuffer::Sc => Vec::new(),
            WriteBuffer::Tso(q) => {
                let mut v: Vec<RegId> = q.iter().map(|&(r, _)| r).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            WriteBuffer::Pso(m) => m.iter().map(|&(r, _)| r).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RegId {
        RegId(i)
    }
    fn v(x: u64) -> Value {
        Value::Int(x)
    }

    #[test]
    fn sc_buffer_is_always_empty() {
        let b = WriteBuffer::new(MemoryModel::Sc);
        assert!(b.is_empty());
        assert_eq!(b.commit_choices(), vec![]);
        assert_eq!(b.read(r(0)), None);
        assert_eq!(b.fence_commit_target(), None);
    }

    #[test]
    #[should_panic(expected = "not buffered")]
    fn sc_push_panics() {
        WriteBuffer::new(MemoryModel::Sc).push(r(0), v(1));
    }

    #[test]
    fn pso_replaces_write_to_same_register() {
        let mut b = WriteBuffer::new(MemoryModel::Pso);
        b.push(r(5), v(1));
        b.push(r(5), v(2));
        assert_eq!(b.len(), 1);
        assert_eq!(b.read(r(5)), Some(v(2)));
    }

    #[test]
    fn pso_commit_any_order_smallest_fence_target() {
        let mut b = WriteBuffer::new(MemoryModel::Pso);
        b.push(r(9), v(1));
        b.push(r(2), v(2));
        b.push(r(4), v(3));
        assert_eq!(b.commit_choices(), vec![r(2), r(4), r(9)]);
        assert_eq!(b.fence_commit_target(), Some(r(2)));
        assert!(b.can_commit(r(9)));
        assert_eq!(b.take(r(9)), Some(v(1)));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn tso_is_fifo_and_head_only() {
        let mut b = WriteBuffer::new(MemoryModel::Tso);
        b.push(r(9), v(1));
        b.push(r(2), v(2));
        assert_eq!(b.commit_choices(), vec![r(9)]);
        assert!(!b.can_commit(r(2)));
        assert_eq!(b.take(r(2)), None); // not the head
        assert_eq!(b.take(r(9)), Some(v(1)));
        assert_eq!(b.commit_choices(), vec![r(2)]);
    }

    #[test]
    fn pop_drain_takes_the_fence_order_and_clear_empties() {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let mut b = WriteBuffer::new(model);
            b.push(r(3), v(1));
            b.push(r(1), v(2));
            b.push(r(2), v(3));
            let order: Vec<_> = b.iter().collect();
            let mut popped = Vec::new();
            while let Some(write) = b.pop_drain() {
                popped.push(write);
            }
            assert_eq!(popped, order, "{model}");
            assert!(b.is_empty());
            b.push(r(0), v(4));
            b.clear();
            assert!(b.is_empty() && b.pop_drain().is_none());
        }
        let mut sc = WriteBuffer::new(MemoryModel::Sc);
        assert!(sc.pop_drain().is_none());
        sc.clear();
    }

    #[test]
    fn tso_read_sees_youngest_write() {
        let mut b = WriteBuffer::new(MemoryModel::Tso);
        b.push(r(1), v(10));
        b.push(r(1), v(20));
        assert_eq!(b.read(r(1)), Some(v(20)));
        assert_eq!(b.len(), 2); // both entries are queued
        assert_eq!(b.regs(), vec![r(1)]);
    }

    #[test]
    fn recorded_ops_round_trip() {
        // PSO: push over an existing entry, then take — undo in reverse
        // order restores the original buffer exactly.
        let mut b = WriteBuffer::new(MemoryModel::Pso);
        b.push(r(1), v(10));
        let orig = b.clone();
        let u1 = b.push_recorded(r(1), v(20));
        let (got, u2) = b.take_recorded(r(1));
        assert_eq!(got, Some(v(20)));
        b.apply_undo(u2);
        b.apply_undo(u1);
        assert_eq!(b, orig);

        // TSO: take pops the head; undo requeues it at the front.
        let mut b = WriteBuffer::new(MemoryModel::Tso);
        b.push(r(9), v(1));
        b.push(r(2), v(2));
        let orig = b.clone();
        let (got, u) = b.take_recorded(r(9));
        assert_eq!(got, Some(v(1)));
        b.apply_undo(u);
        assert_eq!(b, orig);

        // A failed take records nothing.
        let (got, u) = b.take_recorded(r(2));
        assert_eq!(got, None);
        assert_eq!(u, BufferUndo::None);
    }

    #[test]
    fn for_each_commit_choice_matches_vec() {
        let mut b = WriteBuffer::new(MemoryModel::Pso);
        b.push(r(9), v(1));
        b.push(r(2), v(2));
        let mut seen = Vec::new();
        b.for_each_commit_choice(|reg| seen.push(reg));
        assert_eq!(seen, b.commit_choices());
    }

    #[test]
    fn contains_and_regs() {
        let mut b = WriteBuffer::new(MemoryModel::Pso);
        b.push(r(3), v(1));
        assert!(b.contains(r(3)));
        assert!(!b.contains(r(4)));
        assert_eq!(b.regs(), vec![r(3)]);
    }
}
