//! Fence and RMR accounting.
//!
//! `β(E)` (fence steps) and `ρ(E)` (remote steps) are the two quantities the
//! paper's tradeoff relates: `β(E)·(log(ρ(E)/β(E)) + 1) ∈ Ω(n log n)` for
//! ordering algorithms under write reordering.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Step counts for a single process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcCounters {
    /// Fence steps executed (`β` contribution).
    pub fences: u64,
    /// Remote steps: remote reads + remote commits (`ρ` contribution).
    pub rmrs: u64,
    /// Read steps (local + remote).
    pub reads: u64,
    /// Reads that were remote.
    pub remote_reads: u64,
    /// Reads served from the process's own write buffer.
    pub buffer_reads: u64,
    /// Write steps (always local).
    pub writes: u64,
    /// Commit steps attributed to this process.
    pub commits: u64,
    /// Commits that were remote.
    pub remote_commits: u64,
    /// Compare-and-swap steps (comparison primitives, §6 extension).
    pub cas_ops: u64,
    /// CAS steps that were remote.
    pub remote_cas: u64,
    /// Fetch-and-store steps.
    pub swap_ops: u64,
    /// Swap steps that were remote.
    pub remote_swaps: u64,
    /// Crash steps injected into this process (fault injection).
    pub crashes: u64,
}

/// One bit per [`ProcCounters`] field, in declaration order. A step other
/// than a draining crash raises each counter by at most one, so the set of
/// counters it raised — what an undo has to take back — fits one mask.
pub(crate) mod bit {
    pub(crate) const FENCES: u32 = 1 << 0;
    pub(crate) const RMRS: u32 = 1 << 1;
    pub(crate) const READS: u32 = 1 << 2;
    pub(crate) const REMOTE_READS: u32 = 1 << 3;
    pub(crate) const BUFFER_READS: u32 = 1 << 4;
    pub(crate) const WRITES: u32 = 1 << 5;
    pub(crate) const COMMITS: u32 = 1 << 6;
    pub(crate) const REMOTE_COMMITS: u32 = 1 << 7;
    pub(crate) const CAS_OPS: u32 = 1 << 8;
    pub(crate) const REMOTE_CAS: u32 = 1 << 9;
    pub(crate) const SWAP_OPS: u32 = 1 << 10;
    pub(crate) const REMOTE_SWAPS: u32 = 1 << 11;
    pub(crate) const CRASHES: u32 = 1 << 12;
    /// Every counter bit.
    #[cfg(test)]
    pub(crate) const ALL: u32 = (1 << 13) - 1;
}

impl ProcCounters {
    /// Every counter paired with its [`bit`], in declaration order.
    fn fields_mut(&mut self) -> [&mut u64; 13] {
        [
            &mut self.fences,
            &mut self.rmrs,
            &mut self.reads,
            &mut self.remote_reads,
            &mut self.buffer_reads,
            &mut self.writes,
            &mut self.commits,
            &mut self.remote_commits,
            &mut self.cas_ops,
            &mut self.remote_cas,
            &mut self.swap_ops,
            &mut self.remote_swaps,
            &mut self.crashes,
        ]
    }

    /// Raise by one every counter whose [`bit`] is set in `bits` (bits
    /// above the counters' are ignored). Branch-free: which counters a step
    /// raises is not predictable.
    #[inline]
    pub(crate) fn bump(&mut self, bits: u32) {
        for (k, counter) in self.fields_mut().into_iter().enumerate() {
            *counter += u64::from(bits >> k & 1);
        }
    }

    /// Take one back from every counter whose [`bit`] is set in `bits`.
    #[inline]
    pub(crate) fn unbump(&mut self, bits: u32) {
        for (k, counter) in self.fields_mut().into_iter().enumerate() {
            *counter -= u64::from(bits >> k & 1);
        }
    }
}

impl Add for ProcCounters {
    type Output = ProcCounters;
    fn add(self, o: ProcCounters) -> ProcCounters {
        ProcCounters {
            fences: self.fences + o.fences,
            rmrs: self.rmrs + o.rmrs,
            reads: self.reads + o.reads,
            remote_reads: self.remote_reads + o.remote_reads,
            buffer_reads: self.buffer_reads + o.buffer_reads,
            writes: self.writes + o.writes,
            commits: self.commits + o.commits,
            remote_commits: self.remote_commits + o.remote_commits,
            cas_ops: self.cas_ops + o.cas_ops,
            remote_cas: self.remote_cas + o.remote_cas,
            swap_ops: self.swap_ops + o.swap_ops,
            remote_swaps: self.remote_swaps + o.remote_swaps,
            crashes: self.crashes + o.crashes,
        }
    }
}

impl AddAssign for ProcCounters {
    fn add_assign(&mut self, o: ProcCounters) {
        *self = *self + o;
    }
}

impl fmt::Display for ProcCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fences={} rmrs={} (reads={} remote={} buffered={}; writes={}; commits={} remote={}; cas={} remote={}; crashes={})",
            self.fences,
            self.rmrs,
            self.reads,
            self.remote_reads,
            self.buffer_reads,
            self.writes,
            self.commits,
            self.remote_commits,
            self.cas_ops,
            self.remote_cas,
            self.crashes
        )
    }
}

/// Per-process and aggregate step counts for an execution.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Counters {
    per_proc: Vec<ProcCounters>,
}

impl Clone for Counters {
    fn clone(&self) -> Self {
        Counters {
            per_proc: self.per_proc.clone(),
        }
    }

    /// Reuses `self`'s allocation.
    fn clone_from(&mut self, source: &Self) {
        self.per_proc.clone_from(&source.per_proc);
    }
}

impl Counters {
    /// Counters for `n` processes, all zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Counters {
            per_proc: vec![ProcCounters::default(); n],
        }
    }

    /// Counters for process `p`.
    #[must_use]
    pub fn proc(&self, p: usize) -> &ProcCounters {
        &self.per_proc[p]
    }

    /// Mutable counters for process `p`.
    pub fn proc_mut(&mut self, p: usize) -> &mut ProcCounters {
        &mut self.per_proc[p]
    }

    /// Sum over all processes.
    #[must_use]
    pub fn total(&self) -> ProcCounters {
        self.per_proc
            .iter()
            .copied()
            .fold(ProcCounters::default(), Add::add)
    }

    /// Total fence steps: the paper's `β(E)`.
    #[must_use]
    pub fn beta(&self) -> u64 {
        self.total().fences
    }

    /// Total remote steps: the paper's `ρ(E)`.
    #[must_use]
    pub fn rho(&self) -> u64 {
        self.total().rmrs
    }

    /// Number of processes tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.per_proc.len()
    }

    /// Whether zero processes are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.per_proc.is_empty()
    }

    /// Iterate over per-process counters in process-id order.
    pub fn iter(&self) -> impl Iterator<Item = &ProcCounters> {
        self.per_proc.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_aggregate() {
        let mut c = Counters::new(2);
        c.proc_mut(0).fences = 3;
        c.proc_mut(0).rmrs = 5;
        c.proc_mut(1).fences = 1;
        c.proc_mut(1).rmrs = 2;
        assert_eq!(c.beta(), 4);
        assert_eq!(c.rho(), 7);
        assert_eq!(c.total().fences, 4);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn add_combines_fieldwise() {
        let a = ProcCounters {
            fences: 1,
            rmrs: 2,
            reads: 3,
            ..Default::default()
        };
        let b = ProcCounters {
            fences: 10,
            rmrs: 20,
            reads: 30,
            ..Default::default()
        };
        let s = a + b;
        assert_eq!(s.fences, 11);
        assert_eq!(s.rmrs, 22);
        assert_eq!(s.reads, 33);
    }

    #[test]
    fn bump_and_unbump_touch_exactly_the_named_counters() {
        let mut c = ProcCounters::default();
        c.bump(bit::ALL);
        let one = ProcCounters {
            fences: 1,
            rmrs: 1,
            reads: 1,
            remote_reads: 1,
            buffer_reads: 1,
            writes: 1,
            commits: 1,
            remote_commits: 1,
            cas_ops: 1,
            remote_cas: 1,
            swap_ops: 1,
            remote_swaps: 1,
            crashes: 1,
        };
        assert_eq!(c, one);
        c.bump(bit::READS | bit::REMOTE_READS | bit::RMRS);
        c.unbump(bit::ALL);
        let left = ProcCounters {
            reads: 1,
            remote_reads: 1,
            rmrs: 1,
            ..ProcCounters::default()
        };
        assert_eq!(c, left);
        c.unbump(bit::READS | bit::REMOTE_READS | bit::RMRS);
        assert_eq!(c, ProcCounters::default());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!ProcCounters::default().to_string().is_empty());
    }
}
