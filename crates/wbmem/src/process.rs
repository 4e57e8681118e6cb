//! The interface between programs and the machine.

use crate::reg::{RegId, RegSet};
use crate::value::Value;

/// An over-approximated set of registers, for static access summaries:
/// either a concrete [`RegSet`] or "anything" (the sound default when a
/// program computes addresses dynamically).
#[derive(Clone, Copy, Debug)]
pub enum AccessSet<'a> {
    /// Any register may be accessed.
    All,
    /// At most these registers may be accessed.
    Set(&'a RegSet),
}

impl AccessSet<'_> {
    /// Whether `reg` may be in the set.
    #[must_use]
    pub fn may_contain(self, reg: RegId) -> bool {
        match self {
            AccessSet::All => true,
            AccessSet::Set(s) => s.contains(reg),
        }
    }
}

/// A static over-approximation of a process's possible *future* shared
/// memory accesses, from its current control point to the end of every
/// path. See [`Process::future_access`].
#[derive(Clone, Copy, Debug)]
pub struct FutureAccess<'a> {
    /// Registers the process may still read (including via CAS/swap).
    pub reads: AccessSet<'a>,
    /// Registers the process may still write (including via CAS/swap and
    /// buffered writes it has not yet issued).
    pub writes: AccessSet<'a>,
}

impl FutureAccess<'_> {
    /// The conservative "may touch anything" summary.
    #[must_use]
    pub fn all() -> Self {
        FutureAccess {
            reads: AccessSet::All,
            writes: AccessSet::All,
        }
    }
}

/// The operation a process is poised to execute, as observed by the machine
/// before the corresponding step is taken.
///
/// This mirrors the paper's `next_p(C)`: a deterministic function of the
/// process's local state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Poised {
    /// `read(R)` — the step returns a value (from the write buffer if it
    /// holds a write to `R`, otherwise from shared memory).
    Read(RegId),
    /// `write(R, x)` — the write enters the process's write buffer (commits
    /// immediately under SC).
    Write(RegId, Value),
    /// `fence()` — the process cannot take further steps until its write
    /// buffer is empty.
    Fence,
    /// `cas(R, expected, new)` — a comparison primitive (the paper's §6
    /// extension): atomically, if `R`'s current payload equals `expected`,
    /// store `new`. Like a fence, it cannot execute until the write buffer
    /// has drained (real hardware CAS orders the store buffer).
    Cas {
        /// Register operated on.
        reg: RegId,
        /// Payload the current value must equal for the swap to happen.
        expected: u64,
        /// Value stored on success.
        new: Value,
    },
    /// `swap(R, new)` — fetch-and-store (used by queue locks such as MCS):
    /// atomically store `new` and observe the previous value. Like CAS, it
    /// drains the write buffer before executing.
    Swap {
        /// Register operated on.
        reg: RegId,
        /// Value stored unconditionally.
        new: Value,
    },
    /// `return(x)` — the process enters a final state with value `x`.
    Return(u64),
    /// The process is in a final state (`next_p(C) = ∅`).
    Done,
}

impl Poised {
    /// The shape of the poised operation, without operands.
    #[must_use]
    pub fn kind(self) -> PoisedKind {
        match self {
            Poised::Read(_) => PoisedKind::Read,
            Poised::Write(_, _) => PoisedKind::Write,
            Poised::Fence => PoisedKind::Fence,
            Poised::Cas { .. } => PoisedKind::Cas,
            Poised::Swap { .. } => PoisedKind::Swap,
            Poised::Return(_) => PoisedKind::Return,
            Poised::Done => PoisedKind::Done,
        }
    }
}

/// Operation shapes (see [`Poised`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoisedKind {
    /// A read operation.
    Read,
    /// A write operation.
    Write,
    /// A fence operation.
    Fence,
    /// A compare-and-swap operation.
    Cas,
    /// A fetch-and-store operation.
    Swap,
    /// A return operation.
    Return,
    /// Final state.
    Done,
}

/// A deterministic process: a cloneable state machine executing the paper's
/// operations.
///
/// The machine drives a process by inspecting [`poised`](Process::poised)
/// and, once it has performed the operation's memory effects, calling
/// [`advance`](Process::advance) (with the read result for read steps).
/// Commit steps belong to the *system* and never advance the process. A
/// process that can tell when a step changed nothing reports it through
/// [`advance_idle`](Process::advance_idle); the plain step rule then
/// answers the process's repeats of that read without it.
///
/// Implementations must be deterministic — `poised` must be a pure function
/// of the state — because the lower-bound encoder replays and solo-runs
/// processes and relies on identical behaviour each time. `Clone + Eq +
/// Hash` make states snapshotable and model-checkable; `Send + Sync` (free
/// for the plain-data states processes are) lets the model checker explore
/// from multiple threads.
pub trait Process: Clone + Eq + std::hash::Hash + Send + Sync {
    /// The operation this process is poised to execute.
    fn poised(&self) -> Poised;

    /// Consume the poised operation. For reads and compare-and-swaps,
    /// `read_value` carries the value observed (for CAS, the value of the
    /// register *before* the operation — the swap succeeded iff its payload
    /// equals the expectation); for every other operation it is `None`.
    ///
    /// Must not be called when [`poised`](Process::poised) is
    /// [`Poised::Done`]. The machine never calls `advance` for a
    /// [`Poised::Return`] step either — it records the return value itself
    /// and treats the process as final from then on.
    fn advance(&mut self, read_value: Option<Value>);

    /// [`advance`](Process::advance), reporting whether the step left the
    /// process *idle*: equal (`==`) to what it was before. A process
    /// poised at a read that it re-reads with the value it saw last is
    /// then poised at the same read again, and would stay idle on every
    /// further read of that value; [`Machine::step`](crate::Machine::step)
    /// answers such re-reads without advancing the process at all.
    ///
    /// `true` must imply `==`; `false` is always sound, and is the default,
    /// which opts out of the shortcut.
    fn advance_idle(&mut self, read_value: Option<Value>) -> bool {
        self.advance(read_value);
        false
    }

    /// A program-defined annotation (e.g. "in critical section"), visible to
    /// invariant checkers. Defaults to `0`.
    fn annotation(&self) -> u64 {
        0
    }

    /// Whether this process supports crash-recovery. The machine performs
    /// crash steps only on recoverable processes — a crash element targeting
    /// a non-recoverable process is a no-op, and the choice enumerator never
    /// offers one. Defaults to `false`.
    fn recoverable(&self) -> bool {
        false
    }

    /// Reset the process to its recovery entry point after a crash: local
    /// state is wiped and control restarts at the program's declared
    /// recovery section (the program start, absent a declaration). Only
    /// called when [`recoverable`](Process::recoverable) is `true`. The
    /// default does nothing.
    fn crash_recover(&mut self) {}

    /// A static over-approximation of every shared register this process
    /// may still read or write, from its current state onward (its own
    /// poised operation included). With `include_recovery`, the summary
    /// must also cover everything reachable from the program's crash
    /// recovery entry — callers pass `true` whenever the process can still
    /// crash.
    ///
    /// Partial-order reduction uses this to prove that another process's
    /// pending step can never interfere with this one; the default —
    /// "may touch anything" — is always sound and merely disables that
    /// reduction.
    fn future_access(&self, include_recovery: bool) -> FutureAccess<'_> {
        let _ = include_recovery;
        FutureAccess::all()
    }

    /// The process's current program counter for observability, if the
    /// process has a meaningful one. The machine never reads it: the
    /// model checker does, around each exploration step it counts, to
    /// fill its recorder's hot-pc table. The default — `None` — opts out;
    /// interpreted processes (the `fencevm` VM) report their pc so
    /// per-label hit counts can be attributed. Purely diagnostic: never
    /// affects semantics, hashing, or equality.
    fn obs_pc(&self) -> Option<u32> {
        None
    }

    /// Whether performing the poised operation may change the process's
    /// [`annotation`](Process::annotation). Property checks observe
    /// annotations, so partial-order reduction must treat
    /// annotation-changing steps as visible; the conservative default is
    /// `true`.
    fn op_may_annotate(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poised_kind_classification() {
        assert_eq!(Poised::Read(RegId(0)).kind(), PoisedKind::Read);
        assert_eq!(
            Poised::Write(RegId(0), Value::Int(1)).kind(),
            PoisedKind::Write
        );
        assert_eq!(Poised::Fence.kind(), PoisedKind::Fence);
        assert_eq!(Poised::Return(3).kind(), PoisedKind::Return);
        assert_eq!(Poised::Done.kind(), PoisedKind::Done);
    }
}
