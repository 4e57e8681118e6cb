//! Dependence footprints for schedule choices.
//!
//! Partial-order reduction needs to know when two schedule elements
//! *commute*: executing them in either order from the same configuration
//! must be possible and must produce the same configuration. The machine
//! summarizes each choice's observable effect as a [`Footprint`] — which
//! process moved and which shared-memory cell (if any) the step read or
//! wrote — and [`Footprint::independent`] decides commutativity from two
//! footprints alone.
//!
//! The classification leans on two structural facts of the write-buffer
//! machine:
//!
//! * A process's *choice set* (which commits are committable, whether its
//!   operation is fence-blocked, whether it may crash) is a function of its
//!   own local state only, so steps by other processes never enable or
//!   disable a choice — only the *values* flowing through shared memory can
//!   differ, and those are exactly what the footprint's register tracks.
//! * Buffered writes and buffer-served reads touch nothing but the acting
//!   process's own buffer; they are invisible to every other process until
//!   the commit, which gets its own footprint.
//!
//! See `DESIGN.md` §5c for the per-model soundness argument.

use crate::model::MemoryModel;
use crate::reg::{ProcId, RegId};

/// What one schedule choice would touch, as seen by every other process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Footprint {
    /// The process the choice schedules.
    pub proc: ProcId,
    /// The choice's effect class.
    pub kind: FootprintKind,
}

/// The effect class of a schedule choice (see [`Footprint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FootprintKind {
    /// The step touches only the acting process's private state: a write
    /// entering the buffer, a read served from the buffer, a fence
    /// completing over an empty buffer, or a disabled choice (no-op).
    Local,
    /// The step reads shared memory cell `R` without writing it: a read
    /// served from memory, or a failed CAS.
    Read(RegId),
    /// The step writes shared memory cell `R` as part of a program
    /// operation: an SC-mode write, a successful CAS, or a swap. (CAS and
    /// swap also observe the cell, but the write dependence subsumes the
    /// read dependence.)
    Write(RegId),
    /// The *system* commits the process's buffered write to cell `R` —
    /// either a named commit element or a fence/CAS/swap-forced drain
    /// commit. Unlike [`Write`](FootprintKind::Write), a commit does not
    /// advance the program.
    Commit(RegId),
    /// The process returns: private, but visible to terminal-state checks.
    Return,
    /// The process crashes. `drains` is true when the configured crash
    /// semantics flushes a non-empty buffer to memory (an unbounded set of
    /// commits), false when the buffer is discarded or already empty.
    Crash {
        /// Whether the crash commits buffered writes on its way down.
        drains: bool,
    },
}

impl Footprint {
    /// Whether the choices summarized by `self` and `other` commute: from
    /// any configuration where both are schedulable, executing them in
    /// either order yields the same configuration (and neither disables the
    /// other).
    ///
    /// The relation is symmetric by construction, and conservative: `false`
    /// never breaks soundness, it only costs reduction.
    ///
    /// Per model: the only model-dependent clause is same-process
    /// commit/commit independence, which requires an *unordered* buffer
    /// ([`MemoryModel::reorders_writes`] — PSO). Under TSO at most one
    /// commit is committable at a time and under SC there are no commits,
    /// so the clause never fires there. Cross-process clauses are
    /// model-independent because the footprints already encode the model's
    /// behaviour (a buffered write is `Local`, an SC write is `Write`).
    #[must_use]
    pub fn independent(self, other: Footprint, model: MemoryModel) -> bool {
        use FootprintKind::{Commit, Crash, Local, Read, Return, Write};
        if self.proc == other.proc {
            // Two steps of one process are ordered by that process — except
            // two commits of distinct cells from an unordered buffer, which
            // the system may flush in either order with identical results.
            return match (self.kind, other.kind) {
                (Commit(a), Commit(b)) => a != b && model.reorders_writes(),
                _ => false,
            };
        }
        match (self.kind, other.kind) {
            // Private steps commute with everything another process does.
            (Local | Return, _) | (_, Local | Return) => true,
            // A discarding crash is private too; a draining crash commits an
            // unbounded register set we do not enumerate, so it conflicts
            // with every cross-process memory access.
            (Crash { drains: false }, _) | (_, Crash { drains: false }) => true,
            (Crash { drains: true }, Crash { drains: true }) => true,
            (Crash { drains: true }, _) | (_, Crash { drains: true }) => false,
            // Reads commute with reads, even of the same cell.
            (Read(_), Read(_)) => true,
            // A read and a write, or two writes, commute iff they touch
            // different cells.
            (Read(a) | Write(a) | Commit(a), Read(b) | Write(b) | Commit(b)) => a != b,
        }
    }

    /// Whether the step writes shared memory (commit, SC write, successful
    /// CAS, swap — not a draining crash, whose set is unenumerated).
    #[must_use]
    pub fn writes(self) -> Option<RegId> {
        match self.kind {
            FootprintKind::Write(r) | FootprintKind::Commit(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the step reads shared memory without writing it.
    #[must_use]
    pub fn reads(self) -> Option<RegId> {
        match self.kind {
            FootprintKind::Read(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(p: u32, kind: FootprintKind) -> Footprint {
        Footprint {
            proc: ProcId(p),
            kind,
        }
    }

    #[test]
    fn independence_is_symmetric_everywhere() {
        use FootprintKind::{Commit, Crash, Local, Read, Return, Write};
        let kinds = [
            Local,
            Read(RegId(0)),
            Read(RegId(1)),
            Write(RegId(0)),
            Write(RegId(1)),
            Commit(RegId(0)),
            Commit(RegId(1)),
            Return,
            Crash { drains: false },
            Crash { drains: true },
        ];
        for model in MemoryModel::ALL {
            for p in [0u32, 1] {
                for q in [0u32, 1] {
                    for a in kinds {
                        for b in kinds {
                            let x = fp(p, a);
                            let y = fp(q, b);
                            assert_eq!(
                                x.independent(y, model),
                                y.independent(x, model),
                                "{model}: {x:?} vs {y:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn conflicting_accesses_are_dependent() {
        use FootprintKind::{Commit, Read, Write};
        let r = RegId(3);
        for model in MemoryModel::ALL {
            // Irreflexive on conflicts: a memory-touching footprint never
            // commutes with itself (same process), nor with a same-cell
            // write by anyone.
            for k in [Read(r), Write(r), Commit(r)] {
                assert!(!fp(0, k).independent(fp(0, k), model), "{model}: self");
            }
            for w in [Write(r), Commit(r)] {
                for k in [Read(r), Write(r), Commit(r)] {
                    assert!(
                        !fp(0, w).independent(fp(1, k), model),
                        "{model}: same-cell {w:?} vs {k:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_cells_and_private_steps_commute() {
        use FootprintKind::{Commit, Local, Read, Write};
        for model in MemoryModel::ALL {
            assert!(fp(0, Write(RegId(0))).independent(fp(1, Write(RegId(1))), model));
            assert!(fp(0, Commit(RegId(0))).independent(fp(1, Read(RegId(1))), model));
            assert!(fp(0, Read(RegId(5))).independent(fp(1, Read(RegId(5))), model));
            assert!(fp(0, Local).independent(fp(1, Commit(RegId(0))), model));
        }
    }

    #[test]
    fn same_process_commits_commute_only_under_reordering_models() {
        use FootprintKind::Commit;
        let (a, b) = (fp(0, Commit(RegId(0))), fp(0, Commit(RegId(1))));
        assert!(!a.independent(b, MemoryModel::Sc));
        assert!(!a.independent(b, MemoryModel::Tso));
        assert!(a.independent(b, MemoryModel::Pso));
        assert!(!a.independent(a, MemoryModel::Pso), "same cell never");
    }

    #[test]
    fn crash_clauses() {
        use FootprintKind::{Crash, Local, Read, Write};
        for model in MemoryModel::ALL {
            let discard = Crash { drains: false };
            let drain = Crash { drains: true };
            assert!(
                !fp(0, discard).independent(fp(0, Local), model),
                "same proc"
            );
            assert!(fp(0, discard).independent(fp(1, Write(RegId(0))), model));
            assert!(!fp(0, drain).independent(fp(1, Read(RegId(0))), model));
            assert!(fp(0, drain).independent(fp(1, drain), model));
        }
    }
}
