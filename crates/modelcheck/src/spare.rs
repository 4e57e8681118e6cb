//! The storage a finished check leaves to the next check on its thread.
//!
//! A check's per-state tables grow with its states and transitions: the
//! state index and the termination graph's lists ([`Graph`]), and the
//! reduced walk's dominance table and on-stack counts. Allocated anew for
//! every check and handed back to the OS when it drops them, they cost
//! each check of a series on one thread — a table of cells, repeated
//! passes over them — the same page faults again. So each thread keeps
//! one *spare*: the tables its last check used, emptied but still
//! allocated, which the next check on the thread takes instead of
//! allocating. A larger next check reuses what the spare holds and
//! allocates only past it.
//!
//! * The tables go back emptied however the check ends — at a violation
//!   or the state limit, with states still on the reduction's stack — so
//!   no id, order, count or verdict of the next check depends on the one
//!   before. A check that panics drops its tables while it unwinds, and
//!   the next check allocates afresh.
//! * A check keeps its tables only if they take [`KEPT_BYTES`]: over
//!   64 MiB they are freed, and under 1 MiB too — the allocator serves
//!   tables that small again without page faults, from memory it keeps
//!   anyway, so a kept one would only add its bytes to the thread's
//!   resident memory between checks. A small check that took a larger
//!   spare keeps it.
//! * A run that writes or resumes a checkpoint neither takes nor keeps the
//!   spare, and frees the one it finds: a full-size table kept resident
//!   would sit beside the snapshot's encode and decode buffers.
//!
//! The spare is the search's one thread-local (`scripts/ci.sh` fails on
//! another in `modelcheck` or `por`).

use std::cell::Cell;
use std::ops::RangeInclusive;

use por::{DenseHeads, Segmented, VisitTable};

use crate::kernel::Graph;

/// The sizes of tables a check leaves to the next. The cap is reached:
/// 3 of `exp e12`'s 31 checks and 2 of `exp e11`'s 34 leave more and free
/// it. Under the floor nothing is kept: `synth`'s checks all stay under
/// 360 KB, take under one page fault a pass without a spare, and keeping
/// theirs raised its `peak_rss_mib` 4.82 → 5.06 (5 of 5 pairs).
const KEPT_BYTES: RangeInclusive<usize> = 1 << 20..=64 << 20;

thread_local! {
    static SPARE: Cell<Option<Tables>> = const { Cell::new(None) };
}

/// Every per-state table of one check.
#[derive(Default)]
pub(crate) struct Tables {
    /// The kernel's ([`Local`](crate::kernel::Local)'s).
    pub(crate) graph: Graph,
    /// The reduced walk's ([`SleepAmple`](crate::dpor::SleepAmple)'s).
    pub(crate) visited: VisitTable<DenseHeads>,
    pub(crate) on_stack: Segmented<u32>,
}

impl Tables {
    fn clear(&mut self) {
        self.graph.clear();
        self.visited.clear();
        self.on_stack.clear();
    }

    fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes()
            + self.visited.heap_bytes()
            + self.on_stack.capacity() * std::mem::size_of::<u32>()
    }
}

/// Empty tables for a check: the thread's spare if there is one and the
/// check will `keep` its tables, fresh ones otherwise. A check that will
/// not keep them frees the spare.
pub(crate) fn take(keep: bool) -> Tables {
    let spare = SPARE.take();
    if keep {
        spare.unwrap_or_default()
    } else {
        Tables::default()
    }
}

/// Leave a finished check's `tables` to the thread's next check, emptied —
/// unless the check does not `keep` them or their size is outside
/// [`KEPT_BYTES`]. Either way, a spare that a check run by this one left
/// is freed.
pub(crate) fn give_back(mut tables: Tables, keep: bool) {
    let kept = (keep && KEPT_BYTES.contains(&tables.heap_bytes())).then(|| {
        tables.clear();
        tables
    });
    SPARE.set(kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tables of `bytes` — a termination edge list's, allocated and never
    /// touched.
    fn tables_of(bytes: usize) -> Tables {
        let mut tables = Tables::default();
        tables
            .graph
            .reserve_edges(bytes / std::mem::size_of::<(u32, u32)>());
        assert_eq!(tables.heap_bytes(), bytes);
        tables
    }

    #[test]
    fn only_tables_within_the_kept_sizes_outlive_their_check() {
        let (floor, cap) = (*KEPT_BYTES.start(), *KEPT_BYTES.end());
        for (bytes, keep, kept) in [
            (floor - 8, true, false),
            (floor, true, true),
            (cap, true, true),
            (cap + 8, true, false),
            (2 * floor, false, false),
        ] {
            give_back(tables_of(bytes), keep);
            let spare = SPARE.take();
            assert_eq!(spare.is_some(), kept, "{bytes} bytes, keep {keep}");
            if let Some(spare) = spare {
                assert_eq!(spare.heap_bytes(), bytes, "kept whole");
            }
        }
    }

    #[test]
    fn a_check_that_keeps_nothing_frees_the_spare_it_finds() {
        give_back(tables_of(2 << 20), true);
        assert_eq!(take(false).heap_bytes(), 0);
        assert!(SPARE.take().is_none());
        give_back(tables_of(2 << 20), true);
        assert_eq!(take(true).heap_bytes(), 2 << 20);
        assert!(SPARE.take().is_none());
    }
}
