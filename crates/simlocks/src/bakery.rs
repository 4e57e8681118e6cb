//! Lamport's Bakery lock — Algorithm 1 of the paper.
//!
//! Per passage: a **constant** number of fences (three in acquire, one in
//! release) and a **linear** number of RMRs (the doorway scans every
//! process's ticket and the wait loop reads every process's `C` and `T`).
//! This is the `f = 1` extreme of the fence/RMR tradeoff: with O(1) fences,
//! the lower bound forces Ω(n) RMRs, and Bakery meets it.
//!
//! ```text
//! Acquire(i):                       // fence sites
//!   write(C[i], 1); fence           // 0  (doorway open)
//!   tmp := 1 + max{T[0..n-1]}
//!   write(T[i], tmp); fence         // 2  (ticket published)
//!   write(C[i], 0); fence           // 1  (doorway closed)
//!   for j != i:
//!     wait until C[j] == 0
//!     wait until T[j] == 0 or (tmp, i) < (T[j], j)
//! Release(i):
//!   write(T[i], 0); fence           // 3
//! ```
//!
//! The algorithm orders its writes explicitly with fences, so it is correct
//! under every memory model the simulator offers (the paper notes it holds
//! under RMO too).
//!
//! ## Deviation from the paper's listing
//!
//! The paper's Algorithm 1 prints the doorway as `write(C[i], 0); fence`
//! (line 6) **followed by** `write(T[i], tmp); fence` (line 7) — inverted
//! relative to Lamport's original, where the ticket is published while the
//! choosing flag is still raised. The printed order is unsafe even under
//! sequential consistency: a rival that was held up on `C[i] == 1` can pass
//! the check in the window after the door closes but before the ticket
//! lands, read `T[i] = 0`, and enter the critical section alongside `i`
//! (who later draws a tied ticket and wins the id tie-break). Our model
//! checker finds this violation mechanically. We therefore implement
//! Lamport's order by default and keep the paper's printed order available
//! via [`Bakery::with_paper_listing_order`] so experiment E5 can exhibit
//! the counterexample.

use fencevm::{Asm, CondOp};
use wbmem::ProcId;

use crate::alloc::RegAlloc;
use crate::fences::FenceMask;
use crate::lock::LockAlgorithm;

/// Fence site after `write(C[i], 1)`.
pub const SITE_DOOR_OPEN: u32 = 0;
/// Fence site after `write(C[i], 0)`.
pub const SITE_DOOR_CLOSE: u32 = 1;
/// Fence site after `write(T[i], ticket)`.
pub const SITE_TICKET: u32 = 2;
/// Fence site after the release write `write(T[i], 0)`.
pub const SITE_RELEASE: u32 = 3;

/// A Bakery lock instance for `n` competitor slots.
///
/// "Slots" rather than "processes": inside a [`GtLock`](crate::GtLock) tree
/// a Bakery node is time-shared by the winners of its subtrees, with the
/// subtree index as the slot.
#[derive(Clone, Debug)]
pub struct Bakery {
    n: usize,
    c_base: i64,
    t_base: i64,
    fences: FenceMask,
    paper_listing_order: bool,
}

impl Bakery {
    /// Allocate a Bakery instance for `n` slots. `slot_owner(s)` names the
    /// process in whose memory segment slot `s`'s registers (`C[s]`,
    /// `T[s]`) are placed — the natural choice when slot `s` is statically
    /// bound to one process, `None` for shared tree nodes.
    pub fn new(
        alloc: &mut RegAlloc,
        n: usize,
        mut slot_owner: impl FnMut(usize) -> Option<ProcId>,
        fences: FenceMask,
    ) -> Self {
        assert!(n >= 1, "bakery needs at least one slot");
        let c_base = alloc.alloc_array(n, &mut slot_owner);
        let t_base = alloc.alloc_array(n, &mut slot_owner);
        Bakery {
            n,
            c_base: i64::from(c_base.0),
            t_base: i64::from(t_base.0),
            fences,
            paper_listing_order: false,
        }
    }

    /// Use the write order exactly as printed in the paper's Algorithm 1
    /// (`C[i] := 0` before `T[i] := tmp`). **Unsafe even under SC** — see
    /// the module docs; provided so the counterexample can be regenerated.
    #[must_use]
    pub fn with_paper_listing_order(mut self) -> Self {
        self.paper_listing_order = true;
        self
    }

    /// Emit the acquire section for `slot` (may differ from the global
    /// process id inside tree locks).
    pub fn emit_acquire_slot(&self, asm: &mut Asm, slot: usize) {
        assert!(
            slot < self.n,
            "slot {slot} out of range for bakery[{}]",
            self.n
        );
        let n = self.n as i64;
        let slot_i = slot as i64;
        let tmp = asm.local("bak_tmp");
        let j = asm.local("bak_j");
        let addr = asm.local("bak_addr");
        let t = asm.local("bak_t");

        // Doorway: C[slot] := 1.
        asm.write(self.c_base + slot_i, 1i64);
        self.fences.emit(asm, SITE_DOOR_OPEN);

        // tmp := 1 + max{T[0..n-1]}  (own slot included, as in the paper).
        asm.mov(tmp, 1i64);
        asm.mov(j, 0i64);
        let scan_end = asm.label();
        let scan = asm.here();
        asm.jmp_if(CondOp::Ge, j, n, scan_end);
        asm.add(addr, j, self.t_base);
        asm.read(addr, t);
        asm.add(t, t, 1i64);
        asm.max(tmp, tmp, t);
        asm.add(j, j, 1i64);
        asm.jmp(scan);
        asm.bind(scan_end);

        if self.paper_listing_order {
            // The paper's printed (broken) order: close the doorway before
            // publishing the ticket.
            asm.write(self.c_base + slot_i, 0i64);
            self.fences.emit(asm, SITE_DOOR_CLOSE);
            asm.write(self.t_base + slot_i, tmp);
            self.fences.emit(asm, SITE_TICKET);
        } else {
            // Lamport's order: the ticket lands while the door is open.
            asm.write(self.t_base + slot_i, tmp);
            self.fences.emit(asm, SITE_TICKET);
            asm.write(self.c_base + slot_i, 0i64);
            self.fences.emit(asm, SITE_DOOR_CLOSE);
        }

        // Wait loop over every other slot.
        asm.mov(j, 0i64);
        let wait_end = asm.label();
        let wait = asm.here();
        asm.jmp_if(CondOp::Ge, j, n, wait_end);
        let next = asm.label();
        asm.jmp_if(CondOp::Eq, j, slot_i, next);

        // wait until C[j] == 0
        let spin_c = asm.here();
        asm.add(addr, j, self.c_base);
        asm.read(addr, t);
        asm.jmp_if(CondOp::Ne, t, 0i64, spin_c);

        // wait until T[j] == 0 or (tmp, slot) < (T[j], j)
        let spin_t = asm.here();
        asm.add(addr, j, self.t_base);
        asm.read(addr, t);
        asm.jmp_if(CondOp::Eq, t, 0i64, next);
        asm.jmp_if(CondOp::Lt, tmp, t, next);
        asm.jmp_if(CondOp::Gt, tmp, t, spin_t);
        // Equal tickets: the smaller slot id goes first.
        asm.jmp_if(CondOp::Lt, slot_i, j, next);
        asm.jmp(spin_t);

        asm.bind(next);
        asm.add(j, j, 1i64);
        asm.jmp(wait);
        asm.bind(wait_end);
    }

    /// Emit the release section for `slot`.
    pub fn emit_release_slot(&self, asm: &mut Asm, slot: usize) {
        assert!(
            slot < self.n,
            "slot {slot} out of range for bakery[{}]",
            self.n
        );
        asm.write(self.t_base + slot as i64, 0i64);
        self.fences.emit(asm, SITE_RELEASE);
    }

    /// Emit the crash-recovery section for `slot`: retract both shared
    /// announcements (`C[slot]`, `T[slot]`) with explicit fences, so
    /// rivals never keep waiting on a ticket whose owner crashed — the
    /// building block of [`RecoverableBakery`]'s crash recovery.
    ///
    /// [`RecoverableBakery`]: crate::RecoverableBakery
    pub fn emit_recovery_slot(&self, asm: &mut Asm, slot: usize) {
        assert!(
            slot < self.n,
            "slot {slot} out of range for bakery[{}]",
            self.n
        );
        asm.write(self.c_base + slot as i64, 0i64);
        asm.fence();
        asm.write(self.t_base + slot as i64, 0i64);
        asm.fence();
    }

    /// Number of slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.n
    }
}

impl LockAlgorithm for Bakery {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> String {
        if self.paper_listing_order {
            format!("bakery-paper-listing[{}]", self.n)
        } else {
            format!("bakery[{}]", self.n)
        }
    }

    fn emit_acquire(&self, asm: &mut Asm, who: usize) {
        self.emit_acquire_slot(asm, who);
    }

    fn emit_release(&self, asm: &mut Asm, who: usize) {
        self.emit_release_slot(asm, who);
    }

    fn fence_sites(&self) -> u32 {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{build_mutex_programs, run_to_completion};
    use wbmem::MemoryModel;

    #[test]
    fn solo_passage_has_constant_fences_linear_rmrs() {
        for n in [2usize, 4, 8, 16, 32] {
            let mut alloc = RegAlloc::new();
            let owners: Vec<ProcId> = (0..n).map(ProcId::from).collect();
            let bakery = Bakery::new(&mut alloc, n, |s| Some(owners[s]), FenceMask::ALL);
            let built = build_mutex_programs(&bakery, alloc);
            let mut m = built.machine(MemoryModel::Pso);
            let out = m.run_solo(wbmem::ProcId(0), 100_000);
            assert!(matches!(out, wbmem::SoloOutcome::Terminates { .. }));
            let c = m.counters().proc(0);
            assert_eq!(c.fences, 5, "3 acquire + 1 release + 1 final fence");
            // Solo: the doorway scan reads n-1 remote T's and the wait loop
            // reads n-1 remote C's (T's are cached from the scan).
            assert!(c.rmrs as usize >= 2 * (n - 1), "rmrs={} n={n}", c.rmrs);
            assert!(c.rmrs as usize <= 6 * n + 6, "rmrs={} n={n}", c.rmrs);
        }
    }

    #[test]
    fn mutual_exclusion_and_completion_under_round_robin_pso() {
        let n = 5;
        let mut alloc = RegAlloc::new();
        let bakery = Bakery::new(&mut alloc, n, |s| Some(ProcId::from(s)), FenceMask::ALL);
        let built = build_mutex_programs(&bakery, alloc);
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let mut m = built.machine(model);
            run_to_completion(&mut m, 2_000_000);
            assert!(m.all_done(), "bakery[{n}] did not finish under {model}");
        }
    }

    #[test]
    fn paper_listing_order_is_available_and_named() {
        let mut alloc = RegAlloc::new();
        let b = Bakery::new(&mut alloc, 2, |_| None, FenceMask::ALL).with_paper_listing_order();
        assert!(b.name().contains("paper-listing"));
    }
}
