//! Assembling complete multi-process algorithm instances.
//!
//! An [`OrderingInstance`] bundles one program per process with the DSM
//! layout their registers were allocated under — everything a
//! [`wbmem::Machine`] needs. Builders are provided for ordering objects
//! ([`build_object`]) and for plain mutex exercises with critical-section
//! annotations ([`build_mutex_programs`]).

use std::sync::Arc;

use fencevm::{Asm, Program, VmProc};
use wbmem::{Machine, MachineConfig, MemoryLayout, MemoryModel, ProcId};

use crate::alloc::RegAlloc;
use crate::bakery::Bakery;
use crate::fences::FenceMask;
use crate::gt::GtLock;
use crate::lock::LockAlgorithm;
use crate::objects::ObjectKind;
use crate::peterson::Peterson2;
use crate::tournament::Tournament;

/// Annotation value while a process is inside its critical section.
pub const ANNOT_IN_CS: u64 = 1;

/// A complete `n`-process algorithm instance: per-process programs plus the
/// register layout.
#[derive(Clone, Debug)]
pub struct OrderingInstance {
    /// Human-readable instance name, e.g. `"counter/gt[n=16,f=2]"`.
    pub name: String,
    /// Number of processes.
    pub n: usize,
    /// Program for each process, indexed by process id.
    pub programs: Vec<Arc<Program>>,
    /// DSM segment layout for the allocated registers.
    pub layout: MemoryLayout,
    /// Number of logical fence sites of the underlying lock (for ablation).
    pub fence_sites: u32,
}

impl OrderingInstance {
    /// A machine at the initial configuration of this instance.
    #[must_use]
    pub fn machine(&self, model: MemoryModel) -> Machine<VmProc> {
        self.machine_from(MachineConfig::new(model, self.layout.clone()))
    }

    /// A machine with a custom configuration. The configuration's layout is
    /// replaced by this instance's layout.
    #[must_use]
    pub fn machine_from(&self, mut config: MachineConfig) -> Machine<VmProc> {
        config.layout = self.layout.clone();
        let procs = self
            .programs
            .iter()
            .map(|p| VmProc::new(p.clone()))
            .collect();
        Machine::new(config, procs)
    }

    /// Run the processes to completion **sequentially** (each runs solo to
    /// its final state, in id order) and return the return values.
    ///
    /// For an ordering algorithm this must yield `0, 1, …, n-1`.
    ///
    /// # Panics
    ///
    /// Panics if some process fails to finish within `max_steps` solo steps.
    #[must_use]
    pub fn run_sequential(&self, model: MemoryModel, max_steps: usize) -> Vec<u64> {
        let mut m = self.machine(model);
        for i in 0..self.n {
            let p = ProcId::from(i);
            let out = m.run_solo(p, max_steps);
            assert!(
                matches!(out, wbmem::SoloOutcome::Terminates { .. }),
                "{}: process {p} did not finish solo ({out:?})",
                self.name
            );
        }
        m.return_values()
            .into_iter()
            .map(|v| v.expect("all finished"))
            .collect()
    }
}

/// Round-robin a machine until every process finishes or `max_steps`
/// schedule elements have been issued. Returns `true` on completion.
///
/// Each round gives one `(p, ⊥)` element to every process that has not
/// returned, in id order; a process leaves the rotation with its return,
/// so no element is spent on a finished one. `max_steps` counts the
/// elements issued. This is [`Machine::run_round_robin`], which skips a
/// spinner re-reading an unchanged register until a store to that register
/// wakes it, and counts the reads it skipped in one add: a contended run
/// costs its effective steps, not its elements.
pub fn run_to_completion(m: &mut Machine<VmProc>, max_steps: usize) -> bool {
    m.run_round_robin(max_steps)
}

/// Build the per-process programs for `lock` protecting `object`.
///
/// Program shape (the paper's `Count` and friends):
///
/// ```text
/// acquire; [annot in-CS] object-op; fence; [annot out] release; fence; return
/// ```
pub fn build_object(
    lock: &dyn LockAlgorithm,
    alloc: RegAlloc,
    object: ObjectKind,
) -> OrderingInstance {
    let n = lock.n();
    let mut alloc = alloc;
    let obj_base = alloc.alloc_array(object.register_count(n), |_| None);
    let counter_reg = i64::from(obj_base.0);
    let layout = alloc.into_layout();

    let programs = (0..n)
        .map(|who| {
            let mut asm = Asm::new(format!("{object}/{}/p{who}", lock.name()));
            if object == ObjectKind::NoisyCounter {
                // Announce before competing: a shared-register write in the
                // very first write batch (never read; see ObjectKind docs).
                asm.write(counter_reg + 1, 1 + who as i64);
                asm.fence();
            }
            lock.emit_acquire(&mut asm, who);
            asm.annot(ANNOT_IN_CS);
            let ret = asm.local("ret");
            match object {
                ObjectKind::Counter | ObjectKind::FetchIncrement | ObjectKind::NoisyCounter => {
                    asm.read(counter_reg, ret);
                    let next = asm.local("next");
                    asm.add(next, ret, 1i64);
                    asm.write(counter_reg, next);
                    asm.fence();
                }
                ObjectKind::Queue => {
                    // tail is obj_base; slots are obj_base+1 ..= obj_base+n.
                    asm.read(counter_reg, ret); // ret := tail
                    let addr = asm.local("addr");
                    asm.add(addr, ret, counter_reg + 1);
                    asm.write(addr, 1 + who as i64); // Q[tail] := 1 + id
                    let next = asm.local("next");
                    asm.add(next, ret, 1i64);
                    asm.write(counter_reg, next); // tail := tail + 1
                    asm.fence();
                }
            }
            asm.annot(0);
            lock.emit_release(&mut asm, who);
            asm.fence(); // w.l.o.g.: fence immediately before return
            asm.ret(ret);
            Arc::new(asm.assemble())
        })
        .collect();

    OrderingInstance {
        name: format!("{object}/{}", lock.name()),
        n,
        programs,
        layout,
        fence_sites: lock.fence_sites(),
    }
}

/// Build plain mutex-exercise programs: acquire, a one-step critical
/// section reading a private scratch register, release, return 0. Critical
/// sections are marked with [`ANNOT_IN_CS`] for the model checker.
pub fn build_mutex_programs(lock: &dyn LockAlgorithm, alloc: RegAlloc) -> OrderingInstance {
    let n = lock.n();
    let mut alloc = alloc;
    let scratch = alloc.alloc_array(n, |i| Some(ProcId::from(i)));
    let layout = alloc.into_layout();

    let programs = (0..n)
        .map(|who| {
            let mut asm = Asm::new(format!("mutex/{}/p{who}", lock.name()));
            let entry = asm.here();
            lock.emit_acquire(&mut asm, who);
            asm.annot(ANNOT_IN_CS);
            let t = asm.local("cs_t");
            asm.read(i64::from(scratch.0) + who as i64, t);
            asm.annot(0);
            lock.emit_release(&mut asm, who);
            asm.fence();
            asm.ret(0i64);
            if lock.has_recovery() {
                // Crash-hardened locks restart here: repair the shared
                // announcements, then recompete from the top.
                asm.recovery_here();
                lock.emit_recovery(&mut asm, who);
                asm.jmp(entry);
            }
            Arc::new(asm.assemble())
        })
        .collect();

    OrderingInstance {
        name: format!("mutex/{}", lock.name()),
        n,
        programs,
        layout,
        fence_sites: lock.fence_sites(),
    }
}

/// Build **repeating-passage** programs: each process loops
/// acquire → critical section → release for `passages` rounds before
/// returning. This is the steady-state workload behind amortized
/// per-passage measurements (experiment E10): one-shot passages include
/// cold-cache effects that repetition amortizes away, while spin-heavy
/// locks (TTAS) keep paying per release.
///
/// The critical section increments a shared counter (read–add–write +
/// fence); each process returns the value it observed in its **last**
/// passage, so a completed run must leave `counter == n·passages`.
pub fn build_repeating(
    lock: &dyn LockAlgorithm,
    alloc: RegAlloc,
    passages: usize,
) -> OrderingInstance {
    assert!(passages >= 1, "need at least one passage");
    let n = lock.n();
    let mut alloc = alloc;
    let counter = i64::from(alloc.alloc(None).0);
    let layout = alloc.into_layout();

    let programs = (0..n)
        .map(|who| {
            let mut asm = Asm::new(format!("repeat{passages}/{}/p{who}", lock.name()));
            let round = asm.local("round");
            let seen = asm.local("seen");
            let next = asm.local("next");
            let done = asm.label();
            let head = asm.here();
            asm.jmp_if(fencevm::CondOp::Ge, round, passages as i64, done);
            lock.emit_acquire(&mut asm, who);
            asm.annot(ANNOT_IN_CS);
            asm.read(counter, seen);
            asm.add(next, seen, 1i64);
            asm.write(counter, next);
            asm.fence();
            asm.annot(0);
            lock.emit_release(&mut asm, who);
            asm.add(round, round, 1i64);
            asm.jmp(head);
            asm.bind(done);
            asm.fence();
            asm.ret(seen);
            Arc::new(asm.assemble())
        })
        .collect();

    OrderingInstance {
        name: format!("repeat{passages}/{}", lock.name()),
        n,
        programs,
        layout,
        fence_sites: lock.fence_sites(),
    }
}

/// The lock families of the paper, as buildable descriptions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// Lamport's Bakery lock (`GT_1`): O(1) fences, O(n) RMRs.
    Bakery,
    /// Bakery with the write order exactly as printed in the paper's
    /// Algorithm 1 (ticket published *after* the doorway closes). Broken
    /// even under SC — kept for the E5 regression experiment.
    BakeryPaperListing,
    /// Peterson's two-process lock (requires `n == 2`).
    Peterson,
    /// Binary tournament tree of Peterson locks (`n` a power of two):
    /// O(log n) fences, O(log n) RMRs.
    Tournament,
    /// Generalized tournament of height `f` with Bakery nodes:
    /// O(f) fences, O(f·n^(1/f)) RMRs.
    Gt {
        /// The tree height (fence budget).
        f: usize,
    },
    /// Test-and-test-and-set over CAS (the §6 comparison-primitive
    /// extension): O(1) fences and solo RMRs, Θ(n) contended RMRs.
    Ttas,
    /// MCS queue lock over fetch-and-store: O(1) RMRs per passage even
    /// under contention (local spinning), the \[12\] connection.
    Mcs,
    /// The Filter lock (n-process Peterson): Θ(n) fences *and* Θ(n) solo
    /// RMRs — a read/write lock strictly above the tradeoff curve.
    Filter,
    /// Crash-hardened TTAS: recovery conditionally self-releases the lock
    /// word before recompeting (see [`RecoverableTtas`](crate::RecoverableTtas)).
    RecoverableTtas,
    /// Crash-hardened Bakery: recovery retracts the doorway flag and
    /// ticket with fences before recompeting (see
    /// [`RecoverableBakery`](crate::RecoverableBakery)).
    RecoverableBakery,
}

impl LockKind {
    /// Construct the lock, allocating its registers from `alloc`. Static
    /// per-process registers are placed in their process's segment.
    #[must_use]
    pub fn build(
        self,
        alloc: &mut RegAlloc,
        n: usize,
        fences: FenceMask,
    ) -> Box<dyn LockAlgorithm> {
        match self {
            LockKind::Bakery => Box::new(Bakery::new(alloc, n, |s| Some(ProcId::from(s)), fences)),
            LockKind::BakeryPaperListing => Box::new(
                Bakery::new(alloc, n, |s| Some(ProcId::from(s)), fences).with_paper_listing_order(),
            ),
            LockKind::Peterson => {
                assert_eq!(n, 2, "Peterson is a two-process lock");
                Box::new(Peterson2::new(alloc, |s| Some(ProcId::from(s)), fences))
            }
            LockKind::Tournament => Box::new(Tournament::new(alloc, n, fences)),
            LockKind::Gt { f } => Box::new(GtLock::new(alloc, n, f, fences)),
            LockKind::Ttas => Box::new(crate::tas::TtasLock::new(alloc, n, fences)),
            LockKind::Mcs => Box::new(crate::mcs::McsLock::new(alloc, n, fences)),
            LockKind::Filter => Box::new(crate::filter::FilterLock::new(alloc, n, fences)),
            LockKind::RecoverableTtas => {
                Box::new(crate::recover::RecoverableTtas::new(alloc, n, fences))
            }
            LockKind::RecoverableBakery => Box::new(crate::recover::RecoverableBakery::new(
                alloc,
                n,
                |s| Some(ProcId::from(s)),
                fences,
            )),
        }
    }
}

impl std::fmt::Display for LockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockKind::Bakery => write!(f, "bakery"),
            LockKind::BakeryPaperListing => write!(f, "bakery-paper-listing"),
            LockKind::Peterson => write!(f, "peterson"),
            LockKind::Tournament => write!(f, "tournament"),
            LockKind::Gt { f: h } => write!(f, "gt(f={h})"),
            LockKind::Ttas => write!(f, "ttas"),
            LockKind::Mcs => write!(f, "mcs"),
            LockKind::Filter => write!(f, "filter"),
            LockKind::RecoverableTtas => write!(f, "r-ttas"),
            LockKind::RecoverableBakery => write!(f, "r-bakery"),
        }
    }
}

/// Build a complete ordering-object instance for `kind` over `n` processes
/// with all fences enabled.
#[must_use]
pub fn build_ordering(kind: LockKind, n: usize, object: ObjectKind) -> OrderingInstance {
    let mut alloc = RegAlloc::new();
    let lock = kind.build(&mut alloc, n, FenceMask::ALL);
    build_object(lock.as_ref(), alloc, object)
}

/// Build a repeating-passage instance for `kind` over `n` processes with
/// all fences enabled (see [`build_repeating`]).
#[must_use]
pub fn build_steady_state(kind: LockKind, n: usize, passages: usize) -> OrderingInstance {
    let mut alloc = RegAlloc::new();
    let lock = kind.build(&mut alloc, n, FenceMask::ALL);
    build_repeating(lock.as_ref(), alloc, passages)
}

/// Build a mutex-exercise instance for `kind` over `n` processes with the
/// given fence mask.
#[must_use]
pub fn build_mutex(kind: LockKind, n: usize, fences: FenceMask) -> OrderingInstance {
    let mut alloc = RegAlloc::new();
    let lock = kind.build(&mut alloc, n, fences);
    build_mutex_programs(lock.as_ref(), alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbmem::SchedElem;

    #[test]
    fn every_lock_keeps_its_locals_inline_alone_and_around_a_counter() {
        // What `VmProc` clones without allocating. `GT_f` stands in with
        // the tallest tree that fits, f = 2 (it declares 4f + 1 locals).
        let kinds = [
            LockKind::Bakery,
            LockKind::BakeryPaperListing,
            LockKind::Peterson,
            LockKind::Tournament,
            LockKind::Gt { f: 2 },
            LockKind::Ttas,
            LockKind::Mcs,
            LockKind::Filter,
            LockKind::RecoverableTtas,
            LockKind::RecoverableBakery,
        ];
        for kind in kinds {
            for n in [2usize, 3, 4, 64] {
                let fits = match kind {
                    LockKind::Peterson => n == 2,
                    LockKind::Tournament => n.is_power_of_two(),
                    _ => true,
                };
                if !fits {
                    continue;
                }
                let instances = [
                    build_mutex(kind, n, FenceMask::ALL),
                    build_ordering(kind, n, ObjectKind::Counter),
                ];
                for inst in instances {
                    let locals = inst.programs.iter().map(|p| p.locals_len()).max();
                    assert!(
                        locals <= Some(fencevm::INLINE_LOCALS),
                        "{}: {locals:?} locals",
                        inst.name
                    );
                }
            }
        }
    }

    /// `run_to_completion` as it was before finished processes left the
    /// rotation: every round issues an element to every process, and the
    /// budget is charged per round.
    fn round_robin_every_process(m: &mut Machine<VmProc>, max_steps: usize) -> bool {
        let n = m.n();
        let mut budget = max_steps;
        while !m.all_done() && budget > 0 {
            for i in 0..n {
                m.step(SchedElem::op(ProcId::from(i)));
            }
            budget = budget.saturating_sub(n);
        }
        m.all_done()
    }

    #[test]
    fn run_to_completion_takes_the_steps_of_a_full_rotation_in_order() {
        let kinds = [
            (LockKind::Bakery, 8),
            (LockKind::BakeryPaperListing, 8),
            (LockKind::Peterson, 2),
            (LockKind::Tournament, 8),
            (LockKind::Gt { f: 2 }, 8),
            (LockKind::Gt { f: 3 }, 8),
            (LockKind::Ttas, 8),
            (LockKind::Mcs, 8),
            (LockKind::Filter, 8),
            (LockKind::RecoverableTtas, 8),
            (LockKind::RecoverableBakery, 8),
        ];
        for (kind, n) in kinds {
            let inst = build_ordering(kind, n, ObjectKind::Counter);
            let cfg = MachineConfig::new(MemoryModel::Pso, inst.layout.clone()).with_trace();
            let mut reference = inst.machine_from(cfg.clone());
            let mut m = inst.machine_from(cfg);
            assert!(round_robin_every_process(&mut reference, 10_000_000));
            assert!(run_to_completion(&mut m, 10_000_000), "{} stuck", inst.name);
            assert_eq!(m.trace(), reference.trace(), "{}", inst.name);
            assert_eq!(m.counters(), reference.counters(), "{}", inst.name);
            assert_eq!(m.return_values(), reference.return_values());
            // The budget counts elements, each an effective step with one
            // event under PSO.
            let mut cut = inst.machine_from(
                MachineConfig::new(MemoryModel::Pso, inst.layout.clone()).with_trace(),
            );
            assert!(!run_to_completion(&mut cut, 2 * n + 3));
            assert_eq!(cut.trace().len(), 2 * n + 3, "{}", inst.name);
        }
    }

    #[test]
    fn sequential_counter_is_ordering() {
        for kind in [
            LockKind::Bakery,
            LockKind::Tournament,
            LockKind::Gt { f: 2 },
        ] {
            let inst = build_ordering(kind, 4, ObjectKind::Counter);
            for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
                let rets = inst.run_sequential(model, 100_000);
                assert_eq!(rets, vec![0, 1, 2, 3], "{} under {model}", inst.name);
            }
        }
    }

    #[test]
    fn sequential_queue_is_ordering() {
        let inst = build_ordering(LockKind::Gt { f: 2 }, 5, ObjectKind::Queue);
        let rets = inst.run_sequential(MemoryModel::Pso, 100_000);
        assert_eq!(rets, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn contended_counter_returns_a_permutation() {
        for kind in [
            LockKind::Bakery,
            LockKind::Tournament,
            LockKind::Gt { f: 3 },
        ] {
            let inst = build_ordering(kind, 8, ObjectKind::Counter);
            let mut m = inst.machine(MemoryModel::Pso);
            assert!(run_to_completion(&mut m, 10_000_000), "{} stuck", inst.name);
            let mut rets: Vec<u64> = m.return_values().into_iter().map(Option::unwrap).collect();
            rets.sort_unstable();
            assert_eq!(rets, (0..8).collect::<Vec<u64>>(), "{}", inst.name);
        }
    }

    #[test]
    fn contended_queue_entries_match_return_order() {
        let n = 8;
        let inst = build_ordering(LockKind::Tournament, n, ObjectKind::Queue);
        // `ObjectKind::Queue` allocates its tail and then its n slots, after
        // the lock's registers.
        let mut alloc = RegAlloc::new();
        let _ = LockKind::Tournament.build(&mut alloc, n, FenceMask::ALL);
        let tail = u32::try_from(alloc.len()).unwrap();
        let mut m = inst.machine(MemoryModel::Pso);
        assert!(run_to_completion(&mut m, 10_000_000));
        assert_eq!(m.memory(wbmem::RegId(tail)).payload(), n as u64, "tail");
        // Slot k holds 1 + the id of the process that returned k.
        for (who, ret) in m.return_values().into_iter().enumerate() {
            let k = u32::try_from(ret.expect("every process returned")).unwrap();
            assert_eq!(
                m.memory(wbmem::RegId(tail + 1 + k)).payload(),
                1 + who as u64,
                "slot {k}"
            );
        }
    }

    #[test]
    fn mutual_exclusion_never_violated_under_round_robin() {
        let inst = build_mutex(LockKind::Gt { f: 2 }, 6, FenceMask::ALL);
        let mut m = inst.machine(MemoryModel::Pso);
        let mut steps = 0usize;
        while !m.all_done() && steps < 2_000_000 {
            for i in 0..6 {
                m.step(SchedElem::op(ProcId::from(i)));
                let in_cs = (0..6)
                    .filter(|&j| m.annotation(ProcId::from(j)) == ANNOT_IN_CS)
                    .count();
                assert!(in_cs <= 1, "mutual exclusion violated");
            }
            steps += 6;
        }
        assert!(m.all_done());
    }

    #[test]
    fn repeating_passages_complete_and_count() {
        for kind in [
            LockKind::Bakery,
            LockKind::Gt { f: 2 },
            LockKind::Ttas,
            LockKind::Mcs,
        ] {
            let (n, passages) = (3usize, 4usize);
            let inst = build_steady_state(kind, n, passages);
            // The counter is the one register allocated after the lock's.
            let mut alloc = RegAlloc::new();
            let _ = kind.build(&mut alloc, n, FenceMask::ALL);
            let counter = wbmem::RegId(u32::try_from(alloc.len()).unwrap());
            for model in [MemoryModel::Tso, MemoryModel::Pso] {
                let mut m = inst.machine(model);
                assert!(
                    run_to_completion(&mut m, 100_000_000),
                    "{} stuck",
                    inst.name
                );
                assert_eq!(
                    m.memory(counter).payload(),
                    (n * passages) as u64,
                    "{}: the counter under {model}",
                    inst.name
                );
            }
        }
    }

    #[test]
    fn repeating_passages_preserve_mutex_under_adversary() {
        use rand::{Rng, SeedableRng};
        let inst = build_steady_state(LockKind::Ttas, 3, 3);
        let mut m = inst.machine(MemoryModel::Pso);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        for _ in 0..100_000 {
            let choices = m.choices();
            if choices.is_empty() {
                break;
            }
            m.step(choices[rng.gen_range(0..choices.len())]);
            let in_cs = (0..3)
                .filter(|&i| m.annotation(ProcId::from(i)) == ANNOT_IN_CS)
                .count();
            assert!(in_cs <= 1, "mutex violated");
        }
    }

    #[test]
    fn lock_kind_display() {
        assert_eq!(LockKind::Bakery.to_string(), "bakery");
        assert_eq!(LockKind::Gt { f: 3 }.to_string(), "gt(f=3)");
    }
}
