//! The reduction's static access summaries held to what processes actually
//! do. On random walks over the E12 and E12b cells, a crash-hardened Bakery
//! that crashes, and a lock-protected queue, every register a process reads
//! or writes must be in the [`Process::future_access`] it had at *every*
//! earlier state of the walk — with the recovery section folded in exactly
//! when that state offered it a crash, as `por::ample` asks. A summary that
//! drops one register an index can reach fails here before it can make a
//! reduction unsound. (An unseeded recovery entry does not: r-bakery's
//! recovery writes only cells its acquire writes too. `fencevm`'s
//! `the_recovery_entry_starts_from_zeroed_locals` pins that.)

use fencevm::VmProc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simlocks::{build_mutex, build_ordering, FenceMask, LockKind, ObjectKind};
use wbmem::{
    AccessSet, CrashSemantics, Machine, MachineConfig, MemoryModel, Poised, ProcId, Process,
};

/// Whether `p` has a choice among `choices`, and if so whether one is a
/// crash.
fn active(choices: &[wbmem::SchedElem], p: ProcId) -> Option<bool> {
    let mut mine = choices.iter().filter(|e| e.proc == p).peekable();
    mine.peek()?;
    Some(mine.any(|e| e.crash))
}

/// Take `walks` random walks of up to `steps` from `root`, asserting every
/// access against every earlier summary of its process. Returns how many
/// of those comparisons were against a bounded set, so a caller can tell a
/// real check from one the poison rule passes for free.
fn walk(
    label: &str,
    root: &Machine<VmProc>,
    rng: &mut SmallRng,
    walks: usize,
    steps: usize,
) -> usize {
    let mut bounded = 0;
    for _ in 0..walks {
        let mut m = root.clone();
        // Each process as it stood at each earlier state, and whether that
        // state let it crash.
        let mut past: Vec<Vec<(VmProc, bool)>> = vec![Vec::new(); m.n()];
        for _ in 0..steps {
            let choices = m.choices();
            if choices.is_empty() {
                break;
            }
            for (q, then) in past.iter_mut().enumerate() {
                let q = ProcId::from(q);
                if let Some(can_crash) = active(&choices, q) {
                    then.push((m.process(q).clone(), can_crash));
                }
            }
            let e = choices[rng.gen_range(0..choices.len())];
            if e.reg.is_none() && !e.crash {
                let access = match m.process(e.proc).poised() {
                    Poised::Read(r) => Some((r, true, false)),
                    Poised::Write(r, _) => Some((r, false, true)),
                    Poised::Cas { reg, .. } | Poised::Swap { reg, .. } => Some((reg, true, true)),
                    Poised::Fence | Poised::Return(_) | Poised::Done => None,
                };
                if let Some((r, reads, writes)) = access {
                    for (then, can_crash) in &past[e.proc.index()] {
                        let future = then.future_access(*can_crash);
                        let pc = then.pc();
                        assert!(
                            !reads || future.reads.may_contain(r),
                            "{label}: {} reads {r:?} after pc {pc} (crash {can_crash}) left it out",
                            e.proc
                        );
                        assert!(
                            !writes || future.writes.may_contain(r),
                            "{label}: {} writes {r:?} after pc {pc} (crash {can_crash}) left it out",
                            e.proc
                        );
                        let sets = [(reads, future.reads), (writes, future.writes)];
                        bounded += sets
                            .iter()
                            .filter(|(used, set)| *used && matches!(set, AccessSet::Set(_)))
                            .count();
                    }
                }
            }
            m.step(e);
        }
    }
    bounded
}

#[test]
fn every_access_on_a_walk_is_in_each_earlier_summary() {
    let mut rng = SmallRng::seed_from_u64(0x5a11_face);
    let mut bounded = 0;
    // The E12 (n = 2) and E12b (n = 3) cells.
    let cells = [
        (LockKind::Peterson, 2),
        (LockKind::Ttas, 2),
        (LockKind::Bakery, 2),
        (LockKind::Filter, 2),
        (LockKind::Ttas, 3),
        (LockKind::Bakery, 3),
        (LockKind::Filter, 3),
        (LockKind::Gt { f: 2 }, 3),
    ];
    for (kind, n) in cells {
        let inst = build_mutex(kind, n, FenceMask::ALL);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let label = format!("{} {model}", inst.name);
            bounded += walk(&label, &inst.machine(model), &mut rng, 16, 400);
        }
    }
    let rbakery = build_mutex(LockKind::RecoverableBakery, 2, FenceMask::ALL);
    for semantics in [CrashSemantics::DiscardBuffer, CrashSemantics::DrainBuffer] {
        let cfg =
            MachineConfig::new(MemoryModel::Pso, rbakery.layout.clone()).with_crashes(semantics, 2);
        let label = format!("{} {semantics:?}", rbakery.name);
        bounded += walk(&label, &rbakery.machine_from(cfg), &mut rng, 40, 400);
    }
    let queue = build_ordering(LockKind::Gt { f: 2 }, 3, ObjectKind::Queue);
    let m = queue.machine(MemoryModel::Pso);
    for p in 0..queue.n {
        let future = m.process(ProcId::from(p)).future_access(false);
        assert!(
            matches!(future.writes, AccessSet::All),
            "the enqueue writes through a tail read from memory"
        );
        assert!(
            matches!(future.reads, AccessSet::Set(_)),
            "the lock's computed reads are bounded"
        );
    }
    bounded += walk(&queue.name, &m, &mut rng, 16, 400);
    assert!(
        bounded > 100_000,
        "{bounded} comparisons against a bounded set"
    );
}
