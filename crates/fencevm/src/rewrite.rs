//! Program rewriting: fence stripping and fence insertion with pc remapping.
//!
//! The fence-synthesis engine (`crates/synth`) works by *editing* assembled
//! programs: it removes every `fence` from a reference implementation to
//! obtain the unfenced search baseline, then re-inserts fences at candidate
//! sites proposed by counterexample analysis. Both edits shift instruction
//! indices, so every pc-valued piece of program metadata must be remapped
//! together with the instruction vector:
//!
//! * `Jmp`/`JmpIf` targets are redirected to the new index of the
//!   instruction they referenced (a target that was itself removed falls
//!   through to the next surviving instruction);
//! * the crash-recovery entry ([`Program::recovery`]) is remapped the same
//!   way, so crash semantics are preserved across rewrites;
//! * the per-pc access summaries are not carried over: the rewritten
//!   program derives its own from its text when a reduction first asks
//!   (see [`Program`]) — fences do not touch registers, so summaries at
//!   mapped pcs must agree with the originals (unit-tested below), but
//!   recomputing is the only way to keep the backward fixpoint exact by
//!   construction.
//!
//! Rewrites return a [`Rewritten`] carrying the translation tables both
//! ways, because counterexamples produced on a rewritten program report pcs
//! in *its* index space and synthesis must translate candidate fence sites
//! back to the baseline's.

use crate::instr::Instr;
use crate::program::Program;

/// A rewritten program plus the pc translation tables of the edit.
#[derive(Clone, Debug)]
pub struct Rewritten {
    /// The rewritten program (recovery entry remapped).
    pub program: Program,
    /// For each new pc, the old pc of the instruction that now lives
    /// there; `None` for instructions this rewrite inserted.
    pub new_to_old: Vec<Option<usize>>,
    /// For each old pc, the new pc of that instruction — or, for
    /// instructions the rewrite removed, the new pc control falls through
    /// to (the next surviving instruction).
    pub old_to_new: Vec<usize>,
}

/// Remove every `Fence` instruction from `p`, remapping jump targets and
/// the recovery entry. The result is the synthesis baseline: the same
/// algorithm with no ordering enforced beyond what CAS/swap imply.
///
/// # Panics
///
/// Panics if the program is nothing but fences (no instruction survives) —
/// assembled programs always end in `Return`, so this cannot happen for
/// `Asm`-built programs.
#[must_use]
pub fn strip_fences(p: &Program) -> Rewritten {
    let instrs = p.instrs();
    let keep: Vec<bool> = instrs.iter().map(|i| !matches!(i, Instr::Fence)).collect();
    assert!(
        keep.iter().any(|&k| k),
        "program {}: stripping fences would leave no instructions",
        p.name()
    );
    // old_to_new[j] = number of kept instructions before j; for a removed
    // j this is the index of the next surviving instruction, which is
    // exactly where a jump to j should land.
    let mut old_to_new = Vec::with_capacity(instrs.len());
    let mut kept_before = 0usize;
    for &k in &keep {
        old_to_new.push(kept_before);
        kept_before += usize::from(k);
    }
    let mut new_instrs = Vec::with_capacity(kept_before);
    let mut new_to_old = Vec::with_capacity(kept_before);
    for (j, ins) in instrs.iter().enumerate() {
        if !keep[j] {
            continue;
        }
        new_instrs.push(remap_instr(ins, &old_to_new, instrs.len()));
        new_to_old.push(Some(j));
    }
    let recovery = remap_pc(p.recovery(), &old_to_new, new_instrs.len());
    let program = Program::from_parts_with_recovery(
        p.name().to_string(),
        new_instrs,
        p.local_names().to_vec(),
        recovery,
    );
    Rewritten {
        program,
        new_to_old,
        old_to_new,
    }
}

/// Insert a `Fence` immediately after each pc in `after` (duplicates and
/// order don't matter), remapping jump targets and the recovery entry.
///
/// Jumps keep targeting the instruction they referenced, so a back-edge
/// that targets `a + 1` bypasses a fence inserted after `a`; the
/// synthesis loop's re-check is what validates a placement, so a bypassed
/// fence can cost an extra refinement round but never an unsound accept.
///
/// # Panics
///
/// Panics if any element of `after` is out of range.
#[must_use]
pub fn insert_fences_after(p: &Program, after: &[usize]) -> Rewritten {
    let instrs = p.instrs();
    let mut sites: Vec<usize> = after.to_vec();
    sites.sort_unstable();
    sites.dedup();
    if let Some(&max) = sites.last() {
        assert!(
            max < instrs.len(),
            "program {}: fence insertion site {max} is out of range ({} instructions)",
            p.name(),
            instrs.len()
        );
    }
    let mut old_to_new = Vec::with_capacity(instrs.len());
    let mut inserted_before = 0usize;
    for j in 0..instrs.len() {
        old_to_new.push(j + inserted_before);
        inserted_before += usize::from(sites.binary_search(&j).is_ok());
    }
    let mut new_instrs = Vec::with_capacity(instrs.len() + sites.len());
    let mut new_to_old = Vec::with_capacity(instrs.len() + sites.len());
    for (j, ins) in instrs.iter().enumerate() {
        new_instrs.push(remap_instr(ins, &old_to_new, instrs.len()));
        new_to_old.push(Some(j));
        if sites.binary_search(&j).is_ok() {
            new_instrs.push(Instr::Fence);
            new_to_old.push(None);
        }
    }
    let recovery = remap_pc(p.recovery(), &old_to_new, new_instrs.len());
    let program = Program::from_parts_with_recovery(
        p.name().to_string(),
        new_instrs,
        p.local_names().to_vec(),
        recovery,
    );
    Rewritten {
        program,
        new_to_old,
        old_to_new,
    }
}

/// The pcs of every `Write` instruction — the candidate universe for
/// "fence after this store" placements.
#[must_use]
pub fn write_pcs(p: &Program) -> Vec<usize> {
    p.instrs()
        .iter()
        .enumerate()
        .filter_map(|(pc, i)| matches!(i, Instr::Write { .. }).then_some(pc))
        .collect()
}

/// The pcs of every `Fence` instruction.
#[must_use]
pub fn fence_pcs(p: &Program) -> Vec<usize> {
    p.instrs()
        .iter()
        .enumerate()
        .filter_map(|(pc, i)| matches!(i, Instr::Fence).then_some(pc))
        .collect()
}

fn remap_pc(pc: usize, old_to_new: &[usize], new_len: usize) -> usize {
    let mapped = old_to_new.get(pc).copied().unwrap_or(new_len);
    assert!(
        mapped < new_len,
        "pc {pc} remaps past the end of the rewritten program"
    );
    mapped
}

fn remap_instr(ins: &Instr, old_to_new: &[usize], old_len: usize) -> Instr {
    let map = |t: usize| {
        assert!(t < old_len, "jump target {t} out of range before rewrite");
        old_to_new[t]
    };
    match *ins {
        Instr::Jmp { target } => Instr::Jmp {
            target: map(target),
        },
        Instr::JmpIf { cond, a, b, target } => Instr::JmpIf {
            cond,
            a,
            b,
            target: map(target),
        },
        ref other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    /// A small two-phase program with a loop, a fence, and a recovery
    /// section — enough structure to exercise every remap rule.
    fn sample() -> Program {
        let mut asm = Asm::new("sample");
        let x = asm.local("x");
        let spin = asm.label();
        asm.write(3i64, 1i64); // @0
        asm.fence(); // @1
        asm.bind(spin); // loop head = @2
        asm.read(4i64, x);
        asm.jmp_if(crate::instr::CondOp::Ne, x, 0i64, spin); // @3 -> @2
        asm.write(3i64, 0i64); // @4
        asm.recovery_here(); // recovery = @5
        asm.read(3i64, x); // @5
        asm.ret(0i64); // @6
        asm.assemble()
    }

    #[test]
    fn strip_removes_fences_and_remaps() {
        let p = sample();
        assert_eq!(p.fence_site_count(), 1);
        assert_eq!(p.recovery(), 5);
        let r = strip_fences(&p);
        assert_eq!(r.program.fence_site_count(), 0);
        assert_eq!(r.program.instrs().len(), p.instrs().len() - 1);
        // The loop back-edge must still target the read at the loop head.
        let head = r.old_to_new[2];
        assert!(matches!(
            r.program.instrs()[head + 1],
            Instr::JmpIf { target, .. } if target == head
        ));
        // Recovery still points at the read it pointed at before.
        assert_eq!(r.program.recovery(), r.old_to_new[5]);
        assert!(matches!(
            r.program.instrs()[r.program.recovery()],
            Instr::Read { .. }
        ));
        // Translation tables agree.
        for (new_pc, old) in r.new_to_old.iter().enumerate() {
            let old = old.expect("strip inserts nothing");
            assert_eq!(r.old_to_new[old], new_pc);
        }
    }

    #[test]
    fn insert_places_fences_and_remaps() {
        let p = strip_fences(&sample()).program;
        let writes = write_pcs(&p);
        assert_eq!(writes.len(), 2);
        let r = insert_fences_after(&p, &writes);
        assert_eq!(r.program.fence_site_count(), writes.len());
        for &w in &writes {
            assert!(matches!(
                r.program.instrs()[r.old_to_new[w] + 1],
                Instr::Fence
            ));
            assert_eq!(r.new_to_old[r.old_to_new[w]], Some(w));
            assert_eq!(r.new_to_old[r.old_to_new[w] + 1], None);
        }
        // Recovery tracks the instruction, not the index.
        assert!(matches!(
            r.program.instrs()[r.program.recovery()],
            Instr::Read { .. }
        ));
        assert_eq!(r.program.recovery(), r.old_to_new[p.recovery()]);
    }

    #[test]
    fn insert_is_idempotent_on_duplicates() {
        let p = strip_fences(&sample()).program;
        let w = write_pcs(&p)[0];
        let once = insert_fences_after(&p, &[w]);
        let twice = insert_fences_after(&p, &[w, w]);
        assert_eq!(once.program.instrs(), twice.program.instrs());
    }

    /// Satellite: summaries recomputed after insertion/remapping must agree
    /// with the original program's at every mapped pc — a fence reads and
    /// writes nothing, so the future-access sets are invariant under the
    /// rewrite.
    #[test]
    fn summaries_survive_insertion_at_mapped_pcs() {
        let p = sample();
        let stripped = strip_fences(&p);
        let reinserted = insert_fences_after(&stripped.program, &write_pcs(&stripped.program));
        for (q, r) in [(&p, &stripped), (&stripped.program, &reinserted)] {
            for old_pc in 0..q.instrs().len() {
                if matches!(q.instrs()[old_pc], Instr::Fence) {
                    continue;
                }
                let new_pc = r.old_to_new[old_pc];
                for include_recovery in [false, true] {
                    let a = q.summary(old_pc, include_recovery);
                    let b = r.program.summary(new_pc, include_recovery);
                    assert_eq!(
                        a.reads,
                        b.reads,
                        "{}: reads summary diverged at pc {old_pc} -> {new_pc}",
                        q.name()
                    );
                    assert_eq!(
                        a.writes,
                        b.writes,
                        "{}: writes summary diverged at pc {old_pc} -> {new_pc}",
                        q.name()
                    );
                    assert_eq!(a.reads_all, b.reads_all);
                    assert_eq!(a.writes_all, b.writes_all);
                }
            }
        }
    }

    /// Satellite: recovery-folded summaries (`analysis_rec`) stay
    /// consistent after rewriting a program whose recovery entry is not 0.
    #[test]
    fn recovery_summaries_consistent_after_rewrite() {
        let p = sample();
        let r = insert_fences_after(&p, &write_pcs(&p));
        // The recovery section reads register 3; every recovery-folded
        // summary must therefore contain it, before and after the rewrite.
        for pc in 0..r.program.instrs().len() {
            assert!(
                r.program.summary(pc, true).reads.contains(wbmem::RegId(3)),
                "recovery read of r3 missing from folded summary at pc {pc}"
            );
        }
    }

    #[test]
    fn write_and_fence_pcs_enumerate() {
        let p = sample();
        assert_eq!(write_pcs(&p), vec![0, 4]);
        assert_eq!(fence_pcs(&p), vec![1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_rejects_out_of_range_site() {
        let p = sample();
        let _ = insert_fences_after(&p, &[p.instrs().len()]);
    }
}
