//! Assembled programs.

use std::fmt;
use std::sync::OnceLock;

use crate::analysis::{analyze, union_summaries, PcSummary};
use crate::instr::Instr;

/// An immutable, assembled program: a straight vector of instructions with
/// resolved jump targets, plus metadata for debugging.
///
/// Programs are shared between process instances via `Arc<Program>`; see
/// [`VmProc`](crate::VmProc).
#[derive(Clone, Debug)]
pub struct Program {
    name: String,
    instrs: Vec<Instr>,
    local_names: Vec<String>,
    /// Instruction index control restarts at after a crash (the program's
    /// declared recovery section; `0` — the program start — by default).
    recovery: usize,
    /// Per-pc static access summaries (see [`crate::analysis`]), derived
    /// from the text by the first [`Program::summary`] call — only a
    /// reduction asks, and a β/ρ sweep assembles thousands of programs it
    /// never checks. Slot 1 holds the same summaries with the recovery
    /// section's accesses folded in, for processes that may still crash.
    summaries: OnceLock<[Vec<PcSummary>; 2]>,
    /// Content digest over (name, instrs, locals, recovery), computed once
    /// at assembly; see [`Program::digest`].
    digest: u64,
}

impl Program {
    #[cfg(test)]
    pub(crate) fn from_parts(name: String, instrs: Vec<Instr>, local_names: Vec<String>) -> Self {
        Self::from_parts_with_recovery(name, instrs, local_names, 0)
    }

    pub(crate) fn from_parts_with_recovery(
        name: String,
        instrs: Vec<Instr>,
        local_names: Vec<String>,
        recovery: usize,
    ) -> Self {
        for (i, ins) in instrs.iter().enumerate() {
            if let Instr::Jmp { target } | Instr::JmpIf { target, .. } = ins {
                assert!(
                    *target < instrs.len(),
                    "program {name}: instruction {i} jumps to out-of-range target {target}"
                );
            }
        }
        assert!(
            recovery < instrs.len(),
            "program {name}: recovery entry {recovery} is out of range"
        );
        let digest = {
            use std::hash::{Hash as _, Hasher as _};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            name.hash(&mut h);
            instrs.hash(&mut h);
            local_names.hash(&mut h);
            recovery.hash(&mut h);
            h.finish()
        };
        Program {
            name,
            instrs,
            local_names,
            recovery,
            summaries: OnceLock::new(),
            digest,
        }
    }

    /// A process-independent fingerprint of the program text (name,
    /// instructions, locals, recovery entry), fixed at assembly.
    ///
    /// [`VmProc`](crate::VmProc)'s `Hash` mixes this in — not the `Arc`
    /// address, which differs across OS processes under ASLR — so state
    /// fingerprints agree between the process that wrote a checkpoint and
    /// the one that resumes it.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The static access summary for program point `pc`; with
    /// `include_recovery`, the recovery section's accesses are included
    /// (sound for a process that may still crash).
    pub(crate) fn summary(&self, pc: usize, include_recovery: bool) -> &PcSummary {
        let tables = self.summaries.get_or_init(|| {
            let plain = analyze(&self.instrs, self.locals_len(), self.recovery);
            let with_recovery = union_summaries(&plain, &plain[self.recovery]);
            [plain, with_recovery]
        });
        &tables[usize::from(include_recovery)][pc]
    }

    /// The instruction index a crashed instance restarts at (see
    /// [`Asm::recovery_here`](crate::Asm::recovery_here)); `0` unless the
    /// program declared a recovery section.
    #[must_use]
    pub fn recovery(&self) -> usize {
        self.recovery
    }

    /// The program's name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of local variable slots.
    #[must_use]
    pub fn locals_len(&self) -> usize {
        self.local_names.len()
    }

    /// Debug names of the locals, by slot.
    #[must_use]
    pub fn local_names(&self) -> &[String] {
        &self.local_names
    }

    /// Number of memory instructions (a static upper-bound proxy for steps
    /// per straight-line pass).
    #[must_use]
    pub fn memory_instr_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.is_memory()).count()
    }

    /// Number of `Fence` instructions in the program text (static fence
    /// sites, not dynamic fence steps).
    #[must_use]
    pub fn fence_site_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::Fence))
            .count()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program {} ({} locals)",
            self.name,
            self.local_names.len()
        )?;
        for (i, ins) in self.instrs.iter().enumerate() {
            let marker = if i == self.recovery && self.recovery != 0 {
                " <recovery>"
            } else {
                ""
            };
            writeln!(f, "  @{i:<4} {ins}{marker}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Loc, Src};
    use crate::{insert_fences_after, Asm, VmProc};
    use std::sync::Arc;
    use wbmem::{AccessSet, Process as _};

    #[test]
    fn counts_and_metadata() {
        let p = Program::from_parts(
            "t".into(),
            vec![
                Instr::Read {
                    addr: Src::Imm(0),
                    dst: Loc(0),
                },
                Instr::Nop,
                Instr::Fence,
                Instr::Return { val: Src::Imm(0) },
            ],
            vec!["x".into()],
        );
        assert_eq!(p.name(), "t");
        assert_eq!(p.instrs().len(), 4);
        assert_eq!(p.locals_len(), 1);
        assert_eq!(p.memory_instr_count(), 3);
        assert_eq!(p.fence_site_count(), 1);
        assert!(p.to_string().contains("fence"));
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_jump_rejected() {
        let _ = Program::from_parts("bad".into(), vec![Instr::Jmp { target: 7 }], vec![]);
    }

    #[test]
    fn summaries_are_built_by_the_first_reduction_query_and_then_shared() {
        let mut a = Asm::new("lazy");
        let t = a.local("t");
        a.read(0i64, t);
        a.annot(1);
        a.write(1i64, t);
        a.ret(t);
        let assembled = a.assemble();
        let rewritten = insert_fences_after(&assembled, &[2]).program;
        for prog in [assembled, rewritten] {
            let prog = Arc::new(prog);
            let mut p = VmProc::new(Arc::clone(&prog));
            p.advance(Some(wbmem::Value::Int(0)));
            assert!(
                prog.summaries.get().is_none(),
                "assembling, rewriting and running a program build no summaries"
            );
            assert!(VmProc::new(Arc::clone(&prog)).op_may_annotate());
            assert!(prog.summaries.get().is_some());
            let (AccessSet::Set(first), AccessSet::Set(second)) =
                (p.future_access(false).writes, p.future_access(false).writes)
            else {
                panic!("statically addressed writes summarise to a set");
            };
            assert!(std::ptr::eq(first, second), "one table, not one per call");
            assert!(first.contains(wbmem::RegId(1)));
        }
    }
}
