//! # fencevm — a register-machine IR for write-buffer algorithms
//!
//! Shared-memory algorithms (locks, counters, queues) are expressed as small
//! programs over an instruction set with two tiers:
//!
//! * **Memory instructions** — [`Instr::Read`], [`Instr::Write`],
//!   [`Instr::Fence`], [`Instr::Return`] — each of which costs exactly one
//!   machine step in the [`wbmem`] model (the paper's `read`, `write`,
//!   `fence`, `return` operations).
//! * **Internal instructions** — moves, arithmetic, comparisons, jumps,
//!   annotations — which model free local computation and are executed
//!   eagerly between memory steps (the paper's processes do unbounded local
//!   computation between shared-memory operations).
//!
//! A [`VmProc`] interprets a [`Program`] and implements
//! [`wbmem::Process`], so it can be driven by a [`wbmem::Machine`], cloned,
//! snapshotted, solo-run and model-checked. Programs are built with the
//! [`Asm`] assembler, which provides labels, named locals and fixups.
//!
//! ## Example: a counter increment
//!
//! ```
//! use fencevm::{Asm, Src, VmProc};
//! use wbmem::{Machine, MachineConfig, MemoryModel, MemoryLayout, ProcId, RegId};
//!
//! let mut asm = Asm::new("incr");
//! let t = asm.local("t");
//! asm.read(Src::Imm(0), t);              // t := C
//! asm.add(t, t, Src::Imm(1));            // t := t + 1
//! asm.write(Src::Imm(0), t);             // C := t
//! asm.fence();
//! asm.ret(t);
//! let prog = asm.assemble();
//!
//! let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
//! let mut m = Machine::new(cfg, vec![VmProc::new(prog.into())]);
//! m.run_solo(ProcId(0), 100);
//! assert_eq!(m.return_value(ProcId(0)), Some(1));
//! assert_eq!(m.memory(RegId(0)).payload(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod asm;
pub mod instr;
pub mod program;
pub mod rewrite;
pub mod vmproc;

pub use asm::{Asm, Label};
pub use instr::{BinOp, CondOp, Instr, Loc, Src};
pub use program::Program;
pub use rewrite::{fence_pcs, insert_fences_after, strip_fences, write_pcs, Rewritten};
pub use vmproc::{VmProc, INLINE_LOCALS};
