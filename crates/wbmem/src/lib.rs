//! # wbmem — the write-buffer shared-memory machine of Attiya–Hendler–Woelfel
//!
//! This crate implements, as an executable discrete-event machine, the shared
//! memory model of Section 2 of *“Trading Fences with RMRs and Separating
//! Memory Models”* (PODC 2015):
//!
//! * `n` asynchronous processes communicate through shared **registers**
//!   drawn from a totally ordered set, with values from a domain containing a
//!   distinguished initial value ⊥ ([`Value::Bot`]).
//! * Each process has a **write buffer**. A `write(R, x)` enters the buffer
//!   (replacing any buffered write to `R` under PSO); the **system** later
//!   *commits* buffered writes to shared memory at points of its choosing.
//!   A `fence()` blocks the process until its buffer is empty.
//! * A **schedule** is a sequence of pairs `(p, R?)`; together with the
//!   processes' programs it uniquely determines an execution
//!   ([`Machine::step`] follows the paper's three-case rule).
//! * Remote memory references (RMRs) are accounted in the paper's **hybrid
//!   DSM + CC model**: registers are partitioned into per-process memory
//!   segments *and* every process carries a value cache; a step is *remote*
//!   only if it is an RMR in both senses (see [`Machine`] docs and the
//!   [`rmr`] module).
//!
//! Three memory models are supported ([`MemoryModel`]): `Sc` (no buffering),
//! `Tso` (FIFO buffer — writes commit in program order) and `Pso` (unordered
//! buffer — the paper's machine). Read reordering (RMO) is out of scope.
//!
//! Programs are supplied through the [`Process`] trait: a deterministic,
//! cloneable state machine that exposes the operation it is *poised* to
//! execute and advances when the machine performs it. The `fencevm` crate
//! provides an instruction-set implementation.
//!
//! ## Example
//!
//! ```
//! use wbmem::{Machine, MachineConfig, MemoryModel, MemoryLayout, Poised, Process,
//!             ProcId, RegId, SchedElem, Value};
//!
//! /// A two-phase process: write 7 to register 0, fence, then return 7.
//! #[derive(Clone, Debug, PartialEq, Eq, Hash)]
//! struct WriterThenReturn { phase: u8 }
//!
//! impl Process for WriterThenReturn {
//!     fn poised(&self) -> Poised {
//!         match self.phase {
//!             0 => Poised::Write(RegId(0), Value::Int(7)),
//!             1 => Poised::Fence,
//!             _ => Poised::Return(7),
//!         }
//!     }
//!     fn advance(&mut self, _read: Option<Value>) {
//!         self.phase += 1;
//!     }
//! }
//!
//! let config = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
//! let mut m = Machine::new(config, vec![WriterThenReturn { phase: 0 }]);
//! let p = ProcId(0);
//! m.step(SchedElem::op(p));      // write enters the buffer
//! assert!(!m.buffer_is_empty(p));
//! m.step(SchedElem::op(p));      // fence with non-empty buffer => commit
//! m.step(SchedElem::op(p));      // fence completes
//! m.step(SchedElem::op(p));      // return
//! assert_eq!(m.return_value(p), Some(7));
//! assert_eq!(m.memory(RegId(0)).payload(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod counters;
pub mod event;
pub mod fingerprint;
pub mod footprint;
pub mod machine;
pub mod model;
pub mod process;
pub mod reg;
pub mod reorder;
pub mod rmr;
pub mod sched;
pub mod value;

pub use buffer::{BufferUndo, PsoWrites, WriteBuffer};
pub use counters::{Counters, ProcCounters};
pub use event::{Event, EventKind, Trace};
pub use fingerprint::{FpBuildHasher, FpHasher, FpMap, FpSet};
pub use footprint::{Footprint, FootprintKind};
pub use machine::{
    CrashSemantics, Machine, MachineConfig, MachineError, SoloOutcome, StateKey, StepOutcome,
    UndoToken,
};
pub use model::MemoryModel;
pub use process::{AccessSet, FutureAccess, Poised, PoisedKind, Process};
pub use reg::{MemoryLayout, ProcId, RegId, RegSet};
pub use reorder::{reorder_edges, ReorderEdge, ReorderKind};
pub use sched::{SchedElem, Schedule};
pub use value::Value;
