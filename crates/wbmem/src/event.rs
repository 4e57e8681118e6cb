//! Execution traces.
//!
//! Every machine step that has an effect produces an [`Event`]. The
//! lower-bound encoder and the experiment harness analyse traces to find
//! which processes accessed whose memory segments, which reads were served
//! from memory, and where commits landed.

use std::fmt;

use crate::reg::{MemoryLayout, ProcId, RegId};
use crate::value::Value;

/// One effective step of an execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// The process taking the step (for commit steps: the process whose
    /// buffered write is committed — the paper treats commits as steps of
    /// that process even though the *system* chooses their position).
    pub proc: ProcId,
    /// What happened.
    pub kind: EventKind,
}

/// The effect of a step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A read step.
    Read {
        /// Register read.
        reg: RegId,
        /// Value observed.
        value: Value,
        /// `true` if served from shared memory, `false` if from the
        /// process's own write buffer.
        from_memory: bool,
        /// Whether the step is remote (an RMR) under the hybrid DSM+CC rule.
        remote: bool,
    },
    /// A write step (the write enters the buffer; always local).
    Write {
        /// Register written.
        reg: RegId,
        /// Value written (after any tagging).
        value: Value,
    },
    /// A fence step (only possible with an empty buffer; always local).
    Fence,
    /// A compare-and-swap step (only possible with an empty buffer).
    Cas {
        /// Register operated on.
        reg: RegId,
        /// The value observed (pre-operation).
        observed: Value,
        /// The value stored, if the comparison succeeded.
        stored: Option<Value>,
        /// Whether the step is remote under the hybrid rule (successful CAS
        /// follows the commit rule; failed CAS follows the read rule).
        remote: bool,
    },
    /// A commit of a buffered write to shared memory.
    Commit {
        /// Register committed.
        reg: RegId,
        /// Value stored.
        value: Value,
        /// Whether the commit is remote under the hybrid rule.
        remote: bool,
    },
    /// A fetch-and-store step (only possible with an empty buffer; always
    /// writes, so always charged by the commit rule).
    Swap {
        /// Register operated on.
        reg: RegId,
        /// The value observed (pre-operation).
        observed: Value,
        /// The value stored.
        stored: Value,
        /// Whether the step is remote under the hybrid rule.
        remote: bool,
    },
    /// A return step: the process enters a final state.
    Return {
        /// The return value.
        value: u64,
    },
    /// A crash step (fault injection): the process's volatile state is lost
    /// and control restarts at its recovery section.
    Crash {
        /// Buffered writes discarded by the crash (`0` when the crash
        /// semantics drain the buffer, or it was already empty).
        lost: usize,
    },
}

impl EventKind {
    /// Whether this event is an RMR.
    #[must_use]
    pub fn is_remote(&self) -> bool {
        match self {
            EventKind::Read { remote, .. }
            | EventKind::Commit { remote, .. }
            | EventKind::Cas { remote, .. }
            | EventKind::Swap { remote, .. } => *remote,
            _ => false,
        }
    }

    /// Whether this event *accesses process `q`'s local memory* in the
    /// paper's sense: a read of a register in `R_q` served from shared
    /// memory, or a commit to a register in `R_q`. The caller supplies the
    /// ownership test.
    #[must_use]
    pub fn accesses_segment_of(&self, owns: impl Fn(RegId) -> bool) -> bool {
        match self {
            EventKind::Read {
                reg, from_memory, ..
            } => *from_memory && owns(*reg),
            EventKind::Commit { reg, .. }
            | EventKind::Cas { reg, .. }
            | EventKind::Swap { reg, .. } => owns(*reg),
            _ => false,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EventKind::Read {
                reg,
                value,
                from_memory,
                remote,
            } => write!(
                f,
                "{} read {} = {} [{}{}]",
                self.proc,
                reg,
                value,
                if *from_memory { "mem" } else { "buf" },
                if *remote { ",RMR" } else { "" }
            ),
            EventKind::Write { reg, value } => {
                write!(f, "{} write {} := {}", self.proc, reg, value)
            }
            EventKind::Fence => write!(f, "{} fence", self.proc),
            EventKind::Cas {
                reg,
                observed,
                stored,
                remote,
            } => write!(
                f,
                "{} cas {} saw {} -> {}{}",
                self.proc,
                reg,
                observed,
                stored.map_or_else(|| "failed".to_string(), |v| v.to_string()),
                if *remote { " [RMR]" } else { "" }
            ),
            EventKind::Commit { reg, value, remote } => write!(
                f,
                "{} commit {} := {}{}",
                self.proc,
                reg,
                value,
                if *remote { " [RMR]" } else { "" }
            ),
            EventKind::Swap {
                reg,
                observed,
                stored,
                remote,
            } => write!(
                f,
                "{} swap {} saw {} := {}{}",
                self.proc,
                reg,
                observed,
                stored,
                if *remote { " [RMR]" } else { "" }
            ),
            EventKind::Return { value } => write!(f, "{} return {}", self.proc, value),
            EventKind::Crash { lost } => {
                write!(f, "{} crash ({} buffered writes lost)", self.proc, lost)
            }
        }
    }
}

/// A recorded execution: the sequence of events, in order.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<Event>,
}

impl Clone for Trace {
    fn clone(&self) -> Self {
        Trace {
            events: self.events.clone(),
        }
    }

    /// Reuses `self`'s allocation.
    fn clone_from(&mut self, source: &Self) {
        self.events.clone_from(&source.events);
    }
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// The recorded events, in execution order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Drop every event past the first `len` (used by the machine's
    /// undo-log to rewind the trace; a no-op if the trace is shorter).
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render the whole trace, one event per line (for debugging and
    /// counterexample output).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, e) in self.events.iter().enumerate() {
            let _ = writeln!(out, "{i:5}  {e}");
        }
        out
    }

    /// The distinct processes other than `p` that access `p`'s memory
    /// segment in the trace (see [`EventKind::accesses_segment_of`]) — rule
    /// (E1)'s accessor set, in id order.
    #[must_use]
    pub fn segment_accessors(&self, layout: &MemoryLayout, p: ProcId) -> Vec<ProcId> {
        let owned_by_p = |r| layout.owner(r) == Some(p);
        let mut seen: Vec<ProcId> = self
            .events
            .iter()
            .filter(|e| e.proc != p && e.kind.accesses_segment_of(owned_by_p))
            .map(|e| e.proc)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    }

    /// The trace as plain text lines, one event per line, without line
    /// numbers — the serialization counterexample artifacts are written
    /// with (each line round-trips through the event `Display` form).
    #[must_use]
    pub fn to_lines(&self) -> Vec<String> {
        self.events.iter().map(|e| e.to_string()).collect()
    }
}

impl FromIterator<Event> for Trace {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_classification() {
        let read = EventKind::Read {
            reg: RegId(0),
            value: Value::Int(1),
            from_memory: true,
            remote: true,
        };
        assert!(read.is_remote());
        assert!(!EventKind::Fence.is_remote());
        assert!(!EventKind::Write {
            reg: RegId(0),
            value: Value::Int(1)
        }
        .is_remote());
    }

    #[test]
    fn segment_access_rule() {
        let owns_r0 = |r: RegId| r == RegId(0);
        let mem_read = EventKind::Read {
            reg: RegId(0),
            value: Value::Bot,
            from_memory: true,
            remote: true,
        };
        let buf_read = EventKind::Read {
            reg: RegId(0),
            value: Value::Bot,
            from_memory: false,
            remote: false,
        };
        let commit = EventKind::Commit {
            reg: RegId(0),
            value: Value::Int(1),
            remote: true,
        };
        let write = EventKind::Write {
            reg: RegId(0),
            value: Value::Int(1),
        };
        assert!(mem_read.accesses_segment_of(owns_r0));
        assert!(
            !buf_read.accesses_segment_of(owns_r0),
            "buffer reads don't touch memory"
        );
        assert!(commit.accesses_segment_of(owns_r0));
        assert!(
            !write.accesses_segment_of(owns_r0),
            "writes only touch the buffer"
        );
    }

    #[test]
    fn accessors_excludes_buffer_reads_and_self() {
        let read = |p, from_memory| Event {
            proc: ProcId(p),
            kind: EventKind::Read {
                reg: RegId(5),
                value: Value::Bot,
                from_memory,
                remote: from_memory,
            },
        };
        let commit = |p, r| Event {
            proc: ProcId(p),
            kind: EventKind::Commit {
                reg: RegId(r),
                value: Value::Int(1),
                remote: false,
            },
        };
        let trace: Trace = [
            read(0, true),
            read(0, true),
            read(2, false),
            commit(1, 5),
            commit(1, 7),
        ]
        .into_iter()
        .collect();
        let mut layout = MemoryLayout::unowned();
        layout.assign(RegId(5), ProcId(1));
        // p2 read reg 5 from its own buffer and p1 owns it; p0's two
        // memory reads make it the one accessor.
        assert_eq!(trace.segment_accessors(&layout, ProcId(1)), [ProcId(0)]);
        // p1 commits to reg 7, but nobody owns reg 7.
        assert_eq!(trace.segment_accessors(&layout, ProcId(0)), []);
    }

    #[test]
    fn trace_records_in_order() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(Event {
            proc: ProcId(0),
            kind: EventKind::Fence,
        });
        t.push(Event {
            proc: ProcId(1),
            kind: EventKind::Return { value: 3 },
        });
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("p1 return 3"));
    }
}
