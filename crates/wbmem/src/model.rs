//! Memory models.

use std::fmt;

/// The memory model governing write buffering and commit order.
///
/// The paper proves its lower bound in a machine with *unordered* write
/// buffers — exactly [`MemoryModel::Pso`] — and observes the bound holds a
/// fortiori for weaker models. Its upper bounds (the `GT_f` family) order
/// writes explicitly with fences and are therefore correct under every
/// model here. Models that also reorder reads (RMO, ARM, POWER) are out of
/// scope: no model here lets a read take effect before an earlier one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryModel {
    /// Sequential consistency: writes bypass the buffer and commit
    /// immediately; fences are no-ops.
    Sc,
    /// Total store order (x86/AMD): a FIFO write buffer. Reads may bypass
    /// buffered writes to *other* registers, but writes commit in program
    /// order.
    Tso,
    /// Partial store order (SPARC PSO) — the paper's machine: an unordered
    /// write buffer with at most one entry per register; the system may
    /// commit buffered writes in any order.
    Pso,
}

impl MemoryModel {
    /// All supported models, strongest first.
    pub const ALL: [MemoryModel; 3] = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];

    /// Whether writes may be reordered with later writes (the property the
    /// paper's lower bound requires).
    #[must_use]
    pub fn reorders_writes(self) -> bool {
        matches!(self, MemoryModel::Pso)
    }

    /// Whether writes are buffered at all.
    #[must_use]
    pub fn buffers_writes(self) -> bool {
        !matches!(self, MemoryModel::Sc)
    }
}

impl fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MemoryModel::Sc => "SC",
            MemoryModel::Tso => "TSO",
            MemoryModel::Pso => "PSO",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reordering_classification() {
        assert!(!MemoryModel::Sc.reorders_writes());
        assert!(!MemoryModel::Tso.reorders_writes());
        assert!(MemoryModel::Pso.reorders_writes());
    }

    #[test]
    fn buffering_classification() {
        assert!(!MemoryModel::Sc.buffers_writes());
        assert!(MemoryModel::Tso.buffers_writes());
        assert!(MemoryModel::Pso.buffers_writes());
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = MemoryModel::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(names, ["SC", "TSO", "PSO"]);
    }
}
