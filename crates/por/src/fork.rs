//! Fork points: serialized DFS continuations.
//!
//! A checkpoint (`crate::snapshot`) keeps the *unexplored remainder* of
//! every open DFS frame of an interrupted walk. That remainder must carry
//! everything the reduced search tracked for the frame — the sleep set it
//! was entered with, the siblings already taken (the candidates put to
//! sleep in later children), the ample-excluded choices (owed to the
//! cycle proviso), and the remaining reorder budget — plus a **replay
//! path**: the schedule from the root to the frame's state, which is how
//! the resumed walk re-materializes the state on a fresh machine (undo
//! tokens do not survive the process). [`ForkPoint`] is that
//! serialization.
//!
//! Continuing a fork point is an exact continuation relocation: the
//! resumed walk explores precisely the `(choices, excluded, sleep, taken,
//! remaining)` tuple the interrupted one would have, from the same state,
//! with the same pruning rules — which is why the reduction's soundness
//! argument is indifferent to the interrupt (see DESIGN.md).

use wbmem::{Footprint, SchedElem};

use crate::sleep::SleepSet;

/// The unexplored remainder of one DFS frame, serialized. See the module
/// docs; field semantics mirror the DPOR engine's frame.
#[derive(Clone, Debug, Default)]
pub struct ForkPoint {
    /// Schedule from the root state to this frame's state. The resumed
    /// walk replays it (every element must step) to re-materialize the
    /// state; the prefix states also re-seed its on-stack set so the
    /// cycle proviso keeps firing exactly as it would have.
    pub path: Vec<SchedElem>,
    /// Sleep set the frame was entered with.
    pub sleep: SleepSet,
    /// Siblings already explored from this frame, with the footprints
    /// they had when taken.
    pub taken: Vec<(SchedElem, Footprint)>,
    /// Choices still to explore, in the owner's exploration order.
    pub choices: Vec<SchedElem>,
    /// Ample-excluded choices, reinstated if the cycle proviso fires.
    pub excluded: Vec<SchedElem>,
    /// Remaining reorder budget on entry to the frame's state.
    pub remaining: u32,
}
