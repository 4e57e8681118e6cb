//! The search kernel: the one depth-first walk of `Exec_A(C; σ)` behind
//! every engine except the [`Engine::CloneDfs`](crate::Engine::CloneDfs)
//! oracle, which shares no loop with what it checks.
//!
//! [`Dfs::run`] owns step → fingerprint → first visit → per-state
//! [`Visitor`] → expand → undo on a single machine, and is statically
//! generic over the [`Reduction`] that decides *which edges are walked*
//! (DESIGN.md §5a): [`NoReduction`] (zero-sized — every enabled choice, in
//! the oracle's order) or [`SleepAmple`] (sleep sets, ample sets, reorder
//! bound). [`Local`] owns the states: dense [`SearchIndex`] ids with
//! first-visit parents, exact stop points, the termination graph, and
//! verdicts rendered in place. The per-state tables — [`Local`]'s
//! [`Graph`] and the reduction's — come from the thread's
//! [spare](crate::spare), and the check leaves them to the next one. A
//! state's id — its *node* — travels with every [`Edge`], so a reduction
//! keys its own per-state data by it.
//!
//! `Undo` is `NoReduction`, `Dpor` is `SleepAmple`; `Parallel` and
//! `ParallelDpor` run the same two walks. An unbounded `Dpor` that checks
//! termination keeps its ample sets and drops its sleep sets
//! ([`sequential`]).
//!
//! Every walk starts from a [`ForkPoint`] — a fresh run's is the root's
//! expansion ([`root_fork`]), a resumed run's are the checkpoint's, walked
//! in order — and every open frame serializes back into one, which is all
//! a checkpoint is. Choices of all frames live in one arena: a frame owns
//! the window `arena[lo..hi]` of choices still to take, and the top
//! frame's region is the arena's tail (where the cycle proviso appends to
//! it). What a step overwrote lives on the machine's own undo trail; a
//! frame keeps the 16-byte [`UndoToken`] that rewinds it, and the walk
//! counts its undos in the [`MetricsSnapshot`] it batches every per-edge
//! counter in; [`run_local`] merges that tally into its check's totals
//! when the walk ends.

use std::time::Instant;

use ftobs::{Gauge, Metric, MetricsSnapshot};
use por::{BaseCounts, ForkPoint, Snapshot};
use wbmem::{Footprint, Machine, Process, SchedElem, StepOutcome, UndoToken};

use crate::checker::{
    can_finish, in_cs_count, poll_observe, render, returns_are_permutation, run_meta_of,
    step_counted, violates_invariant, write_checkpoint, CheckConfig, CheckError, Counterexample,
    Coverage, SearchIndex, Stats, Verdict, DEADLINE_POLL_MASK,
};
use crate::dpor::SleepAmple;
use crate::spare;

/// The property a visited state broke, as the constructor of its verdict
/// (e.g. [`Verdict::MutexViolation`]).
pub(crate) type Violation = fn(Stats, Counterexample) -> Verdict;

/// The per-state work of a walk, called once per distinct state.
pub(crate) trait Visitor<P: Process> {
    /// A state was visited for the first time (the root included).
    fn state(&mut self, m: &Machine<P>) -> Result<(), Violation>;
    /// That state is all-done and has been counted as terminal. Not
    /// called for the root: the oracle never permutation-checks it.
    fn terminal(&mut self, _m: &Machine<P>) -> Result<(), Violation> {
        Ok(())
    }
}

/// [`crate::check`]'s visitor: the configured safety properties.
pub(crate) struct Properties<'a> {
    config: &'a CheckConfig,
    /// The annotation vector handed to the invariant, reused per state.
    annots: Vec<u64>,
}

impl<'a> Properties<'a> {
    pub(crate) fn new(config: &'a CheckConfig) -> Self {
        Properties {
            config,
            annots: Vec::new(),
        }
    }
}

impl<P: Process> Visitor<P> for Properties<'_> {
    fn state(&mut self, m: &Machine<P>) -> Result<(), Violation> {
        if self.config.check_mutex && in_cs_count(m) > 1 {
            Err(Verdict::MutexViolation)
        } else if violates_invariant(self.config, m, &mut self.annots) {
            Err(Verdict::InvariantViolation)
        } else {
            Ok(())
        }
    }

    fn terminal(&mut self, m: &Machine<P>) -> Result<(), Violation> {
        if self.config.check_permutation && !returns_are_permutation(m) {
            Err(Verdict::PermutationViolation)
        } else {
            Ok(())
        }
    }
}

/// One executed edge, as a [`Reduction`] sees it.
pub(crate) struct Edge {
    pub(crate) elem: SchedElem,
    /// What the step touched — `Local`, whatever it touched, unless the
    /// reduction asks for [`Reduction::FOOTPRINTS`].
    pub(crate) footprint: Footprint,
    /// The dense id of the state the edge landed on.
    pub(crate) node: u32,
    /// Whether the walk saw that state for the first time.
    pub(crate) fresh: bool,
    /// Reorder budget left after the step (from [`Reduction::admit`]).
    pub(crate) budget: u32,
}

/// Which edges the walk takes. Owns the invariants of pruning: the
/// exploration *order* (and with it bit-identity to the oracle when
/// nothing is pruned), the dominance claim, and the cycle proviso.
pub(crate) trait Reduction<P: Process> {
    /// What a kernel frame keeps of its reduction state: a handle the
    /// reduction resolves, or the state itself if it is that small.
    type Frame: Copy;
    /// Frames take choices from the back of their arena window — the
    /// oracle's `Vec::pop` order — instead of the front.
    const LIFO: bool;
    /// Whether the reduction reads [`Edge::footprint`]. When it does not,
    /// the walk never asks the machine to predict one.
    const FOOTPRINTS: bool;

    /// The state with id `node` joined the DFS stack: a replayed ancestor
    /// of the task's state, that state itself, or a pushed child.
    fn on_stack(&mut self, _node: u32) {}
    /// One of its entries left it again (a frame popped, or a replayed
    /// ancestor when its task is exhausted).
    fn off_stack(&mut self, _node: u32) {}
    /// Reorder budget of the root state.
    fn root_budget(&self) -> u32 {
        u32::MAX
    }
    /// The bottom frame of a walk, continuing `task` at its state.
    fn adopt(&mut self, task: &mut ForkPoint) -> Self::Frame;
    /// Copy `frame`'s reduction state into the fork point serializing it.
    fn describe(&self, _frame: Self::Frame, _fork: &mut ForkPoint) {}
    /// Whether `elem` may be taken from `frame`'s state, and the reorder
    /// budget left if it is.
    fn admit(&self, m: &Machine<P>, frame: Self::Frame, elem: SchedElem) -> Option<u32>;
    /// `edge` was taken from `top`, the top frame: the child's frame if
    /// its state must be (re)explored, `None` (counted as pruned) if it is
    /// covered. The child's frame is the one above `top` until the walk
    /// pushes it, which it does only if the state has choices to expand.
    /// May append reinstated choices for `top` to the arena's tail.
    fn arrive(
        &mut self,
        top: Self::Frame,
        arena: &mut Vec<SchedElem>,
        edge: &Edge,
        tally: &mut MetricsSnapshot,
    ) -> Option<Self::Frame>;
    /// Append the choices to walk from `frame`'s state — `m`'s current
    /// one, with `choices` enabled — to the arena. Under the termination
    /// check nothing is slept: the graph the check reads has no edge a
    /// sleep set skipped.
    fn expand(
        &mut self,
        m: &Machine<P>,
        choices: &[SchedElem],
        frame: Self::Frame,
        arena: &mut Vec<SchedElem>,
        tally: &mut MetricsSnapshot,
    );
    /// Edges pruned as redundant so far.
    fn sleep_hits(&self) -> usize {
        0
    }
}

/// The exhaustive walk: nothing is pruned, a state is entered exactly on
/// its first visit, and every hook but the choice copy compiles away. It
/// takes the oracle's back-first [order](Reduction::LIFO), which keeps the
/// exhaustive engines bit-identical to it.
pub(crate) struct NoReduction;

impl<P: Process> Reduction<P> for NoReduction {
    type Frame = ();
    const LIFO: bool = true;
    const FOOTPRINTS: bool = false;

    fn adopt(&mut self, _task: &mut ForkPoint) {}

    fn admit(&self, _m: &Machine<P>, _frame: (), _elem: SchedElem) -> Option<u32> {
        Some(u32::MAX)
    }

    fn arrive(
        &mut self,
        _top: (),
        _arena: &mut Vec<SchedElem>,
        edge: &Edge,
        tally: &mut MetricsSnapshot,
    ) -> Option<()> {
        if !edge.fresh {
            tally.incr(Metric::DedupHits);
        }
        edge.fresh.then_some(())
    }

    fn expand(
        &mut self,
        _m: &Machine<P>,
        choices: &[SchedElem],
        _frame: (),
        arena: &mut Vec<SchedElem>,
        _tally: &mut MetricsSnapshot,
    ) {
        arena.extend_from_slice(choices);
    }
}

/// Why [`Dfs::run`] returned before exhausting its task.
pub(crate) enum Halt {
    /// The visitor rejected the state with this id.
    Violation(Violation, u32),
    /// More than `max_states` states were counted.
    StateLimit,
    /// The dense `u32` ids ran out.
    TooManyStates,
    /// [`Local::poll`] stopped the walk.
    Stopped,
}

struct Frame<P, S> {
    node: u32,
    /// `arena[start..]` is this frame's region while it is on top;
    /// `arena[lo..hi]` are the choices still to take.
    start: usize,
    lo: usize,
    hi: usize,
    /// How to rewind the machine to the parent (`None` for the task's
    /// own state).
    token: Option<UndoToken<P>>,
    red: S,
}

/// Rewind `m` over the step `token` records, counting the undo.
fn undo<P: Process>(m: &mut Machine<P>, tally: &mut MetricsSnapshot, token: UndoToken<P>) {
    tally.incr(Metric::UndoSteps);
    m.undo(token);
}

/// One task's walk: a machine, its DFS stack, and the choice arena.
pub(crate) struct Dfs<'a, P: Process, R: Reduction<P>> {
    m: Machine<P>,
    red: &'a mut R,
    /// Batches the per-edge counters until [`run_local`] merges them into
    /// its check's totals.
    pub(crate) tally: MetricsSnapshot,
    arena: Vec<SchedElem>,
    scratch: Vec<SchedElem>,
    frames: Vec<Frame<P, R::Frame>>,
    /// The schedule from the root to the top frame's state: frame `i` is
    /// reached by its first `base + i` elements. This is the *stack*
    /// path, not the first-visit parent chain: fork points replay it to
    /// restore the exact reduction state.
    path: Vec<SchedElem>,
    base: usize,
    /// The ids of the states that path passes before the task's own,
    /// which stay on the reduction's stack until the task is exhausted.
    ancestors: Vec<u32>,
}

impl<'a, P: Process, R: Reduction<P>> Dfs<'a, P, R> {
    /// Re-materialize `task` — its state named by `node` — on a clone of
    /// `initial` by replaying its path — outside [`step_counted`], so
    /// replays never reach the step metrics. The clone forgets its
    /// locality tracker ([`Machine::forget_locality`]): a walk computes
    /// states, not what one execution through them costs. The replayed
    /// ancestors — named by `node`, which maps a fingerprint to its id —
    /// re-seed the reduction's on-stack set, so the cycle proviso fires
    /// for a resumed task exactly where it would have for the interrupted
    /// walk. A path that fails to replay is a logic error (`dispatch` turns
    /// the panic into an error verdict).
    pub(crate) fn start(
        initial: &Machine<P>,
        mut task: ForkPoint,
        mut node: impl FnMut(u128) -> u32,
        red: &'a mut R,
    ) -> Self {
        let mut m = initial.clone();
        m.forget_locality();
        let mut scratch = Vec::new();
        let mut ancestors = Vec::with_capacity(task.path.len());
        for e in &task.path {
            let id = node(m.fingerprint());
            red.on_stack(id);
            ancestors.push(id);
            assert!(
                m.replay_path(std::slice::from_ref(e), &mut scratch),
                "fork-point path failed to replay"
            );
        }
        let own = node(m.fingerprint());
        red.on_stack(own);
        let frame = red.adopt(&mut task);
        let mut arena = std::mem::take(&mut task.choices);
        if R::LIFO {
            arena.reverse();
        }
        let root = Frame {
            node: own,
            start: 0,
            lo: 0,
            hi: arena.len(),
            token: None,
            red: frame,
        };
        Dfs {
            m,
            red,
            tally: MetricsSnapshot::default(),
            arena,
            scratch,
            frames: vec![root],
            base: task.path.len(),
            path: task.path,
            ancestors,
        }
    }

    /// Open frames.
    pub(crate) fn depth(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn sleep_hits(&self) -> usize {
        self.red.sleep_hits()
    }

    /// Frame `i`'s unexplored remainder as a fork point: its choices in
    /// exploration order plus the exact reduction state, so whoever
    /// continues it prunes no more and no less than this walk would.
    fn fork_at(&self, i: usize) -> ForkPoint {
        let f = &self.frames[i];
        let mut choices = self.arena[f.lo..f.hi].to_vec();
        if R::LIFO {
            choices.reverse();
        }
        let mut fork = ForkPoint {
            path: self.path[..self.base + i].to_vec(),
            choices,
            remaining: u32::MAX,
            ..ForkPoint::default()
        };
        self.red.describe(f.red, &mut fork);
        fork
    }

    /// Every open frame with choices to take, as fork points, bottom
    /// first.
    pub(crate) fn open_forks(&self) -> Vec<ForkPoint> {
        let open = |i: &usize| self.frames[*i].lo < self.frames[*i].hi;
        (0..self.frames.len())
            .filter(open)
            .map(|i| self.fork_at(i))
            .collect()
    }

    /// Walk the task to exhaustion, or until something halts it.
    pub(crate) fn run<V: Visitor<P>>(
        &mut self,
        config: &CheckConfig,
        local: &mut Local<'_>,
        visitor: &mut V,
    ) -> Option<Halt> {
        let (poll_mask, mut iters) = (local.poll_mask(), 0usize);
        while !self.frames.is_empty() {
            iters += 1;
            if iters & poll_mask == 0 && local.poll(self, iters) {
                return Some(Halt::Stopped);
            }
            let depth = self.frames.len();
            let top = self.frames.last_mut().expect("non-empty stack");
            if top.lo == top.hi {
                // Frame exhausted: rewind to the parent state.
                let frame = self.frames.pop().expect("non-empty stack");
                self.red.off_stack(frame.node);
                self.arena.truncate(frame.start);
                if let Some(token) = frame.token {
                    undo(&mut self.m, &mut self.tally, token);
                    self.path.pop();
                }
                continue;
            }
            let elem = if R::LIFO {
                top.hi -= 1;
                self.arena[top.hi]
            } else {
                top.lo += 1;
                self.arena[top.lo - 1]
            };
            let Some(budget) = self.red.admit(&self.m, top.red, elem) else {
                local.refused(top.node);
                continue; // beyond the reorder bound: neither taken nor slept
            };

            let (out, token) = step_counted(&mut self.tally, &mut self.m, elem, |m| {
                if R::FOOTPRINTS {
                    m.step_recorded(elem)
                } else {
                    m.step_recorded_blind(elem)
                }
            });
            if matches!(out, StepOutcome::NoOp) {
                self.tally.incr(Metric::NoopSteps);
                undo(&mut self.m, &mut self.tally, token);
                continue;
            }
            local.stats.transitions += 1;
            self.tally.incr(Metric::Transitions);
            let fp = self.m.fingerprint();
            let Some((node, fresh)) = local.visit(fp, top.node, elem) else {
                return Some(Halt::TooManyStates);
            };
            let edge = Edge {
                elem,
                footprint: token.footprint(),
                node,
                fresh,
                budget,
            };
            let child = self
                .red
                .arrive(top.red, &mut self.arena, &edge, &mut self.tally);
            if !R::LIFO {
                top.hi = self.arena.len();
            }
            let Some(child) = child else {
                undo(&mut self.m, &mut self.tally, token);
                continue;
            };

            let done = self.m.all_done();
            if fresh {
                self.tally.on_state(depth as u64);
                local.stats.states += 1;
                if local.stats.states > config.max_states {
                    return Some(Halt::StateLimit);
                }
                if let Err(v) = visitor.state(&self.m) {
                    return Some(Halt::Violation(v, node));
                }
                if done {
                    local.terminal(node);
                    self.tally.incr(Metric::TerminalStates);
                    if let Err(v) = visitor.terminal(&self.m) {
                        return Some(Halt::Violation(v, node));
                    }
                }
            }
            if done {
                // Nothing to expand (fresh, or re-entered under a
                // smaller sleep set).
                undo(&mut self.m, &mut self.tally, token);
                continue;
            }

            let start = self.arena.len();
            self.m.choices_into(&mut self.scratch);
            debug_assert!(
                !self.scratch.is_empty(),
                "non-terminal state has no choices"
            );
            self.red.expand(
                &self.m,
                &self.scratch,
                child,
                &mut self.arena,
                &mut self.tally,
            );
            self.red.on_stack(node);
            self.path.push(elem);
            self.frames.push(Frame {
                node,
                start,
                lo: start,
                hi: self.arena.len(),
                token: Some(token),
                red: child,
            });
        }
        for &node in &self.ancestors {
            self.red.off_stack(node);
        }
        None
    }
}

/// The root state's expansion as the fork point a fresh run starts from;
/// its reduction decision is counted into `tally`.
pub(crate) fn root_fork<P: Process, R: Reduction<P>>(
    initial: &Machine<P>,
    red: &mut R,
    tally: &mut MetricsSnapshot,
) -> ForkPoint {
    let mut fork = ForkPoint {
        remaining: red.root_budget(),
        ..ForkPoint::default()
    };
    let frame = red.adopt(&mut fork);
    let mut choices = Vec::new();
    let enabled = initial.choices();
    red.expand(initial, &enabled, frame, &mut choices, tally);
    if R::LIFO {
        choices.reverse();
    }
    red.describe(frame, &mut fork);
    fork.choices = choices;
    fork
}

/// The id [`Local`] gives the root of a fresh run: the first one a
/// [`SearchIndex`] hands out.
const ROOT: u32 = 0;

/// [`Local`]'s per-state tables: the states' ids and first-visit parents,
/// and the termination graph — its edges, its terminal states and the
/// states the reorder bound refused an edge at.
#[derive(Default)]
pub(crate) struct Graph {
    index: SearchIndex,
    edges: Vec<(u32, u32)>,
    terminal: Vec<u32>,
    refused: Vec<u32>,
}

impl Graph {
    /// Forget every state, keeping what is allocated.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.edges.clear();
        self.terminal.clear();
        self.refused.clear();
    }

    /// Heap bytes allocated.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.index.heap_bytes()
            + self.edges.capacity() * size_of::<(u32, u32)>()
            + (self.terminal.capacity() + self.refused.capacity()) * size_of::<u32>()
    }

    /// Allocate room for `n` termination edges.
    #[cfg(test)]
    pub(crate) fn reserve_edges(&mut self, n: usize) {
        self.edges.reserve_exact(n);
    }
}

/// Who owns the walk's states and when it stops: dense [`SearchIndex`]
/// ids with first-visit parents, stop triggers polled at every
/// transition boundary (so the `stop_after` cut is exact), the
/// termination graph, and verdicts — counterexamples included — rendered
/// in place.
pub(crate) struct Local<'a> {
    config: &'a CheckConfig,
    /// The check's totals: the root's counts until the first walk ends,
    /// then every finished walk's too.
    totals: &'a mut MetricsSnapshot,
    deadline: Option<Instant>,
    /// Fingerprint of the (crash-bounded) root, which keys checkpoints.
    root_fp: u128,
    /// Counts so far, a resumed run's predecessors' included.
    stats: Stats,
    /// What a resumed run starts from (zero for a fresh one): the counts
    /// and metrics of the runs before it.
    base: BaseCounts,
    prior: MetricsSnapshot,
    /// Fork points not yet started, the next one last.
    pending: Vec<ForkPoint>,
    graph: Graph,
    /// Set when [`poll`](Self::poll) stops the walk.
    coverage: Option<Coverage>,
}

impl Local<'_> {
    fn poll_mask(&self) -> usize {
        // Stop triggers are checked at every transition boundary, so the
        // deterministic `stop_after` cut is exact.
        match self.config.checkpoint {
            Some(_) => 0,
            None => DEADLINE_POLL_MASK,
        }
    }

    /// Called before loop iteration `iters`: `true` stops the walk
    /// ([`Halt::Stopped`]), with its coverage — and checkpoint — recorded.
    /// The `stop_after` cut counts this run's own transitions, so a
    /// resumed run makes progress before the cut can fire again.
    #[inline(never)]
    fn poll<P: Process, R: Reduction<P>>(&mut self, dfs: &mut Dfs<'_, P, R>, iters: usize) -> bool {
        let config = self.config;
        let policy = config.checkpoint.as_ref();
        let own = self.stats.transitions as u64 - self.base.transitions;
        let mut stop = policy.is_some_and(|p| p.stop_requested(own));
        if !stop && iters & DEADLINE_POLL_MASK == 0 {
            let (depth, states) = (dfs.depth(), self.stats.states);
            stop = poll_observe(&mut dfs.tally, depth, states, self.deadline);
        }
        if stop {
            self.coverage = Some(Coverage {
                frontier: dfs.depth() + self.pending.len(),
                sleep_hits: self.base.sleep_hits as usize + dfs.sleep_hits(),
                checkpoint: self.checkpoint(dfs),
            });
        }
        stop
    }

    /// Serialize the live walk into a durable [`Snapshot`] and write it:
    /// the open frames, then the fork points not yet started.
    /// `dispatch` refused the policy if the walk checks termination, so
    /// there is no graph to keep.
    fn checkpoint<P: Process, R: Reduction<P>>(
        &mut self,
        dfs: &Dfs<'_, P, R>,
    ) -> Option<std::path::PathBuf> {
        let policy = self.config.checkpoint.as_ref()?;
        let index = &self.graph.index;
        let mut visited: Vec<u128> = (0..index.len() as u32).map(|id| index.fp_of(id)).collect();
        visited.sort_unstable();
        let mut forks = dfs.open_forks();
        forks.extend(self.pending.iter().rev().cloned());
        let snap = Snapshot {
            meta: run_meta_of(self.config, self.root_fp),
            base: BaseCounts {
                states: self.stats.states as u64,
                transitions: self.stats.transitions as u64,
                terminal_states: self.stats.terminal_states as u64,
                sleep_hits: self.base.sleep_hits + dfs.sleep_hits() as u64,
            },
            metrics: self.prior.merged(self.totals).merged(&dfs.tally),
            forks,
            visited,
        };
        write_checkpoint(self.totals, policy, &snap)
    }

    /// The step `elem` from `from` landed on `fp`: its id and whether
    /// this is the state's first visit (recording the edge under the
    /// termination check). `None` once the ids run out.
    fn visit(&mut self, fp: u128, from: u32, elem: SchedElem) -> Option<(u32, bool)> {
        let (id, new) = self.graph.index.id_of(fp, Some((from, elem)))?;
        if self.config.check_termination {
            self.graph.edges.push((from, id));
        }
        Some((id, new))
    }

    /// The reduction refused a choice at `from` (the reorder bound): the
    /// termination graph is missing that edge, so nothing may be concluded
    /// from `from` failing to finish in it.
    fn refused(&mut self, from: u32) {
        if self.config.check_termination {
            self.graph.refused.push(from);
        }
    }

    /// A first-visited state is all-done.
    fn terminal(&mut self, id: u32) {
        self.stats.terminal_states += 1;
        self.graph.terminal.push(id);
    }

    /// After an exhausted walk: the schedules to the states that cannot
    /// finish — the smallest-id one first, then one per further process
    /// whose step enters the stuck region ([`SearchIndex::stuck_entries`])
    /// — or `None` if every state can.
    ///
    /// Under a reorder bound a state only counts as stuck if its whole
    /// forward closure was explored: a state the bound refused an edge
    /// at may finish through what was not walked, and so may everything
    /// that reaches it. The full search refuses nothing.
    fn stuck(&self) -> Option<Vec<Vec<SchedElem>>> {
        let Graph {
            index,
            edges,
            terminal,
            refused,
        } = &self.graph;
        let finish: Vec<u32> = terminal.iter().chain(refused).copied().collect();
        let can_finish = can_finish(index.len(), edges, &finish);
        let first = can_finish.iter().position(|&c| !c)? as u32;
        let mut entries = index.stuck_entries(&can_finish);
        if entries.is_empty() {
            entries.push(first); // the root: nothing enters it
        }
        debug_assert_eq!(entries[0], first);
        Some(entries.iter().map(|&id| index.path_to(id)).collect())
    }
}

/// The engines' one walk: `reduction` × [`Local`], counted into `totals`.
/// A fresh run checks the root and walks its expansion. A run `seed`ed
/// from a checkpoint continues it instead: the checkpoint's fingerprints
/// become parentless ids (so states counted and property-checked before
/// the interrupt are not counted or checked again), its counts and
/// metrics are where this run's start, and its fork points are walked in
/// order, each counted as [`Metric::ResumeReplayed`]. A seeded run that
/// meets a violation or the state limit reruns [`sequential`] from the
/// root, without the checkpoint policy, so those verdicts — the
/// counterexample included — are bit-identical to an uninterrupted run's;
/// the rerun's counts stand alone. The walk's [`Graph`] comes empty, and
/// goes back with the verdict.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_local<P: Process, R: Reduction<P>, V: Visitor<P>>(
    initial: &Machine<P>,
    config: &CheckConfig,
    deadline: Option<Instant>,
    seed: Option<Snapshot>,
    graph: Graph,
    reduction: &mut R,
    visitor: &mut V,
    totals: &mut MetricsSnapshot,
) -> (Verdict, Graph) {
    debug_assert_eq!(graph.index.len(), 0, "a walk's graph comes empty");
    let mut local = Local {
        config,
        totals,
        deadline,
        root_fp: initial.fingerprint(),
        stats: Stats::default(),
        base: BaseCounts::default(),
        prior: MetricsSnapshot::default(),
        pending: Vec::new(),
        graph,
        coverage: None,
    };
    let verdict = walk(initial, seed, reduction, visitor, &mut local);
    (verdict, local.graph)
}

/// [`run_local`]'s walk, from `seed` or the root: apart only so that
/// `run_local` gets the graph back on every path, and inlined into it.
#[inline(always)]
fn walk<P: Process, R: Reduction<P>, V: Visitor<P>>(
    initial: &Machine<P>,
    seed: Option<Snapshot>,
    reduction: &mut R,
    visitor: &mut V,
    local: &mut Local<'_>,
) -> Verdict {
    let (config, deadline) = (local.config, local.deadline);
    let seeded = seed.is_some();
    match seed {
        None => {
            let (root, _) = local
                .graph
                .index
                .id_of(local.root_fp, None)
                .expect("the first id");
            debug_assert_eq!(root, ROOT);
            local.stats.states = 1;
            local.totals.on_state(0);
            if let Err(v) = visitor.state(initial) {
                return v(local.stats, render(initial, &[]));
            }
            if initial.all_done() {
                local.terminal(root);
                local.totals.incr(Metric::TerminalStates);
            } else {
                let fork = root_fork(initial, reduction, local.totals);
                local.pending.push(fork);
            }
        }
        Some(snap) => {
            for &fp in &snap.visited {
                if local.graph.index.id_of(fp, None).is_none() {
                    return Verdict::Error(local.stats, CheckError::TooManyStates);
                }
            }
            local.stats = Stats {
                states: snap.base.states as usize,
                transitions: snap.base.transitions as usize,
                terminal_states: snap.base.terminal_states as usize,
                ..Stats::default()
            };
            (local.base, local.prior) = (snap.base, snap.metrics);
            local.pending = snap.forks;
            local.pending.reverse();
        }
    }
    let mut halt = None;
    while let Some(task) = local.pending.pop() {
        if seeded {
            local.totals.incr(Metric::ResumeReplayed);
        }
        let index = &mut local.graph.index;
        let node = |fp| {
            index
                .id_of(fp, None)
                .expect("a fork point's state has an id")
                .0
        };
        let mut dfs = Dfs::start(initial, task, node, reduction);
        halt = dfs.run(config, local, visitor);
        local.totals.merge(&dfs.tally);
        if halt.is_some() {
            break;
        }
    }
    if seeded && matches!(halt, Some(Halt::Violation(..) | Halt::StateLimit)) {
        *local.totals = MetricsSnapshot::default();
        let unstoppable = CheckConfig {
            checkpoint: None,
            ..config.clone()
        };
        return sequential(initial, &unstoppable, deadline, None, local.totals);
    }
    let (stats, index) = (local.stats, &local.graph.index);
    match halt {
        Some(Halt::Violation(v, id)) => v(stats, render(initial, &index.path_to(id))),
        Some(Halt::StateLimit) => Verdict::StateLimit(stats),
        Some(Halt::TooManyStates) => Verdict::Error(stats, CheckError::TooManyStates),
        Some(Halt::Stopped) => {
            let coverage = local.coverage.take();
            let coverage = coverage.expect("poll records coverage when it stops");
            Verdict::Inconclusive(stats, coverage)
        }
        None => {
            local
                .totals
                .gauge_set(Gauge::DedupOccupancy, stats.states as u64);
            let stuck = config.check_termination.then(|| local.stuck()).flatten();
            match stuck {
                Some(mut schedules) => {
                    let alternates = schedules.split_off(1);
                    let cex = render(initial, &schedules[0]);
                    Verdict::NoTermination(stats, Counterexample { alternates, ..cex })
                }
                None => Verdict::Ok(stats),
            }
        }
    }
}

/// The walk of `config.engine`'s reduction, checking `config`'s
/// properties from the root or from the checkpoint `seed`: the diagnostic
/// bound `Some(u32::MAX)` selects the exhaustive walk
/// ([`Engine::Undo`](crate::Engine::Undo) itself), anything else the
/// reduced one. Under the termination check that walk puts nothing to
/// sleep; unbounded, it keeps its ample sets and enters each state once,
/// which keeps a stuck state in the graph the check reads whenever the
/// machine has one (DESIGN.md §5c). Its per-state tables are the thread's
/// spare, unless the run writes or resumes a checkpoint.
pub(crate) fn sequential<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    deadline: Option<Instant>,
    seed: Option<Snapshot>,
    totals: &mut MetricsSnapshot,
) -> Verdict {
    let visitor = &mut Properties::new(config);
    // Declared before the tables, the reduction drops after their
    // hand-off, so its frame buffers are freed after the tables: freed
    // first, they left `synth`'s small checks a more fragmented heap and
    // its peak RSS ~2 % higher.
    let mut reduced = None;
    let keep = config.checkpoint.is_none() && seed.is_none();
    let mut tables = spare::take(keep);
    let graph = std::mem::take(&mut tables.graph);
    let (verdict, graph) = match config.engine.reduction() {
        Some(u32::MAX) => {
            let red = &mut NoReduction;
            run_local(initial, config, deadline, seed, graph, red, visitor, totals)
        }
        bound => {
            let red = reduced.insert(SleepAmple::new(initial, config, bound, &mut tables));
            // A resumed run's table starts empty: the interrupted run
            // claimed the snapshot's states, and re-entering one prunes
            // less, never more.
            if seed.is_none() {
                red.claim_root(ROOT);
            }
            let walked = run_local(initial, config, deadline, seed, graph, red, visitor, totals);
            red.stow(&mut tables);
            walked
        }
    };
    tables.graph = graph;
    spare::give_back(tables, keep);
    verdict
}
