//! The search kernel: the one depth-first walk of `Exec_A(C; σ)` behind
//! every engine except the [`Engine::CloneDfs`](crate::Engine::CloneDfs)
//! oracle, which shares no loop with what it checks.
//!
//! [`Dfs::run`] owns step → fingerprint → first visit → per-state
//! [`Visitor`] → expand → undo on a single machine, and is statically
//! generic over two axes (DESIGN.md §5a):
//!
//! * a [`Reduction`] decides *which edges are walked*: [`NoReduction`]
//!   (zero-sized — every enabled choice, in the oracle's order) or
//!   [`SleepAmple`] (sleep sets, ample sets, reorder bound);
//! * a [`Frontier`] decides *who owns a state and when the walk stops*:
//!   [`Local`] (dense ids, exact stop points, verdicts rendered in
//!   place) or the work-stealing `Shared` frontier of [`crate::pardpor`].
//!   Its name for a state — the *node* — travels with every [`Edge`], so
//!   a reduction keys its own per-state data by it.
//!
//! The four kernel engines are the four pairs: `Undo` = `NoReduction` ×
//! `Local`, `Parallel` = `NoReduction` × `Shared`, `Dpor` = `SleepAmple`
//! × `Local`, `ParallelDpor` = `SleepAmple` × `Shared`. Termination is
//! checked on `Local` alone, over the graph of the one walk it runs: the
//! `Shared` engines run their `Local` twin under the check, since a task's
//! cycle proviso cannot vouch for a cycle through two workers' tasks. An
//! unbounded `Dpor` that checks termination keeps its ample sets and
//! drops its sleep sets ([`sequential`]).
//!
//! Every walk starts from a [`ForkPoint`] — a fresh run's is the root's
//! expansion ([`root_fork`]) — and every open frame serializes back into
//! one, which is all that checkpoints and donations are. Choices
//! of all frames live in one arena: a frame owns the window
//! `arena[lo..hi]` of choices still to take, and the top frame's region
//! is the arena's tail (where the cycle proviso appends to it). What a
//! step overwrote lives on the machine's own undo trail; a frame keeps
//! the 16-byte [`UndoToken`] that rewinds it, and the walk counts its
//! undos in the [`Tally`] it batches every per-edge counter in; the
//! frontier merges that tally into its check's totals when the walk ends.

use std::time::Instant;

use ftobs::{Gauge, Metric, Recorder, Tally};
use por::{BaseCounts, DenseHeads, ForkPoint, Snapshot};
use wbmem::{Footprint, Machine, Process, SchedElem, StepOutcome, UndoToken};

use crate::checker::{
    can_finish, in_cs_count, poll_observe, render, returns_are_permutation, run_meta_of,
    step_counted, violates_invariant, write_checkpoint, CheckConfig, CheckError, Counterexample,
    Coverage, SearchIndex, Stats, Verdict, DEADLINE_POLL_MASK,
};
use crate::dpor::SleepAmple;

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
pub(crate) struct Edge<N> {
    pub(crate) elem: SchedElem,
    /// What the step touched — `Local`, whatever it touched, unless the
    /// reduction asks for [`Reduction::FOOTPRINTS`].
    pub(crate) footprint: Footprint,
    /// Fingerprint of the state the edge landed on.
    pub(crate) to: u128,
    /// The frontier's name for that state.
    pub(crate) node: N,
    /// Whether the frontier saw that state for the first time.
    pub(crate) fresh: bool,
    /// Reorder budget left after the step (from [`Reduction::admit`]).
    pub(crate) budget: u32,
}

/// Which edges the walk takes. Owns the invariants of pruning: the
/// exploration *order* (and with it bit-identity to the oracle when
/// nothing is pruned), the dominance claim, and the cycle proviso. `N` is
/// how the frontier it runs under names states.
pub(crate) trait Reduction<P: Process, N> {
    /// Per-frame reduction state.
    type Frame;
    /// Frames take choices from the back of their arena window — the
    /// oracle's `Vec::pop` order — instead of the front.
    const LIFO: bool;
    /// Whether the reduction reads [`Edge::footprint`]. When it does not,
    /// the walk never asks the machine to predict one.
    const FOOTPRINTS: bool;

    /// A task starts: forget the previous task's DFS stack.
    fn begin_task(&mut self) {}
    /// The state fingerprinted by `fp` joined the DFS stack: a replayed
    /// ancestor of the task's state, that state itself, or a pushed child.
    fn on_stack(&mut self, _fp: impl FnOnce() -> u128) {}
    /// `frame` left the DFS stack.
    fn off_stack(&mut self, _frame: Self::Frame) {}
    /// A frame [`arrive`](Self::arrive) returned never joined the stack:
    /// its state had nothing to expand.
    fn discard(&mut self, _frame: Self::Frame) {}
    /// Reorder budget of the root state.
    fn root_budget(&self) -> u32 {
        u32::MAX
    }
    /// The frame that continues `task` at its state `fp`.
    fn adopt(&mut self, fp: u128, task: &mut ForkPoint) -> Self::Frame;
    /// Copy `frame`'s reduction state into the fork point serializing it.
    fn describe(_frame: &Self::Frame, _fork: &mut ForkPoint) {}
    /// Whether `elem` may be taken from `frame`'s state, and the reorder
    /// budget left if it is.
    fn admit(&self, m: &Machine<P>, frame: &Self::Frame, elem: SchedElem) -> Option<u32>;
    /// `edge` was taken from `top`: the child's frame if its state must
    /// be (re)explored, `None` (counted as pruned) if it is covered. May
    /// append reinstated choices for `top` to the arena's tail.
    fn arrive(
        &mut self,
        top: &mut Self::Frame,
        arena: &mut Vec<SchedElem>,
        edge: &Edge<N>,
        tally: &mut Tally,
    ) -> Option<Self::Frame>;
    /// Append the choices to walk from `frame`'s state — `m`'s current
    /// one, with `choices` enabled — to the arena. Under the termination
    /// check nothing is slept: the graph the check reads has no edge a
    /// sleep set skipped.
    fn expand(
        &mut self,
        m: &Machine<P>,
        choices: &[SchedElem],
        frame: &mut Self::Frame,
        arena: &mut Vec<SchedElem>,
        tally: &mut Tally,
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

impl<P: Process, N> Reduction<P, N> for NoReduction {
    type Frame = ();
    const LIFO: bool = true;
    const FOOTPRINTS: bool = false;

    fn adopt(&mut self, _fp: u128, _task: &mut ForkPoint) {}

    fn admit(&self, _m: &Machine<P>, _frame: &(), _elem: SchedElem) -> Option<u32> {
        Some(u32::MAX)
    }

    fn arrive(
        &mut self,
        _top: &mut (),
        _arena: &mut Vec<SchedElem>,
        edge: &Edge<N>,
        tally: &mut Tally,
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
        _frame: &mut (),
        arena: &mut Vec<SchedElem>,
        _tally: &mut Tally,
    ) {
        arena.extend_from_slice(choices);
    }
}

/// Who owns a state and when the walk stops. Owns the first-visit gate
/// (state counting and property checks happen once per state), the
/// stop/checkpoint discipline, and — [`Local`] only — the termination
/// graph.
pub(crate) trait Frontier<P: Process>: Sized {
    /// How a state is named: a dense id, or its fingerprint.
    type Node: Copy;

    /// Loop iterations between [`poll`](Self::poll)s, minus one (a
    /// power-of-two mask; `0` polls before every iteration).
    fn poll_mask(&self) -> usize;
    /// Called before loop iteration `iters`; `true` stops the walk
    /// ([`Halt::Stopped`]) with the details recorded in the frontier.
    fn poll<R: Reduction<P, Self::Node>>(
        &mut self,
        dfs: &mut Dfs<'_, P, R, Self::Node>,
        iters: usize,
    ) -> bool;
    /// An effective step was executed.
    fn transition(&mut self);
    /// The step `elem` from `from` landed on `fp`: its node and whether
    /// this is the state's first visit (recording the edge under the
    /// termination check). `None` once node names run out.
    fn visit(&mut self, fp: u128, from: Self::Node, elem: SchedElem) -> Option<(Self::Node, bool)>;
    /// The reduction refused a choice at `from` (the reorder bound): the
    /// termination graph is missing that edge, so nothing may be concluded
    /// from `from` failing to finish in it. The shared frontier, which
    /// never runs under the termination check, ignores this.
    fn refused(&mut self, _from: Self::Node) {}
    /// Count a first-visited state; returns the total so far.
    fn count_state(&mut self) -> usize;
    /// A first-visited state is all-done.
    fn terminal(&mut self, node: Self::Node);
}

/// Why [`Dfs::run`] returned before exhausting its task.
pub(crate) enum Halt<N> {
    /// The visitor rejected the state `N`.
    Violation(Violation, N),
    /// More than `max_states` states were counted.
    StateLimit,
    /// [`Frontier::visit`] ran out of node names.
    TooManyStates,
    /// [`Frontier::poll`] stopped the walk.
    Stopped,
}

struct Frame<P, N, S> {
    node: N,
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
fn undo<P: Process>(m: &mut Machine<P>, tally: &mut Tally, token: UndoToken<P>) {
    tally.incr(Metric::UndoSteps);
    m.undo(token);
}

/// One task's walk: a machine, its DFS stack, and the choice arena.
pub(crate) struct Dfs<'a, P: Process, R: Reduction<P, N>, N> {
    m: Machine<P>,
    red: &'a mut R,
    /// Batches the per-edge counters until the frontier merges them into
    /// its check's totals.
    pub(crate) tally: Tally,
    arena: Vec<SchedElem>,
    scratch: Vec<SchedElem>,
    frames: Vec<Frame<P, N, R::Frame>>,
    /// The schedule from the root to the top frame's state: frame `i` is
    /// reached by its first `base + i` elements. This is the *stack*
    /// path, not the first-visit parent chain: fork points replay it to
    /// restore the exact reduction state.
    path: Vec<SchedElem>,
    base: usize,
}

impl<'a, P: Process, R: Reduction<P, N>, N: Copy> Dfs<'a, P, R, N> {
    /// Re-materialize `task` — its state named by `node` — on a clone of
    /// `initial` by replaying its path — outside [`step_counted`], so
    /// replays never reach the step metrics. The clone forgets its
    /// locality tracker ([`Machine::forget_locality`]): a walk computes
    /// states, not what one execution through them costs. The replayed ancestors
    /// re-seed the reduction's on-stack set, so the cycle proviso fires
    /// for a thief exactly where it would have for the donor. A path that
    /// fails to replay is a logic error (the coordinator catches the
    /// panic).
    pub(crate) fn start(
        initial: &Machine<P>,
        mut task: ForkPoint,
        node: impl FnOnce(u128) -> N,
        red: &'a mut R,
        obs: &Recorder,
    ) -> Self {
        let mut m = initial.clone();
        m.forget_locality();
        let mut scratch = Vec::new();
        red.begin_task();
        for e in &task.path {
            red.on_stack(|| m.fingerprint());
            assert!(
                m.replay_path(std::slice::from_ref(e), &mut scratch),
                "fork-point path failed to replay"
            );
        }
        let fp = m.fingerprint();
        red.on_stack(|| fp);
        let frame = red.adopt(fp, &mut task);
        let mut arena = std::mem::take(&mut task.choices);
        if R::LIFO {
            arena.reverse();
        }
        let root = Frame {
            node: node(fp),
            start: 0,
            lo: 0,
            hi: arena.len(),
            token: None,
            red: frame,
        };
        Dfs {
            m,
            red,
            tally: obs.tally(),
            arena,
            scratch,
            frames: vec![root],
            base: task.path.len(),
            path: task.path,
        }
    }

    /// Open frames.
    pub(crate) fn depth(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn sleep_hits(&self) -> usize {
        self.red.sleep_hits()
    }

    /// Choices frame `i` has still to take.
    fn open(&self, i: usize) -> usize {
        self.frames[i].hi - self.frames[i].lo
    }

    /// The bottom-most frame below the top with choices to take — the
    /// largest subtrees sit lowest, and the owner keeps its top frame so
    /// it never strands itself.
    pub(crate) fn donor(&self) -> Option<usize> {
        (0..self.frames.len() - 1).find(|&i| self.open(i) > 0)
    }

    /// Frame `i`'s unexplored remainder as a fork point: its choices in
    /// exploration order plus the exact reduction state, so whoever
    /// continues it prunes no more and no less than this walk would.
    pub(crate) fn fork_at(&self, i: usize) -> ForkPoint {
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
        R::describe(&f.red, &mut fork);
        fork
    }

    /// Frame `i`'s remainder now belongs to someone else.
    pub(crate) fn close(&mut self, i: usize) {
        self.frames[i].lo = self.frames[i].hi;
    }

    /// Every open frame with choices to take, as fork points.
    pub(crate) fn open_forks(&self) -> Vec<ForkPoint> {
        (0..self.frames.len())
            .filter(|&i| self.open(i) > 0)
            .map(|i| self.fork_at(i))
            .collect()
    }

    /// Walk the task to exhaustion, or until something halts it.
    pub(crate) fn run<F: Frontier<P, Node = N>, V: Visitor<P>>(
        &mut self,
        config: &CheckConfig,
        frontier: &mut F,
        visitor: &mut V,
    ) -> Option<Halt<N>> {
        let (poll_mask, mut iters) = (frontier.poll_mask(), 0usize);
        while !self.frames.is_empty() {
            iters += 1;
            if iters & poll_mask == 0 && frontier.poll(self, iters) {
                return Some(Halt::Stopped);
            }
            let depth = self.frames.len();
            let top = self.frames.last_mut().expect("non-empty stack");
            if top.lo == top.hi {
                // Frame exhausted: rewind to the parent state.
                let frame = self.frames.pop().expect("non-empty stack");
                self.red.off_stack(frame.red);
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
            let Some(budget) = self.red.admit(&self.m, &top.red, elem) else {
                frontier.refused(top.node);
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
            frontier.transition();
            self.tally.incr(Metric::Transitions);
            let fp = self.m.fingerprint();
            let Some((node, fresh)) = frontier.visit(fp, top.node, elem) else {
                return Some(Halt::TooManyStates);
            };
            let edge = Edge {
                elem,
                footprint: token.footprint(),
                to: fp,
                node,
                fresh,
                budget,
            };
            let child = self
                .red
                .arrive(&mut top.red, &mut self.arena, &edge, &mut self.tally);
            if !R::LIFO {
                top.hi = self.arena.len();
            }
            let Some(mut child) = child else {
                undo(&mut self.m, &mut self.tally, token);
                continue;
            };

            let done = self.m.all_done();
            if fresh {
                self.tally.on_state(depth as u64);
                if frontier.count_state() > config.max_states {
                    return Some(Halt::StateLimit);
                }
                if let Err(v) = visitor.state(&self.m) {
                    return Some(Halt::Violation(v, node));
                }
                if done {
                    frontier.terminal(node);
                    self.tally.incr(Metric::TerminalStates);
                    if let Err(v) = visitor.terminal(&self.m) {
                        return Some(Halt::Violation(v, node));
                    }
                }
            }
            if done {
                // Nothing to expand (fresh, or re-entered under a
                // smaller sleep set).
                self.red.discard(child);
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
                &mut child,
                &mut self.arena,
                &mut self.tally,
            );
            self.red.on_stack(|| fp);
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
        None
    }
}

/// The root state's expansion as the fork point a fresh run starts from;
/// its reduction decision is counted into `tally`.
pub(crate) fn root_fork<P: Process, N, R: Reduction<P, N>>(
    initial: &Machine<P>,
    red: &mut R,
    tally: &mut Tally,
) -> ForkPoint {
    let mut fork = ForkPoint {
        remaining: red.root_budget(),
        ..ForkPoint::default()
    };
    let mut frame = red.adopt(initial.fingerprint(), &mut fork);
    let mut choices = Vec::new();
    let enabled = initial.choices();
    red.expand(initial, &enabled, &mut frame, &mut choices, tally);
    if R::LIFO {
        choices.reverse();
    }
    R::describe(&frame, &mut fork);
    fork.choices = choices;
    fork
}

/// The id [`Local`] gives the root: the first one a [`SearchIndex`] hands
/// out.
const ROOT: u32 = 0;

/// The single-threaded frontier: dense [`SearchIndex`] ids with
/// first-visit parents, stop triggers polled at every transition
/// boundary (so the `stop_after` cut is exact), and verdicts —
/// counterexamples included — rendered in place.
pub(crate) struct Local<'a> {
    config: &'a CheckConfig,
    /// The check's totals: the root's counts until the walk ends, then
    /// the walk's too.
    totals: &'a mut Tally,
    deadline: Option<Instant>,
    stats: Stats,
    index: SearchIndex,
    edges: Vec<(u32, u32)>,
    terminal: Vec<u32>,
    /// States with an out-edge the reorder bound refused.
    refused: Vec<u32>,
    /// Set when [`Frontier::poll`] stops the walk.
    coverage: Option<Coverage>,
}

impl Local<'_> {
    /// Serialize the live walk into a durable [`Snapshot`] and write it.
    /// `dispatch` refused the policy if the walk checks termination, so
    /// there is no graph to keep.
    fn checkpoint<P: Process, R: Reduction<P, u32>>(
        &mut self,
        dfs: &Dfs<'_, P, R, u32>,
    ) -> Option<std::path::PathBuf> {
        let policy = self.config.checkpoint.as_ref()?;
        let mut visited: Vec<u128> = (0..self.index.len() as u32)
            .map(|id| self.index.fp_of(id))
            .collect();
        visited.sort_unstable();
        let snap = Snapshot {
            meta: run_meta_of(self.config, self.index.fp_of(0)),
            base: BaseCounts {
                states: self.stats.states as u64,
                transitions: self.stats.transitions as u64,
                terminal_states: self.stats.terminal_states as u64,
                sleep_hits: dfs.sleep_hits() as u64,
            },
            metrics: self.totals.snapshot().merged(&dfs.tally.snapshot()),
            forks: dfs.open_forks(),
            visited,
        };
        write_checkpoint(&self.config.recorder, self.totals, policy, &snap)
    }
}

impl<P: Process> Frontier<P> for Local<'_> {
    type Node = u32;

    fn poll_mask(&self) -> usize {
        // Stop triggers are checked at every transition boundary, so the
        // deterministic `stop_after` cut is exact.
        match self.config.checkpoint {
            Some(_) => 0,
            None => DEADLINE_POLL_MASK,
        }
    }

    #[inline(never)]
    fn poll<R: Reduction<P, u32>>(&mut self, dfs: &mut Dfs<'_, P, R, u32>, iters: usize) -> bool {
        let config = self.config;
        let policy = config.checkpoint.as_ref();
        let transitions = self.stats.transitions as u64;
        let mut stop = policy.is_some_and(|p| p.stop_requested(transitions));
        if !stop && iters & DEADLINE_POLL_MASK == 0 {
            let (depth, states) = (dfs.depth(), self.stats.states);
            stop = poll_observe(
                &config.recorder,
                &mut dfs.tally,
                &self.stats,
                depth,
                states,
                config.budget,
                self.deadline,
            );
        }
        if stop {
            self.coverage = Some(Coverage {
                frontier: dfs.depth(),
                sleep_hits: dfs.sleep_hits(),
                checkpoint: self.checkpoint(dfs),
            });
        }
        stop
    }

    fn transition(&mut self) {
        self.stats.transitions += 1;
    }

    fn visit(&mut self, fp: u128, from: u32, elem: SchedElem) -> Option<(u32, bool)> {
        let (id, new) = self.index.id_of(fp, Some((from, elem)))?;
        if self.config.check_termination {
            self.edges.push((from, id));
        }
        Some((id, new))
    }

    fn refused(&mut self, from: u32) {
        if self.config.check_termination {
            self.refused.push(from);
        }
    }

    fn count_state(&mut self) -> usize {
        self.stats.states += 1;
        self.stats.states
    }

    fn terminal(&mut self, id: u32) {
        self.stats.terminal_states += 1;
        self.terminal.push(id);
    }
}

impl Local<'_> {
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
        let finish: Vec<u32> = self.terminal.iter().chain(&self.refused).copied().collect();
        let can_finish = can_finish(self.index.len(), &self.edges, &finish);
        let first = can_finish.iter().position(|&c| !c)? as u32;
        let mut entries = self.index.stuck_entries(&can_finish);
        if entries.is_empty() {
            entries.push(first); // the root: nothing enters it
        }
        debug_assert_eq!(entries[0], first);
        Some(entries.iter().map(|&id| self.index.path_to(id)).collect())
    }
}

/// The sequential engines: `reduction` × [`Local`], one task, the root's,
/// counted into `totals`.
pub(crate) fn run_local<P: Process, R: Reduction<P, u32>, V: Visitor<P>>(
    initial: &Machine<P>,
    config: &CheckConfig,
    deadline: Option<Instant>,
    mut reduction: R,
    visitor: &mut V,
    totals: &mut Tally,
) -> Verdict {
    let obs = &config.recorder;
    let mut local = Local {
        config,
        totals,
        deadline,
        stats: Stats::default(),
        index: SearchIndex::default(),
        edges: Vec::new(),
        terminal: Vec::new(),
        refused: Vec::new(),
        coverage: None,
    };
    let (root, _) = local
        .index
        .id_of(initial.fingerprint(), None)
        .expect("the first id");
    debug_assert_eq!(root, ROOT);
    local.stats.states = 1;
    local.totals.on_state(0);
    if let Err(v) = visitor.state(initial) {
        return v(local.stats, render(initial, &[]));
    }
    let mut halt = None;
    if initial.all_done() {
        Frontier::<P>::terminal(&mut local, root);
        local.totals.incr(Metric::TerminalStates);
    } else {
        let task = root_fork(initial, &mut reduction, local.totals);
        let mut dfs = Dfs::start(initial, task, |_| root, &mut reduction, obs);
        halt = dfs.run(config, &mut local, visitor);
        local.totals.merge(&dfs.tally);
    }
    let (stats, index) = (local.stats, &local.index);
    match halt {
        Some(Halt::Violation(v, id)) => v(stats, render(initial, &index.path_to(id))),
        Some(Halt::StateLimit) => Verdict::StateLimit(stats),
        Some(Halt::TooManyStates) => Verdict::Error(stats, CheckError::TooManyStates),
        Some(Halt::Stopped) => {
            let coverage = local.coverage.expect("poll records coverage when it stops");
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

/// The sequential engine of `config.engine`'s reduction, checking
/// `config`'s properties: the diagnostic bound `Some(u32::MAX)` selects
/// the exhaustive walk ([`Engine::Undo`](crate::Engine::Undo) itself),
/// anything else the reduced one. Under the termination check that walk
/// puts nothing to sleep; unbounded, it keeps its ample sets and enters
/// each state once, which keeps a stuck state in the graph the check
/// reads whenever the machine has one (DESIGN.md §5c).
pub(crate) fn sequential<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    deadline: Option<Instant>,
    totals: &mut Tally,
) -> Verdict {
    let visitor = &mut Properties::new(config);
    match config.engine.reduction() {
        Some(u32::MAX) => run_local(initial, config, deadline, NoReduction, visitor, totals),
        bound => {
            let mut reduction = SleepAmple::<DenseHeads>::new(initial, config, bound);
            reduction.claim_root(ROOT);
            run_local(initial, config, deadline, reduction, visitor, totals)
        }
    }
}
