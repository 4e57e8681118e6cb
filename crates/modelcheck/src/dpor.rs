//! The partial-order-reduction engine ([`Engine::Dpor`]).
//!
//! A depth-first search over the same state space as [`Engine::Undo`],
//! pruned by the `por` crate's machinery:
//!
//! * **Sleep sets** skip transitions whose effect was already explored on
//!   an independent sibling branch. Sleep sets prune *edges only* — every
//!   reachable state is still visited — so they are safe under every
//!   checked property, including termination.
//! * **Ample sets** skip whole subtrees by scheduling a single process
//!   whose pending choices are invisible and independent of every other
//!   process's future. Ample pruning drops states, which is exactly the
//!   point — but the explored edge graph then under-approximates
//!   reachability, so ample selection is **disabled when
//!   `check_termination` is on** (the termination verdict needs the full
//!   graph). The cycle proviso (no ample step may close a DFS cycle
//!   without a full expansion) is enforced here, on the stack.
//! * **Reorder bound** (optional): prune schedules that overtake pending
//!   buffered writes more than `k` times. A bounded `Ok` is a bounded
//!   claim; violations found under a bound are always real executions.
//!
//! With the termination check on, the search additionally *probes* every
//! slept choice one step deep (step → fingerprint → undo) so the edge
//! graph handed to the reverse-reachability pass is the full graph over
//! the visited states; probes are bookkeeping, not exploration, and are
//! not counted as transitions.

use std::time::Instant;

use ftobs::{Gauge, Metric, MetricsSnapshot, Recorder, TreeEstimator};
use por::{expand, step_weight, BaseCounts, ForkPoint, RunMeta, SleepSet, Snapshot, VisitTable};
use wbmem::{Footprint, FpMap, Machine, Process, SchedElem, StepOutcome, UndoToken};

use crate::checker::{
    config_hash, find_stuck, in_cs_count, poll_observe, render, returns_are_permutation,
    violates_invariant, write_checkpoint, CheckConfig, CheckError, Coverage, PeriodicCheckpoint,
    SearchIndex, Stats, Verdict, DEADLINE_POLL_MASK,
};

/// One frame of the reduced DFS. Unlike the undo engine's arena frames,
/// each frame owns its choice vector: the cycle proviso can grow it after
/// the fact (ample-excluded choices are appended when a reduced step
/// closes a cycle).
struct DFrame<P> {
    id: u32,
    fp: u128,
    /// Sleep set this state was entered with.
    sleep: SleepSet,
    /// Choices still to explore; consumed front to back via `next`.
    choices: Vec<SchedElem>,
    next: usize,
    /// Siblings already explored from this state, with their footprints —
    /// the candidates to put to sleep in later children.
    taken: Vec<(SchedElem, Footprint)>,
    /// Ample-pruned choices, re-added to `choices` if the proviso fires.
    excluded: Vec<SchedElem>,
    /// Remaining reorder budget on entry to this state.
    remaining: u32,
    /// How to rewind the machine to the parent (None at the root).
    token: Option<UndoToken<P>>,
}

/// Step every slept choice once to record its edge in the termination
/// graph, undoing immediately. The machine must currently be at the state
/// `parent_id` denotes.
fn probe_slept_edges<P: Process>(
    m: &mut Machine<P>,
    parent_id: u32,
    choices: &[SchedElem],
    sleep: &SleepSet,
    index: &mut SearchIndex,
    edges: &mut Vec<(u32, u32)>,
    obs: &Recorder,
) -> Result<(), CheckError> {
    for &e in choices.iter().filter(|&&e| sleep.contains(e)) {
        obs.incr(Metric::SleptProbes);
        let (out, token) = m.step_recorded(e);
        if !matches!(out, StepOutcome::NoOp) {
            let fp = m.fingerprint();
            let Some((child_id, _)) = index.id_of(fp, Some((parent_id, e))) else {
                m.undo(token);
                return Err(CheckError::TooManyStates);
            };
            edges.push((parent_id, child_id));
        }
        m.undo(token);
    }
    Ok(())
}

/// Serialize the reduced DFS into a durable [`Snapshot`]: one
/// [`ForkPoint`] per frame with unconsumed choices, carrying the exact
/// reduction state (sleep set, taken siblings, ample-excluded choices,
/// remaining reorder budget) so a resumed continuation prunes no more
/// and no less than this run would have. Frame `i`'s state is reached by
/// replaying `path[..i]`.
#[allow(clippy::too_many_arguments)]
fn dpor_snapshot<P: Process>(
    config: &CheckConfig,
    root_fp: u128,
    stats: &Stats,
    sleep_hits: usize,
    metrics: MetricsSnapshot,
    frames: &[DFrame<P>],
    path: &[SchedElem],
    visited: &VisitTable,
    index: &SearchIndex,
    edges: &[(u32, u32)],
    terminal: &[u32],
) -> Snapshot {
    let forks = frames
        .iter()
        .enumerate()
        .filter(|(_, f)| f.next < f.choices.len())
        .map(|(i, f)| ForkPoint {
            path: path[..i].to_vec(),
            sleep: f.sleep.clone(),
            taken: f.taken.clone(),
            choices: f.choices[f.next..].to_vec(),
            excluded: f.excluded.clone(),
            remaining: f.remaining,
            span: config.recorder.trace_root().0,
        })
        .collect();
    Snapshot {
        meta: RunMeta {
            engine: config.engine.label().to_string(),
            config_hash: config_hash(config),
            program_hash: root_fp,
        },
        base: BaseCounts {
            states: stats.states as u64,
            transitions: stats.transitions as u64,
            terminal_states: stats.terminal_states as u64,
            sleep_hits: sleep_hits as u64,
        },
        metrics,
        forks,
        visited: visited.fingerprints(),
        edges: edges
            .iter()
            .map(|&(a, b)| (index.fp_of(a), index.fp_of(b)))
            .collect(),
        terminals: terminal.iter().map(|&t| index.fp_of(t)).collect(),
    }
}

/// The DPOR search; see the module docs. Entered via
/// [`crate::check`] with [`Engine::Dpor`](crate::Engine::Dpor).
pub(crate) fn check_dpor<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    reorder_bound: Option<u32>,
    deadline: Option<Instant>,
) -> Verdict {
    let model = initial.config().model;
    let obs = &config.recorder;
    // `Some(u32::MAX)` is the diagnostic disabled-reduction mode (see
    // [`crate::Engine::Dpor`]): the bound is unreachable, sleep sets stay
    // empty, ample selection is off, and choices are consumed in the
    // exhaustive engines' order, so the run's metrics are bit-identical
    // to [`crate::Engine::Undo`]'s.
    let disable_reduction = reorder_bound == Some(u32::MAX);
    // Ample pruning drops states; the termination check needs all of them.
    let use_ample = !config.check_termination && !disable_reduction;
    let budget0 = reorder_bound.unwrap_or(u32::MAX);

    let mut visited = VisitTable::new();
    // Batches the per-edge counters; flushed into the recorder on every
    // exit path by its Drop impl. Sleep/ample/probe counters stay live:
    // they are DPOR-specific and comparatively rare.
    let mut tally = obs.tally();
    let mut est = TreeEstimator::new();
    est.begin_task();
    let mut stats = Stats::default();
    let mut sleep_hits = 0usize;
    let mut index = SearchIndex::default();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut terminal: Vec<u32> = Vec::new();
    // Fingerprints currently on the DFS stack (a multiset: re-exploration
    // under a smaller sleep set can nest a state inside itself).
    let mut on_stack: FpMap<u32> = FpMap::default();

    let root_fp = initial.fingerprint();
    let Some((root_id, _)) = index.id_of(root_fp, None) else {
        return Verdict::Error(stats, CheckError::TooManyStates);
    };
    let root_sleep = SleepSet::new();
    visited.try_claim(root_fp, &root_sleep, budget0);
    stats.states = 1;
    tally.on_state(0);

    if config.check_mutex && in_cs_count(initial) > 1 {
        return Verdict::MutexViolation(stats, render(initial, &[]));
    }
    if violates_invariant(config, initial) {
        return Verdict::InvariantViolation(stats, render(initial, &[]));
    }
    if initial.all_done() {
        terminal.push(root_id);
        stats.terminal_states = 1;
        tally.terminal_state();
    }

    // The working clone carries the recorder; `initial` stays unrecorded
    // so counterexample replays do not pollute the metrics.
    let mut m = initial.clone();
    m.set_recorder(obs.clone());
    let mut frames: Vec<DFrame<P>> = Vec::new();
    let mut scratch: Vec<SchedElem> = Vec::new();
    let policy = config.checkpoint.as_ref();
    let mut periodic = policy.map(PeriodicCheckpoint::new);
    // The schedule from the root to the current top frame's state
    // (`path[..i]` reaches frame `i`). This is the *stack* path, not the
    // first-visit parent chain in `index` — the two can differ when a
    // state is re-entered under a smaller sleep set, and fork points
    // must replay the stack path to restore the exact reduction state.
    let mut path: Vec<SchedElem> = Vec::new();

    if !initial.all_done() {
        m.choices_into(&mut scratch);
        let mut x = expand(&m, &scratch, &root_sleep, use_ample, obs);
        if disable_reduction {
            // Consume back-to-front like the undo engine (it pops from the
            // arena end; we advance `next` forward).
            x.explore.reverse();
        }
        sleep_hits += x.slept;
        on_stack.insert(root_fp, 1);
        est.push(x.explore.len());
        frames.push(DFrame {
            id: root_id,
            fp: root_fp,
            sleep: root_sleep,
            choices: x.explore,
            next: 0,
            taken: Vec::new(),
            excluded: x.excluded,
            remaining: budget0,
            token: None,
        });
    }

    let mut iters = 0usize;
    while !frames.is_empty() {
        iters += 1;
        if let Some(pol) = policy {
            // Checked every iteration (not at poll granularity) so the
            // deterministic stop_after cut is exact.
            if pol.stop_requested(stats.transitions as u64) {
                tally.flush();
                let snap = dpor_snapshot(
                    config,
                    root_fp,
                    &stats,
                    sleep_hits,
                    obs.snapshot(),
                    &frames,
                    &path,
                    &visited,
                    &index,
                    &edges,
                    &terminal,
                );
                let frontier = frames.len();
                return Verdict::Inconclusive(
                    stats,
                    Coverage {
                        frontier,
                        sleep_hits,
                        checkpoint: write_checkpoint(obs, pol, &snap),
                        ..Coverage::default()
                    }
                    .with_estimate(est.estimate(stats.states as u64)),
                );
            }
        }
        if iters & DEADLINE_POLL_MASK == 0 {
            let over_occupancy = policy
                .and_then(|p| p.max_occupancy)
                .is_some_and(|cap| visited.len() >= cap);
            let estimate = est.estimate(stats.states as u64);
            if poll_observe(
                obs,
                &stats,
                frames.len(),
                visited.len(),
                config.budget,
                deadline,
                estimate,
            ) || over_occupancy
            {
                let checkpoint = policy.and_then(|pol| {
                    tally.flush();
                    let snap = dpor_snapshot(
                        config,
                        root_fp,
                        &stats,
                        sleep_hits,
                        obs.snapshot(),
                        &frames,
                        &path,
                        &visited,
                        &index,
                        &edges,
                        &terminal,
                    );
                    write_checkpoint(obs, pol, &snap)
                });
                return Verdict::Inconclusive(
                    stats,
                    Coverage {
                        frontier: frames.len(),
                        sleep_hits,
                        checkpoint,
                        ..Coverage::default()
                    }
                    .with_estimate(estimate),
                );
            }
            if let (Some(pol), Some(per)) = (policy, periodic.as_mut()) {
                if per.due(pol, stats.transitions as u64) {
                    tally.flush();
                    let snap = dpor_snapshot(
                        config,
                        root_fp,
                        &stats,
                        sleep_hits,
                        obs.snapshot(),
                        &frames,
                        &path,
                        &visited,
                        &index,
                        &edges,
                        &terminal,
                    );
                    let _ = write_checkpoint(obs, pol, &snap);
                }
            }
        }
        let Some(top) = frames.last_mut() else { break };
        if top.next == top.choices.len() {
            let frame = frames.pop().expect("non-empty stack");
            est.pop();
            match on_stack.get_mut(&frame.fp) {
                Some(1) => {
                    on_stack.remove(&frame.fp);
                }
                Some(c) => *c -= 1,
                None => unreachable!("frame fingerprint missing from the stack set"),
            }
            if let Some(token) = frame.token {
                m.undo(token);
                path.pop();
            }
            continue;
        }
        let elem = top.choices[top.next];
        top.next += 1;
        let parent_id = top.id;
        let parent_remaining = top.remaining;

        // In diagnostic mode the bound is unreachable by construction;
        // skipping the weighing keeps the visit table's budget constant,
        // degenerating it into a plain visited set.
        let weight = if disable_reduction {
            0
        } else {
            step_weight(&m, elem)
        };
        if weight > parent_remaining {
            est.leaf();
            continue; // beyond the reorder bound: neither taken nor slept
        }

        let (out, token) = m.step_recorded(elem);
        if matches!(out, StepOutcome::NoOp) {
            tally.noop_step();
            est.leaf();
            m.undo(token);
            continue;
        }
        let efp = token.footprint();
        stats.transitions += 1;
        tally.on_transition();
        let fp = m.fingerprint();
        let Some((child_id, _)) = index.id_of(fp, Some((parent_id, elem))) else {
            return Verdict::Error(stats, CheckError::TooManyStates);
        };
        if config.check_termination {
            edges.push((parent_id, child_id));
        }

        // Cycle proviso (C3): a reduced step that lands on a state still
        // on the stack could postpone the pruned processes forever around
        // the cycle; fall back to full expansion of this frame.
        if on_stack.contains_key(&fp) && !top.excluded.is_empty() {
            let reinstated: Vec<SchedElem> = top.excluded.drain(..).collect();
            for e in reinstated {
                if top.sleep.contains(e) {
                    sleep_hits += 1;
                    obs.incr(Metric::SleepHits);
                } else {
                    top.choices.push(e);
                }
            }
        }

        // Sleep set for the child: surviving inherited entries, plus every
        // already-explored sibling that is independent of this step. In
        // diagnostic mode sleep sets stay empty and the sibling
        // bookkeeping is skipped entirely.
        let mut child_sleep = if disable_reduction {
            SleepSet::new()
        } else {
            top.sleep.inherit(efp, model)
        };
        if !disable_reduction {
            for &(se, sf) in &top.taken {
                if sf.independent(efp, model) {
                    child_sleep.insert(se, sf);
                }
            }
            top.taken.push((elem, efp));
        }

        let child_remaining = parent_remaining - weight;
        let fresh = !visited.seen(fp);
        if !visited.try_claim(fp, &child_sleep, child_remaining) {
            est.leaf();
            if disable_reduction {
                // With empty sleeps and a constant budget every revisit is
                // dominated: this is plain dedup, as in the undo engine.
                tally.dedup_hit();
            } else {
                sleep_hits += 1;
                obs.incr(Metric::SleepHits);
            }
            m.undo(token);
            continue;
        }

        if fresh {
            stats.states += 1;
            tally.on_state(frames.len() as u64);
            if stats.states > config.max_states {
                return Verdict::StateLimit(stats);
            }
            if config.check_mutex && in_cs_count(&m) > 1 {
                return Verdict::MutexViolation(stats, render(initial, &index.path_to(child_id)));
            }
            if violates_invariant(config, &m) {
                return Verdict::InvariantViolation(
                    stats,
                    render(initial, &index.path_to(child_id)),
                );
            }
            if m.all_done() {
                stats.terminal_states += 1;
                terminal.push(child_id);
                tally.terminal_state();
                est.leaf();
                if config.check_permutation && !returns_are_permutation(&m) {
                    return Verdict::PermutationViolation(
                        stats,
                        render(initial, &index.path_to(child_id)),
                    );
                }
                m.undo(token);
                continue;
            }
        } else if m.all_done() {
            // Re-entered terminal state (smaller sleep set): nothing to do.
            est.leaf();
            m.undo(token);
            continue;
        }

        m.choices_into(&mut scratch);
        debug_assert!(!scratch.is_empty(), "non-terminal state has no choices");
        let mut x = expand(&m, &scratch, &child_sleep, use_ample, obs);
        if disable_reduction {
            x.explore.reverse();
        }
        sleep_hits += x.slept;
        if config.check_termination && x.slept > 0 {
            if let Err(e) = probe_slept_edges(
                &mut m,
                child_id,
                &scratch,
                &child_sleep,
                &mut index,
                &mut edges,
                obs,
            ) {
                return Verdict::Error(stats, e);
            }
        }
        *on_stack.entry(fp).or_insert(0) += 1;
        est.push(x.explore.len());
        frames.push(DFrame {
            id: child_id,
            fp,
            sleep: child_sleep,
            choices: x.explore,
            next: 0,
            taken: Vec::new(),
            excluded: x.excluded,
            remaining: child_remaining,
            token: Some(token),
        });
        path.push(elem);
    }

    obs.gauge_set(Gauge::DedupOccupancy, visited.len() as u64);
    if config.check_termination {
        if let Some(stuck) = find_stuck(index.len(), &edges, &terminal) {
            return Verdict::NoTermination(stats, render(initial, &index.path_to(stuck)));
        }
    }

    Verdict::Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, Engine};
    use simlocks::{build_mutex, FenceMask, LockKind};
    use wbmem::MemoryModel;

    fn dpor() -> Engine {
        Engine::Dpor {
            reorder_bound: None,
        }
    }

    fn cfg() -> CheckConfig {
        CheckConfig::default().with_engine(dpor())
    }

    #[test]
    fn fully_fenced_peterson_is_correct_under_all_models() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let v = check(&inst.machine(model), &cfg());
            assert!(v.is_ok(), "{model}: {}", v.label());
        }
    }

    #[test]
    fn broken_peterson_is_still_caught_and_replays() {
        let mask = FenceMask::only(&[simlocks::peterson::SITE_VICTIM]);
        let inst = build_mutex(LockKind::Peterson, 2, mask);
        let v = check(&inst.machine(MemoryModel::Pso), &cfg());
        let Verdict::MutexViolation(_, cex) = v else {
            panic!("expected violation, got {}", v.label());
        };
        // The schedule must reproduce the violation on an unreduced machine.
        let mut m = inst.machine(MemoryModel::Pso);
        for &e in &cex.schedule {
            assert!(
                !matches!(m.step(e), StepOutcome::NoOp),
                "counterexample contains a no-op step"
            );
        }
        assert_eq!(in_cs_count(&m), 2, "replay reaches the double-CS state");
    }

    #[test]
    fn reduction_shrinks_the_explored_space() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let base = CheckConfig {
            check_termination: false, // enable ample pruning
            ..CheckConfig::default()
        };
        let full = check(&inst.machine(MemoryModel::Pso), &base);
        let reduced = check(
            &inst.machine(MemoryModel::Pso),
            &base.clone().with_engine(dpor()),
        );
        assert!(full.is_ok() && reduced.is_ok());
        assert!(
            reduced.stats().states < full.stats().states,
            "dpor {} vs undo {}",
            reduced.stats().states,
            full.stats().states
        );
        assert!(reduced.stats().transitions < full.stats().transitions);
    }

    #[test]
    fn termination_violations_agree_with_undo() {
        // Naive TTAS deadlocks under crashes; the DPOR engine (sleep sets
        // plus edge probing, no ample) must find the same verdict.
        let inst = build_mutex(LockKind::Ttas, 2, FenceMask::ALL);
        let mut config = cfg();
        config.max_states = 500_000;
        config.check_termination = true;
        let config = config.with_crashes(wbmem::CrashSemantics::DiscardBuffer, 1);
        let v = check(&inst.machine(MemoryModel::Pso), &config);
        assert!(
            matches!(v, Verdict::NoTermination(..)),
            "expected NO-TERMINATION, got {}",
            v.label()
        );
    }

    #[test]
    fn reorder_bound_zero_matches_sc_verdicts() {
        // Fenceless Peterson violates mutex under PSO via write overtaking,
        // but is correct under SC. Bound 0 restricts PSO exploration to
        // SC-equivalent schedules, so the violation disappears.
        let mask = FenceMask::only(&[simlocks::peterson::SITE_RELEASE]);
        let inst = build_mutex(LockKind::Peterson, 2, mask);
        let full = check(&inst.machine(MemoryModel::Pso), &cfg());
        assert!(matches!(full, Verdict::MutexViolation(..)));

        let bounded = CheckConfig::default().with_engine(Engine::Dpor {
            reorder_bound: Some(0),
        });
        let v = check(&inst.machine(MemoryModel::Pso), &bounded);
        assert!(v.is_ok(), "bound 0 ≡ SC: {}", v.label());

        // One overtake is already enough for this bug.
        let bounded1 = CheckConfig::default().with_engine(Engine::Dpor {
            reorder_bound: Some(1),
        });
        let v = check(&inst.machine(MemoryModel::Pso), &bounded1);
        assert!(
            matches!(v, Verdict::MutexViolation(..)),
            "bound 1 finds it: {}",
            v.label()
        );
    }

    #[test]
    fn budget_expiry_reports_sleep_hits() {
        let inst = build_mutex(LockKind::Bakery, 3, FenceMask::ALL);
        let config = cfg().with_budget(std::time::Duration::ZERO);
        let v = check(&inst.machine(MemoryModel::Pso), &config);
        match v {
            Verdict::Inconclusive(stats, coverage) => {
                assert!(stats.states >= 1);
                assert!(coverage.frontier >= 1);
                // sleep_hits is a counter, not a guarantee — just make sure
                // the field is plumbed (type-level check, really).
                let _ = coverage.sleep_hits;
            }
            other => panic!("expected inconclusive, got {}", other.label()),
        }
    }
}
