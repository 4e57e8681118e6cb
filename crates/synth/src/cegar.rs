//! The counterexample-guided fence-synthesis loop.
//!
//! Given an algorithm instance, [`synthesize`] discovers a fence placement
//! that makes it correct under the configured memory models:
//!
//! 1. **Strip** every fence from the input programs
//!    ([`fencevm::strip_fences`]) to obtain the baseline — the same
//!    algorithm with no ordering enforced beyond what CAS/swap imply.
//! 2. **Check** the current candidate (baseline + placement) under each
//!    model with the configured engine
//!    ([`modelcheck::check_under_models`]); budgets, crash bounds and
//!    checkpoint policies all pass straight through `CheckConfig`.
//! 3. On a violation, **replay** the counterexample on the unreduced
//!    machine and extract its reorder edges ([`wbmem::reorder_edges`]) —
//!    the program-order inversions that enabled the bad interleaving.
//!    Each edge's candidate pcs are translated back to baseline indices
//!    through the insertion pc-map and unioned into a **core**: fencing
//!    any member site kills this counterexample. The counterexample is
//!    kept next to its core as a **witness**: the same execution in
//!    placement-independent form — per step, the baseline pc it ran, the
//!    write it committed, or "a fence of the placement it was found
//!    under". A `NO-TERMINATION` verdict hands back one schedule per
//!    process that steps into the stuck region
//!    ([`modelcheck::Counterexample::alternates`]); each becomes a core
//!    and a witness of its own in the same iteration.
//! 4. Choose the next placement as a fewest-sites **hitting set** over all
//!    accumulated cores ([`crate::hitting_set`]). Repeat from 2.
//! 5. Once safe, **minimize**: drop any fence whose removal
//!    keeps every model clean. A trial placement `P \ {s}` is first put to
//!    the witnesses whose core it no longer hits: each is replayed onto
//!    the trial candidate, step by legal step, and the ordinary check
//!    runs **with the machine the replay ends in as its root**. A
//!    violation found from a state the trial really reaches is a
//!    violation of the trial, so `s` stays. Only when no witness refutes
//!    the trial does the full check from the initial state decide it. The
//!    result is 1-minimal — removing any single synthesized fence
//!    reintroduces a violation — which the differential test suite
//!    exploits as a minimality witness.
//!
//! The replay follows the witness as far as the trial candidate allows:
//! commits (drains included) are replayed as commit elements and require
//! the write to be committable; a baseline operation requires the process
//! to stand at the recorded pc; a fence of the source placement is stepped
//! where the trial has it too and skipped where it does not; a fence of
//! the trial's own is passed only with an empty buffer. Anything else —
//! the witness overtaking a trial fence, a CAS or swap that would drain
//! instead of executing, diverging control flow, a no-op — abandons the
//! replay.
//!
//! ### Invariants
//!
//! * Every core is *sound*: each member site, if fenced, provably breaks
//!   the counterexample it came from (the fence drains the overtaken write
//!   before the overtaking access runs). Missing candidates only cost
//!   optimality, never correctness.
//! * A new core is never already hit by the placement it was found under —
//!   a fenced store cannot appear as a pending overtaken write, because
//!   the fence right after it drains the buffer before the process
//!   advances. Each iteration therefore makes progress.
//! * Acceptance rests **only** on a full check from the initial state that
//!   came back clean; cores and witnesses only steer the search.
//! * A fence is kept only on a `check` violation of the trial without it,
//!   found from the initial state or from a state a replay reached by
//!   legal transitions of that trial. The recorded pcs keep the replay
//!   faithful; soundness does not rest on them, nor on any monotonicity
//!   of violations in the fence set (false for termination).
//! * A seeded `ok` is never trusted: it covers the states reachable from
//!   the replay's end, not the trial's. It falls through to the full
//!   check, so the returned placement is the one full checks alone would
//!   return — same trial order, and a trial is kept exactly when a
//!   violation of it exists.

use std::collections::BTreeSet;
use std::sync::Arc;

use fencevm::{insert_fences_after, strip_fences, Rewritten, VmProc};
use modelcheck::{all_ok, check, check_under_models, CheckConfig, Engine, ModelVerdict};
use simlocks::OrderingInstance;
use wbmem::{
    reorder_edges, CrashSemantics, EventKind, Machine, MemoryModel, Poised, ProcId, RegId,
    SchedElem, StepOutcome,
};

use crate::hitting::{hitting_set, Core, Site};

/// Configuration for [`synthesize`].
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Memory models the placement must be correct under, checked in
    /// order — put the weakest (most violation-prone) first so refinement
    /// counterexamples surface fastest.
    pub models: Vec<MemoryModel>,
    /// State cap per inner check.
    pub max_states: usize,
    /// Crash-fault bound for the inner checks (0 = no crashes).
    pub max_crashes: u32,
    /// Crash semantics when `max_crashes > 0`.
    pub crash_semantics: CrashSemantics,
}

/// Refinement iteration cap.
const MAX_ITERS: usize = 64;

/// The hitting set is exact (branch-and-bound) when the site universe is
/// at most this large, greedy above it.
const EXACT_LIMIT: usize = 16;

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            models: vec![MemoryModel::Pso, MemoryModel::Tso],
            max_states: 2_000_000,
            max_crashes: 0,
            crash_semantics: CrashSemantics::DiscardBuffer,
        }
    }
}

impl SynthConfig {
    // The inner checks require termination: a placement that omits
    // the trailing drain fence lets a process return with its exit write
    // still buffered — the write is orphaned (committing is only
    // schedulable before `ret`), the lock word never clears, and every
    // other process spins forever. Termination counterexamples carry the
    // same reorder edges as mutex ones (a `Return` with pending writes is
    // an overtaking edge), so the loop repairs both properties with one
    // mechanism.
    //
    // The engine is `Dpor`. With the termination check on it keeps
    // its ample sets and puts nothing to sleep, which leaves a stuck state
    // in the graph it walks whenever the candidate has one. It walks
    // front-first, not in `Undo`'s back-first order. The order decides
    // which violation a check meets first, and so which cores the loop
    // learns. Back-first took bakery2, tournament2, filter2 and mcs3 35,
    // 17, 17 and 9 iterations instead of 5, 6, 6 and 2, and bakery3 and
    // tournament4 hit the 64-iteration cap.
    fn check_config(&self) -> CheckConfig {
        let mut cfg = CheckConfig::default().with_engine(Engine::Dpor {
            reorder_bound: None,
        });
        cfg.max_states = self.max_states;
        cfg.check_termination = true;
        if self.max_crashes > 0 {
            cfg = cfg.with_crashes(self.crash_semantics, self.max_crashes);
        }
        cfg
    }
}

/// A successful synthesis: the placement and the artifacts that justify it.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// The synthesized instance (baseline programs + placement fences).
    pub instance: OrderingInstance,
    /// The fence-free baseline the placement is relative to.
    pub baseline: OrderingInstance,
    /// Per-process baseline pcs that received a fence, sorted.
    pub placement: Vec<Vec<usize>>,
    /// Refinement iterations used: candidate placements put to the
    /// multi-model check.
    pub iterations: usize,
    /// Accumulated counterexample cores, in discovery order.
    pub cores: Vec<Core>,
    /// States explored by every inner check: the full ones from the
    /// initial state and the seeded ones from a replayed witness alike.
    pub total_states: usize,
    /// Minimisation trials a seeded check refuted (the fence stayed on a
    /// violation found from a replayed witness, with no full check).
    pub seeded_refutations: usize,
    /// Multi-model checks run from the initial state: one per refinement
    /// iteration, plus every minimisation trial no witness refuted.
    pub full_checks: usize,
}

impl Synthesis {
    /// Number of fences the placement inserts.
    #[must_use]
    pub fn fences_inserted(&self) -> usize {
        self.placement.iter().map(Vec::len).sum()
    }

    /// The placement as flat [`Site`]s, sorted.
    #[must_use]
    pub fn sites(&self) -> Vec<Site> {
        sites_of(&self.placement)
    }
}

/// Why synthesis stopped without a placement.
#[derive(Clone, Debug)]
pub enum SynthOutcome {
    /// A correct placement was found.
    Synthesized(Box<Synthesis>),
    /// A counterexample yielded no reorder edges: the violation survives
    /// even in program order, so no fence placement can repair it (the
    /// algorithm is broken under SC, or the property is simply false).
    Unfixable {
        /// Model the unfixable violation was found under.
        model: MemoryModel,
        /// Verdict label of that violation.
        verdict: &'static str,
    },
    /// The iteration cap was reached, or an inner check came back
    /// inconclusive (state cap / budget) so no counterexample was
    /// available to refine with.
    Exhausted {
        /// Iterations completed.
        iterations: usize,
        /// Label of the last non-ok verdict seen.
        last_verdict: &'static str,
    },
}

impl SynthOutcome {
    /// The synthesis, if one was found.
    #[must_use]
    pub fn synthesis(&self) -> Option<&Synthesis> {
        match self {
            SynthOutcome::Synthesized(s) => Some(s),
            _ => None,
        }
    }
}

/// Strip `inst`'s fences and return the baseline instance.
#[must_use]
pub fn strip_instance(inst: &OrderingInstance) -> OrderingInstance {
    let mut baseline = inst.clone();
    baseline.programs = inst
        .programs
        .iter()
        .map(|p| Arc::new(strip_fences(p).program))
        .collect();
    baseline
}

/// Build the candidate instance for `placement` (per-process baseline pcs)
/// and return it with the per-process pc maps.
fn build_candidate(
    baseline: &OrderingInstance,
    placement: &[Vec<usize>],
) -> (OrderingInstance, Vec<Rewritten>) {
    let rewrites: Vec<Rewritten> = baseline
        .programs
        .iter()
        .zip(placement)
        .map(|(p, after)| insert_fences_after(p, after))
        .collect();
    let mut inst = baseline.clone();
    inst.programs = rewrites
        .iter()
        .map(|r| Arc::new(r.program.clone()))
        .collect();
    (inst, rewrites)
}

/// `candidate`'s initial machine under `model`, with `cfg`'s crash bound —
/// the root the inner checks explore from.
fn machine_of(
    candidate: &OrderingInstance,
    model: MemoryModel,
    cfg: &SynthConfig,
) -> Machine<VmProc> {
    let mut machine = candidate.machine(model);
    if cfg.max_crashes > 0 {
        machine.set_crash_bound(cfg.crash_semantics, cfg.max_crashes);
    }
    machine
}

/// One step of a [`Witness`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// The process executed the baseline instruction at this baseline pc.
    Op(ProcId, usize),
    /// The process executed a fence the source placement had inserted.
    Fence(ProcId),
    /// A buffered write reached memory — by a commit element, or by an
    /// operation element draining it at a fence, CAS or swap.
    Commit(ProcId, RegId),
    /// The process crashed.
    Crash(ProcId),
}

/// A counterexample in placement-independent form: what it did, step by
/// step, to the *baseline* program, under which model.
#[derive(Clone, Debug)]
struct Witness {
    model: MemoryModel,
    steps: Vec<Step>,
}

impl Witness {
    /// Run `schedule` on a clone of `machine` — the candidate of
    /// `rewrites` — and record each effective step against the baseline.
    fn record(machine: &Machine<VmProc>, rewrites: &[Rewritten], schedule: &[SchedElem]) -> Self {
        let mut m = machine.clone();
        let mut steps = Vec::with_capacity(schedule.len());
        for &elem in schedule {
            let p = elem.proc;
            let pc = m.process(p).pc();
            let buffered = m.buffer(p).len();
            let Ok(StepOutcome::Stepped(event)) = m.try_step(elem) else {
                break; // checker schedules hold no such element
            };
            steps.push(match event.kind {
                EventKind::Crash { .. } => Step::Crash(p),
                // (Under SC a write reports its immediate commit too, but
                // nothing leaves a buffer.)
                EventKind::Commit { reg, .. } if m.buffer(p).len() < buffered => {
                    Step::Commit(p, reg)
                }
                _ => match rewrites[p.index()].new_to_old[pc] {
                    Some(old) => Step::Op(p, old),
                    None => Step::Fence(p),
                },
            });
        }
        Witness {
            model: machine.config().model,
            steps,
        }
    }

    /// Replay the witness onto `candidate` — the instance of `rewrites` —
    /// and return the machine it ends in, or `None` where the candidate
    /// cannot follow: the witness advances a process past one of the
    /// candidate's fences with writes still buffered, or control flow
    /// parts from the recorded one.
    ///
    /// Every step taken is a legal transition of the candidate's machine,
    /// so whatever is returned is a state the candidate really reaches;
    /// the recorded pcs only keep the replay on the witness's tracks. The
    /// source placement's fences are followed where the candidate has them
    /// too and skipped where it does not; its drains become plain commits.
    fn replay(
        &self,
        candidate: &OrderingInstance,
        rewrites: &[Rewritten],
        cfg: &SynthConfig,
    ) -> Option<Machine<VmProc>> {
        let mut m = machine_of(candidate, self.model, cfg);
        let baseline_pc =
            |m: &Machine<VmProc>, p: ProcId| rewrites[p.index()].new_to_old[m.process(p).pc()];
        let take = |m: &mut Machine<VmProc>, elem| {
            matches!(m.try_step(elem), Ok(StepOutcome::Stepped(_))).then_some(())
        };
        for &step in &self.steps {
            match step {
                Step::Commit(p, reg) => {
                    // (A commit element that cannot commit would run the
                    // process's operation instead.)
                    if !m.buffer(p).can_commit(reg) {
                        return None;
                    }
                    take(&mut m, SchedElem::commit(p, reg))?;
                }
                Step::Crash(p) => take(&mut m, SchedElem::crash(p))?,
                Step::Fence(p) => {
                    if baseline_pc(&m, p).is_none() && m.buffer_is_empty(p) {
                        take(&mut m, SchedElem::op(p))?;
                    }
                }
                Step::Op(p, pc) => {
                    // Fences of the candidate's own that the source lacked
                    // are passed only with nothing buffered.
                    while baseline_pc(&m, p).is_none() {
                        if !m.buffer_is_empty(p) {
                            return None;
                        }
                        take(&mut m, SchedElem::op(p))?;
                    }
                    let drains = matches!(m.poised(p), Poised::Cas { .. } | Poised::Swap { .. })
                        && !m.buffer_is_empty(p);
                    if baseline_pc(&m, p) != Some(pc) || drains {
                        return None;
                    }
                    take(&mut m, SchedElem::op(p))?;
                }
            }
        }
        Some(m)
    }
}

/// What the refinement loop has learned about its baseline.
#[derive(Default)]
struct Pool {
    cores: Vec<Core>,
    /// `witnesses[i]` is the counterexample `cores[i]` was extracted from.
    witnesses: Vec<Witness>,
}

/// Inner-check volume of one [`synthesize`] call (see the [`Synthesis`]
/// fields of the same names).
#[derive(Default)]
struct Effort {
    total_states: usize,
    seeded_refutations: usize,
    full_checks: usize,
}

/// The placement a set of chosen sites spells, per process.
fn placement_of(n: usize, sites: impl IntoIterator<Item = Site>) -> Vec<Vec<usize>> {
    let mut placement = vec![Vec::new(); n];
    for site in sites {
        placement[site.proc].push(site.pc);
    }
    placement
}

/// A placement's sites, sorted — the order the minimisation tries them in.
fn sites_of(placement: &[Vec<usize>]) -> Vec<Site> {
    let mut sites: Vec<Site> = placement
        .iter()
        .enumerate()
        .flat_map(|(proc, pcs)| pcs.iter().map(move |&pc| Site { proc, pc }))
        .collect();
    sites.sort_unstable();
    sites
}

/// Synthesize a fence placement for `inst` under `cfg` (see module docs).
#[must_use]
pub fn synthesize(inst: &OrderingInstance, cfg: &SynthConfig) -> SynthOutcome {
    let Refined {
        baseline,
        mut placement,
        iterations,
        pool,
        mut effort,
    } = match refine(inst, cfg) {
        Ok(found) => found,
        Err(outcome) => return outcome,
    };
    let check_cfg = cfg.check_config();
    minimize(
        &baseline,
        &mut placement,
        cfg,
        &check_cfg,
        &pool,
        &mut effort,
    );
    let (instance, _) = build_candidate(&baseline, &placement);
    let synthesis = Synthesis {
        instance,
        baseline,
        iterations,
        cores: pool.cores,
        total_states: effort.total_states,
        seeded_refutations: effort.seeded_refutations,
        full_checks: effort.full_checks,
        placement,
    };
    SynthOutcome::Synthesized(Box::new(synthesis))
}

/// Where the refinement loop stops: the first placement every model
/// accepts, not yet minimised, and what the loop learned on the way.
struct Refined {
    baseline: OrderingInstance,
    placement: Vec<Vec<usize>>,
    iterations: usize,
    pool: Pool,
    effort: Effort,
}

/// Steps 1–4 of the loop (see module docs). `Err` is the outcome of a run
/// that found no placement.
fn refine(inst: &OrderingInstance, cfg: &SynthConfig) -> Result<Refined, SynthOutcome> {
    let baseline = strip_instance(inst);
    let n = baseline.n;
    let check_cfg = cfg.check_config();
    let mut pool = Pool::default();
    let mut placement = vec![Vec::new(); n];
    let mut effort = Effort::default();
    let mut last_verdict = "ok";

    for iteration in 1..=MAX_ITERS {
        let (candidate, rewrites) = build_candidate(&baseline, &placement);
        effort.full_checks += 1;
        let verdicts = check_under_models(&candidate, &cfg.models, &check_cfg, true);
        effort.total_states += states_of(&verdicts);
        if all_ok(&verdicts) {
            return Ok(Refined {
                baseline,
                placement,
                iterations: iteration,
                pool,
                effort,
            });
        }
        // Refine from the first non-ok verdict.
        let bad = verdicts
            .iter()
            .find(|v| !v.verdict.is_ok())
            .expect("not all ok");
        last_verdict = bad.verdict.label();
        let Some(cex) = bad.verdict.counterexample() else {
            // Inconclusive (state cap / budget): nothing to refine with.
            return Err(SynthOutcome::Exhausted {
                iterations: iteration,
                last_verdict,
            });
        };
        let machine = machine_of(&candidate, bad.model, cfg);
        // One core and one witness per schedule the check handed back:
        // the counterexample, then whatever else its exploration found.
        let known = pool.cores.len();
        let schedules = std::iter::once(&cex.schedule).chain(&cex.alternates);
        for (i, schedule) in schedules.enumerate() {
            let mut core: Core = BTreeSet::new();
            for edge in &reorder_edges(&machine, schedule) {
                let proc = edge.proc.0 as usize;
                let map = &rewrites[proc].new_to_old;
                for &cand in &edge.candidates {
                    let Some(Some(pc)) = map.get(cand as usize).copied() else {
                        continue;
                    };
                    core.insert(Site { proc, pc });
                }
            }
            if core.is_empty() && i == 0 {
                // The violation needs no write-buffer reordering:
                // unfixable by fences.
                return Err(SynthOutcome::Unfixable {
                    model: bad.model,
                    verdict: last_verdict,
                });
            }
            if core.is_empty() || pool.cores[known..].contains(&core) {
                continue;
            }
            pool.cores.push(core);
            pool.witnesses
                .push(Witness::record(&machine, &rewrites, schedule));
        }
        placement = placement_of(n, hitting_set(&pool.cores, EXACT_LIMIT));
    }
    Err(SynthOutcome::Exhausted {
        iterations: MAX_ITERS,
        last_verdict,
    })
}

/// Drop every fence whose removal keeps all models clean. Afterwards the
/// placement is 1-minimal: removing any remaining fence reintroduces a
/// violation.
///
/// A trial is first put to the pool's witnesses: each one whose core the
/// trial no longer hits is replayed onto it, and the ordinary check runs
/// from where the replay ends. A violation found there is a violation of
/// the trial, so the fence stays. A replay that cannot be followed, or a
/// seeded check that comes back clean, says nothing about the trial — the
/// full check from the initial state decides it, as it would have anyway.
fn minimize(
    baseline: &OrderingInstance,
    placement: &mut [Vec<usize>],
    cfg: &SynthConfig,
    check_cfg: &CheckConfig,
    pool: &Pool,
    effort: &mut Effort,
) {
    for site in sites_of(placement) {
        let mut trial: Vec<Vec<usize>> = placement.to_vec();
        trial[site.proc].retain(|&pc| pc != site.pc);
        let (candidate, rewrites) = build_candidate(baseline, &trial);
        let hits = |core: &Core| core.iter().any(|s| trial[s.proc].contains(&s.pc));
        let mut unhit = pool.cores.iter().zip(&pool.witnesses);
        let refuted = unhit.any(|(core, witness)| {
            !hits(core)
                && witness
                    .replay(&candidate, &rewrites, cfg)
                    .is_some_and(|root| {
                        let verdict = check(&root, check_cfg);
                        effort.total_states += verdict.stats().states;
                        verdict.is_violation()
                    })
        });
        if refuted {
            effort.seeded_refutations += 1;
            continue;
        }
        effort.full_checks += 1;
        let verdicts = check_under_models(&candidate, &cfg.models, check_cfg, true);
        effort.total_states += states_of(&verdicts);
        if all_ok(&verdicts) {
            placement[site.proc].retain(|&pc| pc != site.pc);
        }
    }
}

/// [`minimize`] as it was before witnesses: every trial decided by a full
/// check from the initial state. The oracle the seeded pass is held to.
#[cfg(test)]
fn minimize_by_full_checks(
    baseline: &OrderingInstance,
    placement: &mut [Vec<usize>],
    cfg: &SynthConfig,
    check_cfg: &CheckConfig,
) {
    for site in sites_of(placement) {
        let mut trial: Vec<Vec<usize>> = placement.to_vec();
        trial[site.proc].retain(|&pc| pc != site.pc);
        let (candidate, _) = build_candidate(baseline, &trial);
        if all_ok(&check_under_models(
            &candidate,
            &cfg.models,
            check_cfg,
            true,
        )) {
            placement[site.proc].retain(|&pc| pc != site.pc);
        }
    }
}

fn states_of(verdicts: &[ModelVerdict]) -> usize {
    verdicts.iter().map(|v| v.verdict.stats().states).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelcheck::Verdict;
    use simlocks::{build_mutex, FenceMask, LockKind};

    fn quick_cfg() -> SynthConfig {
        SynthConfig {
            models: vec![MemoryModel::Pso, MemoryModel::Tso],
            ..SynthConfig::default()
        }
    }

    #[test]
    fn synthesizes_peterson_n2() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let out = synthesize(&inst, &quick_cfg());
        let s = out.synthesis().expect("peterson should synthesize");
        assert!(
            s.fences_inserted() >= 1,
            "peterson needs a store-load fence"
        );
        // The synthesized instance is clean under every requested model.
        let vs = check_under_models(
            &s.instance,
            &[MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso],
            &quick_cfg().check_config(),
            false,
        );
        assert!(all_ok(&vs));
    }

    #[test]
    fn sc_only_needs_no_fences() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let cfg = SynthConfig {
            models: vec![MemoryModel::Sc],
            ..SynthConfig::default()
        };
        let out = synthesize(&inst, &cfg);
        let s = out.synthesis().expect("sc always synthesizes");
        assert_eq!(s.fences_inserted(), 0, "SC needs no fences");
        assert_eq!(s.iterations, 1);
    }

    /// The baseline of `kind` at `n`, the placement the CEGAR loop of
    /// `cfg` reaches before minimising it, and the pool it filled.
    fn unminimized(
        kind: LockKind,
        n: usize,
        cfg: &SynthConfig,
    ) -> (OrderingInstance, Vec<Vec<usize>>, Pool) {
        let inst = build_mutex(kind, n, FenceMask::ALL);
        let found = refine(&inst, cfg).expect("synthesized");
        (found.baseline, found.placement, found.pool)
    }

    fn crash_cfg() -> SynthConfig {
        SynthConfig {
            max_crashes: 1,
            crash_semantics: CrashSemantics::DiscardBuffer,
            ..quick_cfg()
        }
    }

    #[test]
    fn a_witness_replayed_onto_its_source_reaches_the_violating_state() {
        let cfg = quick_cfg();
        let check_cfg = cfg.check_config();
        let mut fenced_sources = 0;
        for (kind, n) in [(LockKind::Peterson, 2), (LockKind::Ttas, 3)] {
            let (baseline, full, _) = unminimized(kind, n, &cfg);
            let sites = sites_of(&full);
            // Every proper prefix of the placement that still violates is
            // a source candidate, the fence-free baseline first.
            for kept in 0..sites.len() {
                let placement = placement_of(baseline.n, sites[..kept].iter().copied());
                let (candidate, rewrites) = build_candidate(&baseline, &placement);
                let machine = candidate.machine(MemoryModel::Pso);
                let found = check(&machine, &check_cfg);
                let Some(cex) = found.counterexample() else {
                    continue;
                };
                fenced_sources += usize::from(kept > 0);
                let witness = Witness::record(&machine, &rewrites, &cex.schedule);
                let root = witness
                    .replay(&candidate, &rewrites, &cfg)
                    .expect("a witness follows its own source");
                let mut reached = machine.clone();
                reached.run_schedule(&cex.schedule);
                assert_eq!(root.fingerprint(), reached.fingerprint());
                let seeded = check(&root, &check_cfg);
                assert_eq!(seeded.label(), found.label());
                let at = seeded.counterexample().expect("a violation");
                assert!(at.schedule.is_empty(), "the root is the violating state");
            }
        }
        assert!(fenced_sources > 0, "no source with fences of its own");
    }

    #[test]
    fn seeded_minimisation_decides_every_trial_as_full_checks_do() {
        let cells = [
            (LockKind::Peterson, 2, quick_cfg()),
            (LockKind::Bakery, 2, quick_cfg()),
            (LockKind::Tournament, 2, quick_cfg()),
            (LockKind::Filter, 2, quick_cfg()),
            (LockKind::Ttas, 3, quick_cfg()),
            (LockKind::Mcs, 3, quick_cfg()),
            (LockKind::RecoverableTtas, 2, crash_cfg()),
        ];
        for (kind, n, cfg) in cells {
            let check_cfg = cfg.check_config();
            let (baseline, found, pool) = unminimized(kind, n, &cfg);
            // The loop's own placement (every trial should be refuted),
            // and a fence after every store (most trials drop theirs).
            let every_store = baseline.programs.iter().map(|p| fencevm::write_pcs(p));
            for start in [found, every_store.collect()] {
                let mut seeded = start.clone();
                let mut effort = Effort::default();
                let (b, c) = (&baseline, &check_cfg);
                minimize(b, &mut seeded, &cfg, c, &pool, &mut effort);
                let mut oracle = start.clone();
                minimize_by_full_checks(b, &mut oracle, &cfg, c);
                // One trial order, so equal survivors mean equal decisions.
                assert_eq!(seeded, oracle, "{} from {start:?}", baseline.name);
                assert!(effort.seeded_refutations > 0, "{}", baseline.name);
            }
        }
    }

    #[test]
    fn a_blocked_replay_leaves_the_trial_to_the_full_check() {
        let cfg = quick_cfg();
        let check_cfg = cfg.check_config();
        let (baseline, placement, pool) = unminimized(LockKind::Peterson, 2, &cfg);
        // The first witness overtakes stores the placement fences — that
        // is what its core says — so the placement blocks it.
        let (core, witness) = (&pool.cores[0], &pool.witnesses[0]);
        let (candidate, rewrites) = build_candidate(&baseline, &placement);
        let hitters = core.iter().filter(|s| placement[s.proc].contains(&s.pc));
        let hitters = hitters.count();
        assert!(hitters > 0);
        assert!(witness.replay(&candidate, &rewrites, &cfg).is_none());
        // Mislabelled as hit by nothing, it is tried on every trial and
        // blocks on each that keeps one of those fences: no decision
        // changes, and only a trial that drops the last of them is its.
        let lone = Pool {
            cores: vec![Core::new()],
            witnesses: vec![witness.clone()],
        };
        let (mut seeded, mut effort) = (placement.clone(), Effort::default());
        let (b, c) = (&baseline, &check_cfg);
        minimize(b, &mut seeded, &cfg, c, &lone, &mut effort);
        let mut oracle = placement.clone();
        minimize_by_full_checks(b, &mut oracle, &cfg, c);
        assert_eq!(seeded, oracle);
        let trials: usize = placement.iter().map(Vec::len).sum();
        assert_eq!(effort.seeded_refutations, usize::from(hitters == 1));
        assert_eq!(effort.full_checks, trials - effort.seeded_refutations);
    }

    #[test]
    fn the_inner_checks_walk_order_keeps_the_iteration_counts() {
        // Which counterexample a check meets first is its walk order's;
        // the back-first order takes bakery2 35, tournament2 and filter2
        // 17, mcs3 9 iterations (see `check_config`).
        let cells = [
            (LockKind::Bakery, 2, 5, vec![vec![0, 10, 30], vec![10, 30]]),
            (LockKind::Tournament, 2, 6, vec![vec![0, 1, 10]; 2]),
            (LockKind::Filter, 2, 6, vec![vec![0, 1, 15]; 2]),
            (LockKind::Ttas, 4, 2, vec![vec![7]; 4]),
            (LockKind::Mcs, 3, 2, vec![vec![18]; 3]),
        ];
        for (kind, n, iterations, placement) in cells {
            let inst = build_mutex(kind, n, FenceMask::ALL);
            let out = synthesize(&inst, &SynthConfig::default());
            let s = out.synthesis().expect("synthesized");
            assert_eq!(s.iterations, iterations, "{}", inst.name);
            assert_eq!(s.placement, placement, "{}", inst.name);
        }
    }

    #[test]
    fn every_candidate_a_run_checks_gets_undos_termination_label() {
        // The loop's candidates run from the fence-free baseline to its
        // unminimised placement, and the minimisation trials sit between
        // the two: the baseline and every proper prefix of the placement
        // in trial order stand for them. Each is stuck or not as `Undo`,
        // which walks every edge, says.
        let cfg = quick_cfg();
        let (dpor, undo) = (
            cfg.check_config(),
            cfg.check_config().with_engine(Engine::Undo),
        );
        let cells = [
            (LockKind::Bakery, 2),
            (LockKind::Tournament, 2),
            (LockKind::Filter, 2),
            (LockKind::Ttas, 4),
            (LockKind::Mcs, 3),
        ];
        let mut stuck = 0;
        for (kind, n) in cells {
            let (baseline, full, _) = unminimized(kind, n, &cfg);
            let sites = sites_of(&full);
            for kept in 0..sites.len() {
                let placement = placement_of(baseline.n, sites[..kept].iter().copied());
                let (candidate, _) = build_candidate(&baseline, &placement);
                for model in [MemoryModel::Pso, MemoryModel::Tso] {
                    let machine = candidate.machine(model);
                    let (d, u) = (check(&machine, &dpor), check(&machine, &undo));
                    assert!(!matches!(u, Verdict::StateLimit(_)), "{}", baseline.name);
                    let ctx = format!("{} {model} {placement:?}", baseline.name);
                    assert_eq!(d.label(), u.label(), "{ctx}");
                    stuck += usize::from(matches!(u, Verdict::NoTermination(..)));
                }
            }
        }
        assert!(stuck > 0, "no candidate was stuck");
    }

    #[test]
    fn placement_is_one_minimal() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let cfg = quick_cfg();
        let out = synthesize(&inst, &cfg);
        let s = out.synthesis().expect("synthesized");
        for site in s.sites() {
            let mut stripped = s.placement.clone();
            stripped[site.proc].retain(|&pc| pc != site.pc);
            let (candidate, _) = build_candidate(&s.baseline, &stripped);
            let vs = check_under_models(&candidate, &cfg.models, &cfg.check_config(), true);
            assert!(
                !all_ok(&vs),
                "removing fence {site} should reintroduce a violation"
            );
        }
    }
}
