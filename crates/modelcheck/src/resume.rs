//! Resuming an interrupted exploration from a durable checkpoint.
//!
//! [`resume`] is the read side of [`CheckConfig::checkpoint`]: it loads a
//! [`por::Snapshot`] written by an interrupted run, validates that it
//! belongs to *this* program and configuration, and continues the
//! exploration from the serialized frontier until a definitive verdict
//! (or the next interrupt).
//!
//! ## One continuation engine
//!
//! All three checkpointing engines resume through the seeded
//! work-stealing coordinator ([`crate::pardpor`]):
//!
//! * `Engine::Undo` snapshots serialize plain frames (empty sleep sets,
//!   unlimited budget) and resume as one worker in the diagnostic
//!   disabled-reduction mode — which executes exactly the undo engine's
//!   edge multiset, so interrupted + resumed metrics sum bit-identically
//!   to an uninterrupted run's.
//! * `Engine::Dpor` snapshots carry the full reduction state per fork
//!   point (sleep set, taken siblings, ample exclusions, remaining
//!   reorder budget) and resume as one worker with the original bound.
//! * `Engine::ParallelDpor` resumes with its original worker count; the
//!   merged frontier from all workers seeds the queue.
//!
//! ## Soundness
//!
//! The snapshot's visited fingerprints pre-seed the global first-visit
//! table, so states counted and property-checked before the interrupt
//! are not re-counted or re-checked, and every state not yet expanded is
//! reachable from some serialized fork point (frames are serialized with
//! their unconsumed choices; nothing else was pending). The resumed
//! run's dominance pruning starts from an empty table, which can only
//! *reduce* pruning — never skip work the interrupted run still owed.
//! Violations, state limits, and stuck states discovered after a resume
//! defer to the usual deterministic sequential rerun, so those verdicts
//! are bit-identical to an uninterrupted run's.

use std::path::Path;
use std::time::Instant;

use por::Snapshot;
use wbmem::{Machine, Process};

use crate::checker::{fold_fp, run_id, CheckConfig, CheckError, Stats, Verdict};
use crate::lease::{continuation_params, run_meta, validate_meta};
use crate::pardpor::{check_pardpor, ResumeSeed};
use ftobs::J;

/// Continue an exploration from the checkpoint at `path`.
///
/// `initial` and `config` must be the machine and configuration of the
/// interrupted run (engine included); the snapshot's run metadata is
/// validated against both, and any mismatch — as well as a torn,
/// truncated, or corrupt checkpoint file — returns
/// [`Verdict::Error`] with [`CheckError::Checkpoint`] rather than
/// silently starting over.
///
/// On success the returned verdict describes the *combined* exploration:
/// state/transition counts include the interrupted run's, and (when the
/// recorder is enabled) the metrics snapshot is the merge of both runs.
/// If the resumed run is interrupted again (its `config` may carry a
/// fresh [`crate::CheckpointPolicy`]), the new checkpoint folds the
/// prior totals in, so chains of interrupts keep summing correctly.
/// Note that `stop_after_transitions` counts each run's own transitions
/// and a still-raised `interrupt` flag stops the resumed run
/// immediately — clear it before resuming.
#[must_use]
pub fn resume<P: Process>(initial: &Machine<P>, config: &CheckConfig, path: &Path) -> Verdict {
    let start = Instant::now();
    let snap = match Snapshot::read(path) {
        Ok(snap) => snap,
        Err(e) => return Verdict::Error(Stats::default(), CheckError::from(e)),
    };

    let crash_root;
    let root = if config.max_crashes > 0 {
        let mut m = initial.clone();
        m.set_crash_bound(config.crash_semantics, config.max_crashes);
        crash_root = m;
        &crash_root
    } else {
        initial
    };

    // The three identity checks and the engine → continuation mapping are
    // shared with the fleet worker's lease validation (`crate::lease`),
    // so the two read paths cannot drift.
    if let Err(msg) = validate_meta(&snap.meta, &run_meta(initial, config)) {
        return Verdict::Error(Stats::default(), CheckError::Checkpoint(msg));
    }
    let (threads, reorder_bound) = match continuation_params(config.engine) {
        Ok(params) => params,
        Err(msg) => return Verdict::Error(Stats::default(), CheckError::Checkpoint(msg)),
    };

    let deadline = config.budget.map(|b| start + b);
    let prior_metrics = snap.metrics;
    let mut seed = ResumeSeed {
        visited: snap.visited,
        forks: snap.forks,
        base: snap.base,
        metrics: snap.metrics,
        edges: snap.edges,
        terminals: snap.terminals,
    };
    // The resume span links this continuation to the interrupted run:
    // `prev_run` is the run id the checkpoint's meta reconstructs, which
    // matches the `run` field on the interrupted run's `engine` span.
    let mut tctx = config.recorder.trace_ctx();
    let rspan = tctx.begin();
    let span_parent = config.recorder.trace_root();
    let seeded_forks = seed.forks.len() as u64;
    if tctx.enabled() {
        let _ = config.recorder.set_trace_root(rspan.id);
        // Snapshot span ids belong to the writing process; rebase the
        // seeded forks onto the resume span so every steal edge in this
        // process's trace resolves locally.
        for f in &mut seed.forks {
            f.span = rspan.id.0;
        }
    }
    let mut verdict = check_pardpor(root, config, threads, reorder_bound, deadline, Some(seed));
    verdict.stats_mut().elapsed = start.elapsed();
    if tctx.enabled() {
        let _ = config.recorder.set_trace_root(span_parent);
        tctx.end(
            rspan,
            "resume",
            span_parent,
            &[
                (
                    "prev_run",
                    J::U(snap.meta.config_hash ^ fold_fp(snap.meta.program_hash)),
                ),
                ("run", J::U(run_id(config, root.fingerprint()))),
                ("forks", J::U(seeded_forks)),
                ("verdict", J::s(verdict.label())),
            ],
        );
        tctx.flush();
    }
    if config.recorder.is_enabled() {
        // Ok/Inconclusive verdicts describe the combined run, so their
        // metrics merge the interrupted run's snapshot with this one's.
        // Every other verdict came from a standalone deterministic
        // rerun (counters reset first) and stands alone.
        let own = config.recorder.snapshot();
        verdict.stats_mut().metrics = match &verdict {
            Verdict::Ok(_) | Verdict::Inconclusive(..) => prior_metrics.merged(&own),
            _ => own,
        };
        config.recorder.emit_snapshot(&[
            ("engine", ftobs::J::s(config.engine.label())),
            ("resumed", ftobs::J::B(true)),
            ("verdict", ftobs::J::s(verdict.label())),
            (
                "elapsed_ms",
                ftobs::J::U(start.elapsed().as_millis() as u64),
            ),
        ]);
        config.recorder.flush();
    }
    verdict
}
