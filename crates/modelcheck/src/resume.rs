//! Resuming an interrupted exploration from a durable checkpoint.
//!
//! [`resume`] is the read side of [`CheckConfig::checkpoint`]: it loads a
//! [`por::Snapshot`] written by an interrupted run, validates that it
//! belongs to *this* program and configuration, and continues the
//! exploration from the serialized frontier until a definitive verdict
//! (or the next interrupt).
//!
//! Every checkpointing engine resumes through the seeded work-stealing
//! coordinator ([`crate::pardpor`]): a fork point carries its frame's
//! choices in exploration order plus the exact reduction state, so any
//! worker continues it as its owner would have. `Engine::Undo` and
//! `Engine::Dpor` resume as one worker with their own reduction — for
//! `Undo` that executes exactly its edge multiset, so interrupted +
//! resumed metrics sum bit-identically to an uninterrupted run's — and
//! the parallel engines resume with their original worker count.
//!
//! Soundness: the snapshot's visited fingerprints pre-seed the
//! first-visit table, so states counted and property-checked before the
//! interrupt are not re-counted or re-checked, and every state not yet
//! expanded is reachable from some serialized fork point. The resumed
//! run's dominance pruning starts from an empty table, which can only
//! *reduce* pruning. Violations and state limits found after a resume
//! defer to the usual sequential rerun, so those verdicts are
//! bit-identical to an uninterrupted run's.
//!
//! A snapshot carries no termination graph: the termination check reads
//! one walk's whole graph, and checkpointing is refused under it.

use std::path::Path;

use por::{RunMeta, Snapshot};
use wbmem::{Machine, Process};

use crate::checker::{
    bounded_root, dispatch, run_meta_of, CheckConfig, CheckError, Engine, Verdict,
};

/// The run metadata a checkpoint for `(initial, config)` must carry. The
/// program hash is taken over the crash-bounded root when the
/// configuration injects crashes, exactly as the engines hash it.
fn run_meta<P: Process>(initial: &Machine<P>, config: &CheckConfig) -> RunMeta {
    run_meta_of(config, bounded_root(initial, config).fingerprint())
}

/// Validate a snapshot's metadata against the expected metadata for this
/// process's program and configuration, and that the engine can continue
/// one at all. The error message names the first mismatch.
fn validate_meta(meta: &RunMeta, expect: &RunMeta) -> Result<(), String> {
    if meta.engine != expect.engine {
        return Err(format!(
            "engine mismatch: checkpoint was written by `{}`, resuming as `{}`",
            meta.engine, expect.engine
        ));
    }
    if meta.config_hash != expect.config_hash {
        return Err(
            "configuration mismatch: checkpoint was written under different \
             properties/bounds/crash settings"
                .to_string(),
        );
    }
    if meta.program_hash != expect.program_hash {
        return Err(
            "program mismatch: checkpoint was written for a different initial state".to_string(),
        );
    }
    // Every kernel engine can continue a checkpoint (a sequential one as
    // one worker, a parallel one as itself); the oracle has no
    // serialized form.
    if expect.engine == Engine::CloneDfs.label() {
        let label = &expect.engine;
        return Err(format!(
            "engine `{label}` does not support checkpoint/resume"
        ));
    }
    Ok(())
}

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
/// Note that `stop_after_transitions` counts each run's own transitions.
///
/// A termination-checking `config` never resumes: with a policy it is
/// refused before the file is read, and without one its configuration
/// hash matches no checkpoint, since no run that checks termination
/// writes one.
#[must_use]
pub fn resume<P: Process>(initial: &Machine<P>, config: &CheckConfig, path: &Path) -> Verdict {
    dispatch(initial, config, || {
        let snap = Snapshot::read(path)?;
        validate_meta(&snap.meta, &run_meta(initial, config)).map_err(CheckError::Checkpoint)?;
        Ok(Some(snap))
    })
}
