//! The encoder: permutations → command stacks (Section 5.2).
//!
//! For a permutation `π = (p_0, …, p_{n-1})`, the encoder builds stack
//! sequences `S_0, S_1, …` iteratively: iteration `i` inspects the execution
//! `E_i` that `S_i` decodes to, picks the frontier process `p_ℓ` (the
//! furthest process in π whose stack exists but who hasn't finished — or
//! the next fresh process), and appends **one** command to the bottom of
//! `p_ℓ`'s stack:
//!
//! * **(E1)** a fresh process first waits for every earlier process that
//!   accessed its memory segment: `wait-local-finish(λ, ∅)`;
//! * **(E2a)** if `p_ℓ` can keep taking steps, `proceed`;
//! * **(E2b)** if `p_ℓ` is stuck at a fence with a pending write batch, one
//!   of `wait-hidden-commit(γ)` (γ registers in the batch get overwritten
//!   by later commits of earlier processes), `wait-read-finish(ζ, ∅)`
//!   (ζ earlier processes still read batch registers), or `commit`.
//!
//! `E_{i+1}` is not decoded from the initial configuration. The decoding
//! rules see only the top of a stack and whether it is empty, so `E_i` and
//! `E_{i+1}` agree up to the step at which `p_ℓ`'s stack first emptied in
//! `E_i`; the [`Decoder`] checkpointed itself there, and the encoder resumes
//! it with the new command on `p_ℓ`'s (empty) stack. Only a fresh frontier
//! process, whose stack was empty from step 0, starts a new decoder.
//!
//! The construction ends when the last process of π is finished. By the
//! ordering property each `p_k` returns `k`, so the final stacks uniquely
//! determine π — that is what makes them a *code*.

use std::collections::BTreeSet;

use fencevm::VmProc;
use simlocks::OrderingInstance;
use wbmem::{EventKind, Machine, MachineConfig, MemoryModel, Poised, ProcId, RegId};

use crate::command::{Command, Stacks};
use crate::decode::{decode, same_decode, DecodeError, DecodeOptions, DecodeOutcome, Decoder};

/// Encoder options.
#[derive(Clone, Copy, Debug)]
pub struct EncodeOptions {
    /// Bound on encoding iterations (= total commands).
    pub max_iterations: usize,
    /// Decoder bounds used by every inner decode.
    pub decode: DecodeOptions,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            max_iterations: 100_000,
            decode: DecodeOptions::default(),
        }
    }
}

/// A completed encoding of one permutation's execution.
#[derive(Clone, Debug)]
pub struct Encoding {
    /// The permutation that was encoded (`pi[k]` = id of the k-th process).
    pub pi: Vec<usize>,
    /// The final command stacks `S_{m_π}` (with empty parameter sets, as
    /// constructed).
    pub stacks: Stacks,
    /// Total commands `m_π` (= encoding iterations).
    pub commands: usize,
    /// Sum of command values `v_π`.
    pub value_sum: u64,
    /// The decode of the final stacks: the execution `E_π` itself.
    pub outcome: DecodeOutcome,
    /// Total fence steps `β(E_π)`.
    pub beta: u64,
    /// Total remote steps `ρ(E_π)`.
    pub rho: u64,
}

impl Encoding {
    /// Recover the permutation from the execution's return values — the
    /// injectivity that powers the counting argument. `result[k]` is the id
    /// of the process that returned `k`.
    #[must_use]
    pub fn recovered_permutation(&self) -> Vec<usize> {
        recover_permutation(&self.outcome.machine)
    }
}

/// Recover a permutation from return values: position `k` holds the process
/// that returned `k`.
///
/// # Panics
///
/// Panics if the machine's return values are not a permutation of `0..n`.
#[must_use]
pub fn recover_permutation(m: &Machine<VmProc>) -> Vec<usize> {
    let n = m.n();
    let mut pi = vec![usize::MAX; n];
    for i in 0..n {
        let r = m
            .return_value(ProcId::from(i))
            .unwrap_or_else(|| panic!("process p{i} did not return"));
        let k = usize::try_from(r).expect("rank fits");
        assert!(
            k < n && pi[k] == usize::MAX,
            "return values are not a permutation"
        );
        pi[k] = i;
    }
    pi
}

/// Encoding failure.
#[derive(Clone, Debug)]
pub enum EncodeError {
    /// An inner decode failed.
    Decode(DecodeError),
    /// The iteration bound was hit before the last process finished — the
    /// report carries the stacks and a classification dump for debugging.
    Stalled {
        /// Iterations performed.
        iterations: usize,
        /// Diagnostic rendering of the stuck extended configuration.
        diagnostics: String,
    },
    /// A process returned a value different from its π-rank: the algorithm
    /// is not ordering (or the construction is out of spec).
    RankMismatch {
        /// The process id.
        proc: usize,
        /// Its π-rank (expected return).
        expected: u64,
        /// What it actually returned (`None` = never finished).
        got: Option<u64>,
    },
}

impl From<DecodeError> for EncodeError {
    fn from(e: DecodeError) -> Self {
        EncodeError::Decode(e)
    }
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Decode(e) => write!(f, "decode failed: {e}"),
            EncodeError::Stalled {
                iterations,
                diagnostics,
            } => {
                write!(
                    f,
                    "encoding stalled after {iterations} iterations:\n{diagnostics}"
                )
            }
            EncodeError::RankMismatch {
                proc,
                expected,
                got,
            } => write!(
                f,
                "process p{proc} should return its rank {expected}, got {got:?}"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

/// The machine the lower-bound construction runs on: the instance under
/// PSO with tagged (globally distinct) writes, per the proof's w.l.o.g.
/// assumption.
#[must_use]
pub fn proof_machine(inst: &OrderingInstance) -> Machine<VmProc> {
    let cfg = MachineConfig::new(MemoryModel::Pso, inst.layout.clone()).with_tagged_writes();
    inst.machine_from(cfg)
}

/// Encode the execution `E_π` of `inst` for permutation `pi`.
///
/// # Errors
///
/// Fails if the instance is not an ordering algorithm under this
/// construction, or if resource bounds are exceeded.
pub fn encode_permutation(
    inst: &OrderingInstance,
    pi: &[usize],
    opts: &EncodeOptions,
) -> Result<Encoding, EncodeError> {
    let n = inst.n;
    assert_eq!(pi.len(), n, "permutation length must equal process count");
    {
        let mut seen = vec![false; n];
        for &p in pi {
            assert!(p < n && !seen[p], "pi must be a permutation of 0..n");
            seen[p] = true;
        }
    }

    let initial = proof_machine(inst);
    let mut stacks = Stacks::new(n);
    let last = ProcId::from(pi[n - 1]);
    // Invariant at the top of each iteration: `dec` holds the complete
    // decode of `stacks`.
    let mut dec = Decoder::new(&initial, &stacks, None);
    dec.run(&opts.decode)?;

    for iteration in 0..opts.max_iterations {
        let out = dec.outcome();

        if out.machine.is_done(last) {
            // Construction complete: validate ranks and assemble.
            for (rank, &proc) in pi.iter().enumerate() {
                let got = out.machine.return_value(ProcId::from(proc));
                if got != Some(rank as u64) {
                    return Err(EncodeError::RankMismatch {
                        proc,
                        expected: rank as u64,
                        got,
                    });
                }
            }
            let outcome = dec.into_outcome();
            debug_assert!(
                decode(&initial, &stacks, &opts.decode).is_ok_and(|d| same_decode(&d, &outcome)),
                "resumed decode differs from the from-scratch decode of the final stacks"
            );
            return Ok(Encoding {
                pi: pi.to_vec(),
                commands: stacks.total_commands(),
                value_sum: stacks.total_value(),
                stacks,
                beta: outcome.machine.counters().beta(),
                rho: outcome.machine.counters().rho(),
                outcome,
            });
        }

        // τ_i: the largest π-index whose stack is non-empty.
        let tau = (0..n)
            .rev()
            .find(|&k| !stacks.is_empty_of(ProcId::from(pi[k])));
        let ell = match tau {
            None => 0,
            Some(t) if out.machine.is_done(ProcId::from(pi[t])) => t + 1,
            Some(t) => t,
        };
        if ell >= n {
            return Err(EncodeError::Stalled {
                iterations: iteration,
                diagnostics: format!(
                    "frontier ran past the last process, but {last} is unfinished\n{}",
                    diagnostics(out, &stacks, pi)
                ),
            });
        }
        let p_ell = ProcId::from(pi[ell]);

        let cmd = next_command(out, &stacks, p_ell)?;
        stacks.push_bottom(p_ell, cmd.clone());
        if !dec.resume_with(p_ell, cmd) {
            dec = Decoder::new(&initial, &stacks, Some(p_ell));
        }
        dec.run(&opts.decode)?;
    }

    Err(EncodeError::Stalled {
        iterations: opts.max_iterations,
        diagnostics: diagnostics(dec.outcome(), &stacks, pi),
    })
}

/// Choose the command to append for frontier process `p_ell` (rules E1/E2).
fn next_command(
    dec: &DecodeOutcome,
    stacks: &Stacks,
    p_ell: ProcId,
) -> Result<Command, DecodeError> {
    let m = &dec.machine;
    let layout = &m.config().layout;

    if stacks.is_empty_of(p_ell) {
        // (E1): count earlier processes that access R_{p_ell} during E_i.
        let mut accessors: BTreeSet<ProcId> = BTreeSet::new();
        for step in &dec.steps {
            if step.event.proc != p_ell
                && step
                    .event
                    .kind
                    .accesses_segment_of(|r| layout.owner(r) == Some(p_ell))
            {
                accessors.insert(step.event.proc);
            }
        }
        if !accessors.is_empty() {
            return Ok(Command::WaitLocalFinish(
                accessors.len() as u64,
                BTreeSet::new(),
            ));
        }
    }

    match m.poised(p_ell) {
        Poised::Fence if !m.buffer_is_empty(p_ell) => {
            // (E2b): classify the pending batch against the suffix E**.
            let split = dec.stack_empty_at[p_ell.index()].ok_or_else(|| {
                DecodeError::Internal(format!(
                    "(I6) violated: {p_ell}'s stack never emptied during decode"
                ))
            })?;
            let batch = m.buffer(p_ell);

            // γ: batch registers that receive a commit during E**.
            // ζ: distinct processes that read a batch register from shared
            // memory during E**.
            let mut committed: BTreeSet<RegId> = BTreeSet::new();
            let mut readers: BTreeSet<ProcId> = BTreeSet::new();
            for s in dec.suffix(split) {
                match s.event.kind {
                    EventKind::Commit { reg, .. } if batch.contains(reg) => {
                        committed.insert(reg);
                    }
                    EventKind::Read {
                        reg,
                        from_memory: true,
                        ..
                    } if s.event.proc != p_ell && batch.contains(reg) => {
                        readers.insert(s.event.proc);
                    }
                    _ => {}
                }
            }
            if !committed.is_empty() {
                return Ok(Command::WaitHiddenCommit(committed.len() as u64));
            }
            if !readers.is_empty() {
                return Ok(Command::WaitReadFinish(
                    readers.len() as u64,
                    BTreeSet::new(),
                ));
            }

            Ok(Command::Commit)
        }
        _ => Ok(Command::Proceed), // (E2a)
    }
}

fn diagnostics(dec: &DecodeOutcome, stacks: &Stacks, pi: &[usize]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let m = &dec.machine;
    let _ = writeln!(out, "pi = {pi:?}");
    let _ = writeln!(out, "steps decoded = {}", dec.steps.len());
    for i in 0..m.n() {
        let p = ProcId::from(i);
        let _ = writeln!(
            out,
            "p{i}: poised={:?} buffer={:?} returned={:?} stack_top={:?} stack_len={}",
            m.poised(p),
            m.buffer(p).regs(),
            m.return_value(p),
            stacks.top(p).map(ToString::to_string),
            stacks.len_of(p),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlocks::{build_ordering, LockKind, ObjectKind};

    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn encodes_identity_permutation_bakery_two() {
        let inst = build_ordering(LockKind::Bakery, 2, ObjectKind::Counter);
        let enc = encode_permutation(&inst, &identity(2), &EncodeOptions::default())
            .expect("encoding succeeds");
        assert_eq!(enc.recovered_permutation(), vec![0, 1]);
        assert!(enc.commands > 0);
        assert!(enc.beta > 0);
        assert!(enc.rho > 0);
    }

    #[test]
    fn encodes_reversed_permutation_bakery_two() {
        let inst = build_ordering(LockKind::Bakery, 2, ObjectKind::Counter);
        let enc = encode_permutation(&inst, &[1, 0], &EncodeOptions::default())
            .expect("encoding succeeds");
        assert_eq!(enc.recovered_permutation(), vec![1, 0]);
    }

    #[test]
    fn encodes_all_permutations_of_three_bakery() {
        let inst = build_ordering(LockKind::Bakery, 3, ObjectKind::Counter);
        let perms: Vec<Vec<usize>> = all_permutations(3);
        let mut codes = std::collections::HashSet::new();
        for pi in &perms {
            let enc = encode_permutation(&inst, pi, &EncodeOptions::default())
                .unwrap_or_else(|e| panic!("pi={pi:?}: {e}"));
            assert_eq!(&enc.recovered_permutation(), pi, "pi={pi:?}");
            // Distinct permutations yield distinct stack renderings.
            codes.insert(enc.stacks.render());
        }
        assert_eq!(codes.len(), perms.len(), "codes must be injective");
    }

    #[test]
    fn encodes_gt_and_tournament_small() {
        for kind in [LockKind::Gt { f: 2 }, LockKind::Tournament] {
            let inst = build_ordering(kind, 4, ObjectKind::Counter);
            for pi in [vec![0, 1, 2, 3], vec![3, 1, 0, 2], vec![2, 3, 1, 0]] {
                let enc = encode_permutation(&inst, &pi, &EncodeOptions::default())
                    .unwrap_or_else(|e| panic!("{kind:?} pi={pi:?}: {e}"));
                assert_eq!(enc.recovered_permutation(), pi, "{kind:?}");
            }
        }
    }

    #[test]
    fn filter_lock_counter_encodes_too() {
        // Filter is a read/write ordering algorithm far above the tradeoff
        // curve; the construction must handle it all the same.
        let inst = build_ordering(LockKind::Filter, 3, ObjectKind::Counter);
        for pi in [vec![0, 1, 2], vec![2, 1, 0], vec![1, 2, 0]] {
            let enc = encode_permutation(&inst, &pi, &EncodeOptions::default())
                .unwrap_or_else(|e| panic!("pi={pi:?}: {e}"));
            assert_eq!(enc.recovered_permutation(), pi);
            assert!(crate::invariants::check_all(&enc).is_empty());
        }
    }

    #[test]
    fn noisy_counter_exercises_hidden_commits() {
        // The noisy counter's pre-acquire announcement write to a shared
        // register is exactly the pattern wait-hidden-commit exists for: a
        // stalled later process's announcement commits hidden, immediately
        // overwritten by an earlier process's own announcement.
        let inst = build_ordering(LockKind::Gt { f: 2 }, 4, ObjectKind::NoisyCounter);
        let mut saw_hidden = false;
        for pi in [vec![3, 2, 1, 0], vec![1, 3, 0, 2], vec![0, 1, 2, 3]] {
            let enc = encode_permutation(&inst, &pi, &EncodeOptions::default())
                .unwrap_or_else(|e| panic!("pi={pi:?}: {e}"));
            assert_eq!(enc.recovered_permutation(), pi);
            let has_whc = (0..4).any(|i| {
                enc.stacks
                    .commands_of(wbmem::ProcId::from(i))
                    .iter()
                    .any(|c| matches!(c, Command::WaitHiddenCommit(_)))
            });
            let has_hidden_step = enc.outcome.steps.iter().any(|s| s.hidden);
            assert_eq!(has_whc, has_hidden_step, "commands and steps must agree");
            saw_hidden |= has_hidden_step;
        }
        assert!(
            saw_hidden,
            "some permutation must exercise the hidden-commit path"
        );
    }

    fn all_permutations(n: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut items: Vec<usize> = (0..n).collect();
        permute(&mut items, 0, &mut out);
        out
    }

    fn permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == items.len() {
            out.push(items.clone());
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, out);
            items.swap(k, i);
        }
    }
}
