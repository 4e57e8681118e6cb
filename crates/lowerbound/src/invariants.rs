//! Executable checks for the structural invariants of Lemma 5.1 and the
//! quantitative relations of Lemmas 5.3–5.11.
//!
//! These run over a completed [`Encoding`] and report violations as
//! human-readable strings (empty list = all hold). They are used by the
//! property-based tests and by experiment E6.

use wbmem::ProcId;

use crate::command::Command;
use crate::encode::Encoding;

/// Check every supported invariant; returns the list of violations.
#[must_use]
pub fn check_all(enc: &Encoding) -> Vec<String> {
    let mut v = Vec::new();
    v.extend(check_i2_ranks(enc));
    v.extend(check_i4_single_wait_local_finish_on_top(enc));
    v.extend(check_i5_wait_local_finish_counts(enc));
    v.extend(check_i6_stacks_drained(enc));
    v.extend(check_i10_command_order(enc));
    v.extend(check_lemma_5_11_fences_vs_stack_size(enc));
    v.extend(check_value_sum_vs_rmrs(enc));
    v
}

/// (I2): each process `p_k` finished with value `k`.
#[must_use]
pub fn check_i2_ranks(enc: &Encoding) -> Vec<String> {
    let mut out = Vec::new();
    for (rank, &proc) in enc.pi.iter().enumerate() {
        let got = enc.outcome.machine.return_value(ProcId::from(proc));
        if got != Some(rank as u64) {
            out.push(format!("(I2) p{proc} at rank {rank} returned {got:?}"));
        }
    }
    out
}

/// (I4): each stack contains at most one `wait-local-finish`, and only at
/// the top.
#[must_use]
pub fn check_i4_single_wait_local_finish_on_top(enc: &Encoding) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..enc.stacks.n() {
        let cmds = enc.stacks.commands_of(ProcId::from(i));
        let wlf_positions: Vec<usize> = cmds
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, Command::WaitLocalFinish(..)))
            .map(|(k, _)| k)
            .collect();
        if wlf_positions.len() > 1 {
            out.push(format!(
                "(I4) p{i} has {} wait-local-finish commands",
                wlf_positions.len()
            ));
        }
        if let Some(&pos) = wlf_positions.first() {
            if pos != 0 {
                out.push(format!(
                    "(I4) p{i} has wait-local-finish at depth {pos}, not the top"
                ));
            }
        }
    }
    out
}

/// (I5): if `p`'s stack carries `wait-local-finish(λ)`, then exactly `λ`
/// processes *earlier in π* access `p`'s memory segment during the final
/// execution (their behaviour is unchanged between the construction prefix
/// and the final decode, by (I3) — later processes may also access the
/// segment, so the accessor set is intersected with π's prefix).
#[must_use]
pub fn check_i5_wait_local_finish_counts(enc: &Encoding) -> Vec<String> {
    let mut out = Vec::new();
    let trace = enc.outcome.trace();
    let layout = &enc.outcome.machine.config().layout;
    for (rank, &proc) in enc.pi.iter().enumerate() {
        let p = ProcId::from(proc);
        let lambda = enc.stacks.commands_of(p).into_iter().find_map(|c| match c {
            Command::WaitLocalFinish(k, _) => Some(k),
            _ => None,
        });
        let Some(lambda) = lambda else { continue };
        let earlier: std::collections::BTreeSet<ProcId> =
            enc.pi[..rank].iter().map(|&q| ProcId::from(q)).collect();
        let accessors = trace.segment_accessors(layout, p);
        let earlier_accessors = accessors.iter().filter(|q| earlier.contains(q)).count() as u64;
        if earlier_accessors != lambda {
            out.push(format!(
                "(I5) p{proc} (rank {rank}) carries wait-local-finish({lambda}) but \
                 {earlier_accessors} earlier processes access its segment"
            ));
        }
    }
    out
}

/// (I6): decoding the final stacks consumes them entirely.
#[must_use]
pub fn check_i6_stacks_drained(enc: &Encoding) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..enc.outcome.stacks.n() {
        let p = ProcId::from(i);
        if !enc.outcome.stacks.is_empty_of(p) {
            out.push(format!(
                "(I6) p{i}'s stack not drained: {:?}",
                enc.outcome
                    .stacks
                    .commands_of(p)
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            ));
        }
    }
    out
}

/// (I10): reading a stack top-to-bottom, below a `wait-read-finish` comes a
/// `commit`; below a `wait-hidden-commit` comes one of `wait-read-finish`,
/// `proceed`, `commit`; below a `commit` comes a `proceed`.
#[must_use]
pub fn check_i10_command_order(enc: &Encoding) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..enc.stacks.n() {
        let cmds = enc.stacks.commands_of(ProcId::from(i));
        for w in cmds.windows(2) {
            let (above, below) = (&w[0], &w[1]);
            let ok = match above {
                Command::WaitReadFinish(..) => matches!(below, Command::Commit),
                Command::WaitHiddenCommit(_) => matches!(
                    below,
                    Command::WaitReadFinish(..) | Command::Proceed | Command::Commit
                ),
                Command::Commit => matches!(below, Command::Proceed),
                _ => true,
            };
            if !ok {
                out.push(format!("(I10) p{i}: `{below}` directly below `{above}`"));
            }
        }
    }
    out
}

/// Lemma 5.11: process `p` executes at least `⌈(|S_p|−1)/4⌉ − 3` fence
/// steps, where `S_p` is its final stack.
#[must_use]
pub fn check_lemma_5_11_fences_vs_stack_size(enc: &Encoding) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..enc.stacks.n() {
        let stack_len = enc.stacks.len_of(ProcId::from(i));
        let fences = enc.outcome.machine.counters().proc(i).fences;
        let lower = (stack_len.saturating_sub(1)).div_ceil(4) as i64 - 3;
        if (fences as i64) < lower {
            out.push(format!(
                "(Lemma 5.11) p{i}: {fences} fences < bound {lower} for stack of {stack_len}"
            ));
        }
    }
    out
}

/// Lemmas 5.3/5.7 (aggregated): the total command value is at most a
/// constant multiple of the remote steps plus the command count — the
/// quantitative heart of `v_π = O(ρ)`. We use the paper's constants: value
/// sum of the three wait-command families ≤ 2ρ + 2ρ + ρ ≤ 5ρ, plus one per
/// parameterless command.
#[must_use]
pub fn check_value_sum_vs_rmrs(enc: &Encoding) -> Vec<String> {
    let parameterless: u64 = (0..enc.stacks.n())
        .flat_map(|i| enc.stacks.commands_of(ProcId::from(i)))
        .filter(|c| !c.has_parameter())
        .count() as u64;
    let wait_value = enc.value_sum - parameterless;
    let bound = 5 * enc.rho;
    if wait_value > bound {
        vec![format!(
            "(Lemmas 5.3/5.7) wait-command value {wait_value} exceeds 5ρ = {bound}"
        )]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_permutation, EncodeOptions};
    use simlocks::{build_ordering, LockKind, ObjectKind};

    #[test]
    fn invariants_hold_for_small_bakery_encodings() {
        let inst = build_ordering(LockKind::Bakery, 3, ObjectKind::Counter);
        for pi in [vec![0, 1, 2], vec![2, 0, 1], vec![1, 2, 0]] {
            let enc = encode_permutation(&inst, &pi, &EncodeOptions::default())
                .unwrap_or_else(|e| panic!("pi={pi:?}: {e}"));
            let violations = check_all(&enc);
            assert!(violations.is_empty(), "pi={pi:?}: {violations:?}");
        }
    }

    #[test]
    fn invariants_hold_for_gt_encoding() {
        let inst = build_ordering(LockKind::Gt { f: 2 }, 4, ObjectKind::Counter);
        let enc = encode_permutation(&inst, &[2, 0, 3, 1], &EncodeOptions::default())
            .expect("encoding succeeds");
        let violations = check_all(&enc);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
