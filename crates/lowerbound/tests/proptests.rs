//! Property-based tests for the lower-bound machinery: codec round trips
//! on arbitrary stacks, full π → stacks → bits → E_π → π round trips on
//! random permutations, and the shared-prefix lemma the incremental encoder
//! rests on.

use proptest::prelude::*;

use lowerbound::{
    decode, deserialize_stacks, encode_permutation, proof_machine, recover_permutation,
    serialize_stacks, Command, DecodeOptions, EncodeOptions, Stacks,
};
use simlocks::{build_ordering, LockKind, ObjectKind};
use wbmem::ProcId;

fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Proceed),
        Just(Command::Commit),
        (1u64..10_000).prop_map(Command::WaitHiddenCommit),
        (1u64..10_000).prop_map(|k| Command::WaitReadFinish(k, Default::default())),
        (1u64..10_000).prop_map(|k| Command::WaitLocalFinish(k, Default::default())),
    ]
}

fn arb_stacks() -> impl Strategy<Value = Stacks> {
    (1usize..6)
        .prop_flat_map(|n| prop::collection::vec(prop::collection::vec(arb_command(), 0..20), n))
        .prop_map(|per_proc| {
            let mut st = Stacks::new(per_proc.len());
            for (i, cmds) in per_proc.into_iter().enumerate() {
                for c in cmds {
                    st.push_bottom(ProcId::from(i), c);
                }
            }
            st
        })
}

proptest! {
    /// Arbitrary stacks serialize and deserialize losslessly.
    #[test]
    fn codec_round_trips_arbitrary_stacks(st in arb_stacks()) {
        let n = st.n();
        let bits = serialize_stacks(&st);
        let back = deserialize_stacks(&bits, n).expect("round trip");
        prop_assert_eq!(back, st);
    }

    /// Code length is monotone in content: appending a command never
    /// shortens the code.
    #[test]
    fn appending_commands_grows_the_code(st in arb_stacks(), cmd in arb_command()) {
        let before = serialize_stacks(&st).len();
        let mut bigger = st.clone();
        bigger.push_bottom(ProcId(0), cmd);
        let after = serialize_stacks(&bigger).len();
        prop_assert!(after > before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Decoding is a pure function of (machine, stacks): two runs agree on
    /// every step and on the final configuration.
    #[test]
    fn decoding_is_deterministic(seed in 0u64..64) {
        let inst = build_ordering(LockKind::Bakery, 3, ObjectKind::Counter);
        let mut pi: Vec<usize> = (0..3).collect();
        pi.rotate_left((seed % 3) as usize);
        let enc = encode_permutation(&inst, &pi, &EncodeOptions::default())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let m = proof_machine(&inst);
        let a = decode(&m, &enc.stacks, &DecodeOptions::default()).unwrap();
        let b = decode(&m, &enc.stacks, &DecodeOptions::default()).unwrap();
        prop_assert_eq!(a.steps.len(), b.steps.len());
        for (x, y) in a.steps.iter().zip(&b.steps) {
            prop_assert_eq!(&x.event, &y.event);
            prop_assert_eq!(x.elem, y.elem);
            prop_assert_eq!(x.hidden, y.hidden);
        }
        prop_assert_eq!(a.machine.state_key(), b.machine.state_key());
        prop_assert_eq!(a.stack_empty_at, b.stack_empty_at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full pipeline on random permutations: encode, serialize, decode,
    /// recover — for the Bakery counter.
    #[test]
    fn full_round_trip_random_permutations(
        n in 2usize..6,
        shuffle in prop::collection::vec(any::<prop::sample::Index>(), 16),
    ) {
        let mut pi: Vec<usize> = (0..n).collect();
        for (i, idx) in shuffle.iter().enumerate().take(n.saturating_sub(1)) {
            let j = i + idx.index(n - i);
            pi.swap(i, j);
        }
        let inst = build_ordering(LockKind::Bakery, n, ObjectKind::Counter);
        let enc = encode_permutation(&inst, &pi, &EncodeOptions::default())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(&enc.recovered_permutation(), &pi);

        let bits = serialize_stacks(&enc.stacks);
        let back = deserialize_stacks(&bits, n).expect("codec");
        let out = decode(&proof_machine(&inst), &back, &DecodeOptions::default())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(recover_permutation(&out.machine), pi);

        // Quantitative relations (Lemmas 5.3-5.11, loose forms).
        prop_assert!(enc.commands as u64 >= enc.beta / 8);
        prop_assert!(enc.value_sum >= enc.commands as u64);
        let violations = lowerbound::check_all(&enc);
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }
}

/// Commands in roughly the encoder's mix — mostly `proceed`/`commit`, small
/// wait counters — so that random tails still decode a few steps.
fn arb_likely_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Proceed),
        Just(Command::Proceed),
        Just(Command::Proceed),
        Just(Command::Commit),
        Just(Command::Commit),
        (1u64..3).prop_map(Command::WaitHiddenCommit),
        (1u64..3).prop_map(|k| Command::WaitReadFinish(k, Default::default())),
        (1u64..3).prop_map(|k| Command::WaitLocalFinish(k, Default::default())),
    ]
}

fn gt2_instance(noisy: usize) -> simlocks::OrderingInstance {
    let object = [ObjectKind::Counter, ObjectKind::NoisyCounter][noisy];
    build_ordering(LockKind::Gt { f: 2 }, 4, object)
}

/// π = 2 0 3 1 rotated left by `rotate`.
fn rotated_pi(rotate: usize) -> Vec<usize> {
    let mut pi = vec![2, 0, 3, 1];
    pi.rotate_left(rotate);
    pi
}

/// The encoder's stacks for GT_2 (plain, then noisy counter) on the four
/// rotations of π, encoded once for all cases.
fn encoded_stacks() -> &'static [Stacks] {
    static STACKS: std::sync::OnceLock<Vec<Stacks>> = std::sync::OnceLock::new();
    STACKS.get_or_init(|| {
        let mut all = Vec::new();
        for noisy in 0..2 {
            let inst = gt2_instance(noisy);
            for rotate in 0..4 {
                let pi = rotated_pi(rotate);
                let enc = encode_permutation(&inst, &pi, &EncodeOptions::default())
                    .unwrap_or_else(|e| panic!("pi={pi:?}: {e}"));
                all.push(enc.stacks);
            }
        }
        all
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rules D1–D3 see a stack only through its top and its emptiness, so a
    /// command appended at the *bottom* of `p`'s stack is invisible until
    /// the step at which that stack first emptied: `decode(S)` and
    /// `decode(S + cmd)` agree on their first `stack_empty_at[p]` steps (on
    /// all of them if the stack never emptied). The stacks are random cuts
    /// of a real encoding, which reach deep configurations, plus short
    /// random tails, which leave the encoder's image.
    #[test]
    fn appending_at_the_bottom_keeps_the_decoded_prefix(
        noisy in 0usize..2,
        rotate in 0usize..4,
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 4),
        frontier in prop::option::of(0usize..4),
        tail in prop::collection::vec((0usize..4, arb_likely_command()), 0..3),
        p in 0usize..4,
        random_cmd in prop::option::of(arb_likely_command()),
    ) {
        let inst = gt2_instance(noisy);
        let full = &encoded_stacks()[noisy * 4 + rotate];
        let pi = rotated_pi(rotate);
        let rank = |proc| pi.iter().position(|&q| q == proc).expect("pi is a permutation");

        // With a frontier, append where the encoder would.
        let p = frontier.map_or(p, |ell| pi[ell]);
        // The appended command is a random one, or the one the encoder
        // itself put below `p`'s cut (which usually moves the decode on).
        let real_next = random_cmd.is_none();
        let mut cmd = random_cmd.unwrap_or(Command::Proceed);
        let mut st = Stacks::new(4);
        for (i, cut) in cuts.iter().enumerate() {
            let cmds = full.commands_of(ProcId::from(i));
            // With a frontier ℓ the cut has the encoder's shape: whole
            // stacks before π-index ℓ, empty ones after it.
            let keep = match frontier.map(|ell| rank(i).cmp(&ell)) {
                Some(std::cmp::Ordering::Less) => cmds.len(),
                Some(std::cmp::Ordering::Greater) => 0,
                _ => cut.index(cmds.len() + 1),
            };
            if i == p && real_next {
                cmd = cmds.get(keep).cloned().unwrap_or(cmd);
            }
            for c in cmds.into_iter().take(keep) {
                st.push_bottom(ProcId::from(i), c);
            }
        }
        for (i, c) in tail {
            st.push_bottom(ProcId::from(i), c);
        }
        let mut longer = st.clone();
        longer.push_bottom(ProcId::from(p), cmd);

        let m = proof_machine(&inst);
        let a = decode(&m, &st, &DecodeOptions::default())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let b = decode(&m, &longer, &DecodeOptions::default())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        match a.stack_empty_at[p] {
            Some(k) => {
                prop_assert!(b.steps.len() >= k);
                prop_assert_eq!(&a.steps[..k], &b.steps[..k]);
                for q in (0..4).filter(|&q| q != p) {
                    if a.stack_empty_at[q].is_some_and(|t| t <= k) {
                        prop_assert_eq!(a.stack_empty_at[q], b.stack_empty_at[q]);
                    }
                }
            }
            None => {
                prop_assert_eq!(&a.steps, &b.steps);
                prop_assert_eq!(b.stack_empty_at[p], None);
            }
        }
    }
}
