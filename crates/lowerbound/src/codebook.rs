//! Exhaustive codebooks: encode **every** permutation of `[n]` (feasible
//! for small `n`) and study the resulting code set — the literal object of
//! the counting argument: n! distinct codes, so the longest one carries at
//! least `log₂ n!` bits.

use simlocks::OrderingInstance;

use crate::bits::{serialize_stacks, BitString};
use crate::encode::{encode_permutation, EncodeError, EncodeOptions};

/// Summary statistics of a full codebook.
#[derive(Clone, Debug, PartialEq)]
pub struct Codebook {
    /// Number of permutations encoded (= n!).
    pub permutations: usize,
    /// Whether all codes were pairwise distinct (they must be).
    pub injective: bool,
    /// Minimum code length in bits.
    pub min_bits: usize,
    /// Mean code length in bits.
    pub mean_bits: f64,
    /// Maximum code length in bits.
    pub max_bits: usize,
    /// Maximum β over the constructed executions.
    pub max_beta: u64,
    /// Maximum ρ over the constructed executions.
    pub max_rho: u64,
}

/// What makes two codes the same code: length and content. The packed
/// bytes alone are zero-padded, so codes that differ only in trailing zero
/// bits of the last byte (`proceed` is tag `000`) would collapse.
fn code_key(bits: &BitString) -> (usize, Vec<u8>) {
    (bits.len(), bits.to_bytes())
}

/// Encode every permutation of `0..n` for `inst` and summarize the codes.
///
/// # Errors
///
/// Propagates the first encoding failure.
///
/// # Panics
///
/// Panics if `n > 8` (8! = 40320 encodings is already generous).
pub fn build_codebook(
    inst: &OrderingInstance,
    opts: &EncodeOptions,
) -> Result<Codebook, EncodeError> {
    let n = inst.n;
    assert!(n <= 8, "exhaustive codebooks are for small n");

    let mut codes = std::collections::HashSet::new();
    let (mut count, mut min_bits, mut max_bits, mut sum_bits) = (0usize, usize::MAX, 0usize, 0u64);
    let (mut max_beta, mut max_rho) = (0u64, 0u64);

    let mut items: Vec<usize> = (0..n).collect();
    let mut stack = vec![0usize; n];
    // Heap's algorithm, iterative.
    let mut process =
        |pi: &[usize], codes: &mut std::collections::HashSet<_>| -> Result<(), EncodeError> {
            let enc = encode_permutation(inst, pi, opts)?;
            let bits = serialize_stacks(&enc.stacks);
            codes.insert(code_key(&bits));
            count += 1;
            min_bits = min_bits.min(bits.len());
            max_bits = max_bits.max(bits.len());
            sum_bits += bits.len() as u64;
            max_beta = max_beta.max(enc.beta);
            max_rho = max_rho.max(enc.rho);
            Ok(())
        };

    process(&items, &mut codes)?;
    let mut i = 1;
    while i < n {
        if stack[i] < i {
            if i % 2 == 0 {
                items.swap(0, i);
            } else {
                items.swap(stack[i], i);
            }
            process(&items, &mut codes)?;
            stack[i] += 1;
            i = 1;
        } else {
            stack[i] = 0;
            i += 1;
        }
    }

    Ok(Codebook {
        permutations: count,
        injective: codes.len() == count,
        min_bits,
        mean_bits: sum_bits as f64 / count as f64,
        max_bits,
        max_beta,
        max_rho,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::log2_factorial;
    use simlocks::{build_ordering, LockKind, ObjectKind};

    #[test]
    fn full_codebook_n4_is_injective_and_above_the_floor() {
        let inst = build_ordering(LockKind::Bakery, 4, ObjectKind::Counter);
        let book = build_codebook(&inst, &EncodeOptions::default()).expect("codebook");
        assert_eq!(book.permutations, 24);
        assert!(book.injective, "all 24 codes must differ");
        assert!(book.min_bits as f64 >= log2_factorial(4));
        assert!(book.max_bits >= book.min_bits);
        assert!(book.mean_bits >= book.min_bits as f64);
        assert!(book.mean_bits <= book.max_bits as f64);
    }

    #[test]
    fn codes_differing_only_in_trailing_zero_bits_stay_distinct() {
        // 1 0 and 1 0 0 0 (one more `proceed` tag) pack to the same byte.
        let mut short = BitString::new();
        short.push_uint(0b10, 2);
        let mut long = short.clone();
        long.push_uint(0b000, 3);
        assert_eq!(short.to_bytes(), long.to_bytes());
        assert_ne!(code_key(&short), code_key(&long));
    }

    #[test]
    fn gt_codebook_n3_is_injective() {
        let inst = build_ordering(LockKind::Gt { f: 2 }, 3, ObjectKind::Counter);
        let book = build_codebook(&inst, &EncodeOptions::default()).expect("codebook");
        assert_eq!(book.permutations, 6);
        assert!(book.injective);
    }
}
