//! Hashing for 128-bit state fingerprints.
//!
//! A machine's fingerprint ([`Machine::fingerprint`](crate::Machine)) is
//! the XOR of one 128-bit hash per state component, each computed with
//! [`FpHasher`]: a two-lane multiply-fold mixer with fixed seeds. It reads
//! no `RandomState` and no addresses, so two OS processes fingerprint the
//! same state identically — checkpoints store fingerprints on disk and a
//! later process resumes from them.
//!
//! The fingerprints it produces are already uniformly mixed, so the tables
//! keyed by them ([`FpMap`], [`FpSet`]) hash a key by folding its two
//! halves instead of running SipHash over it again.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED_A: u64 = 0x243f_6a88_85a3_08d3;
const SEED_B: u64 = 0x1319_8a2e_0370_7344;
pub(crate) const MUL_A: u64 = 0x9e37_79b9_7f4a_7c15;
pub(crate) const MUL_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// 64×64→128-bit multiply with the halves folded together: every input
/// bit reaches every output bit through the carry chain.
pub(crate) fn folded_mul(x: u64, k: u64) -> u64 {
    let p = u128::from(x) * u128::from(k);
    #[allow(clippy::cast_possible_truncation)]
    let folded = (p as u64) ^ ((p >> 64) as u64);
    folded
}

/// The `fmix64` avalanche finalizer of MurmurHash3.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Deterministic 128-bit hasher: two independent 64-bit lanes (distinct
/// seeds and multipliers) absorb every word, and each lane is finalized
/// with an avalanche step. A 128-bit collision needs both lanes to collide
/// at once.
#[derive(Clone, Copy, Debug)]
pub struct FpHasher {
    a: u64,
    b: u64,
}

impl FpHasher {
    /// A hasher in its fixed initial state.
    #[must_use]
    pub fn new() -> Self {
        FpHasher {
            a: SEED_A,
            b: SEED_B,
        }
    }

    /// The 128-bit digest of everything written so far.
    #[must_use]
    pub fn finish128(&self) -> u128 {
        (u128::from(fmix64(self.a)) << 64) | u128::from(fmix64(self.b))
    }
}

impl Default for FpHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for FpHasher {
    fn write_u64(&mut self, x: u64) {
        self.a = folded_mul(self.a ^ x, MUL_A);
        self.b = folded_mul(self.b ^ x, MUL_B);
    }

    /// Byte strings are absorbed as little-endian words (independent of
    /// the host's byte order), closed by a word carrying the tail bytes
    /// and the length.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.write_u64(u64::from_le_bytes(tail));
        self.write_u64(bytes.len() as u64);
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        fmix64(self.a ^ self.b.rotate_left(32))
    }
}

/// Pass-through hasher for fingerprint keys: folds the two already-mixed
/// halves of a `u128` into the table's 64-bit hash.
#[derive(Clone, Copy, Debug, Default)]
pub struct FpKeyHasher(u64);

impl Hasher for FpKeyHasher {
    fn write_u128(&mut self, fp: u128) {
        #[allow(clippy::cast_possible_truncation)]
        let folded = (fp as u64) ^ ((fp >> 64) as u64);
        self.0 = folded;
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint tables are keyed by u128 only");
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` of every fingerprint-keyed table.
pub type FpBuildHasher = BuildHasherDefault<FpKeyHasher>;
/// A map keyed by state fingerprint.
pub type FpMap<V> = HashMap<u128, V, FpBuildHasher>;
/// A set of state fingerprints.
pub type FpSet = HashSet<u128, FpBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn digest(f: impl FnOnce(&mut FpHasher)) -> u128 {
        let mut h = FpHasher::new();
        f(&mut h);
        h.finish128()
    }

    #[test]
    fn digests_are_pinned_across_builds_and_processes() {
        // Checkpoints carry fingerprints between OS processes: the
        // function must never depend on the run.
        assert_eq!(
            digest(|h| h.write_u64(1)),
            0xf81e_3a1e_d69c_55b2_57b7_b4d5_735d_e445_u128,
            "changing the mixer invalidates every stored fingerprint: bump the snapshot VERSION"
        );
    }

    #[test]
    fn word_order_length_and_width_all_matter() {
        let ab = digest(|h| {
            h.write_u64(1);
            h.write_u64(2);
        });
        let ba = digest(|h| {
            h.write_u64(2);
            h.write_u64(1);
        });
        assert_ne!(ab, ba);
        assert_ne!(digest(|h| h.write(&[0])), digest(|h| h.write(&[0, 0])));
        assert_ne!(digest(|h| h.write(&[])), digest(|_| {}));
        // Derived `Hash` impls route through the word writers.
        assert_eq!(digest(|h| 7u32.hash(h)), digest(|h| h.write_u64(7)));
        assert_eq!(
            digest(|h| (-1i64).hash(h)),
            digest(|h| h.write_u64(u64::MAX))
        );
    }

    #[test]
    fn both_lanes_avalanche() {
        // Flipping one input bit flips about half of each 64-bit half.
        let base = digest(|h| h.write_u64(0));
        for bit in 0..64 {
            let d = base ^ digest(|h| h.write_u64(1 << bit));
            #[allow(clippy::cast_possible_truncation)]
            let (hi, lo) = (((d >> 64) as u64).count_ones(), (d as u64).count_ones());
            assert!(
                (12..=52).contains(&hi) && (12..=52).contains(&lo),
                "bit {bit}: {hi}/{lo}"
            );
        }
    }

    #[test]
    fn key_hasher_folds_and_tables_work() {
        let mut h = FpKeyHasher::default();
        h.write_u128((0xABu128 << 64) | 0x0F);
        assert_eq!(h.finish(), 0xAB ^ 0x0F);
        let mut set = FpSet::default();
        assert!(set.insert(u128::MAX));
        assert!(!set.insert(u128::MAX));
        let mut map: FpMap<u32> = FpMap::default();
        map.insert(0, 1);
        assert_eq!(map.get(&0), Some(&1));
    }
}
