//! A lock-free sharded fingerprint table.
//!
//! No engine uses this table (the checker's one walk keys states by dense
//! ids); the `benchmark/` harness still times its insert path. Threads
//! that share a visited set touch it on every transition, so this table
//! claims a fingerprint with open-addressing probe sequences over
//! `(AtomicU64, AtomicU64)` slot pairs and a single CAS per claimed state
//! — no locks anywhere on the insert path.
//!
//! ## Layout
//!
//! 64 shards, routed by the fingerprint's high bits (the same routing the
//! seed sharding used, so shard balance characteristics carry over). Each
//! shard owns a list of lazily allocated segments with doubling sizes;
//! segments are append-only and slots are **write-once** (`0 → key`,
//! never mutated again), which is what makes the lock-free argument
//! short.
//!
//! ## Insert protocol and memory ordering
//!
//! A fingerprint is split into two nonzero words `(w0, w1)` (`0` is the
//! empty-slot sentinel; see [`encode`]). Every prober for a given
//! fingerprint walks the **same deterministic slot sequence**: segments
//! in index order, a bounded linear-probe window inside each. Per slot:
//!
//! 1. load `w0` (`Acquire`); if empty, `compare_exchange(0, w0)`
//!    (`AcqRel`). The winner stores `w1` (`Release`) and owns the state.
//! 2. a CAS loser re-reads the slot it lost; if the occupant's `w0`
//!    matches, it spins until the winner's `w1` publish lands (slots are
//!    write-once, so *any* nonzero `w1` read is the winner's value) and
//!    compares. A full match is a duplicate; a mismatch moves to the
//!    next slot in the sequence.
//!
//! **No lost inserts:** a prober only claims a slot after failing to
//! match its key at every earlier slot of the sequence, and a slot's
//! occupant never changes once claimed. Two racers for the same key
//! therefore converge on the same first-free slot: exactly one CAS
//! succeeds (`true`), and the loser — whether it observed the claim via
//! its plain load or via its failed CAS — matches there and returns
//! `false`. Distinct keys can never merge (full 128-bit compare), and a
//! key can never be claimed twice (the second claimer would have had to
//! pass the first claim without matching it, which the write-once
//! modification order forbids). The stress test in
//! `tests/fptable_stress.rs` hammers exactly this property.
//!
//! Zero-word remapping makes two fingerprints collide iff one has a zero
//! half where the other has the tag constant — a `2^-128`-class event,
//! the same order as a fingerprint collision itself (which every engine
//! in this repository already accepts).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Shard count; must be a power of two. Matches the seed sharding so the
/// routing `(fp >> 64) & (SHARDS - 1)` distributes identically.
const SHARDS: usize = 64;

/// Maximum segments per shard. Segment `k` holds `SEG0_SLOTS << k`
/// slots, so the aggregate capacity at the cap is astronomically larger
/// than any reachable state count; running out panics (and the engines'
/// panic isolation turns that into a sequential rerun).
const SEGMENTS: usize = 16;

/// Slots in a shard's first segment (power of two). Sized so the default
/// 2M-state budget fits within a handful of segments.
const SEG0_SLOTS: usize = 4096;

/// Consecutive slots probed per segment before spilling to the next.
const PROBE_WINDOW: usize = 64;

/// Substitute for a zero key half (`0` is the empty-slot sentinel).
const ZERO_TAG: u64 = 0x9e37_79b9_7f4a_7c15;

/// Split a fingerprint into two guaranteed-nonzero words.
fn encode(fp: u128) -> (u64, u64) {
    let hi = (fp >> 64) as u64;
    let lo = fp as u64;
    (
        if hi == 0 { ZERO_TAG } else { hi },
        if lo == 0 { ZERO_TAG } else { lo },
    )
}

/// One open-addressing slot: `(w0, w1)` of an [`encode`]d fingerprint,
/// both zero while unclaimed. `w0` is the claim word (CAS target); `w1`
/// is published after a successful claim.
struct Slot {
    w0: AtomicU64,
    w1: AtomicU64,
}

fn alloc_segment(slots: usize) -> Box<[Slot]> {
    (0..slots)
        .map(|_| Slot {
            w0: AtomicU64::new(0),
            w1: AtomicU64::new(0),
        })
        .collect()
}

/// Spin until the claim at `slot` is fully published, then return its
/// second word. Write-once slots make any nonzero read authoritative.
fn published_w1(slot: &Slot) -> u64 {
    let mut spins = 0u32;
    loop {
        let w1 = slot.w1.load(Ordering::Acquire);
        if w1 != 0 {
            return w1;
        }
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

struct Shard {
    segments: [OnceLock<Box<[Slot]>>; SEGMENTS],
    /// Distinct fingerprints claimed in this shard.
    occupancy: AtomicUsize,
    /// Failed claim CASes (two probers raced for the same slot).
    cas_failures: AtomicU64,
    /// Occupied slots stepped over while probing (clustering measure).
    probe_collisions: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| OnceLock::new()),
            occupancy: AtomicUsize::new(0),
            cas_failures: AtomicU64::new(0),
            probe_collisions: AtomicU64::new(0),
        }
    }
}

/// Lock-free set of `u128` fingerprints; see the module docs for the
/// insert protocol. Shared by reference across worker threads.
pub struct FpTable {
    shards: Vec<Shard>,
}

impl Default for FpTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FpTable {
    /// An empty table. Segments allocate lazily, so an unused table
    /// costs a few hundred bytes.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Insert `fp`; returns `true` iff it was not already present.
    ///
    /// # Panics
    ///
    /// If every segment of the target shard is saturated — a state count
    /// far beyond any configurable budget.
    pub fn insert(&self, fp: u128) -> bool {
        let shard = &self.shards[(fp >> 64) as usize & (SHARDS - 1)];
        let (w0, w1) = encode(fp);
        // Per-segment probe starts are derived from both words so probe
        // sequences of different keys decorrelate across segments.
        let h = w0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ w1;
        for (seg_idx, seg_cell) in shard.segments.iter().enumerate() {
            let slots = SEG0_SLOTS << seg_idx;
            let seg = seg_cell.get_or_init(|| alloc_segment(slots));
            let mask = slots - 1;
            let start = h.rotate_left(seg_idx as u32 * 7) as usize & mask;
            for step in 0..PROBE_WINDOW.min(slots) {
                let slot = &seg[(start + step) & mask];
                let mut cur = slot.w0.load(Ordering::Acquire);
                if cur == 0 {
                    match slot
                        .w0
                        .compare_exchange(0, w0, Ordering::AcqRel, Ordering::Acquire)
                    {
                        Ok(_) => {
                            slot.w1.store(w1, Ordering::Release);
                            shard.occupancy.fetch_add(1, Ordering::Relaxed);
                            return true;
                        }
                        Err(observed) => {
                            shard.cas_failures.fetch_add(1, Ordering::Relaxed);
                            cur = observed;
                        }
                    }
                }
                if cur == w0 && published_w1(slot) == w1 {
                    return false;
                }
                shard.probe_collisions.fetch_add(1, Ordering::Relaxed);
            }
        }
        panic!("fptable: shard saturated ({SEGMENTS} segments)");
    }

    /// Distinct fingerprints inserted so far. Exact once concurrent
    /// inserts have completed (each claim increments exactly once); the
    /// engines read it after joining their workers and wire it to the
    /// `dedup_occupancy` gauge.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.occupancy.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether nothing has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every fingerprint in the table, sorted. Shard and slot order (a
    /// race artifact) never leak: two tables holding the same set export
    /// identical vectors, and re-inserting the export into a fresh table
    /// reproduces the occupancy exactly — which is how a checkpoint
    /// pre-seeds a resumed run's table.
    ///
    /// Call after worker threads have quiesced: a claim racing with the
    /// walk may or may not be included (the walk spins out any claimed
    /// slot's `w1` publish, so it never reads a *torn* entry).
    ///
    /// The zero-word remapping is lossy in one `2^-64`-class corner: a
    /// fingerprint half equal to the tag constant exports as the zero
    /// half it is stored as — the same collision order every engine here
    /// already accepts.
    #[must_use]
    pub fn export(&self) -> Vec<u128> {
        let decode = |w: u64| if w == ZERO_TAG { 0 } else { w };
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            for seg_cell in &shard.segments {
                let Some(seg) = seg_cell.get() else { continue };
                for slot in seg.iter() {
                    let w0 = slot.w0.load(Ordering::Acquire);
                    if w0 == 0 {
                        continue;
                    }
                    let w1 = published_w1(slot);
                    out.push((u128::from(decode(w0)) << 64) | u128::from(decode(w1)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Aggregate contention events: failed claim CASes plus occupied
    /// slots stepped over while probing. Exported by the engines as the
    /// `fp_contention` counter.
    #[must_use]
    pub fn contention(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.cas_failures.load(Ordering::Relaxed) + s.probe_collisions.load(Ordering::Relaxed)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedup_len() {
        let t = FpTable::new();
        assert!(t.is_empty());
        assert!(t.insert(7));
        assert!(!t.insert(7));
        assert!(t.insert(8));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn zero_halves_are_distinct_keys() {
        let t = FpTable::new();
        // Every combination of zero/nonzero halves stays distinct.
        let keys = [0u128, 1, 1 << 64, (1 << 64) | 1, u128::MAX];
        for &k in &keys {
            assert!(t.insert(k), "first insert of {k:#x}");
        }
        for &k in &keys {
            assert!(!t.insert(k), "reinsert of {k:#x}");
        }
        assert_eq!(t.len(), keys.len());
    }

    #[test]
    fn identical_claim_words_disambiguate_on_w1() {
        let t = FpTable::new();
        // One fixed high word: every key routes to the same shard AND
        // claims slots with the same w0, so dedup decisions ride
        // entirely on the published w1 — the adversarial case for the
        // two-word protocol.
        let n = 3000u128;
        for i in 0..n {
            assert!(t.insert((0x2a << 64) | i));
        }
        for i in 0..n {
            assert!(!t.insert((0x2a << 64) | i));
        }
        assert_eq!(t.len(), n as usize);
    }

    #[test]
    fn export_is_sorted_and_occupancy_preserving() {
        let t = FpTable::new();
        // Mix of shard routes, zero halves, and a segment spill.
        let mut keys: Vec<u128> = (0..(SEG0_SLOTS as u128 + 50)).map(|i| i << 1 | 1).collect();
        keys.extend([0u128, 1, 1 << 64, u128::MAX, 0x7f << 64]);
        for &k in &keys {
            t.insert(k);
        }
        let exported = t.export();
        let mut expect = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(exported, expect, "export is the sorted key set");
        // Import into a fresh table: same occupancy, same dedup behavior.
        let t2 = FpTable::new();
        for &k in &exported {
            assert!(t2.insert(k), "import inserts fresh");
        }
        assert_eq!(t2.len(), t.len());
        for &k in &keys {
            assert!(!t2.insert(k), "imported table dedups original keys");
        }
        assert_eq!(t2.export(), exported, "export∘import is idempotent");
    }

    #[test]
    fn overflow_into_later_segments() {
        let t = FpTable::new();
        // Push one shard (fixed high bits => fixed shard) well past its
        // first segment's capacity; inserts must spill, never lose keys.
        let n = (SEG0_SLOTS * 3) as u128;
        for i in 0..n {
            assert!(t.insert(i << 1 | 1));
        }
        assert_eq!(t.len() as u128, n);
        for i in 0..n {
            assert!(!t.insert(i << 1 | 1));
        }
        assert_eq!(t.len() as u128, n);
    }
}
