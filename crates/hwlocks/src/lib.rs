//! # hwlocks — the paper's lock family on real atomics
//!
//! Hardware (`std::sync::atomic`) implementations of the algorithms the
//! simulator crates study, runnable on any machine (the fence placement is
//! load-bearing on weakly ordered hardware such as ARM; on x86 the `SeqCst`
//! fences map to `mfence`-class barriers, and experiment E7 checks that a
//! passage executes as many of them as the simulator counts):
//!
//! * [`HwBakery`] — O(1) fences, O(n) coherence misses per passage;
//! * [`HwPeterson`] — the two-thread building block;
//! * [`HwTournament`] — O(log n) fences and misses;
//! * [`HwGt`] — `GT_f` for any height `f`: `4f` fences, `O(f·n^(1/f))`
//!   misses;
//! * [`CountingLock`] — the `Count` ordering object over any of them.
//!
//! ## Memory-ordering discipline
//!
//! Mirroring the paper's machine: plain stores are `Relaxed` (bufferable,
//! reorderable — the PSO behaviour), each algorithmic fence site executes a
//! counted `SeqCst` fence ([`FenceCounter`]), and loads are `SeqCst`
//! (conservatively ruling out read reordering, which the paper's fences
//! also forbid under RMO). Correctness thus rests exactly on the fence
//! placement, as in the paper. Every slot's registers are cache-line padded
//! ([`Pad`]) so a coherence miss is the faithful hardware analogue of an
//! RMR.
//!
//! ## Example
//!
//! ```
//! use hwlocks::{CountingLock, HwGt, RawLock};
//!
//! let counter = CountingLock::new(HwGt::new(8, 2));
//! assert_eq!(counter.next(0), 0);
//! assert_eq!(counter.next(3), 1);
//! assert_eq!(counter.lock().fences(), 2 * 8); // 4·f per passage, f = 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bakery;
pub mod counting;
pub mod gt;
pub mod mcs;
pub mod peterson;
pub mod raw;
pub mod tas;
pub mod tournament;

#[doc(hidden)]
pub mod testutil;

pub use bakery::HwBakery;
pub use counting::CountingLock;
pub use gt::HwGt;
pub use mcs::HwMcs;
pub use peterson::HwPeterson;
pub use raw::{with_lock, FenceCounter, LockGuard, Pad, RawLock};
pub use tas::HwTtas;
pub use tournament::HwTournament;
