//! # fence-trade — the fence/RMR tradeoff, executable
//!
//! A full reproduction of **Attiya, Hendler, Woelfel, “Trading Fences with
//! RMRs and Separating Memory Models”, PODC 2015**, as a Rust workspace:
//!
//! | Piece | Crate (re-exported here) | Paper section |
//! |---|---|---|
//! | Write-buffer machine, RMR accounting | [`wbmem`] | §2 (model) |
//! | Algorithm IR + interpreter | [`fencevm`] | §2 (processes) |
//! | Bakery / Peterson / tournament / `GT_f`, ordering objects | [`simlocks`] | §3, §4 |
//! | Command-stack encoder/decoder, bit codec, invariants | [`lowerbound`] | §5 |
//! | Exhaustive model checker, fence-elision search | [`modelcheck`] | §1/§3 separation |
//!
//! The [`analysis`] module ties measurements back to the theorems: the
//! per-passage tradeoff `f·(log(r/f)+1) ∈ Ω(log n)` (equation (1)), its
//! tightness along `GT_f` (equation (2)), and the aggregate Theorem 4.2.
//!
//! ## Quickstart
//!
//! ```
//! use fence_trade::prelude::*;
//!
//! // Build the paper's Count object over GT_2 for 16 processes and
//! // measure one uncontended passage in the PSO write-buffer machine.
//! let inst = build_ordering(LockKind::Gt { f: 2 }, 16, ObjectKind::Counter);
//! let cost = solo_passage(&inst, MemoryModel::Pso, 1_000_000);
//!
//! // O(f) fences, O(f·n^(1/f)) RMRs — and the tradeoff product is Θ(log n).
//! assert_eq!(cost.fences, 10.0); // 4·f lock fences + object + final
//! let norm = normalized_tradeoff(cost.fences, cost.rmrs, 16);
//! assert!(norm >= 1.0 && norm <= 12.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;

pub use fencevm;
pub use ftobs;
pub use lowerbound;
pub use modelcheck;
pub use simlocks;
pub use wbmem;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::analysis::{
        contended_passage, n_log_n, normalized_tradeoff, predicted_gt_fences, predicted_gt_rmrs,
        scaling_exponent, solo_passage, solo_rmr_exponent, theorem_lhs, tradeoff_lhs, PassageCost,
    };
    pub use lowerbound::{
        decode, encode_permutation, proof_machine, recover_permutation, DecodeOptions,
        EncodeOptions,
    };
    pub use modelcheck::{
        check, elision_table, resume, CheckConfig, CheckError, CheckpointPolicy, Coverage, Engine,
        MetricsSnapshot, Recorder, Verdict,
    };
    pub use simlocks::{
        build_mutex, build_ordering, FenceMask, LockKind, ObjectKind, OrderingInstance,
    };
    pub use wbmem::{
        CrashSemantics, Machine, MachineConfig, MemoryLayout, MemoryModel, ProcId, RegId, Value,
    };
}
