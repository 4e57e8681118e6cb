//! # ftsynth — counterexample-guided fence synthesis
//!
//! The rest of this repository can *verify* a fence placement; this crate
//! *discovers* one. [`synthesize`] runs a CEGAR loop in the style of
//! reorder-bounded fence inference (Joshi & Kroening; Narayan et al. — see
//! `PAPERS.md`):
//!
//! * strip every fence from the input programs
//!   ([`fencevm::strip_fences`]);
//! * model-check the candidate under the configured memory models
//!   (`Engine::Dpor` / `ParallelDpor` via
//!   [`modelcheck::check_under_models`]);
//! * on a violation, replay the counterexample on the unreduced machine
//!   and extract its **reorder edges** ([`wbmem::reorder_edges`]) — the
//!   write-buffer inversions that enabled the bad interleaving — then
//!   translate each edge's candidate fence sites back through the
//!   insertion pc-map into a **counterexample core**;
//! * pick the next placement as a minimum-weight **hitting set** over all
//!   accumulated cores ([`hitting_set`]: greedy plus exact
//!   branch-and-bound for small universes), and repeat until every model
//!   is clean;
//! * finally **minimize**, so removing any single synthesized fence
//!   reintroduces a violation — each counterexample is kept as a witness
//!   and replayed onto the trial placements, so most trials are refuted by
//!   a check started where the witness ends instead of a full search.
//!
//! [`pareto_explore`] sweeps the fence-cost/RMR-cost weighting and
//! measures each synthesized placement's per-passage β (fences) and ρ
//! (RMRs), reproducing the paper's tradeoff curve from synthesis alone —
//! Bakery-style instances should recover the O(1)-fence/O(n)-RMR corner,
//! tournament instances the O(log n)/O(log n) corner (experiment E16).
//!
//! Synthesis soundness rests entirely on checker verdicts — a clean full
//! check to accept, a violation of the trial to keep a fence; every other
//! ingredient (edges, cores, witnesses, weights, rankings) only steers
//! the search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cegar;
pub mod hitting;
pub mod pareto;

pub use cegar::{strip_instance, synthesize, SynthConfig, SynthOutcome, Synthesis};
pub use hitting::{hitting_set, Core, Site};
pub use pareto::{pareto_explore, solo_cost, ParetoPoint};
