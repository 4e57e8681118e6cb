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
//!   (`Engine::Dpor` via [`modelcheck::check_under_models`]);
//! * on a violation, replay the counterexample on the unreduced machine
//!   and extract its **reorder edges** ([`wbmem::reorder_edges`]) — the
//!   write-buffer inversions that enabled the bad interleaving — then
//!   translate each edge's candidate fence sites back through the
//!   insertion pc-map into a **counterexample core**;
//! * pick the next placement as a fewest-sites **hitting set** over all
//!   accumulated cores ([`hitting_set`]: greedy plus exact
//!   branch-and-bound for small universes), and repeat until every model
//!   is clean;
//! * finally **minimize**, so removing any single synthesized fence
//!   reintroduces a violation — each counterexample is kept as a witness
//!   and replayed onto the trial placements, so most trials are refuted by
//!   a check started where the witness ends instead of a full search.
//!
//! The counterexamples alone decide the placement: no site costs more
//! than another. Experiment E16 measures each synthesized placement's
//! per-passage β (fences) and ρ (RMRs) against the paper's `GT_f` scales.
//!
//! Synthesis soundness rests entirely on checker verdicts — a clean full
//! check to accept, a violation of the trial to keep a fence; every other
//! ingredient (edges, cores, witnesses) only steers the search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cegar;
pub mod hitting;

pub use cegar::{strip_instance, synthesize, SynthConfig, SynthOutcome, Synthesis};
pub use hitting::{hitting_set, Core, Site};
