//! Feedback-directed plan autotuning.
//!
//! The rest of this crate decides whether a loop *can* be parallelized;
//! this module searches for how it *should* be. The paper's compiler
//! picks a plan shape and a replication width per loop (§3.2); the
//! native executor runs one shape, the single-stage TLS plan, so the
//! tuner picks its width, and the paper's simulator prices each width
//! in deterministic virtual cycles. The autotuner closes the loop:
//!
//! 1. [`space`] — the candidate representation and the enumeration of
//!    every candidate a core budget allows, each gated through the
//!    `seqpar-lint` plan-shape check before any budget is spent on it;
//! 2. [`evaluator`] — the simulator-backed cost model: simulated
//!    makespan plus analytic terms for the native overheads the
//!    simulator deliberately omits (worker scheduling tax,
//!    versioned-memory probes and folds, squash replay);
//! 3. [`search`] — a deterministic scan that scores the space in order
//!    until the budget runs out and keeps the cheapest as winner and
//!    top-K;
//! 4. [`artifact`] — the reproducible JSON plan artifacts `seqpar-tune`
//!    writes, keyed by the plan's lint-stamp fingerprint and
//!    integrity-checked on reload.
//!
//! The simulator score is a *surrogate*: the bench glue re-validates
//! the top-K natively (byte-identical output against the sequential
//! oracle, median wall clock against the untuned default) before a plan
//! is declared a winner. `AUTOTUNING.md` documents the whole story —
//! knobs, cost model, divergence, reproducibility contract, and schema.

pub mod artifact;
pub mod evaluator;
pub mod search;
pub mod space;

pub use artifact::{NativeValidation, PlanArtifact, ARTIFACT_SCHEMA_VERSION};
pub use evaluator::{score_candidate, Score};
pub use search::{tune, ScoredCandidate, TuneConfig, TuneError, TuneResult};
pub use space::{Candidate, PlanKind, TuneInput};
