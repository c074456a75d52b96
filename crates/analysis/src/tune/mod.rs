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
//!    every width a core budget allows;
//! 2. [`evaluator`] — the simulator-backed cost model: simulated
//!    makespan plus analytic terms for the native overheads the
//!    simulator deliberately omits (worker scheduling tax,
//!    versioned-memory probes and folds, squash replay);
//! 3. [`search`] — scores the space once, in order, keeps every row,
//!    and names the cheapest as the winner;
//! 4. [`artifact`] — the reproducible JSON plan artifacts `seqpar-tune`
//!    writes, keyed by the plan's lint-stamp fingerprint and
//!    integrity-checked on reload.
//!
//! The simulator score is a *surrogate*: the bench glue re-validates
//! every row natively (byte-identical output against the sequential
//! oracle, median wall clock against the untuned default) and crowns
//! the fastest. `AUTOTUNING.md` documents the whole story — the space,
//! cost model, divergence, reproducibility contract, and schema.

pub mod artifact;
pub mod evaluator;
pub mod search;
pub mod space;

pub use artifact::{NativeValidation, PlanArtifact, ARTIFACT_SCHEMA_VERSION};
pub use evaluator::{score_candidate, Score};
pub use search::{tune, ScoredCandidate, TuneConfig, TuneError, TuneResult};
pub use space::{Candidate, PlanKind, TuneInput};
