//! Feedback-directed plan autotuning.
//!
//! The rest of this crate decides whether a loop *can* be parallelized;
//! this module searches for how it *should* be. The stack exposes four
//! knobs the native machine executes — stage splits and merges
//! (three-phase DSWP vs single-stage TLS), replication width, dynamic vs
//! round-robin placement, and stage-queue capacity — and the paper's
//! simulator prices any point of that space in deterministic virtual
//! cycles. The autotuner closes the loop:
//!
//! 1. [`space`] — the candidate representation and single-axis
//!    mutations, each gated through the `seqpar-lint` plan-shape check
//!    before any budget is spent on it;
//! 2. [`evaluator`] — the simulator-backed cost model: simulated
//!    makespan plus analytic terms for the native overheads the
//!    simulator deliberately omits (worker scheduling tax,
//!    versioned-memory probes and folds, squash replay);
//! 3. [`search`] — a deterministic steepest descent that scores the
//!    incumbent's one neighbour on each axis, with strict
//!    (improve-or-stop) acceptance and a shape-diverse top-K;
//! 4. [`artifact`] — the reproducible JSON plan artifacts `seqpar-tune`
//!    writes, keyed by the plan's lint-stamp fingerprint and
//!    integrity-checked on reload.
//!
//! The simulator score is a *surrogate*: the bench glue re-validates
//! the top-K natively (byte-identical output against the sequential
//! oracle, median wall clock against the untuned default) before a plan
//! is declared a winner. `AUTOTUNING.md` documents the whole story —
//! axes, cost model, divergence, reproducibility contract, and schema.

pub mod artifact;
pub mod evaluator;
pub mod search;
pub mod space;

pub use artifact::{NativeValidation, PlanArtifact, ARTIFACT_SCHEMA_VERSION};
pub use evaluator::{score_candidate, Evaluator, Score};
pub use search::{tune, MoveRecord, ScoredCandidate, TuneConfig, TuneError, TuneResult};
pub use space::{Axis, Candidate, GraphKind, TuneInput, AXES, QUEUE_LADDER};
