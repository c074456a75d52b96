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
//!    and names the cheapest as the winner.
//!
//! The cheapest row is the answer, as the paper's compiler fixes a
//! loop's plan before the run. It is a deterministic function of the
//! trace and the IR model, so any process recomputes it rather than
//! reading it back from a file; the printed table is the tuner's only
//! output. The bench glue may also run every row natively through the
//! native table's instrument (every run byte-checked against the
//! sequential oracle) and print each row's sequential ÷ native ratio
//! beside its cost; the runs change neither the table nor the winner.
//! `AUTOTUNING.md` documents the whole story — the space, cost model,
//! divergence and reproducibility contract.

pub mod evaluator;
pub mod search;
pub mod space;

pub use evaluator::{score_candidate, Score};
pub use search::{tune, ScoredCandidate, TuneConfig, TuneError, TuneResult};
pub use space::{Candidate, PlanKind, TuneInput};
