//! Multi-core performance simulator for pipelined speculative execution.
//!
//! This crate reimplements the measurement methodology of §3 of *Bridges
//! et al., MICRO 2007*. A parallelized loop is decomposed into **phases**
//! (statically selected code regions); each dynamic instance of a phase is
//! a **task** with a measured cost. An [`ExecutionPlan`] maps phases to
//! cores — serially on one core, or replicated across a pool with dynamic
//! least-loaded assignment — and the [`Simulator`] estimates the parallel
//! execution time from the task costs, the task dependence graph, and the
//! machine model:
//!
//! * tasks communicate via core-to-core queues with bounded capacity
//!   (the paper models 256 32-entry queues and their full/empty
//!   conditions);
//! * cross-core dependences pay a communication latency;
//! * speculation is modelled by replaying the dynamic dependences that
//!   actually occurred: a **violated** speculative dependence serializes
//!   the consumer after the producer ("loss of benefit for speculative
//!   execution, but no additional cost to misspeculation", §3.1);
//!   non-violated speculative dependences are ignored.
//!
//! # Example
//!
//! ```
//! use seqpar_runtime::{ExecutionPlan, SimConfig, Simulator, StageAssignment, TaskGraph};
//!
//! // Two-stage pipeline: stage 0 produces, stage 1 consumes, 4 iterations.
//! let mut g = TaskGraph::new(2);
//! for i in 0..4 {
//!     let p = g.add_task(0, i, 10, &[], &[]);
//!     g.add_task(1, i, 10, &[p], &[]);
//! }
//! let plan = ExecutionPlan::new(vec![
//!     StageAssignment::serial(0),
//!     StageAssignment::serial(1),
//! ]);
//! let sim = Simulator::new(SimConfig { cores: 2, comm_latency: 0, ..SimConfig::default() });
//! let result = sim.run(&g, &plan).unwrap();
//! // Pipelining overlaps the stages: faster than the 80-cycle serial run.
//! assert!(result.makespan < 80);
//! assert!(result.speedup() > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diag;
pub mod exec;
pub mod json;
pub mod plan;
pub mod profile;
pub mod sim;
pub mod task;
pub mod validate;

pub use diag::{Diagnostic, PlanShape, Severity};
pub use exec::{
    predict_recovery, CriticalPath, DurationStats, Engine, EngineConfig, ExecConfig, ExecError,
    FaultKind, FaultPlan, GovernorConfig, GovernorStats, JobId, JobMode, JobSpec, NativeBody,
    NativeReport, RecoveryCounts, RecoveryPrediction, SpecRecord, SquashReason, StageMetrics,
    TaskCtx, TaskOutput, TimeUnit, Timeline, TraceDefect, TraceEvent, TraceEventKind, WorkerStat,
    FALLBACK_ATTEMPT,
};
pub use plan::{ExecutionPlan, PlanRefusal, StageAssignment};
pub use profile::{ConflictProfile, RegionConflict};
pub use sim::{ChannelStat, SimConfig, SimError, SimResult, Simulator, TaskPlacement};
pub use task::{ChainLink, ChainShape, SpecDep, StageId, Task, TaskGraph, TaskId};
pub use validate::{check_schedule, ScheduleViolation};
