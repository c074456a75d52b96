//! Full-matrix differential suite for conflict-driven native
//! execution: **all 11 workloads** route their loop-carried state
//! through the `ConcurrentVersionedMemory` substrate
//! (`Workload::versioned_job` is the one native packaging, run here
//! through `VersionedJob::execute`'s one-shot engine), squashes
//! originate from the substrate's conflict detection (not the trace's
//! recorded `SpecDep` events), and still:
//!
//! * the committed output stream is byte-identical to the sequential
//!   oracle at every thread count in {1, 2, 4, 8} and under injected
//!   chaos (seeds 7 and 42), and
//! * the native and simulated timelines agree on commit order — the
//!   sequential program order — with the versioned event schema
//!   (`VersionOpen`/`VersionReads`/`VersionConflict`/`VersionCommit`)
//!   present on both sides.

use seqpar_runtime::{
    ExecConfig, ExecutionPlan, FaultPlan, GovernorConfig, SimConfig, Simulator, SquashReason,
    TraceEventKind,
};
use seqpar_specmem::Addr;
use seqpar_workloads::{all_workloads, workload_by_name, InputSize, VersionedJob};

/// Thread counts exercised per workload.
const THREADS: &[usize] = &[1, 2, 4, 8];

fn versioned_jobs() -> Vec<(&'static str, VersionedJob)> {
    all_workloads()
        .into_iter()
        .map(|w| (w.meta().spec_id, w.versioned_job(InputSize::Test)))
        .collect()
}

/// (a) Conflict-driven native output is byte-identical to the
/// sequential oracle for every workload at every thread count, on both
/// the TLS and the three-phase plan shapes.
#[test]
fn versioned_output_is_byte_identical_to_sequential() {
    for (id, job) in versioned_jobs() {
        let seq = job.sequential();
        assert!(!seq.output.is_empty(), "{id}: sequential produced output");
        for &t in THREADS {
            for plan in [ExecutionPlan::tls(t), ExecutionPlan::three_phase(t)] {
                let (r, _mem) = job
                    .execute(&plan, ExecConfig::default())
                    .expect("plan matches graph");
                assert_eq!(
                    r.output, seq.output,
                    "{id}: versioned output diverged from sequential at {t} threads"
                );
                assert_eq!(
                    r.tasks_committed as usize,
                    r.attempts as usize - r.squashes as usize,
                    "{id}: every non-committing attempt is a squash"
                );
            }
        }
    }
}

/// (b) Squashes originate from the memory substrate: the report carries
/// `MemStats`, every frontier squash pairs with a substrate violation,
/// and on a traced fault-free run the *only* squash reason that appears
/// is `memory-conflict` — the recorded `SpecDep` rung never fires.
#[test]
fn versioned_squashes_originate_from_the_substrate() {
    for (id, job) in versioned_jobs() {
        let (r, _mem) = job
            .execute(
                &ExecutionPlan::tls(8),
                ExecConfig::default().with_tracing(true),
            )
            .expect("plan matches graph");
        let stats = r.mem.expect("versioned runs report memory stats");
        assert_eq!(
            r.squashes, stats.violations,
            "{id}: frontier squashes must pair 1:1 with substrate violations"
        );
        assert_eq!(stats.commits, r.tasks_committed, "{id}");
        let timeline = r.timeline.as_ref().expect("tracing was on");
        timeline
            .validate()
            .expect("versioned traces are well-formed");
        for e in timeline.events() {
            if let TraceEventKind::Squash { reason, .. } = e.kind {
                assert_eq!(
                    reason,
                    SquashReason::MemoryConflict,
                    "{id}: fault-free versioned runs squash only on memory conflicts"
                );
            }
        }
        let conflicts = timeline
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::VersionConflict { .. }))
            .count() as u64;
        assert_eq!(conflicts, r.squashes, "{id}");
    }
}

/// (c) The committed loop-carried memory state equals what a sequential
/// run computes — parser's accepted-count accumulator checked exactly.
#[test]
fn versioned_memory_state_matches_sequential() {
    let parser = workload_by_name("197.parser").expect("parser exists");
    let job = parser.versioned_job(InputSize::Test);
    let seq = job.sequential();
    // The oracle's last record carries the final accepted count in its
    // trailing 8 bytes.
    let expected = u64::from_le_bytes(seq.output[seq.output.len() - 8..].try_into().unwrap());
    let (r, mem) = job
        .execute(&ExecutionPlan::tls(4), ExecConfig::default())
        .expect("plan matches graph");
    assert!(!r.fallback_activated);
    assert_eq!(mem.committed(Addr(0)), Some(expected).filter(|&v| v > 0));
    assert_eq!(mem.active_count(), 0, "no version left open");
}

/// (d) Chaos: injected panics and stalls on top of real memory
/// conflicts still commit the sequential byte stream for every
/// workload, and the traces stay well-formed.
#[test]
fn versioned_chaos_runs_stay_byte_identical() {
    for (id, job) in versioned_jobs() {
        let seq = job.sequential();
        for seed in [7u64, 42] {
            let config = ExecConfig::default()
                .with_faults(FaultPlan::seeded(seed))
                .with_retry_budget(4)
                .with_tracing(true);
            let (r, _mem) = job
                .execute(&ExecutionPlan::tls(8), config)
                .expect("recoverable faults never abort the run");
            assert_eq!(
                r.output, seq.output,
                "{id}: chaos seed {seed} diverged from sequential"
            );
            r.timeline
                .as_ref()
                .expect("tracing was on")
                .validate()
                .expect("versioned chaos traces are well-formed");
        }
    }
}

/// (e) Sim and native timelines agree on commit order (the sequential
/// program order) and both carry the versioned event schema.
#[test]
fn sim_and_native_timelines_agree_on_commit_order() {
    for (id, job) in versioned_jobs() {
        let plan = ExecutionPlan::tls(4);
        // The graph `execute` runs: the trace at the job's own grain.
        let graph = job.trace().chunked(job.grain(&plan)).tls_task_graph();
        let (sim_timeline, _) = Simulator::new(SimConfig::default())
            .run(&graph, &plan)
            .expect("sim accepts the TLS plan")
            .timeline(&graph, None);
        let (r, _mem) = job
            .execute(&plan, ExecConfig::default().with_tracing(true))
            .expect("plan matches graph");
        let native_timeline = r.timeline.as_ref().expect("tracing was on");
        assert_eq!(
            sim_timeline.commit_order(),
            native_timeline.commit_order(),
            "{id}: sim and native must commit in the same (sequential) order"
        );
        for (side, timeline) in [("sim", &sim_timeline), ("native", native_timeline)] {
            let commits = timeline
                .events()
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::VersionCommit { .. }))
                .count();
            assert_eq!(
                commits,
                graph.len(),
                "{id}: {side} timeline carries one VersionCommit per task"
            );
            assert!(
                timeline
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, TraceEventKind::VersionOpen { .. })),
                "{id}: {side} timeline carries VersionOpen events"
            );
        }
    }
}

/// (g) The speculation governor changes scheduling, never results: with
/// the governor on (default knobs), every workload at every thread
/// count still commits the byte-exact sequential stream, the
/// `committed == attempts - squashes` invariant holds across early
/// squashes / frontier replays / degraded inline commits, and the report
/// carries governor stats; with it off the report carries none.
#[test]
fn governed_runs_stay_byte_identical_across_the_matrix() {
    for (id, job) in versioned_jobs() {
        let seq = job.sequential();
        for &t in THREADS {
            for governed in [false, true] {
                let mut config = ExecConfig::default();
                if governed {
                    config = config.with_governor(GovernorConfig::default());
                }
                let (r, _mem) = job
                    .execute(&ExecutionPlan::tls(t), config)
                    .expect("plan matches graph");
                assert_eq!(
                    r.output, seq.output,
                    "{id}: governed={governed} output diverged at {t} threads"
                );
                assert_eq!(
                    r.tasks_committed,
                    r.attempts - r.squashes,
                    "{id}: governed={governed} attempt accounting broke at {t} threads"
                );
                assert_eq!(
                    r.governor.is_some(),
                    governed,
                    "{id}: governor stats present iff the governor ran"
                );
                if let Some(g) = r.governor {
                    assert!(g.final_window >= 1, "{id}: window collapsed below 1");
                    assert!(g.min_window >= 1, "{id}: window dipped below 1");
                }
            }
        }
    }
}

/// (h) Governor + chaos compose: injected faults spend the retry
/// budget, memory conflicts feed the governor's window and go straight
/// back in line, and the committed stream stays byte-identical with
/// well-formed traces.
#[test]
fn governed_chaos_runs_stay_byte_identical() {
    for (id, job) in versioned_jobs() {
        let seq = job.sequential();
        for seed in [7u64, 42] {
            let config = ExecConfig::default()
                .with_faults(FaultPlan::seeded(seed))
                .with_retry_budget(4)
                .with_tracing(true)
                .with_governor(GovernorConfig::default());
            let (r, _mem) = job
                .execute(&ExecutionPlan::tls(8), config)
                .expect("recoverable faults never abort the run");
            assert_eq!(
                r.output, seq.output,
                "{id}: governed chaos seed {seed} diverged from sequential"
            );
            r.timeline
                .as_ref()
                .expect("tracing was on")
                .validate()
                .expect("governed chaos traces are well-formed");
        }
    }
}

/// (f) Every workload's substrate counters are non-trivial: a run that
/// silently bypassed `ConcurrentVersionedMemory` (regressing to
/// replay without a substrate) would report zero reads/writes/commits and
/// fail loudly here.
#[test]
fn every_workload_exercises_the_substrate() {
    for (id, job) in versioned_jobs() {
        let (r, _mem) = job
            .execute(&ExecutionPlan::tls(4), ExecConfig::default())
            .expect("plan matches graph");
        let stats = r.mem.expect("versioned runs report memory stats");
        assert!(stats.reads > 0, "{id}: no substrate reads recorded");
        assert!(stats.writes > 0, "{id}: no substrate writes recorded");
        assert!(stats.commits > 0, "{id}: no substrate commits recorded");
        assert!(
            stats.forwards > 0 || stats.commits > 0,
            "{id}: neither forwards nor commits observed"
        );
        assert_eq!(
            stats.commits, r.tasks_committed,
            "{id}: one substrate commit per committed task"
        );
    }
}
