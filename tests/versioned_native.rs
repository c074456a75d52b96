//! Full-matrix differential suite for conflict-driven native
//! execution: **all 11 workloads** run every task inside a version of
//! the `ConcurrentVersionedMemory` substrate (`Workload::versioned_job`
//! is the one native packaging, run here through
//! `VersionedJob::execute`'s one-shot engine) with their checksum tail
//! folded at commit, and an `accumulating` loop threads its tail through
//! the substrate, so squashes originate from the substrate's conflict
//! detection (not the trace's recorded `SpecDep` events), and still:
//!
//! * the committed output stream is byte-identical to the sequential
//!   oracle at every thread count in {1, 2, 4, 8} and under injected
//!   chaos (seeds 7 and 42), and
//! * the native and simulated timelines agree on commit order — the
//!   sequential program order — with one `Commit` per task on both
//!   sides; what the substrate did is read from its own counters
//!   (`NativeReport::mem`), which the frontier's squashes match 1:1.

use seqpar::IterationRecord;
use seqpar_runtime::{
    ExecConfig, ExecutionPlan, FaultPlan, GovernorConfig, SimConfig, Simulator, SquashReason,
    TraceEventKind,
};
use seqpar_specmem::Addr;
use seqpar_workloads::{all_workloads, InputSize, VersionedJob};

/// Thread counts exercised per workload.
const THREADS: &[usize] = &[1, 2, 4, 8];

/// Every kernel, and [`accepted_count`]: the one whose chunks conflict.
fn versioned_jobs() -> Vec<(&'static str, VersionedJob)> {
    let mut jobs = kernel_jobs();
    jobs.push(("accepted-count", accepted_count()));
    jobs
}

fn kernel_jobs() -> Vec<(&'static str, VersionedJob)> {
    all_workloads()
        .into_iter()
        .map(|w| (w.meta().spec_id, w.versioned_job(InputSize::Test)))
        .collect()
}

/// (a) Conflict-driven native output is byte-identical to the
/// sequential oracle for every workload at every thread count, and at
/// one seat more.
#[test]
fn versioned_output_is_byte_identical_to_sequential() {
    for (id, job) in versioned_jobs() {
        let seq = job.sequential();
        assert!(!seq.output.is_empty(), "{id}: sequential produced output");
        for &t in THREADS {
            for plan in [ExecutionPlan::tls(t), ExecutionPlan::tls(t + 1)] {
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
    }
}

/// An `accumulating` loop of 500 iterations, every third of which is
/// accepted: its accepted count lives at `Addr(0)` of the substrate.
fn accepted_count() -> VersionedJob {
    let trace = (0..500).map(|i| IterationRecord::new(1, 20 + i % 7, 1));
    VersionedJob::accumulating(
        trace.collect(),
        |i: u64| (vec![u8::from(i.is_multiple_of(3))], 1),
        1,
        |_, verdict, accepted| accepted[0] += u64::from(verdict[0] == 1),
    )
}

/// The accepted count an [`accepted_count`] oracle ends on: its last
/// record carries it in its trailing 8 bytes.
fn final_count(output: &[u8]) -> u64 {
    u64::from_le_bytes(output[output.len() - 8..].try_into().unwrap())
}

/// (c) The committed loop-carried memory state equals what a sequential
/// run computes — an `accumulating` loop's accepted count checked
/// exactly.
#[test]
fn versioned_memory_state_matches_sequential() {
    let job = accepted_count();
    let seq = job.sequential();
    let expected = final_count(&seq.output);
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
/// program order), each committing every task once.
#[test]
fn sim_and_native_timelines_agree_on_commit_order() {
    for (id, job) in versioned_jobs() {
        let plan = ExecutionPlan::tls(4);
        // The graph `execute` runs: the trace at the job's own grain.
        let graph = job.trace().chunked(job.grain(&plan)).tls_task_graph();
        let sim_timeline = Simulator::new(SimConfig::default())
            .run(&graph, &plan)
            .expect("sim accepts the TLS plan")
            .timeline(&graph);
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
                .filter(|e| matches!(e.kind, TraceEventKind::Commit { .. }))
                .count();
            assert_eq!(
                commits,
                graph.len(),
                "{id}: {side} timeline carries one Commit per task"
            );
        }
    }
}

/// (g) A governed config is the default one (`with_governor` returns
/// its config unchanged), so a governed run is the ungoverned run: every
/// workload at every thread count commits the byte-exact sequential
/// stream, the `committed == attempts - squashes` invariant holds across
/// squashes and frontier replays, and the substrate is left exact: no
/// version open, the accepted-count loop's counter at its sequential
/// value, and on a one-seat plan one ordinary version opened and
/// committed per task.
#[test]
fn governed_runs_stay_byte_identical_across_the_matrix() {
    for (id, job) in versioned_jobs() {
        let seq = job.sequential();
        for &t in THREADS {
            let config = ExecConfig::default().with_governor(GovernorConfig::default());
            let (r, mem) = job
                .execute(&ExecutionPlan::tls(t), config)
                .expect("plan matches graph");
            assert_eq!(
                mem.active_count(),
                0,
                "{id}: left a version open at {t} threads"
            );
            if id == "accepted-count" {
                assert_eq!(
                    mem.committed(Addr(0)),
                    Some(final_count(&seq.output)).filter(|&v| v > 0),
                    "{id}: counter diverged at {t} threads"
                );
            }
            if t == 1 {
                let stats = mem.stats();
                assert_eq!(
                    (stats.begins, stats.commits),
                    (r.tasks_committed, r.tasks_committed),
                    "{id}: one seat opens and commits one version a task"
                );
            }
            assert_eq!(r.output, seq.output, "{id}: output diverged at {t} threads");
            assert_eq!(
                r.tasks_committed,
                r.attempts - r.squashes,
                "{id}: attempt accounting broke at {t} threads"
            );
        }
    }
}

/// (h) A governed config under chaos is the ungoverned one: injected
/// faults spend the retry budget, memory conflicts go straight back in
/// line, and the committed stream stays byte-identical with well-formed
/// traces.
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

/// (f) An `accumulating` job's substrate counters are non-trivial: a run
/// that silently bypassed `ConcurrentVersionedMemory` (regressing to
/// replay without a substrate) would report zero reads/writes/commits
/// and fail loudly here. A kernel's chunks fold their tail at commit, so
/// they read and write nothing, and every task still opens and commits
/// one version.
#[test]
fn every_workload_exercises_the_substrate() {
    let (r, _mem) = accepted_count()
        .execute(&ExecutionPlan::tls(4), ExecConfig::default())
        .expect("plan matches graph");
    let stats = r.mem.expect("versioned runs report memory stats");
    assert!(stats.reads > 0, "no substrate reads recorded");
    assert!(stats.writes > 0, "no substrate writes recorded");
    assert!(stats.commits > 0, "no substrate commits recorded");
    assert_eq!(stats.commits, r.tasks_committed, "one commit per task");
    for (id, job) in kernel_jobs() {
        let (r, mem) = job
            .execute(&ExecutionPlan::tls(4), ExecConfig::default())
            .expect("plan matches graph");
        let stats = r.mem.expect("versioned runs report memory stats");
        assert_eq!(
            (stats.reads, stats.writes),
            (0, 0),
            "{id}: a chunk that folds at commit accesses no address"
        );
        assert_eq!(mem.committed(Addr(0)), None, "{id}");
        assert_eq!(
            stats.commits, r.tasks_committed,
            "{id}: one substrate commit per committed task"
        );
    }
}
