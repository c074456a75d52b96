//! Engine-level concurrency differential suite: several versioned
//! workload jobs share **one** persistent [`Engine`] pool at the same
//! time, and each must behave exactly as it would alone —
//!
//! * every job's committed byte stream is identical to its own
//!   sequential oracle, even while the pool interleaves tasks from the
//!   other jobs;
//! * every [`NativeReport`](seqpar_runtime::NativeReport) is stamped
//!   with its own [`JobId`] and carries only that job's squash /
//!   commit / governor counts — nothing bleeds across the shards of
//!   the commit frontier;
//! * chaos (seeds 7 and 42, overridable via `SEQPAR_CHAOS_SEED`)
//!   through the shared pool still commits every job byte-identically.

use seqpar_runtime::{
    Engine, EngineConfig, ExecConfig, ExecutionPlan, FaultPlan, GovernorConfig, JobId,
    SquashReason, TraceEventKind,
};
use seqpar_workloads::{workload_by_name, InputSize, VersionedJob};

/// The three concurrently-submitted workloads named by the issue.
const CONCURRENT: &[&str] = &["164.gzip", "181.mcf", "197.parser"];

fn jobs() -> Vec<(&'static str, VersionedJob)> {
    CONCURRENT
        .iter()
        .map(|id| {
            let w = workload_by_name(id).expect("workload exists");
            (*id, w.versioned_job(InputSize::Test))
        })
        .collect()
}

/// (a) Three jobs submitted concurrently to one 8-worker engine each
/// commit their own sequential byte stream, and each report is stamped
/// with the id of the handle that produced it (never the simulator's
/// `JobId::SOLO`, never another job's id).
#[test]
fn concurrent_jobs_commit_their_own_sequential_stream() {
    let engine = Engine::new(EngineConfig::with_workers(8));
    let submitted: Vec<_> = jobs()
        .into_iter()
        .map(|(id, job)| {
            let seq = job.sequential();
            let (spec, mem) = job.job_spec(&ExecutionPlan::tls(4), ExecConfig::default());
            (id, seq, engine.submit(spec), mem)
        })
        .collect();
    let mut seen = Vec::new();
    for (id, seq, handle, mem) in submitted {
        let job_id = handle.id();
        assert_ne!(job_id, JobId::SOLO, "{id}: engine jobs get real ids");
        let r = handle.wait().expect("plan matches graph");
        assert_eq!(r.job, job_id, "{id}: report stamped with its own job id");
        assert_eq!(
            r.output, seq.output,
            "{id}: concurrent engine run diverged from sequential"
        );
        assert_eq!(
            r.tasks_committed,
            r.attempts - r.squashes,
            "{id}: per-job attempt accounting broke under sharing"
        );
        let stats = r.mem.expect("versioned runs report memory stats");
        assert_eq!(
            stats.commits, r.tasks_committed,
            "{id}: substrate commits scoped to this job alone"
        );
        assert_eq!(
            r.squashes, stats.violations,
            "{id}: frontier squashes pair with this job's own violations"
        );
        assert_eq!(mem.active_count(), 0, "{id}: no version left open");
        seen.push(job_id);
    }
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len(),
        CONCURRENT.len(),
        "job ids are unique per submit"
    );
}

/// (b) Per-job configuration stays per-job: with three jobs sharing the
/// pool and only one of them governed, only that job's report carries
/// governor stats, and only traced jobs carry timelines whose every
/// event bears the owning job's id.
#[test]
fn job_isolation_keeps_stats_and_traces_apart() {
    let engine = Engine::new(EngineConfig::with_workers(8));
    // gzip: governed + traced; mcf: traced only; parser: plain.
    let configs = [
        ExecConfig::default()
            .with_tracing(true)
            .with_governor(GovernorConfig::default()),
        ExecConfig::default().with_tracing(true),
        ExecConfig::default(),
    ];
    let submitted: Vec<_> = jobs()
        .into_iter()
        .zip(configs)
        .map(|((id, job), config)| {
            let seq = job.sequential();
            let (spec, _mem) = job.job_spec(&ExecutionPlan::three_phase(4), config);
            (id, seq, engine.submit(spec))
        })
        .collect();
    for (i, (id, seq, handle)) in submitted.into_iter().enumerate() {
        let job_id = handle.id();
        let r = handle.wait().expect("plan matches graph");
        assert_eq!(r.output, seq.output, "{id}: output diverged");
        assert_eq!(
            r.governor.is_some(),
            i == 0,
            "{id}: governor stats present iff this job was governed"
        );
        assert_eq!(
            r.timeline.is_some(),
            i < 2,
            "{id}: timeline present iff this job traced"
        );
        if let Some(timeline) = r.timeline.as_ref() {
            timeline.validate().expect("engine traces are well-formed");
            assert!(
                timeline.events().iter().all(|e| e.job == job_id),
                "{id}: every trace event bears the owning job's id"
            );
            // Fault-free versioned runs squash only on memory conflicts,
            // on a shared pool exactly as on a private one.
            for e in timeline.events() {
                if let TraceEventKind::Squash { reason, .. } = e.kind {
                    assert_eq!(reason, SquashReason::MemoryConflict, "{id}");
                }
            }
        }
    }
}

/// (c) Private pool ≡ shared pool: for each workload, one job on the
/// one-shot engine [`VersionedJob::execute`] builds and drops and the
/// same job on an engine other jobs have used commit the same bytes
/// with the same frontier counters, each under an id its own engine
/// assigned, and on both the per-seat worker stats account for every
/// attempt.
#[test]
fn engine_path_matches_solo_path() {
    let engine = Engine::new(EngineConfig::default());
    let mut shared_ids = Vec::new();
    for (id, job) in jobs() {
        let plan = ExecutionPlan::tls(4);
        let (solo, _) = job
            .execute(&plan, ExecConfig::default())
            .expect("plan matches graph");
        let shared = engine
            .run(&job.job_spec(&plan, ExecConfig::default()).0)
            .expect("plan matches graph");
        assert_eq!(solo.output, shared.output, "{id}: byte streams agree");
        assert_eq!(
            solo.tasks_committed, shared.tasks_committed,
            "{id}: both pools commit every task exactly once"
        );
        // Conflict counts record real races; everything the frontier
        // decides from the job alone must not depend on the pool.
        assert_eq!(solo.work, shared.work, "{id}: committed work");
        assert_eq!(solo.recovery, shared.recovery, "{id}: recovery counters");
        assert_eq!(
            solo.speculations_survived, shared.speculations_survived,
            "{id}: speculation counters"
        );
        // Every completion carries its seat and body time to the
        // supervisor, so on both pools the seats' task counts add up
        // to the attempts the frontier processed, keyed by plan core.
        for (pool, r) in [("private", &solo), ("shared", &shared)] {
            assert_ne!(r.job, JobId::SOLO, "{id}: {pool} engine assigned the id");
            assert_eq!(
                r.tasks_committed,
                r.attempts - r.squashes,
                "{id}: {pool} attempt accounting"
            );
            assert!(!r.fallback_activated, "{id}: {pool} stayed pipelined");
            let served: u64 = r.workers.iter().map(|w| w.tasks).sum();
            assert_eq!(served, r.attempts, "{id}: {pool} worker task totals");
            assert!(r.workers.iter().all(|w| w.core < 4), "{id}: {pool} seats");
        }
        shared_ids.push(shared.job);
    }
    // The shared engine numbers its jobs; a private one has only its own.
    shared_ids.sort_unstable();
    shared_ids.dedup();
    assert_eq!(shared_ids.len(), CONCURRENT.len(), "distinct job ids");
}

/// (d) Chaos through the shared pool: all three jobs run concurrently
/// with the seeded fault plan (panics, stalls) and still commit
/// byte-identically with
/// well-formed, job-pure traces. `SEQPAR_CHAOS_SEED` overrides the
/// seed set, matching the CI engine-stress job.
#[test]
fn concurrent_chaos_jobs_stay_byte_identical() {
    let engine = Engine::new(EngineConfig::with_workers(8));
    for plan in FaultPlan::seeded_from_env(&[7, 42]) {
        let submitted: Vec<_> = jobs()
            .into_iter()
            .map(|(id, job)| {
                let seq = job.sequential();
                let config = ExecConfig::default()
                    .with_faults(plan.clone())
                    .with_retry_budget(4)
                    .with_tracing(true);
                let (spec, _mem) = job.job_spec(&ExecutionPlan::tls(8), config);
                (id, seq, engine.submit(spec))
            })
            .collect();
        for (id, seq, handle) in submitted {
            let job_id = handle.id();
            let r = handle
                .wait()
                .expect("recoverable faults never abort the run");
            assert_eq!(
                r.output, seq.output,
                "{id}: chaos diverged on the shared engine"
            );
            let timeline = r.timeline.as_ref().expect("tracing was on");
            timeline.validate().expect("chaos traces are well-formed");
            assert!(
                timeline.events().iter().all(|e| e.job == job_id),
                "{id}: chaos traces never leak events across jobs"
            );
        }
    }
}
