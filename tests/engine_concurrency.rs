//! One engine, many jobs, one at a time: the shape of every harness
//! that measures or byte-checks the native executor.
//!
//! * a job on an engine other jobs have used commits exactly what it
//!   commits on a one-shot engine of its own, under an id its engine
//!   assigned;
//! * a second `run` while a job is in flight — from another thread, or
//!   from a body of that job — is refused with [`ExecError::Busy`]
//!   instead of waiting, and the engine admits the next job once the
//!   first is done.

use seqpar_runtime::{
    Engine, EngineConfig, ExecConfig, ExecError, ExecutionPlan, JobId, JobMode, JobSpec, TaskCtx,
    TaskId, TaskOutput,
};
use seqpar_workloads::{workload_by_name, InputSize, VersionedJob};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The three workloads each engine here runs, one after another.
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

/// Private pool ≡ shared pool: for each workload, one job on the
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

/// A job of `iters` one-iteration tasks on one seat, so every body
/// runs on the thread that called `run`; each commits its iteration. A
/// replay that recorded no speculation: nothing squashes.
fn one_seat_job(iters: u64, body: impl Fn(u64) + Send + Sync + 'static) -> JobSpec {
    JobSpec {
        tasks: iters as usize,
        seats: NonZeroUsize::MIN,
        body: Arc::new(move |task: TaskId, _: &TaskCtx<'_>| {
            let iter = u64::from(task.0);
            body(iter);
            TaskOutput::bytes(iter.to_le_bytes().to_vec())
        }),
        mode: JobMode::Replay(Arc::new([])),
        config: ExecConfig::default(),
    }
}

/// Two threads call `run` on one engine: the second is refused at once
/// while the first job is in flight, as is a body of that job calling
/// `run` on its own engine — which could otherwise only wait for
/// itself. A refused run numbers no job, and once the first job is done
/// the engine admits the next.
#[test]
fn a_second_run_while_one_is_in_flight_is_refused() {
    let engine = Arc::new(Engine::new(EngineConfig::with_workers(1)));
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let nested = Arc::new(Mutex::new(None));
    let first = {
        let (engine, started, release, nested) = (
            Arc::clone(&engine),
            Arc::clone(&started),
            Arc::clone(&release),
            Arc::clone(&nested),
        );
        one_seat_job(4, move |iter| {
            if iter == 0 {
                let inner = engine.run(&one_seat_job(1, |_| {})).map(|r| r.job);
                *nested.lock().unwrap() = Some(inner);
                started.store(true, Ordering::SeqCst);
                // A backstop: a refusal that never came fails below.
                let since = Instant::now();
                while !release.load(Ordering::SeqCst) && since.elapsed() < Duration::from_secs(10) {
                    std::thread::yield_now();
                }
            }
        })
    };
    let second = one_seat_job(3, |_| {});
    let (one, refused) = std::thread::scope(|scope| {
        let running = scope.spawn(|| engine.run(&first));
        while !started.load(Ordering::SeqCst) && !running.is_finished() {
            std::thread::yield_now();
        }
        let refused = engine.run(&second).map(|r| r.job);
        release.store(true, Ordering::SeqCst);
        (running.join().expect("the first job's thread"), refused)
    });
    assert_eq!(refused, Err(ExecError::Busy), "another thread's run");
    assert_eq!(
        *nested.lock().unwrap(),
        Some(Err(ExecError::Busy)),
        "a body's run on its own engine"
    );
    let one = one.expect("the first job runs to its end");
    assert_eq!(one.job, JobId(1));
    assert_eq!(
        one.output,
        (0..4u64).flat_map(u64::to_le_bytes).collect::<Vec<_>>()
    );
    let two = engine.run(&second).expect("the engine admits the next job");
    assert_eq!(two.job, JobId(2), "refused runs number no job");
    assert_eq!(
        two.output,
        (0..3u64).flat_map(u64::to_le_bytes).collect::<Vec<_>>()
    );
}
