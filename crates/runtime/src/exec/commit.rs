//! The in-order commit unit: a reorder buffer over worker completions.
//!
//! Outputs are released strictly in task order — the original
//! sequential program order — which is what makes the executor's output
//! byte-identical to sequential execution no matter how threads
//! interleave. The commit point is also where misspeculation is
//! resolved: on a replay job, a speculative first attempt of a task
//! whose recorded speculated dependence manifested (a
//! [`SpecRecord`] with a violation) is squashed here,
//! its output discarded, and the task sent back for
//! re-execution. Because every earlier task has already committed by
//! then, the re-execution observes fully committed state — the native
//! analogue of a TLS restart reading committed memory versions.
//!
//! Fault supervision reuses the same squash machinery. Each attempt
//! reaching the frontier passes a fixed decision ladder — worker panic
//! → misspeculation squash → commit (the same ladder
//! [`predict_recovery`](super::predict_recovery) folds as a pure
//! function) — and every recovery decision is made *here*, strictly in
//! task order, from nothing but `(task, attempt)` and the
//! [`FaultPlan`](super::FaultPlan). That is what keeps the recovery
//! counters, the squash counts, and the output stream deterministic
//! across thread interleavings even under injected chaos. Panic replays
//! (unlike misspeculation replays, which are part of the normal
//! protocol) are charged against a per-task retry budget; exhausting it
//! makes [`CommitUnit::drain`] demand the sequential fallback instead
//! of aborting the run.
//!
//! Jobs with a substrate ([`JobMode::Versioned`])
//! swap the misspeculation rung's *source*: instead of replaying the
//! recorded violations, the frontier
//! asks the [`ConcurrentVersionedMemory`] whether the attempt's version
//! survived
//! ([`commit_check_batch`](ConcurrentVersionedMemory::commit_check_batch)
//! — checked *before* anything irrevocable happens), rolls conflicted
//! versions back, and publishes the survivor's write buffer as the very
//! last step of the commit. Conflict squashes are real races detected at
//! access granularity, so — unlike every other rung — their *count* is
//! timing-dependent; the committed output and memory state remain
//! byte-identical to sequential execution, and they are never charged
//! against the retry budget.

use super::engine::JobMode;
use super::faults::{RecoveryCounts, SpecRecord};
use super::metrics::{NativeReport, WorkerStat};
use super::stage::{JobShared, WorkItem, WorkerDone};
use super::trace::{SquashReason, TimeUnit, Timeline, TraceBuffer, TraceEvent, TraceEventKind};
use super::{ExecConfig, ExecError, TaskOutput, FALLBACK_ATTEMPT};
use crate::task::TaskId;
use seqpar_specmem::{CommitError, ConcurrentVersionedMemory, VersionId};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// The work item that replays a squashed attempt: straight back in
/// line, whatever squashed it.
fn again(task: u32, attempt: u32) -> WorkItem {
    WorkItem {
        task,
        attempt: attempt + 1,
    }
}

/// Why the pipelined protocol stopped short of committing every task.
pub(super) enum Stop {
    /// A task exhausted its retry budget, or the watchdog tripped:
    /// abandon pipelined dispatch and commit the remaining tasks in
    /// order, under the frontier lock, on the thread that found out.
    FallBack,
    /// No legal sequential outcome exists.
    Failed(ExecError),
}

impl From<ExecError> for Stop {
    fn from(e: ExecError) -> Self {
        Stop::Failed(e)
    }
}

/// The commit-side state: reorder buffer, counters, and the growing
/// output stream.
pub(super) struct CommitUnit {
    /// Index of the next task to commit.
    next: usize,
    /// Finished-but-uncommitted results: a ring offset by `next`, so
    /// slot `i` belongs to task `next + i`. It grows to the furthest
    /// completion buffered so far — a window, not the graph.
    buffer: VecDeque<Option<WorkerDone>>,
    /// Occupied slots of `buffer`.
    buffered: usize,
    /// Scratch reused across [`drain`](Self::drain) passes: the run's
    /// version ids and the batch being committed.
    versions: Vec<VersionId>,
    batch: Vec<WorkerDone>,
    output: Vec<u8>,
    attempts: u64,
    squashes: u64,
    violations: u64,
    speculations_survived: u64,
    work: u64,
    recovery: RecoveryCounts,
    /// Panic replays allowed per task before the executor falls back to
    /// sequential execution.
    retry_budget: u32,
    /// Panic replays charged so far, per task.
    retries_by_task: HashMap<u32, u32>,
    /// Frontier-side trace events (squashes, commits, speculation
    /// decisions); a no-op recorder when tracing is off.
    trace: TraceBuffer,
    /// What the accepted completions carried: busy time and attempt
    /// count per [`Seat::id`](super::stage::Seat), and the workers'
    /// trace events.
    seat_stats: Vec<(Duration, u64)>,
    worker_events: Vec<TraceEvent>,
}

impl CommitUnit {
    pub(super) fn new(trace: TraceBuffer, config: &ExecConfig) -> Self {
        Self {
            next: 0,
            buffer: VecDeque::new(),
            buffered: 0,
            versions: Vec::new(),
            batch: Vec::new(),
            output: Vec::new(),
            attempts: 0,
            squashes: 0,
            violations: 0,
            speculations_survived: 0,
            work: 0,
            recovery: RecoveryCounts::default(),
            retry_budget: config.retry_budget,
            retries_by_task: HashMap::new(),
            seat_stats: Vec::new(),
            worker_events: Vec::new(),
            trace,
        }
    }

    /// Discards `task`'s open memory version, if any, so its replay's
    /// `begin` finds a clean slate. The panic rung must pass through
    /// here before re-dispatching: a body that panicked mid-run may have
    /// left partial writes (an injected panic dies before `begin` and
    /// leaves nothing open), and a recycled id with a live version would
    /// panic the substrate.
    fn rollback_version(job: &JobShared, task: u32) {
        if let Some(m) = job.spec.mode.mem() {
            let v = VersionId(u64::from(task));
            if m.is_active(v) {
                m.rollback(v);
            }
        }
    }

    /// Tasks committed so far.
    pub(super) fn committed_tasks(&self) -> usize {
        self.next
    }

    /// Charges one panic replay against `task`'s budget.
    ///
    /// # Errors
    ///
    /// [`Stop::FallBack`] when the budget is exhausted (budget 0
    /// exhausts on the first panic).
    fn charge(&mut self, task: u32) -> Result<(), Stop> {
        let charged = self.retries_by_task.entry(task).or_insert(0);
        *charged += 1;
        if *charged > self.retry_budget {
            return Err(Stop::FallBack);
        }
        Ok(())
    }

    /// The buffered completion of `task` (which must be ≥ `next`).
    fn peek(&self, task: usize) -> Option<&WorkerDone> {
        self.buffer.get(task - self.next)?.as_ref()
    }

    /// Takes `task`'s completion out of its slot. The slot itself stays
    /// until the frontier moves past it ([`advance`](Self::advance)).
    fn take(&mut self, task: usize) -> Option<WorkerDone> {
        let done = self.buffer.get_mut(task - self.next)?.take();
        self.buffered -= usize::from(done.is_some());
        done
    }

    /// Moves the frontier `by` tasks on, retiring their slots.
    fn advance(&mut self, by: usize) {
        for _ in 0..by {
            if let Some(Some(_)) = self.buffer.pop_front() {
                self.buffered -= 1;
            }
        }
        self.next += by;
    }

    /// Takes one completion off the board into the reorder buffer. A
    /// turn accepts everything the runners published and then runs one
    /// [`drain`](Self::drain) over the lot.
    pub(super) fn accept(&mut self, mut done: WorkerDone) {
        if self.seat_stats.len() <= done.seat {
            self.seat_stats.resize(done.seat + 1, (Duration::ZERO, 0));
        }
        let stat = &mut self.seat_stats[done.seat];
        stat.0 += done.busy;
        stat.1 += 1;
        self.worker_events.append(&mut done.events);
        if (done.task as usize) < self.next {
            // Stale completion for an already-committed task (cannot
            // happen under the one-outstanding-attempt-per-task
            // protocol; tolerated defensively).
            return;
        }
        let slot = done.task as usize - self.next;
        if self.buffer.len() <= slot {
            self.buffer.resize_with(slot + 1, || None);
        }
        if self.buffer[slot].replace(done).is_none() {
            self.buffered += 1;
        }
    }

    /// Commits as far in task order as the reorder buffer allows,
    /// applying the recovery ladder to each attempt reaching the
    /// frontier. Called once per batch of accepted completions.
    ///
    /// The `attempts` counter is charged here — at frontier processing,
    /// not at receipt — so it depends only on the per-task attempt
    /// sequences, never on arrival order.
    ///
    /// The frontier drains in *batches*: each pass peeks the maximal
    /// consecutive run of buffered non-panicked completions, resolves
    /// the whole run's conflict rung with one substrate
    /// [`commit_check_batch`](ConcurrentVersionedMemory::commit_check_batch)
    /// lock acquisition (replay runs bound the clean prefix at the first
    /// recorded misspeculation instead), publishes that prefix with one
    /// [`try_commit_batch`](ConcurrentVersionedMemory::try_commit_batch)
    /// sweep. The decision ladder itself is unchanged — every attempt
    /// still passes panic → misspeculation → commit in task order, and a
    /// rung failure anywhere simply truncates the batch, leaving the
    /// failing attempt to be handled when it reaches the frontier on the
    /// next pass — so counters, trace events, and the output stream are
    /// identical to the per-task protocol; only the lock traffic is
    /// amortized.
    ///
    /// Returns the squashed attempts to re-dispatch.
    pub(super) fn drain(&mut self, job: &JobShared) -> Result<Vec<WorkItem>, Stop> {
        let mem = job.spec.mode.mem();
        let recorded = |task: u32| match &job.spec.mode {
            JobMode::Replay(table) => table.get(task as usize).copied().unwrap_or_default(),
            JobMode::Versioned(_) => SpecRecord::default(),
        };
        let mut redispatch = Vec::new();
        let mut versions = std::mem::take(&mut self.versions);
        let mut batch = std::mem::take(&mut self.batch);
        loop {
            // Peek the consecutive run of non-panicked completions at
            // the frontier. Panicked attempts stop the run: rung 1 owns
            // them, one at a time.
            let run = self
                .buffer
                .iter()
                .take_while(|d| d.as_ref().is_some_and(|d| !d.panicked))
                .count();
            if run == 0 {
                let Some(done) = self.take(self.next) else {
                    break;
                };
                // 1. Worker panic (injected or real): discard like a
                // misspeculation and replay, charged against the budget.
                self.attempts += 1;
                if done.stalled {
                    self.recovery.stalls_absorbed += 1;
                }
                self.recovery.panics_recovered += 1;
                self.trace.record(TraceEventKind::Squash {
                    task: done.task,
                    attempt: done.attempt,
                    reason: SquashReason::PanicRecovered,
                });
                // A body that panicked mid-run may have left its memory
                // version open with partial writes; discard them.
                Self::rollback_version(job, done.task);
                self.charge(done.task)?;
                redispatch.push(again(done.task, done.attempt));
                continue;
            }
            // 2b. Conflict-driven misspeculation, batched: one call
            // answers the conflict rung for the whole run. `ok` is the
            // length of the conflict-free prefix; the check runs
            // *before* publication — nothing irrevocable has
            // happened yet — and, like rung 2a, a conflict squash is
            // never charged against the retry budget.
            let mut ok = run;
            if let Some(m) = mem {
                versions.clear();
                versions.extend((0..run).map(|i| VersionId((self.next + i) as u64)));
                let (n, stopped) = m.commit_check_batch(&versions);
                ok = n;
                if ok == 0 {
                    // The frontier attempt's own version was invalidated
                    // by an earlier version's conflicting write (or a
                    // rollback's revoked forward): squash and replay it.
                    let done = self.take(self.next).expect("peeked frontier entry");
                    self.attempts += 1;
                    if done.stalled {
                        self.recovery.stalls_absorbed += 1;
                    }
                    match stopped {
                        Some(CommitError::Squashed { .. }) => {
                            self.squashes += 1;
                            self.violations += 1;
                            self.trace.record(TraceEventKind::Squash {
                                task: done.task,
                                attempt: done.attempt,
                                reason: SquashReason::MemoryConflict,
                            });
                            m.rollback(VersionId(u64::from(done.task)));
                            redispatch.push(again(done.task, done.attempt));
                        }
                        other => {
                            // In-order commit already published every
                            // earlier version, and every non-panicked
                            // attempt opened one, so neither NotOldest
                            // nor Unknown can occur at the frontier.
                            unreachable!(
                                "versioned commit frontier: {other:?} for task {}",
                                done.task
                            )
                        }
                    }
                    continue;
                }
            }
            // 2a. Trace-driven misspeculation, per task: bound the
            // committable batch at the first attempt 0 whose recorded
            // speculated dependence manifested. Part of the normal
            // protocol — never charged against the retry budget. (If
            // attempt 0 panicked instead, the replay is attempt ≥ 1 and
            // no longer speculative, so this squash never fires and the
            // task's violations go untallied — deterministically so;
            // `predict_recovery` accounts identically.) The check is
            // side-effect-free, so a mid-run failure leaves the attempt
            // buffered — it is handled as the frontier task on the next
            // pass, after the clean prefix below commits, exactly as the
            // per-task ladder would. Versioned runs take the whole
            // conflict-free prefix: the substrate, not the recording,
            // decides.
            while batch.len() < ok {
                let at = self.next + batch.len();
                let done = self.peek(at).expect("peeked run entry");
                let violated = match done.attempt {
                    0 => u64::from(recorded(done.task).violated),
                    _ => 0,
                };
                if violated == 0 {
                    batch.push(self.take(at).expect("peeked run entry"));
                    continue;
                }
                if !batch.is_empty() {
                    // Not at the frontier yet: commit the clean prefix
                    // first; this attempt is handled next pass.
                    break;
                }
                // The frontier attempt itself misspeculated: squash it.
                let done = self.take(at).expect("peeked run entry");
                self.attempts += 1;
                if done.stalled {
                    self.recovery.stalls_absorbed += 1;
                }
                self.squashes += 1;
                self.violations += violated;
                self.trace.record(TraceEventKind::Squash {
                    task: done.task,
                    attempt: done.attempt,
                    reason: SquashReason::Misspeculation,
                });
                redispatch.push(again(done.task, done.attempt));
                break;
            }
            if batch.is_empty() {
                // The frontier attempt was squashed above; re-peek.
                continue;
            }
            // 3. Commit the batch.
            for done in &batch {
                self.attempts += 1;
                if done.stalled {
                    self.recovery.stalls_absorbed += 1;
                }
            }
            if let Some(m) = mem {
                // Publish the surviving versions' write buffers — the
                // one irrevocable memory step, taken last, in one call
                // for the whole batch. Every version in the batch is in
                // the substrate's oldest unsquashed prefix (rung 2b),
                // its body has completed (no further
                // writes), and writes/rollbacks only squash *later*
                // readers — so nothing can doom a batch member between
                // the check and this sweep, and the batch commit cannot
                // come up short.
                versions.truncate(batch.len());
                let (published, stopped) = m.try_commit_batch(&versions);
                assert_eq!(
                    published.len(),
                    batch.len(),
                    "checked batch must commit in full: {stopped:?}"
                );
            } else {
                for done in &batch {
                    let SpecRecord { violated, survived } = recorded(done.task);
                    self.speculations_survived += u64::from(survived);
                    if violated + survived > 0 {
                        // The runtime outcome of this task's
                        // speculation, recorded once, at the attempt
                        // that commits.
                        self.trace.record(TraceEventKind::SpecDecision {
                            task: done.task,
                            violated,
                            survived,
                        });
                    }
                }
            }
            let committed = batch.len();
            for done in batch.drain(..) {
                self.trace.record(TraceEventKind::Commit {
                    task: done.task,
                    attempt: done.attempt,
                });
                self.append(job, done.task, done.output);
            }
            self.advance(committed);
        }
        self.versions = versions;
        self.batch = batch;
        Ok(redispatch)
    }

    /// Rolls back the version of every attempt in the reorder buffer:
    /// the sequential fallback commits none of them, so none stays open.
    /// (An attempt still running on a straggler keeps its version.)
    pub(super) fn discard_buffered(&mut self, job: &JobShared) {
        for done in self.buffer.drain(..).flatten() {
            Self::rollback_version(job, done.task);
        }
        self.buffered = 0;
    }

    /// Commits one task executed in-order under the frontier lock —
    /// the sequential fallback after budget exhaustion or a watchdog
    /// trip. Speculation counters stay frozen at their pre-fallback
    /// values; only `attempts` and `fallback_tasks` advance.
    pub(super) fn commit_fallback(&mut self, job: &JobShared, output: TaskOutput) {
        let task = self.next as u32;
        self.attempts += 1;
        self.recovery.fallback_tasks += 1;
        self.trace.record(TraceEventKind::Commit {
            task,
            attempt: FALLBACK_ATTEMPT,
        });
        self.append(job, task, output);
        self.advance(1);
    }

    /// Appends the committing attempt's bytes to the stream and lets the
    /// body finish them there ([`NativeBody::commit`](super::NativeBody::commit)),
    /// in place: the tail costs no allocation of its own. Into an empty
    /// stream the bytes move, not copy, so a one-task run holds its
    /// output once.
    fn append(&mut self, job: &JobShared, task: u32, output: TaskOutput) {
        let start = self.output.len();
        if start == 0 {
            self.output = output.bytes;
        } else {
            self.output.extend_from_slice(&output.bytes);
        }
        job.spec
            .body
            .commit(TaskId(task), &mut self.output[start..]);
        self.work += output.work;
    }

    /// Finalizes the run (moving the output and the events out): one
    /// [`WorkerStat`] per seat that ran an accepted attempt and, when
    /// tracing was on, the frontier's events stitched with the
    /// dispatcher's and the runners' into the report's [`Timeline`].
    pub(super) fn report(
        &mut self,
        job: &JobShared,
        wall: Duration,
        (watchdog_trips, fallback_activated): (u64, bool),
        dispatch_events: Vec<TraceEvent>,
    ) -> NativeReport {
        let workers = self
            .seat_stats
            .iter()
            .enumerate()
            .filter(|(_, &(_, tasks))| tasks > 0)
            .map(|(core, &(busy, tasks))| WorkerStat { core, busy, tasks })
            .collect();
        let timeline = self.trace.enabled().then(|| {
            let buffers = vec![
                self.trace.take_events(),
                dispatch_events,
                std::mem::take(&mut self.worker_events),
            ];
            // One stage: the trace schema keeps a stage count.
            Timeline::stitch(TimeUnit::Nanos, 1, buffers)
        });
        NativeReport {
            job: job.job,
            wall,
            output: std::mem::take(&mut self.output),
            tasks_committed: self.next as u64,
            attempts: self.attempts,
            squashes: self.squashes,
            violations: self.violations,
            speculations_survived: self.speculations_survived,
            work: self.work,
            recovery: self.recovery,
            watchdog_trips,
            fallback_activated,
            workers,
            timeline,
            mem: job.spec.mode.mem().map(ConcurrentVersionedMemory::stats),
            governor: None,
        }
    }
}
