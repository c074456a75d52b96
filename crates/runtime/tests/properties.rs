//! Property-based tests for the simulator and the native executor:
//! scheduling invariants that must hold for any task graph.

use proptest::prelude::*;
use seqpar_runtime::{
    ChannelStat, Engine, EngineConfig, ExecConfig, ExecutionPlan, FaultPlan, GovernorConfig,
    JobSpec, NativeBody, NativeReport, SimConfig, SimResult, Simulator, StageAssignment, TaskCtx,
    TaskGraph, TaskId, TaskOutput, TaskPlacement,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Builds a three-stage pipeline graph from arbitrary per-iteration
/// costs and misspeculation flags.
fn build_graph(costs: &[(u64, u64, u64, bool)]) -> TaskGraph {
    build_graph_at(costs, 0..)
}

/// Phase B of [`build_graph`] alone, as the one stage of a `tls` loop —
/// the graph the native executor runs: each task speculates on its
/// predecessor.
fn build_chain(costs: &[(u64, u64, u64, bool)]) -> TaskGraph {
    let mut g = TaskGraph::new(1);
    let mut prev: Option<TaskId> = None;
    for (i, &(_, b, _, misspec)) in costs.iter().enumerate() {
        let spec: Vec<seqpar_runtime::SpecDep> = prev
            .into_iter()
            .map(|on| seqpar_runtime::SpecDep {
                on,
                violated: misspec,
            })
            .collect();
        prev = Some(g.add_task(0, i as u64, b % 500 + 1, &[], &spec));
    }
    g
}

/// [`build_graph`] with the iterations numbered by `iters` (ascending).
fn build_graph_at(
    costs: &[(u64, u64, u64, bool)],
    iters: impl IntoIterator<Item = u64>,
) -> TaskGraph {
    let mut g = TaskGraph::new(3);
    let mut prev_a: Option<TaskId> = None;
    let mut prev_b: Option<TaskId> = None;
    let mut prev_c: Option<TaskId> = None;
    for (&(a, b, c, misspec), i) in costs.iter().zip(iters) {
        let deps_a: Vec<TaskId> = prev_a.into_iter().collect();
        let ta = g.add_task(0, i, a % 100, &deps_a, &[]);
        let spec: Vec<seqpar_runtime::SpecDep> = prev_b
            .into_iter()
            .map(|on| seqpar_runtime::SpecDep {
                on,
                violated: misspec,
            })
            .collect();
        let tb = g.add_task(1, i, b % 500 + 1, &[ta], &spec);
        let deps_c: Vec<TaskId> = [Some(tb), prev_c].into_iter().flatten().collect();
        let tc = g.add_task(2, i, c % 50, &deps_c, &[]);
        prev_a = Some(ta);
        prev_b = Some(tb);
        prev_c = Some(tc);
    }
    g
}

/// The simulator's model as it was first written — a scan of every
/// dependence for the channels, two hash maps keyed by `(stage, iter)`, a
/// dependence list per task, a sorted event list per channel — kept as
/// the oracle `Simulator::run`'s flat tables and
/// `SimResult::channel_stats` answer to. It reads nothing the graph
/// records for the simulator (not `TaskGraph::channels`), and returns
/// each channel's peak occupancy beside the result. Like
/// `concurrent_equivalence`'s `interpret`, it stays simple, not fast.
fn reference_run(
    g: &TaskGraph,
    plan: &ExecutionPlan,
    cfg: &SimConfig,
) -> (SimResult, Vec<ChannelStat>) {
    let mut channels = Vec::new();
    for t in g.tasks() {
        let specs = g.spec_deps(t).iter().map(|s| s.on);
        for d in g.deps(t).iter().copied().chain(specs) {
            let src = g.task(d).stage;
            if src != t.stage && !channels.contains(&(src, t.stage)) {
                channels.push((src, t.stage));
            }
        }
    }
    let (mut start_at, mut end_at) = (HashMap::<(u8, u64), u64>::new(), HashMap::new());
    let mut core_avail = vec![0u64; cfg.cores];
    let mut r = SimResult {
        makespan: 0,
        serial_cycles: g.serial_cycles(),
        core_busy: vec![0; cfg.cores],
        tasks_executed: g.len(),
        queue_stall_cycles: 0,
        violations: 0,
        speculations_survived: 0,
        placements: Vec::new(),
    };
    for (idx, task) in g.tasks().iter().enumerate() {
        let mut deps = g.deps(task).to_vec();
        for s in g.spec_deps(task) {
            if s.violated {
                r.violations += 1;
                deps.push(s.on);
            } else {
                r.speculations_survived += 1;
            }
        }
        let core = match plan.stage(task.stage.0) {
            StageAssignment::Serial { core } => *core,
            StageAssignment::Parallel { cores } => *cores
                .iter()
                .min_by_key(|c| core_avail[**c])
                .expect("a pool"),
            StageAssignment::RoundRobin { cores } => cores[task.iter as usize % cores.len()],
        };
        let arrival = |d: &TaskId| {
            let p: &TaskPlacement = &r.placements[d.0 as usize];
            p.end + if p.core == core { 0 } else { cfg.comm_latency }
        };
        let dep_ready = deps.iter().map(arrival).max().unwrap_or(0);
        let k = cfg.queue_capacity as u64;
        let queue_ready = channels
            .iter()
            .filter(|(s, _)| *s == task.stage && task.iter >= k)
            .filter_map(|(_, t)| start_at.get(&(t.0, task.iter - k)).copied())
            .max()
            .unwrap_or(0);
        let unconstrained = dep_ready.max(core_avail[core]);
        r.queue_stall_cycles += queue_ready.saturating_sub(unconstrained);
        let start = unconstrained.max(queue_ready);
        let end = start + task.cost;
        core_avail[core] = end;
        r.core_busy[core] += task.cost;
        r.makespan = r.makespan.max(end);
        start_at.insert((task.stage.0, task.iter), start);
        end_at.insert((task.stage.0, task.iter), end);
        let task = TaskId(idx as u32);
        r.placements.push(TaskPlacement {
            task,
            core,
            start,
            end,
        });
    }
    let mut channel_stats = Vec::new();
    for (s, t) in channels {
        // An entry lives from its producer's finish to its consumer's
        // start; `-1` sorts first, so a dequeue counts before an enqueue
        // at the same cycle.
        let mut events: Vec<(u64, i32)> = Vec::new();
        for (&(stage, iter), &end) in &end_at {
            if let Some(&start) = start_at.get(&(t.0, iter)).filter(|_| stage == s.0) {
                events.extend([(end, 1), (start, -1)]);
            }
        }
        events.sort_unstable();
        let (mut occupancy, mut max_occupancy) = (0i32, 0i32);
        for (_, delta) in events {
            occupancy += delta;
            max_occupancy = max_occupancy.max(occupancy);
        }
        channel_stats.push(ChannelStat {
            producer: s.0,
            consumer: t.0,
            max_occupancy: max_occupancy as usize,
        });
    }
    (r, channel_stats)
}

/// Runs `graph`, a [`build_chain`], on the native executor with a body
/// that emits each iteration's number (and deliberately garbage bytes on
/// a to-be-squashed speculative attempt, which in-order commit must
/// discard).
fn run_native(graph: &TaskGraph, threads: usize, queue_capacity: usize) -> NativeReport {
    run_native_with(
        graph,
        threads,
        ExecConfig::with_queue_capacity(queue_capacity),
    )
}

/// [`run_native`] with a caller-supplied config — the entry point the
/// chaos properties use to arm a [`FaultPlan`].
fn run_native_with(graph: &TaskGraph, threads: usize, config: ExecConfig) -> NativeReport {
    run_native_on(graph, &ExecutionPlan::tls(threads), config)
}

/// [`run_native_with`] under an arbitrary one-stage `plan`.
fn run_native_on(graph: &TaskGraph, plan: &ExecutionPlan, config: ExecConfig) -> NativeReport {
    let graph = Arc::new(graph.clone());
    let tasks = Arc::clone(&graph);
    let body = move |task: TaskId, ctx: &TaskCtx<'_>| {
        let t = tasks.task(task);
        if ctx.speculative() && tasks.spec_deps(t).iter().any(|d| d.violated) {
            // The misspeculated attempt: whatever it produces must never
            // reach the output stream.
            return TaskOutput::bytes(vec![0xEE; 5]);
        }
        TaskOutput {
            bytes: ctx.iter.to_le_bytes().to_vec(),
            work: 1,
        }
    };
    run(config, graph, plan, body)
}

/// Runs one replay job (`mem: None`: the graph's recorded violations
/// drive the squashes) on an engine of its own, one worker per seat of
/// `plan`.
fn run(
    config: ExecConfig,
    graph: Arc<TaskGraph>,
    plan: &ExecutionPlan,
    body: impl NativeBody + 'static,
) -> NativeReport {
    Engine::new(EngineConfig::with_workers(Engine::seats(plan)))
        .run(&JobSpec {
            graph,
            plan: Arc::new(plan.clone()),
            body: Arc::new(body),
            mem: None,
            config,
        })
        .expect("plan matches graph and every fault is recoverable")
}

/// The byte stream a correct in-order commit must produce for
/// [`run_native`]: every iteration number once, in ascending order.
fn expected_stream(iterations: usize) -> Vec<u8> {
    (0..iterations as u64).flat_map(u64::to_le_bytes).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fundamental lower bounds: the makespan can never beat the critical
    /// resource (total work / cores) nor the largest single task.
    #[test]
    fn makespan_respects_lower_bounds(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 1..80),
        cores in 3usize..16
    ) {
        let g = build_graph(&costs);
        let sim = Simulator::new(SimConfig { cores, comm_latency: 0, ..SimConfig::default() });
        let r = sim.run(&g, &ExecutionPlan::three_phase(cores)).expect("valid");
        let max_task = g.tasks().iter().map(|t| t.cost).max().unwrap_or(0);
        prop_assert!(r.makespan >= max_task);
        prop_assert!(r.makespan >= g.serial_cycles().div_ceil(cores as u64));
        prop_assert!(r.speedup() <= cores as f64 + 1e-9);
    }

    /// Work conservation: busy cycles across cores equal total task cost,
    /// regardless of schedule.
    #[test]
    fn busy_cycles_are_conserved(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 1..60),
        cores in 3usize..12
    ) {
        let g = build_graph(&costs);
        let sim = Simulator::new(SimConfig { cores, comm_latency: 7, ..SimConfig::default() });
        let r = sim.run(&g, &ExecutionPlan::three_phase(cores)).expect("valid");
        prop_assert_eq!(r.core_busy.iter().sum::<u64>(), g.serial_cycles());
        prop_assert!(r.utilization() <= 1.0 + 1e-9);
    }

    /// Placements never overlap on a core and cover every task exactly
    /// once, for any input.
    #[test]
    fn placements_partition_core_time(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 1..50)
    ) {
        let g = build_graph(&costs);
        let cores = 6;
        let sim = Simulator::new(SimConfig { cores, comm_latency: 3, ..SimConfig::default() });
        let placements = sim
            .run(&g, &ExecutionPlan::three_phase(cores))
            .expect("valid")
            .placements;
        prop_assert_eq!(placements.len(), g.len());
        let mut by_core: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cores];
        for p in &placements {
            by_core[p.core].push((p.start, p.end));
        }
        for spans in &mut by_core {
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0);
            }
        }
    }

    /// Violated speculation can only slow a schedule down relative to the
    /// identical graph with the speculation surviving.
    #[test]
    fn violations_never_speed_things_up(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64), 2..60)
    ) {
        let clean: Vec<(u64, u64, u64, bool)> =
            costs.iter().map(|&(a, b, c)| (a, b, c, false)).collect();
        let dirty: Vec<(u64, u64, u64, bool)> =
            costs.iter().map(|&(a, b, c)| (a, b, c, true)).collect();
        let sim = Simulator::new(SimConfig { cores: 8, comm_latency: 0, ..SimConfig::default() });
        let plan = ExecutionPlan::three_phase(8);
        let rc = sim.run(&build_graph(&clean), &plan).expect("valid");
        let rd = sim.run(&build_graph(&dirty), &plan).expect("valid");
        prop_assert!(rd.makespan >= rc.makespan);
    }

    /// Every schedule the simulator emits passes the independent
    /// constraint checker, and every field of its result, and every
    /// channel's peak occupancy, is the reference model's, for arbitrary
    /// graphs — iterations numbered
    /// with gaps — machine shapes, queue capacities from 0 up, and
    /// plans: least-loaded, round-robin, and one whose serial stages
    /// share their cores with the pool.
    #[test]
    fn simulator_schedules_always_validate(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 1..60),
        gaps in proptest::collection::vec(prop_oneof![Just(0u64), Just(0u64), 0..5u64, 0..200u64], 60),
        cores in 3usize..12,
        lat in 0u64..60,
        cap in 0usize..64,
        shape in 0..3
    ) {
        let iters = gaps.iter().scan(0u64, |next, gap| {
            let i = *next + gap;
            *next = i + 1;
            Some(i)
        });
        let g = build_graph_at(&costs, iters);
        let cfg = SimConfig { cores, comm_latency: lat, queue_capacity: cap, ..SimConfig::default() };
        let plan = match shape {
            0 => ExecutionPlan::three_phase(cores),
            1 => ExecutionPlan::three_phase_static(cores),
            _ => ExecutionPlan::new(vec![
                StageAssignment::serial(0),
                StageAssignment::parallel((0..cores - 1).collect()),
                StageAssignment::serial(cores - 2),
            ]),
        };
        let result = Simulator::new(cfg).run(&g, &plan).expect("valid plan");
        // The checker reads capacity 0 as "no producer starts before its
        // own consumer", which no pipeline satisfies: it is a setting of
        // the model (nothing downstream constrains), not a machine.
        if cap > 0 {
            let violations = seqpar_runtime::check_schedule(&g, &plan, &cfg, &result.placements);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }
        let (reference, occupancy) = reference_run(&g, &plan, &cfg);
        prop_assert_eq!(result.channel_stats(&g), occupancy);
        prop_assert_eq!(result, reference);
    }

    /// In-order commit never reorders: whatever the thread interleaving
    /// and misspeculation pattern, the native executor's output stream is
    /// every iteration's bytes in ascending iteration order, and squashed
    /// speculative attempts never leak garbage into it.
    #[test]
    fn native_commit_never_reorders(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 1..40),
        threads in 1usize..9
    ) {
        let g = build_chain(&costs);
        let r = run_native(&g, threads, 32);
        prop_assert_eq!(r.output, expected_stream(costs.len()));
        prop_assert_eq!(r.tasks_committed, g.len() as u64);
    }

    /// Bounded queues never deadlock: even capacity-1 queues with
    /// backpressure and squash re-dispatch drain every task. The run is
    /// raced against a timeout so a deadlock fails fast instead of
    /// hanging the suite.
    #[test]
    fn native_bounded_queues_never_deadlock(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 1..40),
        threads in 1usize..9,
        cap in 1usize..5
    ) {
        let n = costs.len();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let g = build_chain(&costs);
            let r = run_native(&g, threads, cap);
            tx.send(r).ok();
        });
        let r = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("native run deadlocked");
        prop_assert_eq!(r.output, expected_stream(n));
    }

    /// Squash accounting is deterministic and trace-driven: two runs of
    /// the same graph agree exactly, and the counts match what the
    /// dependence events predict (one squash per task whose speculation
    /// was violated, one extra attempt per squash).
    #[test]
    fn native_squash_count_is_deterministic(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 2..40),
        threads in 2usize..9
    ) {
        let g = build_chain(&costs);
        let a = run_native(&g, threads, 32);
        let b = run_native(&g, threads, 32);
        prop_assert_eq!(a.squashes, b.squashes);
        prop_assert_eq!(a.violations, b.violations);
        prop_assert_eq!(a.attempts, b.attempts);
        prop_assert_eq!(&a.output, &b.output);
        // build_chain attaches one spec dep to every task after the
        // first, violated when the iteration's flag is set.
        let expected = costs[1..].iter().filter(|(_, _, _, m)| *m).count() as u64;
        prop_assert_eq!(a.squashes, expected);
        prop_assert_eq!(a.violations, expected);
        prop_assert_eq!(a.attempts, g.len() as u64 + expected);
    }

    /// Chaos: under an arbitrary seeded [`FaultPlan`] — worker panics and
    /// stalls on top of any misspeculation pattern — the supervised
    /// executor still terminates
    /// (budget exhaustion degrades to the sequential fallback, never an
    /// abort), the committed stream is byte-identical to the fault-free
    /// one, and every recovery counter is identical across two runs with
    /// the same seed. Budget 0 is included: any charged fault then
    /// triggers the fallback immediately. The run is raced against a
    /// timeout so a supervision deadlock fails fast.
    #[test]
    fn chaos_faults_recover_to_identical_output(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 1..24),
        threads in 2usize..7,
        budget in 0u32..4,
        seed in any::<u64>()
    ) {
        let n = costs.len();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let g = build_chain(&costs);
            let config = ExecConfig::default()
                .with_faults(FaultPlan::seeded(seed))
                .with_retry_budget(budget);
            let a = run_native_with(&g, threads, config.clone());
            let b = run_native_with(&g, threads, config);
            tx.send((a, b)).ok();
        });
        let (a, b) = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("faulted native run hung");
        prop_assert_eq!(&a.output, &expected_stream(n));
        prop_assert_eq!(&b.output, &a.output);
        prop_assert_eq!(a.tasks_committed, n as u64);
        prop_assert_eq!(a.recovery, b.recovery);
        prop_assert_eq!(a.attempts, b.attempts);
        prop_assert_eq!(a.squashes, b.squashes);
        prop_assert_eq!(a.violations, b.violations);
        prop_assert_eq!(a.fallback_activated, b.fallback_activated);
    }

    /// Every trace is well-formed: across arbitrary graphs, thread
    /// counts, retry budgets, and (optional) fault seeds, a traced run's
    /// timeline passes [`Timeline::validate`] — every completion pairs
    /// with a dispatch, every commit with a completion (fallback commits
    /// excepted), no pop without a push, and the commit sequence is
    /// exactly sequential order — and its commit/squash events agree
    /// with the report's counters.
    ///
    /// [`Timeline::validate`]: seqpar_runtime::Timeline::validate
    #[test]
    fn traces_are_always_well_formed(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 1..24),
        threads in 2usize..7,
        budget in 0u32..4,
        faulted in any::<bool>(),
        seed in any::<u64>()
    ) {
        let n = costs.len();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let g = build_chain(&costs);
            let mut config = ExecConfig::default()
                .with_retry_budget(budget)
                .with_tracing(true);
            if faulted {
                config = config.with_faults(FaultPlan::seeded(seed));
            }
            let r = run_native_with(&g, threads, config);
            tx.send(r).ok();
        });
        let r = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("traced native run hung");
        prop_assert_eq!(&r.output, &expected_stream(n));
        let timeline = r.timeline.as_ref().expect("traced run carries a timeline");
        let verdict = timeline.validate();
        prop_assert!(verdict.is_ok(), "malformed timeline: {:?}", verdict);
        let order = timeline.commit_order();
        prop_assert_eq!(order.len() as u64, r.tasks_committed);
        prop_assert!(order.iter().enumerate().all(|(i, t)| t.0 == i as u32));
        let squash_events = timeline
            .events()
            .iter()
            .filter(|e| matches!(e.kind, seqpar_runtime::TraceEventKind::Squash { .. }))
            .count() as u64;
        // Squash events cover the whole recovery ladder: misspeculation
        // rollbacks plus recovered panics.
        prop_assert_eq!(squash_events, r.squashes + r.recovery.panics_recovered);
    }

    /// The board hands every admitted attempt to exactly one claim,
    /// whatever the width, the window, or the chaos on top: in the
    /// trace, admissions (`QueuePush`) and claims (`QueuePop`) pair one
    /// to one with no attempt admitted or claimed twice, the lane is
    /// never admitted past its window, and — every completion carrying
    /// its seat — the seats' task counts add up to the attempts the
    /// frontier processed.
    #[test]
    fn every_admitted_attempt_is_claimed_exactly_once(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 1..60),
        threads in 1usize..7,
        cap in 1usize..6,
        faulted in any::<bool>(),
        seed in any::<u64>()
    ) {
        use seqpar_runtime::TraceEventKind::{QueuePop, QueuePush};
        let n = costs.len();
        let g = build_chain(&costs);
        let plan = ExecutionPlan::tls(threads);
        let mut config = ExecConfig::with_queue_capacity(cap).with_tracing(true);
        if faulted {
            config = config.with_faults(FaultPlan::seeded(seed));
        }
        let r = run_native_on(&g, &plan, config);
        prop_assert_eq!(&r.output, &expected_stream(n));
        let timeline = r.timeline.as_ref().expect("traced run carries a timeline");
        let mut pushed = std::collections::BTreeMap::new();
        let mut popped = std::collections::BTreeMap::new();
        for e in timeline.events() {
            match e.kind {
                QueuePush { task, attempt, occupancy, .. } => {
                    *pushed.entry((task, attempt)).or_insert(0u32) += 1;
                    // The window is the capacity plus the seats.
                    prop_assert!(
                        occupancy <= cap + threads,
                        "admitted to occupancy {} past the window {}",
                        occupancy, cap + threads
                    );
                }
                QueuePop { task, attempt, .. } => {
                    *popped.entry((task, attempt)).or_insert(0u32) += 1;
                }
                _ => {}
            }
        }
        prop_assert!(pushed.values().all(|&k| k == 1), "an attempt was admitted twice");
        if !r.fallback_activated {
            // (A fallback abandons whatever was admitted but unclaimed.)
            prop_assert_eq!(&pushed, &popped);
            let served: u64 = r.workers.iter().map(|w| w.tasks).sum();
            prop_assert_eq!(served, r.attempts);
        } else {
            prop_assert!(popped.iter().all(|(k, &v)| v == 1 && pushed.contains_key(k)));
        }
    }

    /// The governed executor is safe by construction: across arbitrary
    /// graphs, thread counts and (optional) fault seeds — including the
    /// chaos seeds 7 and 42 the CI matrix pins — a governed run always
    /// terminates (raced against a timeout, so a stall fails fast
    /// instead of hanging the suite) and commits the exact sequential
    /// byte stream, at one seat and wider. `with_governor` changes
    /// nothing: every one of them runs the pipelined path.
    #[test]
    fn governed_runs_never_deadlock_and_keep_sequential_output(
        costs in proptest::collection::vec((0..100u64, 0..500u64, 0..50u64, any::<bool>()), 1..24),
        threads in 1usize..7,
        faulted in any::<bool>(),
        seed in prop_oneof![Just(7u64), Just(42u64), any::<u64>()],
    ) {
        let n = costs.len();
        let (g, plan) = (build_chain(&costs), ExecutionPlan::tls(threads));
        let tasks = g.len() as u64;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut config = ExecConfig::default()
                .with_governor(GovernorConfig::default())
                .with_tracing(true);
            if faulted {
                config = config.with_faults(FaultPlan::seeded(seed));
            }
            tx.send(run_native_on(&g, &plan, config)).ok();
        });
        let r = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("governed native run hung");
        prop_assert_eq!(&r.output, &expected_stream(n));
        prop_assert_eq!(r.tasks_committed, tasks);
        let timeline = r.timeline.as_ref().expect("traced run carries a timeline");
        let verdict = timeline.validate();
        prop_assert!(verdict.is_ok(), "malformed governed timeline: {:?}", verdict);
    }

    /// The TLS single-stage plan obeys the same fundamental bounds.
    #[test]
    fn tls_plan_bounds_hold(
        costs in proptest::collection::vec((1..500u64, any::<bool>()), 1..60),
        cores in 2usize..16
    ) {
        let mut g = TaskGraph::new(1);
        let mut prev: Option<TaskId> = None;
        for (i, &(c, violated)) in costs.iter().enumerate() {
            let spec: Vec<seqpar_runtime::SpecDep> = prev
                .into_iter()
                .map(|on| seqpar_runtime::SpecDep { on, violated })
                .collect();
            prev = Some(g.add_task(0, i as u64, c, &[], &spec));
        }
        let sim = Simulator::new(SimConfig { cores, comm_latency: 0, ..SimConfig::default() });
        let r = sim.run(&g, &ExecutionPlan::tls(cores)).expect("valid");
        prop_assert!(r.makespan >= g.serial_cycles().div_ceil(cores as u64));
        // All-violated chains degenerate to at least the serial sum of
        // the violated suffix.
        if costs.iter().all(|(_, v)| *v) && costs.len() > 1 {
            prop_assert_eq!(r.makespan, g.serial_cycles());
        }
    }
}

/// A governed plan of two seats is an ungoverned one: on a replay job
/// whose every other task violates its speculated dependence, both
/// squash, replay and tally exactly the same. A misspeculation simply serializes that task
/// (§3.2); nothing collapses the loop.
#[test]
fn a_governed_two_seat_plan_squashes_what_an_ungoverned_one_does() {
    let costs: Vec<_> = (0..64u64).map(|i| (0, 10, 0, i % 2 == 1)).collect();
    let g = build_chain(&costs);
    let plan = ExecutionPlan::tls(2);
    let ungoverned = run_native_on(&g, &plan, ExecConfig::default());
    let governed = run_native_on(
        &g,
        &plan,
        ExecConfig::default().with_governor(GovernorConfig::default()),
    );
    for r in [&ungoverned, &governed] {
        assert_eq!(r.output, expected_stream(costs.len()));
        assert_eq!(r.squashes, 32, "every violated task squashes once");
    }
    let counts = |r: &NativeReport| (r.attempts, r.squashes, r.violations);
    assert_eq!(counts(&governed), counts(&ungoverned));
}
