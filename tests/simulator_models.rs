//! Validates the performance simulator against closed-form models on
//! traces whose optimal schedules are known analytically.

use seqpar::{IterationRecord, IterationTrace};
use seqpar_bench::{simulate_graph, PlanKind, THREAD_SWEEP};
use seqpar_runtime::{ExecutionPlan, SimConfig, SimResult, Simulator, StageAssignment, TaskGraph};
use seqpar_workloads::{all_workloads, InputSize};

fn run(trace: &IterationTrace, cores: usize, cfg_mod: impl Fn(&mut SimConfig)) -> SimResult {
    let mut cfg = SimConfig {
        cores,
        comm_latency: 0,
        ..SimConfig::default()
    };
    cfg_mod(&mut cfg);
    Simulator::new(cfg)
        .run(&trace.task_graph(), &ExecutionPlan::three_phase(cores))
        .expect("valid plan")
}

fn uniform_trace(n: u64, a: u64, b: u64, c: u64) -> IterationTrace {
    (0..n).map(|_| IterationRecord::new(a, b, c)).collect()
}

#[test]
fn steady_state_throughput_matches_the_bottleneck_stage() {
    // With B spread over (cores-2) workers, the pipeline's steady-state
    // throughput is governed by max(A, B/(cores-2), C) per iteration.
    let n = 4000u64;
    let (a, b, c) = (10u64, 200u64, 10u64);
    for cores in [4usize, 8, 12, 22] {
        let r = run(&uniform_trace(n, a, b, c), cores, |_| {});
        let pool = (cores - 2) as u64;
        let bottleneck = a.max(b.div_ceil(pool)).max(c);
        let predicted = n * bottleneck;
        let ratio = r.makespan as f64 / predicted as f64;
        assert!(
            (0.95..1.35).contains(&ratio),
            "{cores} cores: makespan {} vs predicted {predicted} (ratio {ratio})",
            r.makespan
        );
    }
}

#[test]
fn serial_stage_bound_caps_speedup() {
    // Amdahl over the pipeline: when A is huge, adding cores stops
    // helping at total / A_total.
    let trace = uniform_trace(1000, 100, 100, 1);
    let bound = trace.total_cycles() as f64 / (1000.0 * 100.0);
    let r = run(&trace, 32, |_| {});
    assert!(
        r.speedup() <= bound * 1.01,
        "speedup {} bound {bound}",
        r.speedup()
    );
    assert!(
        r.speedup() >= bound * 0.9,
        "should reach the bound: {}",
        r.speedup()
    );
}

#[test]
fn fully_violated_speculation_degenerates_to_serial_phase_b() {
    let mut trace = IterationTrace::speculative();
    for i in 0..500u64 {
        let mut rec = IterationRecord::new(0, 100, 0);
        if i > 0 {
            rec = rec.with_misspec_on(i - 1);
        }
        trace.push(rec);
    }
    let r = run(&trace, 16, |_| {});
    // Every B chains to its predecessor: makespan = sum of B costs.
    assert_eq!(r.makespan, 500 * 100);
    assert_eq!(r.violations, 499);
}

#[test]
fn queue_capacity_one_forces_lockstep() {
    // With a single-entry queue, an iteration's B task cannot start
    // before the previous iteration's C consumed its slot: the parallel
    // stage degenerates to near-serial execution.
    let trace = uniform_trace(500, 5, 200, 5);
    let tight = run(&trace, 6, |cfg| cfg.queue_capacity = 1);
    let wide = run(&trace, 6, |cfg| cfg.queue_capacity = 512);
    assert!(
        tight.makespan > wide.makespan,
        "{} vs {}",
        tight.makespan,
        wide.makespan
    );
    assert!(tight.queue_stall_cycles > 0);
    assert_eq!(wide.queue_stall_cycles, 0);
}

#[test]
fn makespan_is_monotone_in_comm_latency() {
    let trace = uniform_trace(300, 5, 40, 5);
    let mut last = 0u64;
    for lat in [0u64, 20, 100, 400] {
        let r = run(&trace, 8, |cfg| cfg.comm_latency = lat);
        assert!(r.makespan >= last, "latency {lat} decreased makespan");
        last = r.makespan;
    }
}

#[test]
fn adding_cores_never_slows_the_sweep() {
    let trace = uniform_trace(800, 2, 100, 2);
    let mut last = 0.0f64;
    for cores in [4usize, 8, 16, 32] {
        let r = run(&trace, cores, |_| {});
        assert!(
            r.speedup() >= last - 1e-9,
            "{cores} cores slower: {} < {last}",
            r.speedup()
        );
        last = r.speedup();
    }
}

#[test]
fn conservation_of_work_across_cores() {
    let trace = uniform_trace(200, 7, 31, 3);
    let r = run(&trace, 10, |_| {});
    assert_eq!(r.core_busy.iter().sum::<u64>(), trace.total_cycles());
    assert_eq!(r.serial_cycles, trace.total_cycles());
    assert!(r.utilization() <= 1.0);
}

#[test]
fn custom_plans_match_manual_schedules() {
    // Two serial stages on two cores with zero latency: makespan equals
    // the max stage total plus one pipeline fill of the other stage.
    let mut g = TaskGraph::new(2);
    for i in 0..100u64 {
        let p = g.add_task(0, i, 10, &[], &[]);
        g.add_task(1, i, 10, &[p], &[]);
    }
    let plan = ExecutionPlan::new(vec![StageAssignment::serial(0), StageAssignment::serial(1)]);
    let sim = Simulator::new(SimConfig {
        cores: 2,
        comm_latency: 0,
        ..SimConfig::default()
    });
    let r = sim.run(&g, &plan).expect("valid");
    assert_eq!(r.makespan, 100 * 10 + 10);
}

#[test]
fn tls_and_dswp_plans_agree_on_clean_workloads() {
    // §3.2: "similar parallelizations and results could be obtained with
    // execution plans that more closely resemble TLS". For a workload
    // with no misspeculation and negligible serial phases, both plans
    // should land in the same ballpark.
    let mut trace = IterationTrace::speculative();
    for _ in 0..1000u64 {
        trace.push(IterationRecord::new(1, 120, 1));
    }
    let cores = 16;
    let dswp = run(&trace, cores, |_| {});
    let tls = Simulator::new(SimConfig {
        cores,
        comm_latency: 0,
        ..SimConfig::default()
    })
    .run(&trace.tls_task_graph(), &ExecutionPlan::tls(cores))
    .expect("valid");
    let ratio = dswp.speedup() / tls.speedup();
    assert!(
        (0.7..1.3).contains(&ratio),
        "dswp {} tls {}",
        dswp.speedup(),
        tls.speedup()
    );
}

/// FNV-1a over the statistics a simulator edit must not move.
fn digest(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One digest per kernel over `size` × `THREAD_SWEEP` × {DSWP, TLS} of
/// makespan, stall cycles, violations, per-core busy cycles and every
/// channel's peak occupancy, and, with `placements`, every task's core,
/// start and end cycle. Prints every kernel's digest before it asserts,
/// so a change that is meant to move the model can regenerate them all.
fn assert_simulation_pinned(size: InputSize, pinned: [(&str, u64); 11], placements: bool) {
    let suite = all_workloads();
    assert_eq!(suite.len(), pinned.len());
    let mut read = Vec::new();
    for (w, (spec_id, _)) in suite.iter().zip(pinned) {
        assert_eq!(w.meta().spec_id, spec_id);
        let trace = w.trace(size);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let graphs = [
            (PlanKind::Dswp, trace.task_graph()),
            (PlanKind::Tls, trace.tls_task_graph()),
        ];
        for &threads in THREAD_SWEEP {
            for (kind, graph) in &graphs {
                let r = simulate_graph(graph, threads, *kind);
                digest(&mut h, r.makespan);
                digest(&mut h, r.queue_stall_cycles);
                digest(&mut h, r.violations);
                r.core_busy.iter().for_each(|&b| digest(&mut h, b));
                for c in r.channel_stats(graph) {
                    digest(&mut h, c.max_occupancy as u64);
                }
                if placements {
                    for p in &r.placements {
                        digest(&mut h, p.core as u64);
                        digest(&mut h, p.start);
                        digest(&mut h, p.end);
                    }
                }
            }
        }
        println!("(\"{spec_id}\", {h:#018x}),");
        read.push((spec_id, h));
    }
    assert_eq!(read, pinned);
}

/// Nothing else in tier-1 pins a simulated cycle of the real kernels: one
/// digest per kernel at `InputSize::Test` (see
/// [`assert_simulation_pinned`]). The constants were generated at the
/// commit before `Simulator::run` moved from hash maps to per-stage
/// tables; a change that is meant to move the model regenerates them and
/// says so.
#[test]
fn simulated_statistics_of_every_kernel_are_pinned() {
    const PINNED: [(&str, u64); 11] = [
        ("164.gzip", 0xc02e_1099_2892_d572),
        ("175.vpr", 0x1257_ec15_2f3d_392c),
        ("176.gcc", 0xbc47_6692_4585_05b9),
        ("181.mcf", 0x36a0_75e2_aab3_fbda),
        ("186.crafty", 0x879c_706c_51f2_965f),
        ("197.parser", 0x4b72_51d1_af04_c27c),
        ("253.perlbmk", 0x047a_4fe8_9986_92ec),
        ("254.gap", 0x19c2_ed5b_5a1d_a107),
        ("255.vortex", 0x47b5_fe0c_5655_042e),
        ("256.bzip2", 0x0c97_396a_efdc_3430),
        ("300.twolf", 0x7100_1811_555e_1692),
    ];
    assert_simulation_pinned(InputSize::Test, PINNED, false);
}

/// The same pin at `InputSize::Train`, the size the `plan-sim` benchmark
/// simulates, over every placement as well. Release-only (CI's kernel
/// pins at `Train`): `cargo test --release --test simulator_models --
/// --ignored`. The constants were generated before the simulator
/// recorded channels at graph build and computed occupancy on request.
#[test]
#[ignore = "Train-size sweep; run in release with --ignored"]
fn simulated_schedules_of_every_kernel_are_pinned_at_train() {
    const PINNED: [(&str, u64); 11] = [
        ("164.gzip", 0x5e7c_5bb9_4140_f6d0),
        ("175.vpr", 0xa208_05c8_e8ee_8548),
        ("176.gcc", 0x37f5_b90c_ff82_0a19),
        ("181.mcf", 0x1de3_350a_ecb6_16b0),
        ("186.crafty", 0xb178_81aa_a831_7b42),
        ("197.parser", 0xa09d_f5c2_8b73_8a15),
        ("253.perlbmk", 0xd3a3_f614_f369_5e48),
        ("254.gap", 0xccfb_5f15_a36d_3e02),
        ("255.vortex", 0xdd1e_83b3_8368_ef83),
        ("256.bzip2", 0x91b7_1fae_a85a_f4c1),
        ("300.twolf", 0xf34e_10e6_a72d_7bf6),
    ];
    assert_simulation_pinned(InputSize::Train, PINNED, true);
}
