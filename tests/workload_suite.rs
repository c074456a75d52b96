//! Suite-level regression tests: determinism, misspeculation profiles,
//! and the qualitative speedup shapes the paper reports.

use seqpar_bench::{geomean, sweep_workload, PlanKind, THREAD_SWEEP};
use seqpar_workloads::common::fnv1a;
use seqpar_workloads::{all_workloads, workload_by_name, InputSize, Workload};

#[test]
fn traces_and_checksums_are_deterministic() {
    let checksum = |w: &dyn Workload| fnv1a(w.versioned_job(InputSize::Test).sequential().output);
    for w in all_workloads() {
        let t1 = w.trace(InputSize::Test);
        let t2 = w.trace(InputSize::Test);
        assert_eq!(t1, t2, "{} trace must be deterministic", w.meta().spec_id);
        assert_eq!(
            checksum(w.as_ref()),
            checksum(w.as_ref()),
            "{} checksum must be deterministic",
            w.meta().spec_id
        );
    }
}

#[test]
fn misspeculation_profiles_match_the_paper_narrative() {
    let rate = |id: &str| {
        workload_by_name(id)
            .expect("known")
            .trace(InputSize::Test)
            .misspec_rate()
    };
    // Independent-block compressors never misspeculate.
    assert_eq!(rate("256.bzip2"), 0.0);
    assert_eq!(rate("164.gzip"), 0.0);
    // The commutative caches make crafty and parser clean too.
    assert_eq!(rate("186.crafty"), 0.0);
    assert_eq!(rate("197.parser"), 0.0);
    // Interpreters misspeculate heavily on true data dependences.
    assert!(rate("253.perlbmk") > 0.7, "perlbmk {}", rate("253.perlbmk"));
    // Annealers conflict often; databases rarely.
    assert!(rate("300.twolf") > rate("255.vortex"));
    assert!(rate("255.vortex") > 0.02);
}

#[test]
fn speedup_shapes_match_table_2() {
    let best = |id: &str| {
        let w = workload_by_name(id).expect("known");
        sweep_workload(w.as_ref(), InputSize::Test, PlanKind::Dswp).best()
    };
    // Scalable benchmarks keep climbing to 32 threads.
    let crafty = best("186.crafty");
    assert!(crafty.speedup > 12.0, "crafty {}", crafty.speedup);
    assert!(crafty.threads >= 24, "crafty saturates late");
    let parser = best("197.parser");
    assert!(parser.speedup > 12.0, "parser {}", parser.speedup);
    // bzip2 is block-count limited: flat after ~12 threads.
    let w = workload_by_name("256.bzip2").expect("known");
    let sweep = sweep_workload(w.as_ref(), InputSize::Test, PlanKind::Dswp);
    let at12 = sweep.at(12).expect("swept");
    let at32 = sweep.at(32).expect("swept");
    assert!(
        (at32 - at12).abs() / at12 < 0.05,
        "bzip2 must saturate: {at12} vs {at32}"
    );
    // mcf is Amdahl-limited under 4x.
    assert!(best("181.mcf").speedup < 4.0);
    // perlbmk barely breaks even.
    let perl = best("253.perlbmk");
    assert!(perl.speedup < 2.0, "perlbmk {}", perl.speedup);
    // twolf and gap sit well below the Moore reference (ratio < 1).
    for id in ["300.twolf", "254.gap"] {
        let b = best(id);
        let moore = seqpar_workloads::WorkloadMeta::moore_speedup(b.threads as u32);
        assert!(b.speedup / moore < 1.0, "{id} ratio {}", b.speedup / moore);
    }
}

#[test]
fn suite_geomean_is_in_the_paper_ballpark() {
    let bests: Vec<f64> = all_workloads()
        .iter()
        .map(|w| {
            sweep_workload(w.as_ref(), InputSize::Test, PlanKind::Dswp)
                .best()
                .speedup
        })
        .collect();
    let gm = geomean(bests.iter().copied());
    // Paper: 5.54 geomean. Same order of magnitude required.
    assert!((3.0..9.0).contains(&gm), "geomean {gm}");
}

#[test]
fn single_thread_is_always_baseline() {
    for w in all_workloads() {
        let sweep = sweep_workload(w.as_ref(), InputSize::Test, PlanKind::Dswp);
        let s1 = sweep.at(1).expect("swept");
        assert!(
            (s1 - 1.0).abs() < 1e-9,
            "{}: 1-thread speedup {s1}",
            w.meta().spec_id
        );
    }
}

#[test]
fn sweeps_cover_the_papers_thread_range() {
    assert_eq!(*THREAD_SWEEP.first().unwrap(), 1);
    assert_eq!(*THREAD_SWEEP.last().unwrap(), 32);
    assert!(
        THREAD_SWEEP.contains(&15),
        "vpr's best point is at 15 threads"
    );
}

#[test]
fn vpr_misspeculation_declines_with_temperature() {
    // §4.3.4: early iterations fail >80%, late iterations succeed >80%.
    let w = workload_by_name("175.vpr").expect("known");
    let t = w.trace(InputSize::Test);
    let n = t.len();
    let rate = |range: std::ops::Range<usize>| {
        let r = &t.records()[range];
        r.iter().filter(|x| x.misspec_on.is_some()).count() as f64 / r.len() as f64
    };
    assert!(rate(0..n / 5) > 0.6, "early {}", rate(0..n / 5));
    assert!(rate(4 * n / 5..n) < 0.4, "late {}", rate(4 * n / 5..n));
}

#[test]
fn workload_schedules_pass_the_independent_checker() {
    use seqpar_runtime::{check_schedule, ExecutionPlan, SimConfig, Simulator};
    for w in all_workloads() {
        let trace = w.trace(InputSize::Test);
        let graph = trace.task_graph();
        let cfg = SimConfig {
            cores: 16,
            comm_latency: 10,
            queue_capacity: 128,
            ..SimConfig::default()
        };
        let plan = ExecutionPlan::three_phase(16);
        let placements = Simulator::new(cfg)
            .run(&graph, &plan)
            .expect("valid plan")
            .placements;
        let violations = check_schedule(&graph, &plan, &cfg, &placements);
        assert!(
            violations.is_empty(),
            "{}: {violations:?}",
            w.meta().spec_id
        );
    }
}

#[test]
fn input_sizes_scale_trace_lengths() {
    for id in ["197.parser", "253.perlbmk", "254.gap"] {
        let w = workload_by_name(id).expect("known");
        let small = w.trace(InputSize::Test).len();
        let large = w.trace(InputSize::Train).len();
        assert!(large > small * 2, "{id}: {small} -> {large}");
    }
}
