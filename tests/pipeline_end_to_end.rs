//! End-to-end compiler-pipeline tests: every benchmark's IR model goes
//! through analysis, annotation application, speculation selection, and
//! PS-DSWP partitioning, and the result is internally consistent.

use seqpar::{Parallelizer, Stage, Technique};
use seqpar_analysis::pdg::DepKind;
use seqpar_workloads::{all_workloads, Workload};

fn parallelize(w: &dyn Workload) -> seqpar::ParallelizedLoop {
    let model = w.ir_model();
    Parallelizer::new(&model.program)
        .profile(model.profile.clone())
        .parallelize_outermost(model.func)
        .unwrap_or_else(|e| panic!("{} failed to parallelize: {e}", w.meta().spec_id))
}

#[test]
fn every_benchmark_model_parallelizes() {
    for w in all_workloads() {
        let result = parallelize(w.as_ref());
        assert!(
            result.partition().has_parallel_stage(),
            "{} extracted no parallel stage: {}",
            w.meta().spec_id,
            result.report()
        );
    }
}

#[test]
fn reports_use_dswp_and_tls_memory_everywhere() {
    for w in all_workloads() {
        let result = parallelize(w.as_ref());
        assert!(
            result.report().uses(Technique::Dswp),
            "{}",
            w.meta().spec_id
        );
        assert!(
            result.report().uses(Technique::TlsMemory),
            "{}",
            w.meta().spec_id
        );
    }
}

#[test]
fn no_workload_model_carries_a_dead_annotation() {
    // SP0103 audit over the whole suite: every annotation that remains
    // in a workload model must exempt a reachable conflict. Annotations
    // the audit pass can prove on its own were deleted from the models
    // (vpr, twolf, parser) rather than left to rot.
    for w in all_workloads() {
        let result = parallelize(w.as_ref());
        let codes = result.lint_report().codes();
        assert!(
            !codes.contains(&seqpar_analysis::LintCode::DeadAnnotation),
            "{} has a dead annotation:\n{}",
            w.meta().spec_id,
            result.lint_report().render()
        );
    }
}

#[test]
fn commutative_benchmarks_apply_the_annotation() {
    // Table 1: these six benchmarks require Commutative.
    for id in [
        "175.vpr",
        "176.gcc",
        "186.crafty",
        "197.parser",
        "254.gap",
        "300.twolf",
    ] {
        let w = seqpar_workloads::workload_by_name(id).expect("known");
        let result = parallelize(w.as_ref());
        assert!(
            result.report().uses(Technique::Commutative),
            "{id} must use Commutative: {}",
            result.report()
        );
        assert!(result.report().annotation_edges_removed > 0, "{id}");
    }
}

#[test]
fn gzip_is_the_only_ybranch_benchmark() {
    for w in all_workloads() {
        let result = parallelize(w.as_ref());
        let uses = result.report().uses(Technique::YBranch);
        assert_eq!(
            uses,
            w.meta().spec_id == "164.gzip",
            "Y-branch usage wrong for {}",
            w.meta().spec_id
        );
    }
}

#[test]
fn partitions_respect_pipeline_direction() {
    // No remaining dependence may flow backwards through the pipeline
    // (C -> B, C -> A, or B -> A) within an iteration.
    for w in all_workloads() {
        let result = parallelize(w.as_ref());
        let part = result.partition();
        for e in result.pdg().edges() {
            if e.carried {
                continue; // carried edges wrap around to the next iteration
            }
            let (src, dst) = (part.stage_of(e.src), part.stage_of(e.dst));
            assert!(
                src <= dst,
                "{}: intra-iteration {:?} edge flows {src:?} -> {dst:?}",
                w.meta().spec_id,
                e.kind
            );
        }
    }
}

#[test]
fn parallel_stage_has_no_internal_carried_edges() {
    for w in all_workloads() {
        let result = parallelize(w.as_ref());
        let part = result.partition();
        for e in result.pdg().edges() {
            if e.carried && e.kind != DepKind::Control {
                assert!(
                    !(part.stage_of(e.src) == Stage::B && part.stage_of(e.dst) == Stage::B),
                    "{}: carried edge inside the replicated stage",
                    w.meta().spec_id
                );
            }
        }
    }
}

#[test]
fn expected_misspec_stays_within_probability_bounds() {
    for w in all_workloads() {
        let result = parallelize(w.as_ref());
        let m = result.report().expected_misspec;
        assert!((0.0..1.0).contains(&m), "{}: misspec {m}", w.meta().spec_id);
    }
}

#[test]
fn plans_from_parallelized_loops_run_on_the_simulator() {
    use seqpar_runtime::{SimConfig, Simulator};
    for w in all_workloads() {
        let result = parallelize(w.as_ref());
        let trace = w.trace(seqpar_workloads::InputSize::Test);
        // `plan` is one stage: the TLS graph's shape.
        let graph = trace.tls_task_graph();
        for cores in [4usize, 16] {
            let plan = result.plan(cores);
            let sim = Simulator::new(SimConfig::with_cores(cores));
            let r = sim
                .run(&graph, &plan)
                .unwrap_or_else(|e| panic!("{} failed at {cores} cores: {e}", w.meta().spec_id));
            assert!(r.speedup() > 0.2, "{}", w.meta().spec_id);
            assert_eq!(r.tasks_executed, graph.len());
        }
    }
}

#[test]
fn disabling_speculation_never_increases_the_parallel_stage() {
    use seqpar::SpeculationConfig;
    for w in all_workloads() {
        let model = w.ir_model();
        let with = Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .expect("parallelizes");
        let without = Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .speculation(SpeculationConfig::disabled())
            .parallelize_outermost(model.func)
            .expect("parallelizes");
        assert!(
            without.report().parallel_fraction() <= with.report().parallel_fraction() + 1e-9,
            "{}: speculation should only help",
            w.meta().spec_id
        );
        assert!(without.speculation().is_empty());
    }
}
