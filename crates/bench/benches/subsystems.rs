//! Criterion micro-benchmarks for each subsystem: the compiler analyses,
//! the partitioner, the versioned memory, the simulator, and the real
//! workload kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use seqpar::{IterationRecord, IterationTrace, Parallelizer};
use seqpar_runtime::{ExecutionPlan, SimConfig, Simulator};
use seqpar_specmem::{Addr, ConcurrentVersionedMemory, VersionId};
use seqpar_workloads::common::{synthetic_text, WorkMeter};
use seqpar_workloads::{workload_by_name, InputSize};
use std::hint::black_box;

fn bench_compiler_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("compiler");
    for id in ["164.gzip", "176.gcc", "300.twolf"] {
        let w = workload_by_name(id).expect("known benchmark");
        let model = w.ir_model();
        g.bench_function(format!("parallelize/{id}"), |b| {
            b.iter(|| {
                let result = Parallelizer::new(&model.program)
                    .profile(model.profile.clone())
                    .parallelize_outermost(model.func)
                    .expect("parallelizes");
                black_box(result.report().parallel_fraction())
            });
        });
    }
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    for n in [1_000u64, 10_000, 100_000] {
        let trace: IterationTrace = (0..n)
            .map(|i| IterationRecord::new(2, 40 + i % 60, 2))
            .collect();
        let graph = trace.task_graph();
        let sim = Simulator::new(SimConfig::with_cores(16));
        let plan = ExecutionPlan::three_phase(16);
        g.bench_function(format!("three_phase/{n}_iters"), |b| {
            b.iter(|| black_box(sim.run(&graph, &plan).expect("valid").makespan));
        });
    }
    g.finish();
}

fn bench_versioned_memory(c: &mut Criterion) {
    let mut g = c.benchmark_group("specmem");
    g.bench_function("epoch_of_16_versions", |b| {
        b.iter_batched(
            ConcurrentVersionedMemory::new,
            |vm| {
                for v in 0..16u64 {
                    vm.begin(VersionId(v));
                }
                for v in 0..16u64 {
                    for a in 0..8u64 {
                        let addr = Addr(v * 8 + a);
                        let x = vm.read(VersionId(v), addr);
                        vm.write(VersionId(v), addr, x + 1);
                    }
                }
                for v in 0..16u64 {
                    vm.try_commit(VersionId(v)).expect("in order");
                }
                black_box(vm.stats().commits)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20);
    let text = synthetic_text(64 * 1024, 7);
    g.bench_function("gzip_deflate_64k", |b| {
        b.iter(|| {
            let mut m = WorkMeter::new();
            black_box(seqpar_workloads::gzip::deflate_block(&text, &mut m).len())
        });
    });
    let block = synthetic_text(8 * 1024, 9);
    g.bench_function("bzip2_bwt_8k", |b| {
        b.iter(|| {
            let mut m = WorkMeter::new();
            black_box(seqpar_workloads::bzip2::bwt(&block, &mut m).1)
        });
    });
    g.bench_function("crafty_search_d5", |b| {
        b.iter(|| {
            let mut m = WorkMeter::new();
            let mut tt = seqpar_workloads::crafty::TransTable::new();
            black_box(seqpar_workloads::crafty::search(
                0x186_186_186,
                5,
                i32::MIN + 1,
                i32::MAX - 1,
                &mut tt,
                &mut m,
            ))
        });
    });
    let tags = vec![seqpar_workloads::parser::Tag::Noun; 30];
    g.bench_function("parser_cky_30", |b| {
        b.iter(|| {
            let mut m = WorkMeter::new();
            black_box(seqpar_workloads::parser::parse(&tags, &mut m))
        });
    });
    g.bench_function("vortex_btree_5k_ops", |b| {
        b.iter(|| {
            let mut m = WorkMeter::new();
            let mut tree = seqpar_workloads::vortex::BTree::new();
            for k in 0..5_000u64 {
                tree.insert(k.wrapping_mul(2654435761) % 10_000, k, &mut m);
            }
            black_box(tree.len())
        });
    });
    g.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    g.sample_size(10);
    for id in ["181.mcf", "254.gap"] {
        let w = workload_by_name(id).expect("known benchmark");
        g.bench_function(format!("generate/{id}"), |b| {
            b.iter(|| black_box(w.trace(InputSize::Test).len()));
        });
    }
    g.finish();
}

fn bench_transforms(c: &mut Criterion) {
    use seqpar_ir::{ExternEffect, FunctionBuilder, Opcode, Program};
    let mut g = c.benchmark_group("transforms");
    // A caller with 8 inlinable helpers.
    let build = || {
        let mut p = Program::new("b");
        p.declare_extern("f", ExternEffect::pure_fn());
        let helpers: Vec<_> = (0..8)
            .map(|i| {
                let mut hb = FunctionBuilder::new(format!("h{i}"));
                let k = hb.add_param();
                let x = hb.call_ext("f", &[k], None);
                let y = hb.binop(Opcode::Add, x, k);
                hb.ret(Some(y));
                hb.finish(&mut p)
            })
            .collect();
        let mut cb = FunctionBuilder::new("caller");
        let mut v = cb.const_(1);
        for h in &helpers {
            v = cb.call(*h, &[v]);
        }
        cb.ret(Some(v));
        let caller = cb.finish(&mut p);
        (p, caller)
    };
    g.bench_function("region_formation/8_calls", |b| {
        b.iter_batched(
            build,
            |(mut p, caller)| black_box(seqpar::form_region(&mut p, caller, 4).calls_inlined),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_transforms,
    bench_compiler_pipeline,
    bench_simulator,
    bench_versioned_memory,
    bench_kernels,
    bench_trace_generation
);
criterion_main!(benches);
