//! Property test for the audit pass: inferred commutativity must never
//! contradict the sequential oracle.
//!
//! The vpr, twolf, and parser models carry **no** hand `Commutative`
//! annotation — the audit pass proves their RNG/allocator state
//! encapsulated and mints the group itself. If that inference were ever
//! wrong (the state secretly order-sensitive), the erased dependences
//! would let iterations commit out of order and the native run would
//! diverge from sequential execution. So: for random thread counts, the
//! plan derived from the inferred partition must commit byte-identical
//! output to the sequential run, every time.
//!
//! Cases are drawn from the offline proptest stub's deterministic
//! per-test RNG, so the sampled population is stable across machines.

use proptest::prelude::*;
use seqpar::Technique;
use seqpar_ir::Opcode;
use seqpar_runtime::{ExecConfig, StageAssignment};
use seqpar_workloads::{workload_by_name, InputSize};

/// The workloads whose hand annotations the audit pass replaced.
const INFERRED: &[&str] = &["175.vpr", "300.twolf", "197.parser"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Native output stays byte-identical to sequential for every plan
    /// built on audit-inferred commutativity.
    #[test]
    fn inferred_commutativity_never_contradicts_the_sequential_oracle(
        which in 0..INFERRED.len(),
        threads in 1..9usize,
    ) {
        let w = workload_by_name(INFERRED[which]).expect("known workload");
        let model = w.ir_model();

        // The premise: the model's program text carries no annotation,
        // so any Commutative in the report is the inference's own work.
        let f = model.program.function(model.func);
        for i in f.inst_ids() {
            if let Opcode::Call { commutative, .. } = &f.inst(i).opcode {
                prop_assert!(
                    commutative.is_none(),
                    "{}: hand annotation survived in the model",
                    w.meta().spec_id
                );
            }
        }

        let result = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .expect("model parallelizes");
        prop_assert!(
            result.report().uses(Technique::Commutative),
            "{}: the audit pass must prove the group itself",
            w.meta().spec_id
        );

        // Execute the one-stage plan the native executor runs, laid out
        // over this loop, under the default config: the one
        // `figures --native` and every tuner contender run.
        let plan = result.plan_custom(vec![StageAssignment::parallel((0..threads).collect())]);
        let job = w.versioned_job(InputSize::Test);
        let seq = job.sequential();
        let run = job
            .execute(&plan, ExecConfig::default())
            .expect("plan matches machine")
            .0;
        prop_assert_eq!(
            &run.output, &seq.output,
            "{}: inferred-commutative run diverged at {} threads",
            w.meta().spec_id, threads
        );
    }
}
