//! The end-to-end parallelization facade.

use crate::annotations::{apply_commutative, apply_ybranch};
use crate::dswp::{partition, Partition, Stage};
use crate::error::ParallelizeError;
use crate::invariants::prune_constant_carried_edges;
use crate::reductions::apply_reductions;
use crate::report::{ParallelizationReport, Technique};
use crate::speculation::{select, SpecKind, SpeculationConfig, SpeculationSet};
use seqpar_analysis::audit;
use seqpar_analysis::effects::Effects;
use seqpar_analysis::lint::{self, LintInput, LintReport, SpeculatedDep, StageKind, StagePlan};
use seqpar_analysis::pdg::{DepKind, LoopPdg};
use seqpar_analysis::points_to::PointsTo;
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{FuncId, LoopForest, LoopId, Program};
use seqpar_runtime::{ConflictProfile, ExecutionPlan};

/// Speculations whose dependence manifests at or above this frequency
/// are rescinded after selection: each manifestation is a commit-time
/// squash, and at this density the recovery work exceeds the overlap
/// speculation buys (the same 25%-of-iterations knee as the
/// `SP0101` high-misspeculation warning). The default
/// [`SpeculationConfig`] caps per-edge misspeculation below this
/// limit, so the ranking only bites under permissive configs.
const SPECULATION_DENSITY_LIMIT: f64 = 0.25;

/// The memory profile contradicts an inferred commutative group: some
/// dependence between the group's member call sites manifested during
/// the profiled sequential run. Encapsulation proves the callee's
/// effects are confined to its private state, but an observed carried
/// value flow through that state means iteration order is visible to
/// the computation — the dependence must be synchronized or validated
/// by speculation, never erased. With a profile supplied, unrecorded
/// dependences default to frequency zero, so provably-commutative
/// callees (RNG draws, arena bumps) pass this test untouched.
fn profile_refutes_inference(pdg: &LoopPdg, members: &[usize]) -> bool {
    pdg.edges().any(|e| {
        e.kind == DepKind::Mem
            && e.freq > 0.0
            && members.contains(&e.src)
            && members.contains(&e.dst)
    })
}

/// The result of parallelizing one loop: the stage partition, the
/// speculation set, the `seqpar-lint` soundness audit, and a
/// techniques report.
#[derive(Clone, Debug)]
pub struct ParallelizedLoop {
    partition: Partition,
    speculation: SpeculationSet,
    report: ParallelizationReport,
    pdg: LoopPdg,
    stage_plan: StagePlan,
    speculated: Vec<SpeculatedDep>,
    lint: LintReport,
    conflict_profile: ConflictProfile,
}

impl ParallelizedLoop {
    /// The three-phase stage assignment.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The speculations the parallelization relies on.
    pub fn speculation(&self) -> &SpeculationSet {
        &self.speculation
    }

    /// The techniques report (one row of the paper's Table 1).
    pub fn report(&self) -> &ParallelizationReport {
        &self.report
    }

    /// The pruned dependence graph the partition was computed over.
    pub fn pdg(&self) -> &LoopPdg {
        &self.pdg
    }

    /// The partition in `seqpar-lint`'s compiler-neutral form.
    pub fn stage_plan(&self) -> &StagePlan {
        &self.stage_plan
    }

    /// The chosen speculations in `seqpar-lint`'s neutral form.
    pub fn speculated_deps(&self) -> &[SpeculatedDep] {
        &self.speculated
    }

    /// The `seqpar-lint` audit of the partition (plan shape excluded —
    /// no plan exists yet at partition time; see [`Self::lint_plan`]).
    pub fn lint_report(&self) -> &LintReport {
        &self.lint
    }

    /// Re-audits with a concrete execution plan: the stored partition
    /// findings plus plan-shape checks of `plan` against
    /// [`Self::tls_stage_plan`], the one-stage view the native executor
    /// runs. A plan of more than one stage, or a round-robin stage, is
    /// denied (`SP0007`): the engine refuses both.
    pub fn lint_plan(&self, plan: &ExecutionPlan) -> LintReport {
        let mut report = self.lint.clone();
        report.merge(lint::check_plan_shape(&self.tls_stage_plan(), plan));
        report
    }

    /// The static conflict-density estimate for this loop, at
    /// replication factor 1 ([`ConflictProfile::scaled`] prices it for a
    /// plan's replicated pool).
    pub fn conflict_profile(&self) -> &ConflictProfile {
        &self.conflict_profile
    }

    /// The execution plan for a machine with `cores` cores: one stage
    /// replicated over all of them ([`ExecutionPlan::tls`]), the plan
    /// the native executor runs. The simulator's three-phase model of
    /// the partition is [`ExecutionPlan::three_phase`].
    ///
    /// When [`Self::lint_plan`] is clean, the plan is stamped as
    /// linted.
    pub fn plan(&self, cores: usize) -> ExecutionPlan {
        let mut plan = ExecutionPlan::tls(cores);
        // `lint_plan`'s verdict, without cloning the partition findings.
        if self.lint.is_clean() && lint::check_plan_shape(&self.tls_stage_plan(), &plan).is_clean()
        {
            plan.stamp_linted();
        }
        plan
    }

    /// The partition collapsed to the TLS single-stage view: every PDG
    /// node in one replicated stage, iterations racing under versioned
    /// memory. This is the stage plan [`Self::lint_plan`] checks every
    /// plan against.
    pub fn tls_stage_plan(&self) -> StagePlan {
        StagePlan::new(
            vec![0; self.stage_plan.node_count()],
            vec![StageKind::Replicated],
        )
    }
}

/// Orchestrates analysis, annotation application, speculation selection,
/// and partitioning over whole programs.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Parallelizer<'p> {
    program: &'p Program,
    spec_config: SpeculationConfig,
    profile: Option<LoopProfile>,
    reductions: bool,
    allow_unsound: bool,
    infer: bool,
}

impl<'p> Parallelizer<'p> {
    /// Creates a parallelizer over `program` with default configuration.
    pub fn new(program: &'p Program) -> Self {
        Self {
            program,
            spec_config: SpeculationConfig::default(),
            profile: None,
            reductions: false,
            allow_unsound: false,
            infer: true,
        }
    }

    /// Sets the speculation configuration (builder style).
    pub fn speculation(mut self, config: SpeculationConfig) -> Self {
        self.spec_config = config;
        self
    }

    /// Supplies profile data for the target loop (builder style).
    pub fn profile(mut self, profile: LoopProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Enables reduction expansion (§2.1): associative accumulator cycles
    /// are privatized per thread instead of serializing the loop.
    pub fn expand_reductions(mut self, enabled: bool) -> Self {
        self.reductions = enabled;
        self
    }

    /// Enables or disables the audit pass's automatic commutativity
    /// inference (on by default). When on, callees whose state the
    /// encapsulated-state rule proves private — RNG seeds, allocator
    /// pools — are grouped commutative without any hand annotation,
    /// exactly as if the program text carried one. Disable for
    /// ablations that measure what the annotations alone buy.
    pub fn infer_annotations(mut self, enabled: bool) -> Self {
        self.infer = enabled;
        self
    }

    /// Permits partitions that fail `seqpar-lint` at deny level to be
    /// returned anyway (the findings stay available via
    /// [`ParallelizedLoop::lint_report`]). For debugging checkers and
    /// deliberately-broken fixtures; plans from an unsound result are
    /// never stamped as linted.
    pub fn allow_unsound(mut self, allowed: bool) -> Self {
        self.allow_unsound = allowed;
        self
    }

    /// Parallelizes the outermost (largest) loop of `func`.
    ///
    /// The paper found that useful parallelism lives at or near the
    /// outermost application loop (§2.2), so this is the default entry
    /// point.
    ///
    /// # Errors
    ///
    /// Returns [`ParallelizeError::NoLoop`] if the function has no loop.
    pub fn parallelize_outermost(
        &self,
        func: FuncId,
    ) -> Result<ParallelizedLoop, ParallelizeError> {
        let f = self.program.function(func);
        let forest = LoopForest::build(f);
        let outermost = forest
            .loops()
            .filter(|(_, l)| l.depth == 0)
            .max_by_key(|(_, l)| l.blocks.len())
            .map(|(id, _)| id)
            .ok_or_else(|| ParallelizeError::NoLoop {
                function: f.name.clone(),
            })?;
        self.parallelize(func, &forest, outermost)
    }

    /// Parallelizes a specific loop of `func`.
    ///
    /// # Errors
    ///
    /// Returns [`ParallelizeError::UnknownLoop`] if `loop_id` is not in
    /// `forest`.
    pub fn parallelize(
        &self,
        func: FuncId,
        forest: &LoopForest,
        loop_id: LoopId,
    ) -> Result<ParallelizedLoop, ParallelizeError> {
        if loop_id.0 as usize >= forest.len() {
            return Err(ParallelizeError::UnknownLoop);
        }
        // Whole-program facts, computed once for every pass below.
        let points_to = PointsTo::analyze(self.program);
        let effects = Effects::analyze(self.program, &points_to);
        let mut pdg = LoopPdg::build_with(
            self.program,
            func,
            forest,
            loop_id,
            self.profile.as_ref(),
            &points_to,
            &effects,
        );

        // 0. The audit pass proves commutativity the program text never
        // annotated and injects the inferred groups before the
        // annotation passes run (a hand annotation on a site wins).
        // A supplied memory profile can refute an inference: a recorded
        // nonzero frequency on a dependence between member call sites
        // means the sequential run observed the callee's state carrying
        // order-sensitive values across iterations — that dependence
        // belongs to validated speculation, not to an unordered group.
        // The lint pass reads the inference whether or not it is applied.
        let inferred = audit::infer_commutativity_with(self.program, &pdg, &points_to, &effects);
        let applied = if self.infer { &inferred[..] } else { &[] };
        for g in applied {
            if self.profile.is_some() && profile_refutes_inference(&pdg, &g.nodes) {
                continue;
            }
            for &node in &g.nodes {
                if pdg.commutative_group(node).is_none() {
                    pdg.set_commutative_group(node, g.group);
                }
            }
        }

        // 1. Sequential-model extensions remove declared-removable deps.
        let ybranch = apply_ybranch(self.program, &mut pdg);
        let commutative = apply_commutative(&mut pdg);
        // 1b. Sound value-fact pruning: constant carried values never
        // order iterations.
        prune_constant_carried_edges(self.program, &mut pdg);
        // 1c. Classic transformations: reduction expansion (§2.1).
        let reductions = if self.reductions {
            apply_reductions(self.program, &mut pdg)
        } else {
            crate::reductions::ReductionOutcome::default()
        };
        // 2. Profile-guided speculation removes rarely-manifesting deps.
        let mut speculation = select(
            self.program,
            &mut pdg,
            self.profile.as_ref(),
            &self.spec_config,
        );
        // 2b. Conflict-density ranking: a speculated memory dependence
        // manifesting this often converts pipeline overlap into squash
        // recovery, so the choice is rescinded and the edge restored —
        // the partitioner synchronizes it instead.
        let (kept, rescinded): (Vec<_>, Vec<_>) = speculation.chosen.into_iter().partition(|s| {
            !(s.edge.kind == DepKind::Mem && s.edge.freq >= SPECULATION_DENSITY_LIMIT)
        });
        for s in &rescinded {
            pdg.add_edge(s.edge);
        }
        speculation.chosen = kept;
        // 3. PS-DSWP partitions what remains.
        let part = partition(&pdg);

        // 4. seqpar-lint audits the claim that this partition preserves
        // sequential semantics.
        let stage_plan = StagePlan::three_phase(part.stages().iter().map(|s| *s as u8).collect());
        let speculated: Vec<SpeculatedDep> = speculation
            .chosen
            .iter()
            .map(|s| SpeculatedDep {
                src: s.edge.src,
                dst: s.edge.dst,
                kind: s.edge.kind,
                carried: s.edge.carried,
                misspec_rate: s.misspec_rate,
                // Every SpecKind lowers to a runtime SpecDep that is
                // replayed against the oracle at commit time.
                commit_validated: true,
            })
            .collect();
        // 4a. Static conflict-density estimate: the speculated deps are
        // the only dependences that can still conflict (and squash) at
        // run time, so they are what the estimate is built from.
        let conflict_profile = audit::conflict_profile_with(
            self.program,
            &pdg,
            &points_to,
            &effects,
            &speculated,
            self.profile.as_ref().map_or(0, |p| p.trip_count),
        );
        let lint_input = LintInput {
            program: self.program,
            pdg: &pdg,
            stages: &stage_plan,
            speculated: &speculated,
            privatized: &reductions.privatized_nodes,
            plan: None,
        };
        let lint_report = lint::run_with(&lint_input, &points_to, &effects, forest, &inferred);
        if !lint_report.is_clean() && !self.allow_unsound {
            return Err(ParallelizeError::Unsound {
                codes: lint_report
                    .deny_codes()
                    .iter()
                    .map(|c| c.as_str().to_string())
                    .collect(),
            });
        }

        let mut techniques = vec![Technique::Dswp];
        if !speculation.is_empty() || part.has_parallel_stage() {
            // Any parallel execution relies on versioned memory for
            // privatization, even without explicit speculation.
            techniques.push(Technique::TlsMemory);
        }
        if speculation.uses(SpecKind::Alias) {
            techniques.push(Technique::AliasSpeculation);
        }
        if speculation.uses(SpecKind::Value) {
            techniques.push(Technique::ValueSpeculation);
        }
        if speculation.uses(SpecKind::Control) {
            techniques.push(Technique::ControlSpeculation);
        }
        if speculation.uses(SpecKind::SilentStore) {
            techniques.push(Technique::SilentStoreSpeculation);
        }
        if commutative.edges_removed > 0 {
            techniques.push(Technique::Commutative);
        }
        if ybranch.edges_removed > 0 {
            techniques.push(Technique::YBranch);
        }
        if reductions.any() {
            techniques.push(Technique::ReductionExpansion);
        }
        techniques.sort();
        techniques.dedup();

        let report = ParallelizationReport {
            function: self.program.function(func).name.clone(),
            techniques,
            stage_weights: [
                part.weight(Stage::A),
                part.weight(Stage::B),
                part.weight(Stage::C),
            ],
            expected_misspec: speculation.misspec_per_iteration(),
            annotation_edges_removed: ybranch.edges_removed + commutative.edges_removed,
            speculated_edges: speculation.len(),
        };
        Ok(ParallelizedLoop {
            partition: part,
            speculation,
            report,
            pdg,
            stage_plan,
            speculated,
            lint: lint_report,
            conflict_profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_ir::{CommGroupId, ExternEffect, FunctionBuilder, Opcode};

    /// The 300.twolf shape: a loop whose cross-iteration dependences are
    /// a commutative RNG plus heavy pure work.
    fn twolf_like(commutative: bool) -> (Program, FuncId) {
        let mut p = Program::new("twolf");
        let seed = p.add_global("randVarS", 1);
        let out = p.add_global("out", 1);
        p.declare_extern(
            "Yacm_random",
            ExternEffect {
                reads: vec![seed],
                writes: vec![seed],
                ..Default::default()
            },
        );
        p.declare_extern("ucxx2", ExternEffect::pure_fn());
        let mut b = FunctionBuilder::new("uloop");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let group = commutative.then_some(CommGroupId(0));
        let r = b.call_ext("Yacm_random", &[], group);
        let cost = b.call_ext("ucxx2", &[r], None);
        let ao = b.global_addr(out);
        let old = b.load(ao);
        let merged = b.binop(Opcode::Add, old, cost);
        b.store(ao, merged);
        // Loop control depends only on the RNG draw (phase-A shaped), not
        // on the heavy work — as in twolf, where `uloop`'s trip count is
        // an annealing schedule, not a function of the swap evaluations.
        let done = b.binop(Opcode::CmpLe, r, r);
        let _ = merged;
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        (p, f)
    }

    #[test]
    fn one_dynamic_stage_lints_clean_and_other_shapes_are_denied() {
        use seqpar_analysis::lint::LintCode;
        use seqpar_runtime::StageAssignment;
        let (p, f) = twolf_like(true);
        let result = Parallelizer::new(&p).parallelize_outermost(f).unwrap();
        let lint = |stages| result.lint_plan(&ExecutionPlan::new(stages));

        // One-stage plans check against the collapsed TLS view: a
        // replicated stage and a serial one are clean.
        assert!(lint(vec![StageAssignment::parallel(vec![0, 1, 2, 3])]).is_clean());
        assert!(lint(vec![StageAssignment::serial(0)]).is_clean());
        assert_eq!(result.tls_stage_plan().stage_count(), 1);
        assert!(result.tls_stage_plan().is_replicated(0));
        assert!(result.plan(4).is_linted());

        // A three-phase plan over a clean partition fits the simulator,
        // not the native executor; neither does a one-stage round-robin
        // plan, and a two-stage plan matches no view.
        for stages in [
            vec![
                StageAssignment::serial(0),
                StageAssignment::round_robin(vec![1, 2]),
                StageAssignment::serial(3),
            ],
            vec![StageAssignment::round_robin(vec![0, 1])],
            vec![
                StageAssignment::serial(0),
                StageAssignment::parallel(vec![1, 2]),
            ],
        ] {
            let report = lint(stages.clone());
            assert!(
                report.deny_codes().contains(&LintCode::PlanShape),
                "{stages:?}"
            );
        }
    }

    #[test]
    fn commutative_unlocks_the_parallel_stage() {
        let (p, f) = twolf_like(true);
        let result = Parallelizer::new(&p).parallelize_outermost(f).unwrap();
        assert!(result.partition().has_parallel_stage());
        assert!(result.report().uses(Technique::Commutative));
        assert!(result.report().uses(Technique::Dswp));
        assert!(result.report().parallel_fraction() > 0.3);
    }

    #[test]
    fn without_commutative_the_rng_serializes() {
        // The full ablation: no annotation AND no inference (inference
        // would otherwise prove the seed encapsulated and re-derive the
        // group on its own).
        let (p, f) = twolf_like(false);
        let result = Parallelizer::new(&p)
            .infer_annotations(false)
            .parallelize_outermost(f)
            .unwrap();
        // The RNG's seed recurrence chains every call; the heavy work can
        // still pipeline but the RNG call cannot replicate.
        assert!(!result.report().uses(Technique::Commutative));
        let with = {
            let (p2, f2) = twolf_like(true);
            Parallelizer::new(&p2)
                .parallelize_outermost(f2)
                .unwrap()
                .report()
                .parallel_fraction()
        };
        assert!(result.report().parallel_fraction() <= with);
    }

    #[test]
    fn inference_replaces_the_hand_annotation() {
        // The unannotated program under default settings parallelizes
        // exactly like the annotated one: the audit pass proves the
        // RNG's seed encapsulated and mints the group itself.
        let (p, f) = twolf_like(false);
        let inferred = Parallelizer::new(&p).parallelize_outermost(f).unwrap();
        assert!(inferred.partition().has_parallel_stage());
        assert!(inferred.report().uses(Technique::Commutative));
        let (p2, f2) = twolf_like(true);
        let annotated = Parallelizer::new(&p2).parallelize_outermost(f2).unwrap();
        assert_eq!(
            inferred.report().parallel_fraction(),
            annotated.report().parallel_fraction()
        );
        assert_eq!(
            inferred.report().annotation_edges_removed,
            annotated.report().annotation_edges_removed
        );
    }

    #[test]
    fn inference_refuses_leaky_state() {
        // Like twolf_like_with_seed_leak but with no hand annotation:
        // peek_seed reads the RNG's seed, so the encapsulated-state
        // rule must not fire and the recurrence serializes.
        let mut p = Program::new("twolf");
        let seed = p.add_global("randVarS", 1);
        p.declare_extern(
            "Yacm_random",
            ExternEffect {
                reads: vec![seed],
                writes: vec![seed],
                ..Default::default()
            },
        );
        p.declare_extern(
            "peek_seed",
            ExternEffect {
                reads: vec![seed],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("uloop");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let r = b.call_ext("Yacm_random", &[], None);
        let s = b.call_ext("peek_seed", &[], None);
        let done = b.binop(Opcode::CmpLe, r, s);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let result = Parallelizer::new(&p).parallelize_outermost(f).unwrap();
        assert!(!result.report().uses(Technique::Commutative));
        assert!(result.lint_report().is_clean());
    }

    #[test]
    fn straight_line_function_has_no_loop() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::new("flat");
        b.ret(None);
        let f = b.finish(&mut p);
        let err = Parallelizer::new(&p).parallelize_outermost(f).unwrap_err();
        assert_eq!(
            err,
            ParallelizeError::NoLoop {
                function: "flat".into()
            }
        );
    }

    #[test]
    fn unknown_loop_id_is_rejected() {
        let (p, f) = twolf_like(true);
        let forest = LoopForest::build(p.function(f));
        let err = Parallelizer::new(&p)
            .parallelize(f, &forest, seqpar_ir::LoopId(99))
            .unwrap_err();
        assert_eq!(err, ParallelizeError::UnknownLoop);
    }

    #[test]
    fn reduction_expansion_is_opt_in_and_reported() {
        // A loop whose only recurrence is a memory accumulator.
        let mut p = Program::new("t");
        let acc = p.add_global("acc", 1);
        p.declare_extern("f", ExternEffect::pure_fn());
        let mut b = FunctionBuilder::new("sum");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let x = b.call_ext("f", &[], None);
        let a = b.global_addr(acc);
        let cur = b.load(a);
        let next = b.binop(Opcode::Add, cur, x);
        b.store(a, next);
        let zero = b.const_(0);
        let done = b.binop(Opcode::CmpEq, x, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let without = Parallelizer::new(&p).parallelize_outermost(f).unwrap();
        let with = Parallelizer::new(&p)
            .expand_reductions(true)
            .parallelize_outermost(f)
            .unwrap();
        assert!(!without.report().uses(Technique::ReductionExpansion));
        assert!(with.report().uses(Technique::ReductionExpansion));
        assert!(with.report().parallel_fraction() > without.report().parallel_fraction());
    }

    #[test]
    fn plan_matches_trace_stage_count() {
        let (p, f) = twolf_like(true);
        let result = Parallelizer::new(&p).parallelize_outermost(f).unwrap();
        // The one stage of a TLS trace's task graph.
        let plan = result.plan(8);
        assert_eq!(plan.stage_count(), 1);
        assert_eq!(plan.cores_required(), 8);
    }

    /// twolf_like with an unannotated extern that reads the RNG seed:
    /// the Commutative claim on `Yacm_random` no longer owns its state.
    fn twolf_like_with_seed_leak() -> (Program, FuncId) {
        let mut p = Program::new("twolf");
        let seed = p.add_global("randVarS", 1);
        p.declare_extern(
            "Yacm_random",
            ExternEffect {
                reads: vec![seed],
                writes: vec![seed],
                ..Default::default()
            },
        );
        p.declare_extern(
            "peek_seed",
            ExternEffect {
                reads: vec![seed],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("uloop");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let r = b.call_ext("Yacm_random", &[], Some(CommGroupId(0)));
        let s = b.call_ext("peek_seed", &[], None);
        let done = b.binop(Opcode::CmpLe, r, s);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        (p, f)
    }

    #[test]
    fn non_commuting_annotation_is_refused_at_deny_level() {
        let (p, f) = twolf_like_with_seed_leak();
        let err = Parallelizer::new(&p).parallelize_outermost(f).unwrap_err();
        assert_eq!(
            err,
            ParallelizeError::Unsound {
                codes: vec!["SP0005".into()]
            }
        );
    }

    #[test]
    fn allow_unsound_returns_the_partition_with_its_findings() {
        let (p, f) = twolf_like_with_seed_leak();
        let result = Parallelizer::new(&p)
            .allow_unsound(true)
            .parallelize_outermost(f)
            .unwrap();
        let report = result.lint_report();
        assert!(!report.is_clean());
        assert!(report
            .deny_codes()
            .contains(&seqpar_analysis::lint::LintCode::NonCommutative));
        // Plans from an unsound result are never stamped as linted.
        assert!(!result.plan(4).is_linted());
    }

    #[test]
    fn clean_results_stamp_their_plans_as_linted() {
        let (p, f) = twolf_like(true);
        let result = Parallelizer::new(&p).parallelize_outermost(f).unwrap();
        assert!(result.lint_report().is_clean());
        let plan = result.plan(4);
        assert!(plan.is_linted());
    }

    /// An accumulator loop with a profiled carried dependence between
    /// labelled accesses, for speculation-ranking tests.
    fn spec_fixture(freq: f64) -> (Program, FuncId, LoopProfile) {
        let mut p = Program::new("t");
        let acc = p.add_global("acc", 1);
        p.declare_extern("work", ExternEffect::pure_fn());
        let mut b = FunctionBuilder::new("f");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let x = b.call_ext("work", &[], None);
        let a = b.global_addr(acc);
        let v = b.load(a);
        b.label_last("load_acc");
        let next = b.binop(Opcode::Add, v, x);
        b.store(a, next);
        b.label_last("store_acc");
        let zero = b.const_(0);
        let done = b.binop(Opcode::CmpEq, x, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let mut profile = LoopProfile::with_trip_count(1000);
        profile
            .memory
            .record_by_label(p.function(f), "store_acc", "load_acc", freq);
        (p, f, profile)
    }

    #[test]
    fn dense_speculation_is_rescinded() {
        // A 0.3-frequency conflict is within a permissive config's
        // misspeculation cap, but the density ranking rescinds it: at
        // that rate squash recovery costs more than overlap buys.
        let (p, f, profile) = spec_fixture(0.3);
        let permissive = SpeculationConfig {
            max_misspec: 0.5,
            ..SpeculationConfig::default()
        };
        let result = Parallelizer::new(&p)
            .speculation(permissive)
            .profile(profile)
            .parallelize_outermost(f)
            .unwrap();
        // Unrecorded edges (profile default frequency 0) stay cheap to
        // speculate; the dense edge specifically must be rescinded.
        assert!(result
            .speculation()
            .chosen
            .iter()
            .all(|s| s.misspec_rate < 0.25));
        // The rescinded edge is back in the graph for the partitioner
        // to synchronize.
        assert!(result
            .pdg()
            .edges()
            .any(|e| e.kind == DepKind::Mem && e.carried && (e.freq - 0.3).abs() < 1e-9));
        // Nothing left speculated can conflict, so the static estimate
        // predicts a quiet run.
        assert_eq!(result.conflict_profile().density_permille(), 0);
    }

    #[test]
    fn the_result_carries_the_profiled_conflict_density() {
        let (p, f, profile) = spec_fixture(0.05);
        let result = Parallelizer::new(&p)
            .profile(profile)
            .parallelize_outermost(f)
            .unwrap();
        let cp = result.conflict_profile();
        assert_eq!(cp.hottest().unwrap().region, "acc");
        assert_eq!(cp.density_permille(), 50);
        assert_eq!(cp.trip_count, 1000);
        // The three-phase plan at eight cores gives stage B six; the
        // estimate scaled for them is denser than the pairwise one.
        let six = cp.scaled(6);
        assert_eq!(six.replication, 6);
        assert!(six.density_permille() > cp.density_permille());
    }

    #[test]
    fn lint_plan_rejects_a_plan_with_the_wrong_stage_count() {
        use seqpar_runtime::StageAssignment;
        let (p, f) = twolf_like(true);
        let result = Parallelizer::new(&p).parallelize_outermost(f).unwrap();
        let two_stage =
            ExecutionPlan::new(vec![StageAssignment::serial(0), StageAssignment::serial(1)]);
        let report = result.lint_plan(&two_stage);
        assert!(report
            .deny_codes()
            .contains(&seqpar_analysis::lint::LintCode::PlanShape));
        // The partition findings themselves stay clean.
        assert!(result.lint_report().is_clean());
    }
}
