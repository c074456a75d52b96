//! The static conflict-density estimate.
//!
//! Of all the dependences a parallelized loop started with, the only
//! ones that can *conflict at run time* are the ones the parallelizer
//! chose to speculate: everything else is either proved absent,
//! exempted by an annotation the runtime honours (commutative
//! serialization, Y-branch reset, reduction privatization), or kept
//! in the graph — and a kept dependence is synchronized by the
//! pipeline, never squashed. A speculated dependence, by contrast,
//! manifests with its profiled frequency, and every manifestation is
//! a commit-time squash.
//!
//! The estimate therefore maps each speculated dependence to the
//! address region it conflicts on (register and control speculation
//! get pseudo-regions) at its misspeculation rate, and folds deps on
//! the same region together under an independence assumption. Scaled
//! by the replicated stage's pool size — `k` concurrent iterations
//! give a distance-one carried write `k - 1` chances to collide — the
//! resulting [`ConflictProfile`] predicts the squash rate a native
//! run of the plan will observe.

use super::{access_of, object_name, MemAccess};
use crate::effects::Effects;
use crate::lint::SpeculatedDep;
use crate::pdg::{DepKind, LoopPdg};
use crate::points_to::PointsTo;
use seqpar_ir::Program;
use seqpar_runtime::{ConflictProfile, RegionConflict};
use std::collections::{BTreeMap, BTreeSet};

/// Pseudo-region for value-speculated register recurrences.
const REGISTER_REGION: &str = "<register>";
/// Pseudo-region for control-speculated branches.
const CONTROL_REGION: &str = "<control>";
/// Pseudo-region for memory conflicts on unanalyzable addresses.
const UNKNOWN_REGION: &str = "<unknown>";

/// Builds the conflict-density estimate for one parallelized loop,
/// computing whole-program analysis facts internally.
///
/// `speculated` is the set of dependences the parallelizer removed
/// speculatively; `trip_count` is the profiled trip count (0 when
/// unknown). The profile is returned at replication factor 1 — the
/// plan layer re-scales it for the pool it actually allocates.
pub fn conflict_profile(
    program: &Program,
    pdg: &LoopPdg,
    speculated: &[SpeculatedDep],
    trip_count: u64,
) -> ConflictProfile {
    let points_to = PointsTo::analyze(program);
    let effects = Effects::analyze(program, &points_to);
    conflict_profile_with(program, pdg, &points_to, &effects, speculated, trip_count)
}

/// [`conflict_profile`] with precomputed analysis facts.
pub fn conflict_profile_with(
    program: &Program,
    pdg: &LoopPdg,
    points_to: &PointsTo,
    effects: &Effects,
    speculated: &[SpeculatedDep],
    trip_count: u64,
) -> ConflictProfile {
    // region name -> (survive probability, touching nodes)
    let mut regions: BTreeMap<String, (f64, BTreeSet<usize>)> = BTreeMap::new();
    let mut charge = |name: String, rate: f64, src: usize, dst: usize| {
        let entry = regions.entry(name).or_insert((1.0, BTreeSet::new()));
        entry.0 *= 1.0 - rate.clamp(0.0, 1.0);
        entry.1.insert(src);
        entry.1.insert(dst);
    };
    for dep in speculated {
        match dep.kind {
            DepKind::Reg => charge(
                REGISTER_REGION.to_string(),
                dep.misspec_rate,
                dep.src,
                dep.dst,
            ),
            DepKind::Control => charge(
                CONTROL_REGION.to_string(),
                dep.misspec_rate,
                dep.src,
                dep.dst,
            ),
            DepKind::Mem => {
                let names = conflict_region_names(program, pdg, points_to, effects, dep);
                for name in names {
                    charge(name, dep.misspec_rate, dep.src, dep.dst);
                }
            }
        }
    }
    let regions = regions
        .into_iter()
        .map(|(region, (survive, nodes))| RegionConflict {
            region,
            carried_freq: 1.0 - survive,
            accesses: nodes.len(),
        })
        .collect();
    ConflictProfile::new(regions, trip_count)
}

/// The named address regions a speculated memory dependence conflicts
/// on: the write/write and write/read object intersections of its
/// endpoints, or the unknown pseudo-region when the analysis cannot
/// name the overlap.
fn conflict_region_names(
    program: &Program,
    pdg: &LoopPdg,
    points_to: &PointsTo,
    effects: &Effects,
    dep: &SpeculatedDep,
) -> Vec<String> {
    let a = access_of(program, pdg, points_to, effects, dep.src);
    let b = access_of(program, pdg, points_to, effects, dep.dst);
    let (Some(a), Some(b)) = (a, b) else {
        return vec![UNKNOWN_REGION.to_string()];
    };
    let mut objs = BTreeSet::new();
    objs.extend(a.writes.intersection(&b.writes).copied());
    objs.extend(a.writes.intersection(&b.reads).copied());
    objs.extend(a.reads.intersection(&b.writes).copied());
    let mut names: Vec<String> = objs.iter().map(|o| object_name(program, *o)).collect();
    let touches = |x: &MemAccess| x.unknown || !x.reads.is_empty() || !x.writes.is_empty();
    if names.is_empty() || (a.unknown && touches(&b)) || (b.unknown && touches(&a)) {
        names.push(UNKNOWN_REGION.to_string());
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_ir::{FunctionBuilder, LoopForest, Opcode};

    /// An accumulator loop: load/store on a global, so a carried
    /// memory dependence exists to speculate.
    fn acc_loop() -> (Program, LoopPdg) {
        let mut p = Program::new("t");
        let acc = p.add_global("acc", 1);
        let mut b = FunctionBuilder::new("f");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let a = b.global_addr(acc);
        let v = b.load(a);
        let one = b.const_(1);
        let next = b.binop(Opcode::Add, v, one);
        b.store(a, next);
        let done = b.binop(Opcode::CmpEq, next, one);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish(&mut p);
        let forest = LoopForest::build(p.function(f));
        let (lid, _) = forest.loops().next().unwrap();
        let pdg = LoopPdg::build(&p, f, &forest, lid, None);
        (p, pdg)
    }

    fn mem_dep(pdg: &LoopPdg, rate: f64) -> SpeculatedDep {
        // The carried mem edge of the accumulator: store -> load.
        let e = pdg
            .edges()
            .find(|e| e.kind == DepKind::Mem && e.carried)
            .expect("accumulator recurrence");
        SpeculatedDep {
            src: e.src,
            dst: e.dst,
            kind: DepKind::Mem,
            carried: true,
            misspec_rate: rate,
            commit_validated: true,
        }
    }

    #[test]
    fn no_speculation_means_a_quiet_profile() {
        let (p, pdg) = acc_loop();
        let profile = conflict_profile(&p, &pdg, &[], 100);
        assert!(profile.is_quiet());
        assert_eq!(profile.density_permille(), 0);
        assert_eq!(profile.trip_count, 100);
    }

    #[test]
    fn speculated_memory_dep_charges_its_region() {
        let (p, pdg) = acc_loop();
        let dep = mem_dep(&pdg, 0.05);
        let profile = conflict_profile(&p, &pdg, &[dep], 1000);
        assert_eq!(profile.regions.len(), 1);
        let r = profile.hottest().unwrap();
        assert_eq!(r.region, "acc");
        assert!((r.carried_freq - 0.05).abs() < 1e-9);
        assert_eq!(r.accesses, 2);
        assert_eq!(profile.density_permille(), 50);
    }

    #[test]
    fn same_region_deps_fold_independently() {
        let (p, pdg) = acc_loop();
        let d1 = mem_dep(&pdg, 0.1);
        let d2 = mem_dep(&pdg, 0.1);
        let profile = conflict_profile(&p, &pdg, &[d1, d2], 0);
        assert_eq!(profile.regions.len(), 1);
        let r = profile.hottest().unwrap();
        assert!((r.carried_freq - 0.19).abs() < 1e-9);
    }

    #[test]
    fn control_and_register_deps_get_pseudo_regions() {
        let (p, pdg) = acc_loop();
        let reg = SpeculatedDep {
            src: 0,
            dst: 1,
            kind: DepKind::Reg,
            carried: true,
            misspec_rate: 0.01,
            commit_validated: true,
        };
        let ctl = SpeculatedDep {
            src: 0,
            dst: 1,
            kind: DepKind::Control,
            carried: true,
            misspec_rate: 0.02,
            commit_validated: true,
        };
        let profile = conflict_profile(&p, &pdg, &[reg, ctl], 0);
        let names: Vec<&str> = profile.regions.iter().map(|r| r.region.as_str()).collect();
        assert!(names.contains(&"<register>"));
        assert!(names.contains(&"<control>"));
    }
}
