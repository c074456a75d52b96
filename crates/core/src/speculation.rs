//! Profile-guided speculation selection (paper §2.1).
//!
//! "Both TLS and DSWP require judicious use of speculation to break
//! infrequent or easily predictable dependences inhibiting
//! parallelization — not only alias speculation, but also value
//! speculation and control speculation." This pass inspects the
//! loop-carried edges of a [`LoopPdg`] and, guided by profile data,
//! selects the edges whose removal is worth the expected misspeculation:
//!
//! * **Alias speculation** — carried memory dependences that rarely
//!   manifest (255.vortex's B-tree rebalances, 176.gcc's symbol table);
//! * **Silent-store speculation** — carried self-dependences of stores
//!   that usually rewrite the same value (181.mcf's `refresh_potential`);
//! * **Value speculation** — carried register dependences whose value is
//!   iteration-stable (253.perlbmk's `PL_stack_sp`, 186.crafty's search
//!   state);
//! * **Control speculation** — carried control dependences from strongly
//!   biased branches (186.crafty's `next_time_check`).
//!
//! Selected edges are removed from the PDG (the partitioner then sees a
//! friendlier graph); at runtime each selected edge becomes a
//! [`seqpar_runtime::SpecDep`] whose violation probability is the edge's
//! profiled manifestation rate.

use seqpar_analysis::pdg::{DepKind, LoopPdg, PdgEdge, PdgNode};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{Opcode, Program};

/// The flavour of speculation applied to one edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecKind {
    /// Memory dependence assumed absent.
    Alias,
    /// Store assumed to rewrite the already-visible value.
    SilentStore,
    /// Register value predicted from the previous iteration.
    Value,
    /// Branch predicted along its bias.
    Control,
}

impl std::fmt::Display for SpecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SpecKind::Alias => "alias",
            SpecKind::SilentStore => "silent-store",
            SpecKind::Value => "value",
            SpecKind::Control => "control",
        };
        f.write_str(s)
    }
}

/// One selected speculation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Speculation {
    /// The edge removed from the PDG.
    pub edge: PdgEdge,
    /// The speculation flavour.
    pub kind: SpecKind,
    /// Expected per-iteration misspeculation probability.
    pub misspec_rate: f64,
}

/// The full set of speculations chosen for one loop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpeculationSet {
    /// Chosen speculations.
    pub chosen: Vec<Speculation>,
}

impl SpeculationSet {
    /// Probability that at least one speculation misfires in a given
    /// iteration (independence assumed).
    pub fn misspec_per_iteration(&self) -> f64 {
        1.0 - self
            .chosen
            .iter()
            .map(|s| 1.0 - s.misspec_rate)
            .product::<f64>()
    }

    /// Whether any speculation of `kind` was chosen.
    pub fn uses(&self, kind: SpecKind) -> bool {
        self.chosen.iter().any(|s| s.kind == kind)
    }

    /// Number of speculations chosen.
    pub fn len(&self) -> usize {
        self.chosen.len()
    }

    /// Whether no speculation was chosen.
    pub fn is_empty(&self) -> bool {
        self.chosen.is_empty()
    }
}

/// Tuning knobs for speculation selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeculationConfig {
    /// Maximum acceptable per-edge misspeculation probability.
    pub max_misspec: f64,
    /// Enable alias (and silent-store) speculation.
    pub alias: bool,
    /// Enable value speculation.
    pub value: bool,
    /// Enable control speculation.
    pub control: bool,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        Self {
            max_misspec: 0.2,
            alias: true,
            value: true,
            control: true,
        }
    }
}

impl SpeculationConfig {
    /// A configuration with all speculation disabled (the no-speculation
    /// ablation).
    pub fn disabled() -> Self {
        Self {
            max_misspec: 0.0,
            alias: false,
            value: false,
            control: false,
        }
    }
}

/// Selects speculations for the carried edges of `pdg`, removes the
/// chosen edges, and returns the set.
///
/// Without profile data nothing is speculated: the paper's framework is
/// profile-driven, and speculating an always-manifesting dependence only
/// buys serialization.
pub fn select(
    program: &Program,
    pdg: &mut LoopPdg,
    profile: Option<&LoopProfile>,
    config: &SpeculationConfig,
) -> SpeculationSet {
    let Some(profile) = profile else {
        return SpeculationSet::default();
    };
    let func = program.function(pdg.func());
    let mut chosen = Vec::new();
    let mut remove = Vec::new();
    for (pos, edge) in pdg.find_edges(|e| e.carried) {
        let pick = match edge.kind {
            DepKind::Mem if config.alias && edge.freq <= config.max_misspec => {
                let kind = if edge.src == edge.dst && is_store(func, pdg, edge.src) {
                    SpecKind::SilentStore
                } else {
                    SpecKind::Alias
                };
                Some((kind, edge.freq))
            }
            DepKind::Reg if config.value => {
                // The carried value is the one defined by the edge's
                // source instruction; speculate if it is iteration-stable.
                value_of(func, pdg, edge.src)
                    .and_then(|v| profile.values.stability(v))
                    .filter(|stability| 1.0 - stability <= config.max_misspec)
                    .map(|stability| (SpecKind::Value, 1.0 - stability))
            }
            DepKind::Control if config.control => match pdg.nodes()[edge.src] {
                PdgNode::Branch(b) => profile
                    .branches
                    .taken_prob(b)
                    .map(|p| p.min(1.0 - p))
                    .filter(|misspec| *misspec <= config.max_misspec)
                    .map(|misspec| (SpecKind::Control, misspec)),
                PdgNode::Inst(_) => None,
            },
            _ => None,
        };
        if let Some((kind, misspec_rate)) = pick {
            chosen.push(Speculation {
                edge,
                kind,
                misspec_rate,
            });
            remove.push(pos);
        }
    }
    pdg.remove_edges(remove);
    SpeculationSet { chosen }
}

fn is_store(func: &seqpar_ir::Function, pdg: &LoopPdg, node: usize) -> bool {
    match pdg.nodes()[node] {
        PdgNode::Inst(i) => matches!(func.inst(i).opcode, Opcode::Store(_)),
        PdgNode::Branch(_) => false,
    }
}

fn value_of(func: &seqpar_ir::Function, pdg: &LoopPdg, node: usize) -> Option<seqpar_ir::ValueId> {
    match pdg.nodes()[node] {
        PdgNode::Inst(i) => func.inst(i).def,
        PdgNode::Branch(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_analysis::profile::LoopProfile;
    use seqpar_ir::{FunctionBuilder, LoopForest, ValueId};

    /// A loop with a memory recurrence (acc), a register recurrence (the
    /// phi), and a biased exit branch.
    struct Fixture {
        program: Program,
        pdg: LoopPdg,
        phi_value: ValueId,
        header: seqpar_ir::BlockId,
    }

    fn fixture(profile: Option<&LoopProfile>) -> Fixture {
        let mut p = Program::new("t");
        let acc = p.add_global("acc", 1);
        let mut b = FunctionBuilder::new("f");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        let zero = b.const_(0);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(&[zero, zero]); // patched to close the recurrence
        let a = b.global_addr(acc);
        let v = b.load(a);
        b.label_last("load_acc");
        let one = b.const_(1);
        let next = b.binop(Opcode::Add, i, one);
        let sum = b.binop(Opcode::Add, v, next);
        b.store(a, sum);
        b.label_last("store_acc");
        let done = b.binop(Opcode::CmpLe, next, one);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let mut func = b.into_function();
        let header_insts = func.block(header).insts.clone();
        let phi_id = header_insts[0];
        func.inst_mut(phi_id).operands[1] = next;
        let phi_value = func.inst(phi_id).def.unwrap();
        let f = p.add_function(func);
        let forest = LoopForest::build(p.function(f));
        let (lid, _) = forest.loops().next().unwrap();
        let pdg = LoopPdg::build(&p, f, &forest, lid, profile);
        Fixture {
            program: p,
            pdg,
            phi_value,
            header,
        }
    }

    #[test]
    fn no_profile_means_no_speculation() {
        let mut fx = fixture(None);
        let set = select(
            &fx.program,
            &mut fx.pdg,
            None,
            &SpeculationConfig::default(),
        );
        assert!(set.is_empty());
        assert_eq!(set.misspec_per_iteration(), 0.0);
    }

    #[test]
    fn rare_memory_dependence_gets_alias_speculation() {
        let mut profile = LoopProfile::with_trip_count(1000);
        // First build once to learn instruction ids for labels.
        let probe = fixture(None);
        let func = probe.program.function(probe.pdg.func());
        profile
            .memory
            .record_by_label(func, "store_acc", "load_acc", 0.02);
        let mut fx = fixture(Some(&profile));
        let set = select(
            &fx.program,
            &mut fx.pdg,
            Some(&profile),
            &SpeculationConfig::default(),
        );
        assert!(set.uses(SpecKind::Alias));
        let alias = set
            .chosen
            .iter()
            .find(|s| s.kind == SpecKind::Alias)
            .unwrap();
        assert!((alias.misspec_rate - 0.02).abs() < 1e-9);
        // The speculated edge is gone from the PDG.
        assert!(!fx
            .pdg
            .edges()
            .any(|e| e.kind == DepKind::Mem && e.carried && (e.freq - 0.02).abs() < 1e-9));
    }

    #[test]
    fn frequent_memory_dependence_is_not_speculated() {
        let mut profile = LoopProfile::with_trip_count(1000);
        let probe = fixture(None);
        let func = probe.program.function(probe.pdg.func());
        profile
            .memory
            .record_by_label(func, "store_acc", "load_acc", 0.9);
        let mut fx = fixture(Some(&profile));
        let set = select(
            &fx.program,
            &mut fx.pdg,
            Some(&profile),
            &SpeculationConfig::default(),
        );
        assert!(!set
            .chosen
            .iter()
            .any(|s| (s.misspec_rate - 0.9).abs() < 1e-9));
    }

    #[test]
    fn stable_register_value_gets_value_speculation() {
        let probe = fixture(None);
        let mut profile = LoopProfile::with_trip_count(1000);
        // The value carried into the phi is the `next` counter; the
        // carried edge's source is the add defining it. Mark *that* value
        // stable (as UnMakeMove does for crafty's search struct).
        let func = probe.program.function(probe.pdg.func());
        let next_def = func
            .inst_ids()
            .filter_map(|i| func.inst(i).def)
            .find(|v| {
                // the operand of the phi coming from the latch
                let phi = func
                    .inst_ids()
                    .find(|i| matches!(func.inst(*i).opcode, Opcode::Phi))
                    .unwrap();
                func.inst(phi).operands[1] == *v
            })
            .unwrap();
        profile.values.record(next_def, 0.99);
        let mut fx = fixture(Some(&profile));
        let set = select(
            &fx.program,
            &mut fx.pdg,
            Some(&profile),
            &SpeculationConfig::default(),
        );
        assert!(set.uses(SpecKind::Value));
        let _ = fx.phi_value;
    }

    #[test]
    fn biased_branch_gets_control_speculation() {
        let probe = fixture(None);
        let mut profile = LoopProfile::with_trip_count(1000);
        profile.branches.record(probe.header, 0.001); // exit almost never taken
        let mut fx = fixture(Some(&profile));
        let set = select(
            &fx.program,
            &mut fx.pdg,
            Some(&profile),
            &SpeculationConfig::default(),
        );
        assert!(set.uses(SpecKind::Control));
        let ctl = set
            .chosen
            .iter()
            .find(|s| s.kind == SpecKind::Control)
            .unwrap();
        assert!((ctl.misspec_rate - 0.001).abs() < 1e-9);
    }

    #[test]
    fn disabled_config_selects_nothing() {
        let probe = fixture(None);
        let mut profile = LoopProfile::with_trip_count(1000);
        let func = probe.program.function(probe.pdg.func());
        profile
            .memory
            .record_by_label(func, "store_acc", "load_acc", 0.0);
        profile.branches.record(probe.header, 0.0);
        let mut fx = fixture(Some(&profile));
        let set = select(
            &fx.program,
            &mut fx.pdg,
            Some(&profile),
            &SpeculationConfig::disabled(),
        );
        assert!(set.is_empty());
    }

    #[test]
    fn misspec_per_iteration_combines_independently() {
        let edge = PdgEdge {
            src: 0,
            dst: 0,
            kind: DepKind::Mem,
            carried: true,
            freq: 0.1,
        };
        let set = SpeculationSet {
            chosen: vec![
                Speculation {
                    edge,
                    kind: SpecKind::Alias,
                    misspec_rate: 0.1,
                },
                Speculation {
                    edge,
                    kind: SpecKind::Alias,
                    misspec_rate: 0.1,
                },
            ],
        };
        assert!((set.misspec_per_iteration() - 0.19).abs() < 1e-9);
        assert_eq!(set.len(), 2);
    }
}
