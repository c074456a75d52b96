//! 176.gcc — function-at-a-time optimizing compilation (paper §4.2.1).
//!
//! A real miniature compiler: functions of three-address code are parsed,
//! run through an optimization sequence (constant propagation, common
//! subexpression elimination — deliberately `O(n²)` like gcc's, dead-code
//! elimination), and emitted as assembly. Since gcc applies no
//! interprocedural optimization, "the sequence can run in parallel on
//! each function", once three dependences are handled:
//!
//! * the **global symbol table** is annotated *Commutative* (hash-table
//!   insert order is irrelevant);
//! * the obstack allocators are Commutative too, with their occasional
//!   growth (a realloc) being the residual misspeculation source —
//!   modelled here by the intern table's real capacity doublings;
//! * the **`label_num`** global counter is "effectively impossible to
//!   speculate away"; the paper's programmer fix makes label numbers
//!   per-function pairs `(function, number)` — semantically, not
//!   syntactically, equivalent output. Both numbering schemes are
//!   implemented so the ablation is visible.

use crate::common::{InputSize, IrModel, Prng, WorkMeter, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{Kernel, KernelLoop};
use seqpar::{IterationRecord, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{CommGroupId, ExternEffect, FunctionBuilder, Opcode, Program};
use std::collections::HashMap;

/// Three-address ops of the mini IR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MOp {
    /// `r[dst] = val`
    Const {
        /// Destination register.
        dst: u8,
        /// The constant.
        val: i64,
    },
    /// `r[dst] = r[a] + r[b]`
    Add {
        /// Destination register.
        dst: u8,
        /// Left operand register.
        a: u8,
        /// Right operand register.
        b: u8,
    },
    /// `r[dst] = r[a] * r[b]`
    Mul {
        /// Destination register.
        dst: u8,
        /// Left operand register.
        a: u8,
        /// Right operand register.
        b: u8,
    },
    /// `r[dst] = r[src]`
    Copy {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// A branch target; consumes a label number at emission.
    Label,
    /// Return `r[src]`.
    Ret {
        /// Returned register.
        src: u8,
    },
}

impl MOp {
    fn dst(&self) -> Option<u8> {
        match self {
            MOp::Const { dst, .. }
            | MOp::Add { dst, .. }
            | MOp::Mul { dst, .. }
            | MOp::Copy { dst, .. } => Some(*dst),
            MOp::Label | MOp::Ret { .. } => None,
        }
    }

    fn uses(&self) -> Vec<u8> {
        match self {
            MOp::Add { a, b, .. } | MOp::Mul { a, b, .. } => vec![*a, *b],
            MOp::Copy { src, .. } => vec![*src],
            MOp::Ret { src } => vec![*src],
            MOp::Const { .. } | MOp::Label => vec![],
        }
    }
}

/// A function of the input program.
#[derive(Clone, Debug, PartialEq)]
pub struct MiniFunc {
    /// Function name.
    pub name: String,
    /// Symbols the function references (feed the global symbol table).
    pub symbols: Vec<String>,
    /// The body.
    pub ops: Vec<MOp>,
}

/// Executes a function (for optimization-correctness tests).
pub fn interpret(ops: &[MOp]) -> i64 {
    let mut regs = [0i64; 256];
    for op in ops {
        match *op {
            MOp::Const { dst, val } => regs[dst as usize] = val,
            MOp::Add { dst, a, b } => {
                regs[dst as usize] = regs[a as usize].wrapping_add(regs[b as usize]);
            }
            MOp::Mul { dst, a, b } => {
                regs[dst as usize] = regs[a as usize].wrapping_mul(regs[b as usize]);
            }
            MOp::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
            MOp::Label => {}
            MOp::Ret { src } => return regs[src as usize],
        }
    }
    0
}

/// Constant propagation + folding (linear).
pub fn const_prop(ops: &mut [MOp], meter: &mut WorkMeter) -> usize {
    let mut known: HashMap<u8, i64> = HashMap::new();
    let mut folded = 0;
    for op in ops.iter_mut() {
        meter.add(1);
        let new = match *op {
            MOp::Add { dst, a, b } => match (known.get(&a), known.get(&b)) {
                (Some(&x), Some(&y)) => Some(MOp::Const {
                    dst,
                    val: x.wrapping_add(y),
                }),
                _ => None,
            },
            MOp::Mul { dst, a, b } => match (known.get(&a), known.get(&b)) {
                (Some(&x), Some(&y)) => Some(MOp::Const {
                    dst,
                    val: x.wrapping_mul(y),
                }),
                _ => None,
            },
            MOp::Copy { dst, src } => known.get(&src).map(|&x| MOp::Const { dst, val: x }),
            _ => None,
        };
        if let Some(n) = new {
            *op = n;
            folded += 1;
        }
        match *op {
            MOp::Const { dst, val } => {
                known.insert(dst, val);
            }
            _ => {
                if let Some(d) = op.dst() {
                    known.remove(&d);
                }
            }
        }
    }
    folded
}

/// Copy propagation: rewrites uses of `Copy` destinations to their
/// sources while the source register is unchanged (linear).
pub fn copy_prop(ops: &mut [MOp], meter: &mut WorkMeter) -> usize {
    let mut alias: HashMap<u8, u8> = HashMap::new();
    let mut rewritten = 0;
    for op in ops.iter_mut() {
        meter.add(1);
        let resolve = |r: u8, al: &HashMap<u8, u8>| al.get(&r).copied().unwrap_or(r);
        let mut changed = false;
        let new = match *op {
            MOp::Add { dst, a, b } => {
                let (ra, rb) = (resolve(a, &alias), resolve(b, &alias));
                changed = (ra, rb) != (a, b);
                MOp::Add { dst, a: ra, b: rb }
            }
            MOp::Mul { dst, a, b } => {
                let (ra, rb) = (resolve(a, &alias), resolve(b, &alias));
                changed = (ra, rb) != (a, b);
                MOp::Mul { dst, a: ra, b: rb }
            }
            MOp::Copy { dst, src } => {
                let rs = resolve(src, &alias);
                changed = rs != src;
                MOp::Copy { dst, src: rs }
            }
            MOp::Ret { src } => {
                let rs = resolve(src, &alias);
                changed = rs != src;
                MOp::Ret { src: rs }
            }
            other => other,
        };
        *op = new;
        if changed {
            rewritten += 1;
        }
        // Update the alias table after the rewrite.
        match *op {
            MOp::Copy { dst, src } if dst != src => {
                alias.insert(dst, src);
                // Anything aliased *to* dst is now stale.
                alias.retain(|_, v| *v != dst);
            }
            _ => {
                if let Some(d) = op.dst() {
                    alias.remove(&d);
                    alias.retain(|_, v| *v != d);
                }
            }
        }
    }
    rewritten
}

/// Common-subexpression elimination — the quadratic pass that dominates
/// compile time, like gcc's `O(n²)`-or-worse optimizations.
pub fn cse(ops: &mut [MOp], meter: &mut WorkMeter) -> usize {
    let mut replaced = 0;
    for i in 0..ops.len() {
        let candidate = ops[i];
        let (key_a, key_b, is_add) = match candidate {
            MOp::Add { a, b, .. } => (a, b, true),
            MOp::Mul { a, b, .. } => (a, b, false),
            _ => continue,
        };
        // Scan backwards for an identical computation whose operands and
        // result survive untouched.
        'scan: for j in (0..i).rev() {
            meter.add(1);
            let prior = ops[j];
            // Any redefinition of the operands between j and i kills it.
            if let Some(d) = prior.dst() {
                if d == key_a || d == key_b {
                    break 'scan;
                }
            }
            let matches = match prior {
                MOp::Add { a, b, dst } if is_add => {
                    (a, b) == (key_a, key_b) && intact(&ops[j + 1..i], dst)
                }
                MOp::Mul { a, b, dst } if !is_add => {
                    (a, b) == (key_a, key_b) && intact(&ops[j + 1..i], dst)
                }
                _ => false,
            };
            if matches {
                let src = prior.dst().expect("add/mul define");
                let dst = candidate.dst().expect("add/mul define");
                if src != dst {
                    ops[i] = MOp::Copy { dst, src };
                    replaced += 1;
                }
                break 'scan;
            }
        }
    }
    replaced
}

fn intact(ops: &[MOp], reg: u8) -> bool {
    ops.iter().all(|o| o.dst() != Some(reg))
}

/// Instruction-scheduling dependence analysis: counts def-use and
/// def-def dependences between every pair of ops. Quadratic by nature,
/// like gcc's scheduler and many of its `O(n²)`-or-worse analyses — this
/// is what makes big functions dominate compile time.
pub fn analyze_dependences(ops: &[MOp], meter: &mut WorkMeter) -> u64 {
    let mut deps = 0u64;
    for i in 0..ops.len() {
        let di = ops[i].dst();
        for op_j in ops.iter().skip(i + 1) {
            meter.add(1);
            if let Some(d) = di {
                if op_j.uses().contains(&d) || op_j.dst() == Some(d) {
                    deps += 1;
                }
            }
        }
    }
    deps
}

/// Dead-code elimination: removes defs never used before redefinition.
pub fn dce(ops: &mut Vec<MOp>, meter: &mut WorkMeter) -> usize {
    let mut live = [false; 256];
    let mut keep = vec![true; ops.len()];
    for (i, op) in ops.iter().enumerate().rev() {
        meter.add(1);
        match op {
            MOp::Ret { .. } | MOp::Label => {
                for u in op.uses() {
                    live[u as usize] = true;
                }
            }
            _ => {
                let d = op.dst().expect("non-ret defines");
                if live[d as usize] {
                    live[d as usize] = false;
                    for u in op.uses() {
                        live[u as usize] = true;
                    }
                } else {
                    keep[i] = false;
                }
            }
        }
    }
    let before = ops.len();
    let mut idx = 0;
    ops.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
    before - ops.len()
}

/// How label numbers are assigned at emission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelNumbering {
    /// gcc's original single global counter — a loop-carried dependence
    /// that is "effectively impossible to speculate away".
    Global,
    /// The paper's fix: `(function, number)` pairs, resetting per
    /// function. Output differs syntactically but not semantically.
    PerFunction,
}

/// The global symbol table (Commutative in the parallelization). Tracks
/// its real capacity doublings — the obstack-growth events that remain a
/// misspeculation source.
#[derive(Debug, Default)]
pub struct SymbolTable {
    map: HashMap<String, u32>,
    capacity: usize,
    /// How many times the backing store grew.
    pub growths: u64,
}

impl SymbolTable {
    /// Creates an empty table with a small initial capacity.
    pub fn new() -> Self {
        Self {
            map: HashMap::new(),
            capacity: 64,
            growths: 0,
        }
    }

    /// Interns a symbol; returns `(id, grew)` where `grew` reports a
    /// capacity doubling.
    pub fn intern(&mut self, sym: &str, meter: &mut WorkMeter) -> (u32, bool) {
        meter.add(2);
        if let Some(&id) = self.map.get(sym) {
            return (id, false);
        }
        let id = self.map.len() as u32;
        self.map.insert(sym.to_string(), id);
        let mut grew = false;
        if self.map.len() > self.capacity {
            self.capacity *= 2;
            self.growths += 1;
            grew = true;
        }
        (id, grew)
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Compiles one function: optimize then emit. Returns the assembly text.
pub fn compile_function(
    func: &MiniFunc,
    symtab: &mut SymbolTable,
    label_base: &mut u32,
    numbering: LabelNumbering,
    func_index: u32,
    meter: &mut WorkMeter,
) -> (String, bool) {
    let mut ops = func.ops.clone();
    // The optimization sequence; some passes run twice (paper: "some
    // optimizations are applied multiple times").
    const_prop(&mut ops, meter);
    cse(&mut ops, meter);
    copy_prop(&mut ops, meter);
    const_prop(&mut ops, meter);
    dce(&mut ops, meter);
    analyze_dependences(&ops, meter);
    // Symbol interning for everything the function references.
    let mut grew = false;
    for s in &func.symbols {
        let (_, g) = symtab.intern(s, meter);
        grew |= g;
    }
    // Emission with label numbering.
    let mut out = String::new();
    out.push_str(&format!("{}:\n", func.name));
    let mut local = 0u32;
    for op in &ops {
        meter.add(1);
        match op {
            MOp::Label => {
                let label = match numbering {
                    LabelNumbering::Global => {
                        *label_base += 1;
                        format!(".L{}", *label_base)
                    }
                    LabelNumbering::PerFunction => {
                        local += 1;
                        format!(".L{func_index}_{local}")
                    }
                };
                out.push_str(&label);
                out.push_str(":\n");
            }
            MOp::Const { dst, val } => out.push_str(&format!("  li r{dst}, {val}\n")),
            MOp::Add { dst, a, b } => out.push_str(&format!("  add r{dst}, r{a}, r{b}\n")),
            MOp::Mul { dst, a, b } => out.push_str(&format!("  mul r{dst}, r{a}, r{b}\n")),
            MOp::Copy { dst, src } => out.push_str(&format!("  mv r{dst}, r{src}\n")),
            MOp::Ret { src } => out.push_str(&format!("  ret r{src}\n")),
        }
    }
    (out, grew)
}

/// Generates a deterministic translation unit with a heavy-tailed
/// function-size distribution (big functions cost quadratically more).
pub fn generate_unit(functions: usize, seed: u64) -> Vec<MiniFunc> {
    let mut rng = Prng::new(seed);
    (0..functions)
        .map(|f| {
            let u = rng.unit();
            let size = 20 + (u * u * u * 700.0) as usize;
            let mut ops = Vec::with_capacity(size);
            for i in 0..size {
                let dst = rng.below(24) as u8;
                match rng.below(10) {
                    0..=2 => ops.push(MOp::Const {
                        dst,
                        val: rng.below(100) as i64,
                    }),
                    3..=5 => ops.push(MOp::Add {
                        dst,
                        a: rng.below(24) as u8,
                        b: rng.below(24) as u8,
                    }),
                    6..=7 => ops.push(MOp::Mul {
                        dst,
                        a: rng.below(24) as u8,
                        b: rng.below(24) as u8,
                    }),
                    8 => ops.push(MOp::Copy {
                        dst,
                        src: rng.below(24) as u8,
                    }),
                    _ => ops.push(MOp::Label),
                }
                let _ = i;
            }
            ops.push(MOp::Ret {
                src: rng.below(24) as u8,
            });
            let symbols = (0..3 + rng.below(8))
                .map(|s| format!("sym_{}", rng.below(40 + s * 13)))
                .collect();
            MiniFunc {
                name: format!("fn_{f}"),
                symbols,
                ops,
            }
        })
        .collect()
}

/// The 176.gcc workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gcc;

impl Gcc {
    /// The trace under the *original* global `label_num` counter: every
    /// function reads and advances it while optimizing and printing, a
    /// loop-carried dependence the paper calls "effectively impossible
    /// to speculate away" — so every iteration truly depends on its
    /// predecessor. This is the ablation baseline for the paper's
    /// per-function renumbering fix.
    pub fn trace_with_global_labels(&self, size: InputSize) -> seqpar::IterationTrace {
        self.compile(size, LabelNumbering::Global).trace()
    }

    fn compile(&self, size: InputSize, numbering: LabelNumbering) -> KernelLoop {
        // gcc compiles one file per run: function count is bounded.
        let functions = match size {
            InputSize::Test => 48,
            InputSize::Train => 64,
            InputSize::Ref => 96,
        };
        let unit = generate_unit(functions, 0x176);
        KernelLoop::new(Compile { unit, numbering })
    }
}

/// gcc's loop: one function of the unit an iteration, compiled under
/// `numbering`. The symbol table and the label counter carry across
/// functions, but a function's assembly and work read neither under
/// per-function numbering: every range starts from an empty table. The
/// tail is the object file's checksum and write cursor.
struct Compile {
    unit: Vec<MiniFunc>,
    numbering: LabelNumbering,
}

impl Kernel for Compile {
    type State = (SymbolTable, u32);
    type Point = ();
    /// Whether the symbol table grew, and the assembly's length.
    type Seen = (bool, usize);
    type Book = ();

    fn start(&self) -> Self::State {
        (SymbolTable::new(), 0)
    }

    fn step(&self, state: &mut Self::State, i: u64) -> Option<(Vec<u8>, u64, Self::Seen)> {
        let (symtab, labels) = state;
        let func = self.unit.get(i as usize)?;
        let mut meter = WorkMeter::new();
        let (asm, grew) =
            compile_function(func, symtab, labels, self.numbering, i as u32, &mut meter);
        let len = asm.len();
        Some((asm.into_bytes(), meter.take().max(1), (grew, len)))
    }

    fn record(&self, _: &mut (), i: u64, work: u64, (grew, asm): (bool, usize)) -> IterationRecord {
        // A: the parse loop reads the function in (linear). C: print
        // assembly in order.
        let a_cost = self.unit[i as usize].ops.len() as u64;
        let mut record = IterationRecord::new(a_cost, work, asm as u64 / 16);
        // Residual misspeculation: the obstack behind the symbol table
        // grew, relocating it under concurrent readers. A global counter
        // makes every function depend on the last.
        let global = self.numbering == LabelNumbering::Global;
        record.misspec_on = (i > 0 && (grew || global)).then(|| i - 1);
        record
    }
}

impl Workload for Gcc {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "176.gcc",
            name: "gcc",
            loops: &["yyparse (c-parse.c:1396-3380)"],
            exec_time_pct: 95,
            lines_changed_all: 18,
            lines_changed_model: 8,
            techniques: &[
                Technique::Commutative,
                Technique::AliasSpeculation,
                Technique::ControlSpeculation,
                Technique::TlsMemory,
                Technique::Dswp,
            ],
            paper_speedup: 5.06,
            paper_threads: 16,
        }
    }

    fn kernel(&self, size: InputSize) -> KernelLoop {
        self.compile(size, LabelNumbering::PerFunction)
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("176.gcc");
        let symtab = program.add_global("global_symtab", 1 << 12);
        let label_num = program.add_global("label_num", 1);
        let obstack = program.add_global("permanent_obstack", 1 << 12);
        program.declare_extern("parse_function", ExternEffect::pure_fn());
        program.declare_extern(
            "symtab_lookup_insert",
            ExternEffect {
                reads: vec![symtab],
                writes: vec![symtab],
                ..Default::default()
            },
        );
        program.declare_extern(
            "obstack_alloc",
            ExternEffect {
                reads: vec![obstack],
                writes: vec![obstack],
                ..Default::default()
            },
        );
        program.declare_extern("rest_of_compilation", ExternEffect::pure_fn());
        let mut b = FunctionBuilder::new("yyparse");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let f = b.call_ext("parse_function", &[], None);
        b.label_last("parse");
        // Symbol table and obstacks: Commutative (groups 0 and 1).
        let sym = b.call_ext("symtab_lookup_insert", &[f], Some(CommGroupId(0)));
        let mem = b.call_ext("obstack_alloc", &[f], Some(CommGroupId(1)));
        let opt = b.call_ext("rest_of_compilation", &[f, sym, mem], None);
        b.label_last("optimize");
        // label_num: the paper's per-function fix resets the counter, so
        // the model keeps it local (no global recurrence remains).
        let alab = b.global_addr(label_num);
        let zero = b.const_(0);
        b.store(alab, zero);
        b.label_last("reset_label_num");
        let done = b.binop(Opcode::CmpEq, opt, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        let mut profile = LoopProfile::with_trip_count(64);
        let fref = program.function(func);
        // The label_num store rewrites 0 every iteration: silent.
        profile
            .memory
            .record_by_label(fref, "reset_label_num", "reset_label_num", 0.0);
        IrModel {
            program,
            func,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<MOp> {
        vec![
            MOp::Const { dst: 0, val: 6 },
            MOp::Const { dst: 1, val: 7 },
            MOp::Mul { dst: 2, a: 0, b: 1 },
            MOp::Add { dst: 3, a: 0, b: 1 },
            MOp::Add { dst: 4, a: 0, b: 1 }, // CSE with previous
            MOp::Mul { dst: 5, a: 5, b: 5 }, // dead
            MOp::Add { dst: 6, a: 2, b: 4 },
            MOp::Ret { src: 6 },
        ]
    }

    #[test]
    fn passes_preserve_semantics() {
        let mut ops = sample();
        let before = interpret(&ops);
        let mut m = WorkMeter::new();
        const_prop(&mut ops, &mut m);
        cse(&mut ops, &mut m);
        copy_prop(&mut ops, &mut m);
        const_prop(&mut ops, &mut m);
        dce(&mut ops, &mut m);
        assert_eq!(interpret(&ops), before);
        assert_eq!(before, 42 + 13);
    }

    #[test]
    fn const_prop_folds_known_values() {
        let mut ops = sample();
        let mut m = WorkMeter::new();
        let folded = const_prop(&mut ops, &mut m);
        assert!(folded >= 3, "folded {folded}");
        assert!(matches!(ops[2], MOp::Const { val: 42, .. }));
    }

    #[test]
    fn cse_replaces_duplicate_computation() {
        let mut ops = sample();
        let mut m = WorkMeter::new();
        let replaced = cse(&mut ops, &mut m);
        assert_eq!(replaced, 1);
        assert!(matches!(ops[4], MOp::Copy { dst: 4, src: 3 }));
    }

    #[test]
    fn copy_prop_rewrites_through_copies() {
        let mut ops = vec![
            MOp::Const { dst: 0, val: 7 },
            MOp::Copy { dst: 1, src: 0 },
            MOp::Add { dst: 2, a: 1, b: 1 },
            MOp::Ret { src: 2 },
        ];
        let before = interpret(&ops);
        let mut m = WorkMeter::new();
        let rewritten = copy_prop(&mut ops, &mut m);
        assert!(rewritten >= 1);
        assert!(matches!(ops[2], MOp::Add { a: 0, b: 0, .. }));
        assert_eq!(interpret(&ops), before);
    }

    #[test]
    fn copy_prop_respects_redefinition() {
        // The copy source is clobbered before the use: must not rewrite.
        let mut ops = vec![
            MOp::Const { dst: 0, val: 7 },
            MOp::Copy { dst: 1, src: 0 },
            MOp::Const { dst: 0, val: 9 }, // clobber
            MOp::Add { dst: 2, a: 1, b: 1 },
            MOp::Ret { src: 2 },
        ];
        let before = interpret(&ops);
        assert_eq!(before, 14);
        let mut m = WorkMeter::new();
        copy_prop(&mut ops, &mut m);
        assert_eq!(interpret(&ops), before);
        assert!(matches!(ops[3], MOp::Add { a: 1, b: 1, .. }));
    }

    #[test]
    fn dce_removes_dead_ops() {
        let mut ops = sample();
        let mut m = WorkMeter::new();
        let removed = dce(&mut ops, &mut m);
        // Both the self-multiply (r5) and the first Add (r3, unused
        // before CSE rewires r4's copy) are dead.
        assert_eq!(removed, 2);
        assert!(!ops.iter().any(|o| o.dst() == Some(5)));
    }

    #[test]
    fn generated_semantics_survive_optimization() {
        let unit = generate_unit(20, 9);
        let mut m = WorkMeter::new();
        for f in &unit {
            let mut ops = f.ops.clone();
            let before = interpret(&ops);
            const_prop(&mut ops, &mut m);
            cse(&mut ops, &mut m);
            const_prop(&mut ops, &mut m);
            dce(&mut ops, &mut m);
            assert_eq!(interpret(&ops), before, "function {}", f.name);
        }
    }

    #[test]
    fn optimization_cost_grows_superlinearly() {
        let small = MiniFunc {
            name: "s".into(),
            symbols: vec![],
            ops: generate_unit(1, 100)[0].ops[..20].to_vec(),
        };
        let mut big_ops = Vec::new();
        for _ in 0..20 {
            big_ops.extend(small.ops.iter().copied());
        }
        let big = MiniFunc {
            name: "b".into(),
            symbols: vec![],
            ops: big_ops,
        };
        let cost = |f: &MiniFunc| {
            let mut st = SymbolTable::new();
            let mut lb = 0;
            let mut m = WorkMeter::new();
            compile_function(f, &mut st, &mut lb, LabelNumbering::Global, 0, &mut m);
            m.total()
        };
        // 20x ops must cost far more than 40x work.
        assert!(cost(&big) > cost(&small) * 40);
    }

    #[test]
    fn label_numbering_modes_differ_syntactically_only() {
        let func = MiniFunc {
            name: "f".into(),
            symbols: vec![],
            ops: vec![
                MOp::Label,
                MOp::Const { dst: 0, val: 1 },
                MOp::Label,
                MOp::Ret { src: 0 },
            ],
        };
        let emit = |mode| {
            let mut st = SymbolTable::new();
            let mut lb = 10;
            let mut m = WorkMeter::new();
            compile_function(&func, &mut st, &mut lb, mode, 3, &mut m).0
        };
        let global = emit(LabelNumbering::Global);
        let local = emit(LabelNumbering::PerFunction);
        assert_ne!(global, local);
        // Same shape: equal line counts, labels unique within each.
        assert_eq!(global.lines().count(), local.lines().count());
    }

    #[test]
    fn symbol_table_growth_events_are_rare_but_present() {
        let t = Gcc.trace(InputSize::Test);
        let rate = t.misspec_rate();
        assert!(
            rate < 0.25,
            "obstack growth misspec must be rare, got {rate}"
        );
    }

    #[test]
    fn trace_costs_are_heavy_tailed() {
        let t = Gcc.trace(InputSize::Test);
        let costs: Vec<u64> = t.records().iter().map(|r| r.b_cost).collect();
        let max = *costs.iter().max().unwrap();
        let mean = costs.iter().sum::<u64>() / costs.len() as u64;
        assert!(max > mean * 3, "max {max} mean {mean}");
    }

    #[test]
    fn global_label_numbering_serializes_every_iteration() {
        let t = Gcc.trace_with_global_labels(InputSize::Test);
        assert!(
            (t.misspec_rate() - 1.0).abs() < 0.05,
            "rate {}",
            t.misspec_rate()
        );
    }

    #[test]
    fn ir_model_relies_on_commutative_symbol_table() {
        let model = Gcc.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(result.report().uses(Technique::Commutative));
        assert!(result.partition().has_parallel_stage());
    }
}
