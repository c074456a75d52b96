//! 254.gap — computational-algebra interpreter with copying GC
//! (paper §4.2.2).
//!
//! A real list interpreter with an arena allocator and a **copying
//! garbage collector**. The paper's parallelization runs input statements
//! speculatively in parallel (alias speculation on the `Last` result
//! variable and statement data), with the interpreter's allocator marked
//! **Commutative**. Speedup stalls near 2× because:
//!
//! * statements in real inputs are often truly data dependent, and
//! * the *copying* collector compacts the heap — moving every live
//!   object — so any statement overlapping a collection misspeculates
//!   ("the use of a mark-and-sweep collector would likely reduce the
//!   misspeculation").
//!
//! Both effects are real events here: data dependences come from the
//! generated program's variable dataflow, and GC misspeculations from the
//! collector actually running when the arena fills.

use crate::common::{fnv1a_fold, InputSize, IrModel, Prng, WorkMeter, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{Kernel, KernelLoop};
use seqpar::{IterationRecord, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{CommGroupId, ExternEffect, FunctionBuilder, Opcode, Program};

/// A value: an integer or a reference to a cons cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Val {
    /// An immediate integer.
    Int(i64),
    /// A heap reference.
    Ref(usize),
    /// The empty list.
    Nil,
}

/// A cons cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    head: Val,
    tail: Val,
}

/// One interpreter statement of the input program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `vars[dst] = list(seed, len)` — allocate a fresh list.
    Build {
        /// Destination variable.
        dst: u8,
        /// Value seed.
        seed: i64,
        /// List length (allocates this many cells).
        len: u8,
    },
    /// `vars[dst] = sum(vars[src])` — fold a list (reads `src`).
    Sum {
        /// Destination variable.
        dst: u8,
        /// Source variable.
        src: u8,
    },
    /// `vars[dst] = cons(head(vars[src]), vars[src])` — extend a list
    /// (reads `src`, allocates).
    Extend {
        /// Destination variable.
        dst: u8,
        /// Source variable.
        src: u8,
    },
}

impl Stmt {
    /// The variable this statement reads, if any.
    pub fn reads(&self) -> Option<u8> {
        match self {
            Stmt::Build { .. } => None,
            Stmt::Sum { src, .. } | Stmt::Extend { src, .. } => Some(*src),
        }
    }

    /// The variable this statement writes.
    pub fn writes(&self) -> u8 {
        match self {
            Stmt::Build { dst, .. } | Stmt::Sum { dst, .. } | Stmt::Extend { dst, .. } => *dst,
        }
    }
}

/// The interpreter with its arena and copying collector.
#[derive(Clone, Debug)]
pub struct Interp {
    heap: Vec<Cell>,
    vars: [Val; 32],
    capacity: usize,
    /// Number of collections performed.
    pub gc_runs: u64,
    /// Live cells copied by the last collection.
    pub last_gc_copied: u64,
}

impl Interp {
    /// Creates an interpreter whose arena holds `capacity` cells before a
    /// collection triggers.
    pub fn new(capacity: usize) -> Self {
        Self {
            heap: Vec::new(),
            vars: [Val::Nil; 32],
            capacity,
            gc_runs: 0,
            last_gc_copied: 0,
        }
    }

    fn alloc(&mut self, head: Val, tail: Val, meter: &mut WorkMeter) -> Val {
        meter.add(1);
        self.heap.push(Cell { head, tail });
        Val::Ref(self.heap.len() - 1)
    }

    /// Runs the copying collector: copies live cells to a fresh arena,
    /// rewriting all references. Returns how many cells were copied —
    /// the "touches all memory" cost the paper blames for misspeculation.
    pub fn collect(&mut self, meter: &mut WorkMeter) -> u64 {
        let mut new_heap: Vec<Cell> = Vec::new();
        let mut forward: Vec<Option<usize>> = vec![None; self.heap.len()];
        // Cheney-style copy from the variable roots.
        fn copy(
            v: Val,
            heap: &[Cell],
            new_heap: &mut Vec<Cell>,
            forward: &mut [Option<usize>],
            meter: &mut WorkMeter,
        ) -> Val {
            match v {
                Val::Int(_) | Val::Nil => v,
                Val::Ref(i) => {
                    if let Some(f) = forward[i] {
                        return Val::Ref(f);
                    }
                    meter.add(2);
                    let idx = new_heap.len();
                    forward[i] = Some(idx);
                    new_heap.push(Cell {
                        head: Val::Nil,
                        tail: Val::Nil,
                    });
                    let cell = heap[i];
                    let head = copy(cell.head, heap, new_heap, forward, meter);
                    let tail = copy(cell.tail, heap, new_heap, forward, meter);
                    new_heap[idx] = Cell { head, tail };
                    Val::Ref(idx)
                }
            }
        }
        for i in 0..self.vars.len() {
            self.vars[i] = copy(self.vars[i], &self.heap, &mut new_heap, &mut forward, meter);
        }
        let copied = new_heap.len() as u64;
        self.heap = new_heap;
        self.gc_runs += 1;
        self.last_gc_copied = copied;
        copied
    }

    /// Executes one statement; returns `true` when a collection ran.
    pub fn exec(&mut self, stmt: Stmt, meter: &mut WorkMeter) -> bool {
        let mut collected = false;
        if self.heap.len() >= self.capacity {
            self.collect(meter);
            collected = true;
        }
        match stmt {
            Stmt::Build { dst, seed, len } => {
                let mut list = Val::Nil;
                for k in 0..len {
                    list = self.alloc(Val::Int(seed.wrapping_add(k as i64)), list, meter);
                }
                self.vars[dst as usize] = list;
            }
            Stmt::Sum { dst, src } => {
                let mut total = 0i64;
                let mut cur = self.vars[src as usize];
                while let Val::Ref(i) = cur {
                    meter.add(1);
                    if let Val::Int(x) = self.heap[i].head {
                        total = total.wrapping_add(x);
                    }
                    cur = self.heap[i].tail;
                }
                self.vars[dst as usize] = Val::Int(total);
            }
            Stmt::Extend { dst, src } => {
                let head = match self.vars[src as usize] {
                    Val::Ref(i) => self.heap[i].head,
                    other => other,
                };
                let tail = self.vars[src as usize];
                self.vars[dst as usize] = self.alloc(head, tail, meter);
            }
        }
        collected
    }

    /// Reads a variable.
    pub fn var(&self, v: u8) -> Val {
        self.vars[v as usize]
    }
}

/// Generates a deterministic GAP-ish program.
///
/// Real GAP scripts alternate between *independent* sections (building
/// fresh objects) and *chained* sections (loops folding the previous
/// statement's result through `Last`). The chained sections are what
/// caps the paper's speedup near 2x: inside them every statement truly
/// depends on its predecessor.
pub fn generate_program(count: usize, seed: u64) -> Vec<Stmt> {
    let mut rng = Prng::new(seed);
    let mut stmts = Vec::with_capacity(count);
    let mut chained = false;
    for s in 0..count {
        // Asymmetric section lengths: fold loops are shorter than the
        // build-up code around them (~1/3 of statements are chained).
        if chained && rng.chance(1.0 / 30.0) {
            chained = false;
        } else if !chained && rng.chance(1.0 / 42.0) {
            chained = true;
        }
        let dst = (s % 32) as u8;
        let stmt = if chained && s > 0 {
            let src = ((s - 1) % 32) as u8;
            if rng.chance(0.5) {
                Stmt::Sum { dst, src }
            } else {
                Stmt::Extend { dst, src }
            }
        } else {
            Stmt::Build {
                dst,
                seed: rng.below(1000) as i64,
                len: 3 + rng.below(24) as u8,
            }
        };
        stmts.push(stmt);
    }
    stmts
}

/// The 254.gap workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gap;

impl Gap {
    /// Arena capacity: small enough that collections are frequent, as in
    /// gap's workspace under its default -m setting.
    const ARENA: usize = 700;
}

/// gap's loop: one statement of the program an iteration. A record is
/// the written variable's value (8 bytes le) and whether the statement
/// collected (1 byte); the tail is a rolling hash of the values and the
/// collection count, the heap summary and GC clock the interpreter
/// threads across statements.
struct Statements(Vec<Stmt>);

/// What gap's record rule remembers: the statement that last wrote each
/// variable, and the last statement that collected.
#[derive(Default)]
struct Writers {
    last_writer: [Option<u64>; 32],
    last_gc: Option<u64>,
}

impl Kernel for Statements {
    type State = Interp;
    type Point = Interp;
    /// Whether the statement collected.
    type Seen = bool;
    type Book = Writers;

    fn start(&self) -> Interp {
        Interp::new(Gap::ARENA)
    }

    fn step(&self, interp: &mut Interp, i: u64) -> Option<(Vec<u8>, u64, bool)> {
        let stmt = *self.0.get(i as usize)?;
        let mut meter = WorkMeter::new();
        let collected = interp.exec(stmt, &mut meter);
        let value = match interp.var(stmt.writes()) {
            Val::Int(x) => x,
            Val::Ref(r) => r as i64 + 1_000_000,
            Val::Nil => -1,
        };
        let mut bytes = value.to_le_bytes().to_vec();
        bytes.push(u8::from(collected));
        Some((bytes, meter.take().max(1), collected))
    }

    /// The whole interpreter, kept before each chunk of a plan with two
    /// or more seats: the job's first sequential run keeps none, so the
    /// clones do not slow the steps its clock times.
    fn point(&self, interp: &Interp) -> Option<Interp> {
        Some(interp.clone())
    }

    fn restore(&self, interp: &Interp) -> Interp {
        interp.clone()
    }

    fn record(&self, book: &mut Writers, i: u64, work: u64, collected: bool) -> IterationRecord {
        let stmt = self.0[i as usize];
        // Real dependence events, worst first: a collection moved every
        // object, so this statement conflicts with its predecessor;
        // otherwise reading a recently-written variable conflicts with
        // its writer.
        let misspec = if collected && i > 0 {
            book.last_gc = Some(i);
            Some(i - 1)
        } else if let Some(src) = stmt.reads() {
            book.last_writer[src as usize]
        } else {
            // The statement right after a collection still sees moved
            // pointers.
            book.last_gc.filter(|&gc| i == gc + 1)
        };
        book.last_writer[stmt.writes() as usize] = Some(i);
        let mut record = IterationRecord::new(1, work, 1);
        record.misspec_on = misspec;
        record
    }

    fn fold(&self, _: u64, bytes: &[u8], acc: &mut [u64]) {
        acc[0] = fnv1a_fold(acc[0], &bytes[..8]);
        acc[1] += u64::from(bytes[8]);
    }
}

impl Workload for Gap {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "254.gap",
            name: "gap",
            loops: &["main (gap.c:191-227)"],
            exec_time_pct: 100,
            lines_changed_all: 3,
            lines_changed_model: 3,
            techniques: &[
                Technique::Commutative,
                Technique::TlsMemory,
                Technique::Dswp,
                Technique::AliasSpeculation,
            ],
            paper_speedup: 1.94,
            paper_threads: 10,
        }
    }

    fn kernel(&self, size: InputSize) -> KernelLoop {
        KernelLoop::new(Statements(generate_program(
            400 * size.factor() as usize,
            0x254,
        )))
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("254.gap");
        let last = program.add_global("Last", 1);
        let workspace = program.add_global("workspace", 1 << 16);
        program.declare_extern("read_statement", ExternEffect::pure_fn());
        program.declare_extern(
            "NewBag",
            ExternEffect {
                reads: vec![workspace],
                writes: vec![workspace],
                ..Default::default()
            },
        );
        program.declare_extern(
            "eval_statement",
            ExternEffect {
                reads: vec![workspace],
                writes: vec![workspace],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("main_loop");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let stmt = b.call_ext("read_statement", &[], None);
        b.label_last("read");
        // The allocator is Commutative; evaluation aliases are
        // speculated.
        let bag = b.call_ext("NewBag", &[stmt], Some(CommGroupId(0)));
        let val = b.call_ext("eval_statement", &[stmt, bag], None);
        b.label_last("eval");
        let alast = b.global_addr(last);
        let prev = b.load(alast);
        b.label_last("load_last");
        let merged = b.binop(Opcode::Add, prev, val);
        b.store(alast, merged);
        b.label_last("store_last");
        let zero = b.const_(0);
        let done = b.binop(Opcode::CmpEq, stmt, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        let mut profile = LoopProfile::with_trip_count(1600);
        let f = program.function(func);
        profile
            .memory
            .record_by_label(f, "store_last", "load_last", 0.05);
        profile.memory.record_by_label(f, "eval", "eval", 0.45);
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

    #[test]
    fn build_and_sum_compute_correctly() {
        let mut i = Interp::new(1000);
        let mut m = WorkMeter::new();
        i.exec(
            Stmt::Build {
                dst: 0,
                seed: 10,
                len: 3,
            },
            &mut m,
        ); // 10,11,12
        i.exec(Stmt::Sum { dst: 1, src: 0 }, &mut m);
        assert_eq!(i.var(1), Val::Int(33));
    }

    #[test]
    fn extend_prepends_preserving_sum() {
        let mut i = Interp::new(1000);
        let mut m = WorkMeter::new();
        i.exec(
            Stmt::Build {
                dst: 0,
                seed: 5,
                len: 2,
            },
            &mut m,
        ); // 5,6
        i.exec(Stmt::Extend { dst: 0, src: 0 }, &mut m); // head(6) :: [6,5]
        i.exec(Stmt::Sum { dst: 1, src: 0 }, &mut m);
        assert_eq!(i.var(1), Val::Int(17));
    }

    #[test]
    fn gc_preserves_live_data() {
        let mut i = Interp::new(50);
        let mut m = WorkMeter::new();
        i.exec(
            Stmt::Build {
                dst: 0,
                seed: 1,
                len: 10,
            },
            &mut m,
        );
        // Build garbage until collections run, overwriting other vars.
        for _ in 0..30 {
            i.exec(
                Stmt::Build {
                    dst: 1,
                    seed: 9,
                    len: 10,
                },
                &mut m,
            );
        }
        assert!(i.gc_runs > 0);
        i.exec(Stmt::Sum { dst: 2, src: 0 }, &mut m);
        assert_eq!(i.var(2), Val::Int((1..=10).sum::<i64>() - 10 + 10)); // 1+2+..+10
    }

    #[test]
    fn gc_compacts_garbage_away() {
        let mut i = Interp::new(100);
        let mut m = WorkMeter::new();
        for _ in 0..20 {
            i.exec(
                Stmt::Build {
                    dst: 0,
                    seed: 3,
                    len: 10,
                },
                &mut m,
            );
        }
        i.collect(&mut m);
        // Only var 0's final 10-cell list is live.
        assert_eq!(i.last_gc_copied, 10);
    }

    #[test]
    fn shared_structure_is_copied_once() {
        let mut i = Interp::new(10_000);
        let mut m = WorkMeter::new();
        i.exec(
            Stmt::Build {
                dst: 0,
                seed: 1,
                len: 5,
            },
            &mut m,
        );
        // Var 1 extends var 0: shares its 5 cells.
        i.exec(Stmt::Extend { dst: 1, src: 0 }, &mut m);
        let copied = i.collect(&mut m);
        assert_eq!(copied, 6, "5 shared cells + 1 new head");
    }

    #[test]
    fn trace_mixes_gc_and_data_misspeculation() {
        let t = Gap.trace(InputSize::Test);
        let rate = t.misspec_rate();
        assert!(rate > 0.3 && rate < 0.75, "misspec rate {rate}");
    }

    #[test]
    fn ir_model_combines_commutative_and_alias_speculation() {
        let model = Gap.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(result.report().uses(Technique::Commutative));
        assert!(result.report().uses(Technique::AliasSpeculation));
    }
}
