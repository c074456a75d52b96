//! 253.perlbmk — bytecode interpreter (paper §4.1.3).
//!
//! A real stack-machine interpreter standing in for Perl's runops loop.
//! Programs are sequences of *statements* demarcated by `NextState`
//! operations (Perl's `NEXTSTATE`); the parallelization speculatively
//! executes statements concurrently:
//!
//! * the virtual-machine stack pointer (`PL_stack_sp`) returns to the
//!   same value at every statement boundary — value speculation on it
//!   always succeeds because statements are stack-balanced;
//! * whether two statements conflict depends on the *input program's*
//!   dataflow: a statement reading a variable another statement just
//!   wrote manifests a real dependence and misspeculates.
//!
//! Perl inputs chain data heavily through variables, which is why the
//! paper's speedup tops out at 1.21× on 5 threads — the speculation is
//! mostly violated. The generated input here has the same density of
//! true inter-statement dependences.

use crate::common::{fnv1a_fold, InputSize, IrModel, Prng, WorkMeter, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{Kernel, KernelLoop};
use seqpar::{IterationRecord, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{ExternEffect, FunctionBuilder, Opcode as IrOp, Program};
use std::collections::BTreeMap;

/// Virtual-machine operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Push a constant.
    Push(i64),
    /// Push a variable's value.
    LoadVar(u8),
    /// Pop into a variable.
    StoreVar(u8),
    /// Pop two, push sum.
    Add,
    /// Pop two, push product.
    Mul,
    /// Pop two, push difference.
    Sub,
    /// Pop and append to output.
    Print,
    /// Statement boundary (`NEXTSTATE`).
    NextState,
}

/// The interpreter state.
#[derive(Clone, Debug)]
pub struct Vm {
    stack: Vec<i64>,
    vars: [i64; 64],
    output: Vec<i64>,
}

impl Default for Vm {
    fn default() -> Self {
        Self {
            stack: Vec::new(),
            vars: [0; 64],
            output: Vec::new(),
        }
    }
}

impl Vm {
    /// Creates a zeroed VM.
    pub fn new() -> Self {
        Self::default()
    }

    /// The printed output so far.
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// The current stack depth (`PL_stack_sp`).
    pub fn stack_depth(&self) -> usize {
        self.stack.len()
    }

    /// Executes one op, accruing work.
    ///
    /// # Panics
    ///
    /// Panics on stack underflow (malformed program).
    pub fn step(&mut self, op: Op, meter: &mut WorkMeter) {
        meter.add(1);
        match op {
            Op::Push(c) => self.stack.push(c),
            Op::LoadVar(v) => self.stack.push(self.vars[v as usize]),
            Op::StoreVar(v) => {
                let x = self.stack.pop().expect("store underflow");
                self.vars[v as usize] = x;
            }
            Op::Add => {
                let b = self.stack.pop().expect("add underflow");
                let a = self.stack.pop().expect("add underflow");
                self.stack.push(a.wrapping_add(b));
            }
            Op::Mul => {
                let b = self.stack.pop().expect("mul underflow");
                let a = self.stack.pop().expect("mul underflow");
                self.stack.push(a.wrapping_mul(b));
                meter.add(2);
            }
            Op::Sub => {
                let b = self.stack.pop().expect("sub underflow");
                let a = self.stack.pop().expect("sub underflow");
                self.stack.push(a.wrapping_sub(b));
            }
            Op::Print => {
                let x = self.stack.pop().expect("print underflow");
                self.output.push(x);
                meter.add(4);
            }
            Op::NextState => {}
        }
    }
}

/// Splits a program into statements at `NextState` boundaries.
pub fn statements(program: &[Op]) -> Vec<&[Op]> {
    program
        .split(|op| *op == Op::NextState)
        .filter(|s| !s.is_empty())
        .collect()
}

/// The variables a statement reads and writes.
pub fn var_sets(stmt: &[Op]) -> (Vec<u8>, Vec<u8>) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for op in stmt {
        match op {
            Op::LoadVar(v) if !reads.contains(v) => reads.push(*v),
            Op::StoreVar(v) if !writes.contains(v) => writes.push(*v),
            _ => {}
        }
    }
    (reads, writes)
}

/// Generates a deterministic Perl-ish program: `count` statements, most
/// of which consume a variable defined by a recent statement (the dense
/// dataflow that defeats speculation on real Perl inputs).
pub fn generate_program(count: usize, seed: u64) -> Vec<Op> {
    let mut rng = Prng::new(seed);
    let mut ops = Vec::new();
    for s in 0..count {
        // Real Perl statements chain tightly: most read the variable the
        // previous statement just wrote ($x = ...; $y = $x + 1; ...).
        if s > 0 && rng.chance(0.96) {
            let back = 1u64;
            let src = ((s as u64 - back) * 7 % 64) as u8;
            ops.push(Op::LoadVar(src));
            ops.push(Op::Push(rng.below(100) as i64));
            ops.push(if rng.chance(0.5) { Op::Add } else { Op::Mul });
        } else {
            ops.push(Op::Push(rng.below(1000) as i64));
            ops.push(Op::Push(rng.below(100) as i64));
            ops.push(Op::Sub);
        }
        // Some statements do extra arithmetic (longer statements).
        for _ in 0..rng.below(6) {
            ops.push(Op::Push(rng.below(10) as i64));
            ops.push(Op::Add);
        }
        let dst = (s as u64 * 7 % 64) as u8;
        if rng.chance(0.15) {
            // Duplicate to print and store.
            ops.push(Op::StoreVar(dst));
            ops.push(Op::LoadVar(dst));
            ops.push(Op::Print);
        } else {
            ops.push(Op::StoreVar(dst));
        }
        ops.push(Op::NextState);
    }
    ops
}

/// Runs a whole program, returning the VM.
pub fn run(program: &[Op], meter: &mut WorkMeter) -> Vm {
    let mut vm = Vm::new();
    for &op in program {
        vm.step(op, meter);
    }
    vm
}

/// The 253.perlbmk workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Perlbmk;

/// perlbmk's loop: one statement of the program an iteration. The tail
/// is a rolling hash of every printed value and the printed-word count:
/// the output-buffer summary the interpreter threads across statements.
struct Runops(Vec<Vec<Op>>);

impl Kernel for Runops {
    type State = Vm;
    type Point = Vm;
    type Seen = ();
    /// The statement that last wrote each variable.
    type Book = BTreeMap<u8, u64>;

    fn start(&self) -> Vm {
        Vm::new()
    }

    fn step(&self, vm: &mut Vm, i: u64) -> Option<(Vec<u8>, u64, ())> {
        let mut meter = WorkMeter::new();
        for &op in self.0.get(i as usize)? {
            vm.step(op, &mut meter);
        }
        let printed = vm.output.drain(..).flat_map(i64::to_le_bytes).collect();
        Some((printed, meter.take().max(1), ()))
    }

    /// The variable file, kept before each chunk of a plan with two or
    /// more seats: at a statement boundary the stack is empty, and a
    /// statement's output is its own.
    fn point(&self, vm: &Vm) -> Option<Vm> {
        Some(Vm {
            vars: vm.vars,
            ..Vm::new()
        })
    }

    fn restore(&self, vm: &Vm) -> Vm {
        vm.clone()
    }

    fn record(&self, last: &mut Self::Book, i: u64, work: u64, _: ()) -> IterationRecord {
        let (reads, writes) = var_sets(&self.0[i as usize]);
        // The real dynamic dependence: reading a var some earlier
        // statement wrote violates the independence speculation.
        let misspec = reads.iter().filter_map(|v| last.get(v).copied()).max();
        last.extend(writes.into_iter().map(|v| (v, i)));
        let mut record = IterationRecord::new(2, work, 1);
        record.misspec_on = misspec;
        record
    }

    fn fold(&self, _: u64, printed: &[u8], acc: &mut [u64]) {
        acc[0] = fnv1a_fold(acc[0], printed);
        acc[1] += printed.len() as u64 / 8;
    }
}

impl Workload for Perlbmk {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "253.perlbmk",
            name: "perlbmk",
            loops: &["Perl_runops_standard (run.c:30)"],
            exec_time_pct: 100,
            lines_changed_all: 0,
            lines_changed_model: 0,
            techniques: &[
                Technique::AliasSpeculation,
                Technique::ControlSpeculation,
                Technique::ValueSpeculation,
                Technique::TlsMemory,
                Technique::Dswp,
            ],
            paper_speedup: 1.21,
            paper_threads: 5,
        }
    }

    fn kernel(&self, size: InputSize) -> KernelLoop {
        let program = generate_program(500 * size.factor() as usize, 0x253);
        KernelLoop::new(Runops(
            statements(&program)
                .into_iter()
                .map(<[Op]>::to_vec)
                .collect(),
        ))
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("253.perlbmk");
        let stack_sp = program.add_global("PL_stack_sp", 1);
        let heap = program.add_global("vm_heap", 1 << 16);
        program.declare_extern("next_op", ExternEffect::pure_fn());
        program.declare_extern(
            "execute_op",
            ExternEffect {
                reads: vec![stack_sp, heap],
                writes: vec![stack_sp, heap],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("Perl_runops_standard");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let op = b.call_ext("next_op", &[], None);
        b.label_last("next_op");
        let res = b.call_ext("execute_op", &[op], None);
        b.label_last("execute");
        // PL_stack_sp is read back each statement — value-speculated.
        let asp = b.global_addr(stack_sp);
        let sp = b.load(asp);
        b.label_last("load_sp");
        let sum = b.binop(IrOp::Add, sp, res);
        b.store(asp, sum);
        b.label_last("store_sp");
        let zero = b.const_(0);
        let done = b.binop(IrOp::CmpEq, op, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        // The profiling pass observes that the stack pointer is stable at
        // statement boundaries and the heap dependences manifest often.
        let mut profile = LoopProfile::with_trip_count(2000);
        let f = program.function(func);
        let sum_def = f
            .inst_ids()
            .find(|i| f.inst(*i).label.as_deref() == Some("store_sp"))
            .and_then(|i| f.inst(i).operands.first().copied());
        if let Some(v) = sum_def {
            profile.values.record(v, 0.99);
        }
        profile
            .memory
            .record_by_label(f, "store_sp", "load_sp", 0.01);
        profile
            .memory
            .record_by_label(f, "execute", "execute", 0.78);
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
    fn arithmetic_executes_correctly() {
        let prog = [
            Op::Push(6),
            Op::Push(7),
            Op::Mul,
            Op::Print,
            Op::NextState,
            Op::Push(10),
            Op::Push(4),
            Op::Sub,
            Op::Print,
        ];
        let mut m = WorkMeter::new();
        let vm = run(&prog, &mut m);
        assert_eq!(vm.output(), &[42, 6]);
    }

    #[test]
    fn variables_carry_across_statements() {
        let prog = [
            Op::Push(5),
            Op::StoreVar(3),
            Op::NextState,
            Op::LoadVar(3),
            Op::Push(1),
            Op::Add,
            Op::Print,
        ];
        let mut m = WorkMeter::new();
        let vm = run(&prog, &mut m);
        assert_eq!(vm.output(), &[6]);
    }

    #[test]
    fn generated_statements_are_stack_balanced() {
        // The paper's value speculation on PL_stack_sp works because
        // statements leave the stack where they found it.
        let prog = generate_program(200, 1);
        let mut vm = Vm::new();
        let mut m = WorkMeter::new();
        for &op in &prog {
            vm.step(op, &mut m);
            if op == Op::NextState {
                assert_eq!(vm.stack_depth(), 0, "unbalanced statement");
            }
        }
    }

    #[test]
    fn var_sets_extract_reads_and_writes() {
        let stmt = [Op::LoadVar(2), Op::Push(1), Op::Add, Op::StoreVar(9)];
        let (r, w) = var_sets(&stmt);
        assert_eq!(r, vec![2]);
        assert_eq!(w, vec![9]);
    }

    #[test]
    fn statements_split_on_nextstate() {
        let prog = generate_program(50, 2);
        assert_eq!(statements(&prog).len(), 50);
    }

    #[test]
    fn trace_is_dominated_by_true_dependences() {
        let t = Perlbmk.trace(InputSize::Test);
        assert!(t.misspec_rate() > 0.75, "misspec rate {}", t.misspec_rate());
        assert!(t.speculative);
    }

    #[test]
    fn most_misspeculations_hit_recent_statements() {
        let t = Perlbmk.trace(InputSize::Test);
        let close = t
            .records()
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.misspec_on.map(|j| i as u64 - j))
            .filter(|d| *d <= 4)
            .count();
        let total = t
            .records()
            .iter()
            .filter(|r| r.misspec_on.is_some())
            .count();
        assert!(close * 2 > total, "{close}/{total} within distance 4");
    }

    #[test]
    fn ir_model_uses_value_speculation() {
        let model = Perlbmk.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(
            result.report().uses(Technique::AliasSpeculation)
                || result.report().uses(Technique::ValueSpeculation)
        );
    }
}
