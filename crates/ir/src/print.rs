//! Textual printing of IR for diagnostics and golden tests.

use crate::function::Function;
use crate::ids::InstId;
use crate::inst::{Callee, Opcode, Terminator};
use crate::program::Program;
use std::fmt::Write as _;

/// Renders a function as human-readable text.
///
/// The format is stable enough for golden tests but is not a parseable
/// serialization.
pub fn function_to_string(func: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = func
        .params
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let _ = writeln!(out, "func @{}({}) {{", func.name, params.join(", "));
    for b in func.block_ids() {
        let block = func.block(b);
        let _ = writeln!(out, "{b} ({}):", block.name);
        for &i in &block.insts {
            let _ = writeln!(out, "  {}", inst_to_string(func, i));
        }
        let term = match &block.terminator {
            Terminator::Jump(t) => format!("jump {t}"),
            Terminator::CondBranch {
                cond,
                then_block,
                else_block,
                ybranch,
            } => {
                let y = ybranch
                    .map(|h| format!(" @YBRANCH(probability={})", h.probability))
                    .unwrap_or_default();
                format!("br {cond}, {then_block}, {else_block}{y}")
            }
            Terminator::Return(Some(v)) => format!("ret {v}"),
            Terminator::Return(None) => "ret".to_string(),
            Terminator::Unterminated => "<unterminated>".to_string(),
        };
        let _ = writeln!(out, "  {term}");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders a single instruction as text.
pub fn inst_to_string(func: &Function, id: InstId) -> String {
    let inst = func.inst(id);
    let def = inst.def.map(|d| format!("{d} = ")).unwrap_or_default();
    let ops: Vec<String> = inst
        .operands
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let ops = ops.join(", ");
    let body = match &inst.opcode {
        Opcode::Const(c) => format!("const {c}"),
        Opcode::Copy => format!("copy {ops}"),
        Opcode::Add => format!("add {ops}"),
        Opcode::Sub => format!("sub {ops}"),
        Opcode::Mul => format!("mul {ops}"),
        Opcode::Div => format!("div {ops}"),
        Opcode::Rem => format!("rem {ops}"),
        Opcode::And => format!("and {ops}"),
        Opcode::Or => format!("or {ops}"),
        Opcode::Xor => format!("xor {ops}"),
        Opcode::Shl => format!("shl {ops}"),
        Opcode::Shr => format!("shr {ops}"),
        Opcode::CmpEq => format!("cmpeq {ops}"),
        Opcode::CmpNe => format!("cmpne {ops}"),
        Opcode::CmpLt => format!("cmplt {ops}"),
        Opcode::CmpLe => format!("cmple {ops}"),
        Opcode::Phi => format!("phi {ops}"),
        Opcode::AddrOf(obj) => format!("addrof {obj}"),
        Opcode::Gep => format!("gep {ops}"),
        Opcode::Load(m) => format!("load {}{}", mem_suffix(m), ops),
        Opcode::Store(m) => format!("store {}{}", mem_suffix(m), ops),
        Opcode::Call {
            callee,
            commutative,
        } => {
            let name = match callee {
                Callee::Internal(f) => format!("{f}"),
                Callee::External(n) => format!("@{n}"),
            };
            let comm = commutative
                .map(|g| format!(" @COMMUTATIVE({g})"))
                .unwrap_or_default();
            format!("call {name}({ops}){comm}")
        }
    };
    let label = inst
        .label
        .as_deref()
        .map(|l| format!("  ; {l}"))
        .unwrap_or_default();
    format!("{id}: {def}{body}{label}")
}

fn mem_suffix(m: &crate::inst::MemRef) -> String {
    let mut s = String::new();
    if let Some(f) = m.field {
        let _ = write!(s, ".f{f} ");
    }
    if m.index.is_some() {
        let _ = write!(s, "[idx] ");
    }
    s
}

/// Renders a whole program as text.
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", program.name);
    for g in program.global_ids() {
        let global = program.global(g);
        let _ = writeln!(out, "global {g} {} [{}]", global.name, global.size);
    }
    for f in program.function_ids() {
        out.push_str(&function_to_string(program.function(f)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{CommGroupId, YBranchHint};

    #[test]
    fn prints_annotated_branch_and_call() {
        let mut p = Program::new("demo");
        let mut b = FunctionBuilder::new("f");
        let t = b.add_block("t");
        let e = b.add_block("e");
        let r = b.call_ext("rng", &[], Some(CommGroupId(2)));
        b.ybranch(r, t, e, YBranchHint::new(0.25));
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        b.finish(&mut p);
        let text = program_to_string(&p);
        assert!(text.contains("@COMMUTATIVE(comm2)"), "{text}");
        assert!(text.contains("@YBRANCH(probability=0.25)"), "{text}");
        assert!(text.contains("call @rng()"), "{text}");
    }

    #[test]
    fn prints_labels_as_comments() {
        let mut b = FunctionBuilder::new("f");
        let _ = b.const_(5);
        b.label_last("the answer-ish");
        b.ret(None);
        let f = b.into_function();
        let text = function_to_string(&f);
        assert!(text.contains("; the answer-ish"), "{text}");
    }

    #[test]
    fn golden_print_of_a_representative_function() {
        use crate::inst::MemRef;
        let mut p = Program::new("golden");
        let g = p.add_global("g", 4);
        let mut b = FunctionBuilder::new("f");
        let x = b.add_param();
        let c = b.const_(3);
        let sum = b.binop(crate::inst::Opcode::Add, x, c);
        let a = b.global_addr(g);
        let ptr = b.gep(a, sum);
        let v = b.load_ref(MemRef::field(ptr, 2));
        b.store(ptr, v);
        b.ret(Some(v));
        b.finish(&mut p);
        let text = program_to_string(&p);
        let expected = "\
program golden
global #m0 g [4]
func @f(%v0) {
bb0 (entry):
  i0: %v1 = const 3
  i1: %v2 = add %v0, %v1
  i2: %v3 = addrof #m0
  i3: %v4 = gep %v3, %v2
  i4: %v5 = load .f2 %v4
  i5: store %v5, %v4
  ret %v5
}
";
        assert_eq!(text, expected);
    }

    #[test]
    fn debug_output_is_never_empty() {
        let f = FunctionBuilder::new("empty").into_function();
        assert!(!function_to_string(&f).is_empty());
    }
}
