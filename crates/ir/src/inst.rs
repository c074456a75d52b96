//! Instructions, opcodes, memory references, and terminators.

use crate::ids::{BlockId, FuncId, MemObjId, ValueId};
use std::fmt;

/// A commutative-group identifier.
///
/// Calls annotated `Commutative` with the same group share internal state
/// and must execute atomically with respect to one another, but may execute
/// in **any order** (paper §2.3.2). `malloc` and `free`, for example,
/// belong to one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommGroupId(pub u32);

impl fmt::Display for CommGroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comm{}", self.0)
    }
}

/// The Y-branch annotation attached to a conditional branch (paper §2.3.1).
///
/// Semantics: for any dynamic instance the *true* path may legally be taken
/// regardless of the branch condition. The `probability` communicates how
/// often taking the true path is acceptable — e.g. `1e-5` on a
/// dictionary-reset branch tells the compiler not to force a reset more than
/// about once per 100 000 iterations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct YBranchHint {
    /// Maximum acceptable frequency of compiler-forced true-path takes, as
    /// a fraction of dynamic executions of this branch.
    pub probability: f64,
}

impl YBranchHint {
    /// Creates a hint with the given probability.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not within `0.0..=1.0`.
    pub fn new(probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "Y-branch probability must be within [0, 1], got {probability}"
        );
        Self { probability }
    }

    /// The interval, in dynamic branch executions, at which the compiler
    /// may force the true path (the reciprocal of the probability).
    pub fn interval(&self) -> u64 {
        if self.probability <= 0.0 {
            u64::MAX
        } else {
            (1.0 / self.probability).round() as u64
        }
    }
}

/// A reference to abstract memory used by loads and stores.
///
/// The `base` is a pointer-valued virtual register; alias analysis resolves
/// it to a points-to set of [`MemObjId`]s. An optional `index` value models
/// array subscripts, and `field` models structure fields — two references
/// to distinct fields of the same object never alias (the paper exploits
/// this in 176.gcc, where bit-flags sharing a byte caused spurious
/// conflicts until split into separate locations).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Pointer operand (a virtual register holding an address).
    pub base: ValueId,
    /// Optional index operand (dynamic subscript).
    pub index: Option<ValueId>,
    /// Optional static field offset within the pointed-to object.
    pub field: Option<u32>,
}

impl MemRef {
    /// A direct reference through `base` with no index or field.
    pub fn direct(base: ValueId) -> Self {
        Self {
            base,
            index: None,
            field: None,
        }
    }

    /// A reference to a static field of the pointed-to object.
    pub fn field(base: ValueId, field: u32) -> Self {
        Self {
            base,
            index: None,
            field: Some(field),
        }
    }

    /// A reference subscripted by a dynamic index value.
    pub fn indexed(base: ValueId, index: ValueId) -> Self {
        Self {
            base,
            index: Some(index),
            field: None,
        }
    }
}

/// The target of a call instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Callee {
    /// A function defined in the enclosing [`crate::Program`].
    Internal(FuncId),
    /// An external function known only by name and effect summary.
    External(String),
}

/// A summary of the memory effects of an external function.
///
/// Whole-program scope (paper §2.2) lets the compiler see through calls;
/// for externals we approximate that visibility with a declared summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExternEffect {
    /// Abstract objects the function may read.
    pub reads: Vec<MemObjId>,
    /// Abstract objects the function may write.
    pub writes: Vec<MemObjId>,
    /// Whether the function may read or write *any* memory (e.g. `memcpy`
    /// through unknown pointers). Overrides `reads`/`writes` when true.
    pub clobbers_all: bool,
    /// Whether the function allocates a fresh object each call (`malloc`).
    pub allocates: bool,
}

impl ExternEffect {
    /// An effect summary for a pure function (no memory effects).
    pub fn pure_fn() -> Self {
        Self::default()
    }

    /// An effect summary that clobbers all memory.
    pub fn clobber_all() -> Self {
        Self {
            clobbers_all: true,
            ..Self::default()
        }
    }

    /// Every global the declared summary names, reads before writes.
    /// The *region* of an external function: the memory it is allowed
    /// to touch. Meaningless when [`Self::is_bounded`] is false.
    pub fn declared_objects(&self) -> impl Iterator<Item = MemObjId> + '_ {
        self.reads.iter().chain(self.writes.iter()).copied()
    }

    /// Whether the summary names every object the function may touch.
    /// Unbounded summaries (`clobbers_all`) have no finite region and
    /// are opaque to region-based inference.
    pub fn is_bounded(&self) -> bool {
        !self.clobbers_all
    }
}

/// Instruction opcodes.
///
/// The arithmetic subset is deliberately small: dependence analysis only
/// cares about the def/use shape of an instruction, not its exact
/// semantics. Memory and control effects are what the parallelizer reasons
/// about.
#[derive(Clone, Debug, PartialEq)]
pub enum Opcode {
    /// Integer constant.
    Const(i64),
    /// Copy of another value.
    Copy,
    /// Binary addition.
    Add,
    /// Binary subtraction.
    Sub,
    /// Binary multiplication.
    Mul,
    /// Binary division.
    Div,
    /// Binary remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Right shift.
    Shr,
    /// Equality comparison.
    CmpEq,
    /// Inequality comparison.
    CmpNe,
    /// Signed less-than comparison.
    CmpLt,
    /// Signed less-or-equal comparison.
    CmpLe,
    /// SSA phi node; operands pair positionally with the predecessor list
    /// of the containing block.
    Phi,
    /// Take the address of a global or stack object.
    AddrOf(MemObjId),
    /// Pointer arithmetic: derive a pointer from another pointer.
    Gep,
    /// Load from memory.
    Load(MemRef),
    /// Store to memory; the stored value is the first operand.
    Store(MemRef),
    /// Call to an internal or external function.
    Call {
        /// The call target.
        callee: Callee,
        /// `Some` when the call site is annotated *Commutative*.
        commutative: Option<CommGroupId>,
    },
}

impl Opcode {
    /// Whether this opcode may read memory.
    pub fn may_read_memory(&self) -> bool {
        matches!(self, Opcode::Load(_) | Opcode::Call { .. })
    }

    /// Whether this opcode may write memory.
    pub fn may_write_memory(&self) -> bool {
        matches!(self, Opcode::Store(_) | Opcode::Call { .. })
    }

    /// Whether this opcode is a call.
    pub fn is_call(&self) -> bool {
        matches!(self, Opcode::Call { .. })
    }
}

/// A single instruction.
///
/// An instruction optionally defines one SSA value (`def`) and uses zero or
/// more values (`operands`). Loads and stores additionally reference
/// memory through the opcode's [`MemRef`].
#[derive(Clone, Debug, PartialEq)]
pub struct Inst {
    /// The operation performed.
    pub opcode: Opcode,
    /// The SSA value defined by this instruction, if any.
    pub def: Option<ValueId>,
    /// The values used by this instruction.
    pub operands: Vec<ValueId>,
    /// Optional source-level label used in diagnostics and reports.
    pub label: Option<String>,
}

impl Inst {
    /// Creates an instruction with no label.
    pub fn new(opcode: Opcode, def: Option<ValueId>, operands: Vec<ValueId>) -> Self {
        Self {
            opcode,
            def,
            operands,
            label: None,
        }
    }

    /// Attaches a diagnostic label, returning `self` for chaining.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// Basic-block terminators.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on a value.
    CondBranch {
        /// Branch condition.
        cond: ValueId,
        /// Successor when the condition is true (non-zero).
        then_block: BlockId,
        /// Successor when the condition is false (zero).
        else_block: BlockId,
        /// `Some` when this branch carries a Y-branch annotation.
        ybranch: Option<YBranchHint>,
    },
    /// Return from the function with an optional value.
    Return(Option<ValueId>),
    /// Placeholder for a block under construction; invalid in finished IR.
    Unterminated,
}

impl Terminator {
    /// The successor blocks of this terminator, in branch order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::CondBranch {
                then_block,
                else_block,
                ..
            } => {
                vec![*then_block, *else_block]
            }
            Terminator::Return(_) | Terminator::Unterminated => Vec::new(),
        }
    }

    /// The condition value, for conditional branches.
    pub fn condition(&self) -> Option<ValueId> {
        match self {
            Terminator::CondBranch { cond, .. } => Some(*cond),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ybranch_interval_is_reciprocal_of_probability() {
        let hint = YBranchHint::new(0.00001);
        assert_eq!(hint.interval(), 100_000);
        assert_eq!(YBranchHint::new(0.0).interval(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn ybranch_rejects_out_of_range_probability() {
        let _ = YBranchHint::new(1.5);
    }

    #[test]
    fn memref_constructors_set_expected_parts() {
        let base = ValueId::new(0);
        let idx = ValueId::new(1);
        assert_eq!(MemRef::direct(base).field, None);
        assert_eq!(MemRef::field(base, 3).field, Some(3));
        assert_eq!(MemRef::indexed(base, idx).index, Some(idx));
    }

    #[test]
    fn opcode_memory_effect_classification() {
        let base = ValueId::new(0);
        assert!(Opcode::Load(MemRef::direct(base)).may_read_memory());
        assert!(!Opcode::Load(MemRef::direct(base)).may_write_memory());
        assert!(Opcode::Store(MemRef::direct(base)).may_write_memory());
        assert!(!Opcode::Add.may_read_memory());
        let call = Opcode::Call {
            callee: Callee::External("f".into()),
            commutative: None,
        };
        assert!(call.may_read_memory() && call.may_write_memory() && call.is_call());
    }

    #[test]
    fn terminator_successors_in_branch_order() {
        let t = Terminator::CondBranch {
            cond: ValueId::new(0),
            then_block: BlockId::new(1),
            else_block: BlockId::new(2),
            ybranch: None,
        };
        assert_eq!(t.successors(), vec![BlockId::new(1), BlockId::new(2)]);
        assert_eq!(Terminator::Return(None).successors(), Vec::new());
        assert_eq!(t.condition(), Some(ValueId::new(0)));
    }
}
