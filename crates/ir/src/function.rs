//! Functions and basic blocks.

use crate::ids::{BlockId, InstId, ValueId};
use crate::inst::{Inst, Terminator};

/// A basic block: a straight-line sequence of instructions ending in a
/// [`Terminator`].
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Human-readable name used by the printer.
    pub name: String,
    /// Instructions in execution order.
    pub insts: Vec<InstId>,
    /// The block terminator.
    pub terminator: Terminator,
}

impl Block {
    /// Creates an empty, unterminated block.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            insts: Vec::new(),
            terminator: Terminator::Unterminated,
        }
    }
}

/// A function: an arena of instructions organized into basic blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Formal parameters (SSA values live on entry).
    pub params: Vec<ValueId>,
    /// Entry block.
    pub entry: BlockId,
    blocks: Vec<Block>,
    insts: Vec<Inst>,
    value_count: u32,
}

impl Function {
    /// Creates an empty function with a fresh entry block.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: Vec::new(),
            entry: BlockId::new(0),
            blocks: vec![Block::new("entry")],
            insts: Vec::new(),
            value_count: 0,
        }
    }

    /// Allocates a fresh SSA value.
    pub fn new_value(&mut self) -> ValueId {
        let id = ValueId::new(self.value_count);
        self.value_count += 1;
        id
    }

    /// The number of SSA values allocated so far.
    pub fn value_count(&self) -> usize {
        self.value_count as usize
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::new(self.blocks.len() as u32);
        self.blocks.push(Block::new(name));
        id
    }

    /// Appends an instruction to a block and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn push_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let id = InstId::new(self.insts.len() as u32);
        self.insts.push(inst);
        self.blocks[block.index()].insts.push(id);
        id
    }

    /// Inserts an instruction into `block` immediately *before* the
    /// instruction `before`, returning the new instruction's id. Used by
    /// transformation passes such as inlining.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range or `before` is not in `block`.
    pub fn insert_inst_before(&mut self, block: BlockId, before: InstId, inst: Inst) -> InstId {
        let id = InstId::new(self.insts.len() as u32);
        self.insts.push(inst);
        let list = &mut self.blocks[block.index()].insts;
        let pos = list
            .iter()
            .position(|i| *i == before)
            .unwrap_or_else(|| panic!("{before} is not in {block}"));
        list.insert(pos, id);
        id
    }

    /// Sets the terminator of a block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn set_terminator(&mut self, block: BlockId, term: Terminator) {
        self.blocks[block.index()].terminator = term;
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Returns the instruction with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Mutable access to an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    /// Iterates over all block ids in arena order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId::new)
    }

    /// Iterates over all instruction ids in arena order.
    pub fn inst_ids(&self) -> impl Iterator<Item = InstId> + '_ {
        (0..self.insts.len() as u32).map(InstId::new)
    }

    /// The number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The number of instructions.
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Finds the block containing an instruction (linear scan).
    pub fn block_of(&self, inst: InstId) -> Option<BlockId> {
        self.block_ids()
            .find(|b| self.block(*b).insts.contains(&inst))
    }

    /// Finds the unique instruction defining `value`, if any.
    pub fn def_of(&self, value: ValueId) -> Option<InstId> {
        self.inst_ids().find(|i| self.inst(*i).def == Some(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Opcode;

    #[test]
    fn function_starts_with_entry_block() {
        let f = Function::new("f");
        assert_eq!(f.block_count(), 1);
        assert_eq!(f.block(f.entry).name, "entry");
        assert!(matches!(
            f.block(f.entry).terminator,
            Terminator::Unterminated
        ));
    }

    #[test]
    fn push_inst_appends_to_block_in_order() {
        let mut f = Function::new("f");
        let v0 = f.new_value();
        let v1 = f.new_value();
        let i0 = f.push_inst(f.entry, Inst::new(Opcode::Const(1), Some(v0), vec![]));
        let i1 = f.push_inst(f.entry, Inst::new(Opcode::Copy, Some(v1), vec![v0]));
        assert_eq!(f.block(f.entry).insts, vec![i0, i1]);
        assert_eq!(f.inst_count(), 2);
        assert_eq!(f.def_of(v1), Some(i1));
        assert_eq!(f.block_of(i1), Some(f.entry));
    }

    #[test]
    fn value_ids_are_dense() {
        let mut f = Function::new("f");
        let a = f.new_value();
        let b = f.new_value();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(f.value_count(), 2);
    }
}
