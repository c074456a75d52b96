//! Natural-loop discovery.
//!
//! The parallelizer targets loops at *any* nesting level — the paper found
//! the useful parallelism at or near the outermost application loop
//! (§2.2) — so the forest records the full nest with parent links.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::Function;
use crate::ids::{BlockId, InstId};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a loop within a [`LoopForest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

/// A natural loop: a header block plus the body reachable backwards from
/// its latches.
#[derive(Clone, Debug, PartialEq)]
pub struct Loop {
    /// The unique header (target of the back edges).
    pub header: BlockId,
    /// Source blocks of back edges into the header.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, including the header, in ascending order.
    pub blocks: Vec<BlockId>,
    /// Immediately enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Nesting depth; `0` for outermost loops.
    pub depth: u32,
}

impl Loop {
    /// Whether `block` belongs to this loop.
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.binary_search(&block).is_ok()
    }
}

/// The set of natural loops of a function, organized as a forest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopForest {
    loops: Vec<Loop>,
}

impl LoopForest {
    /// Discovers all natural loops of `func`.
    ///
    /// Back edges are CFG edges `latch -> header` where `header` dominates
    /// `latch`. Loops sharing a header are merged. Irreducible cycles
    /// (with no dominating header) are not reported.
    pub fn build(func: &Function) -> Self {
        let cfg = Cfg::build(func);
        let dom = DomTree::dominators(&cfg);
        // Collect back edges grouped by header.
        let mut headers: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for b in cfg.reverse_postorder().iter().copied() {
            for s in cfg.succs(b) {
                if dom.dominates(*s, b) {
                    match headers.iter_mut().find(|(h, _)| h == s) {
                        Some((_, latches)) => latches.push(b),
                        None => headers.push((*s, vec![b])),
                    }
                }
            }
        }
        // Natural-loop body: header plus all blocks that reach a latch
        // without passing through the header.
        let mut loops = Vec::new();
        for (header, latches) in headers {
            let mut body: BTreeSet<BlockId> = BTreeSet::new();
            body.insert(header);
            let mut stack: Vec<BlockId> = Vec::new();
            for &l in &latches {
                if body.insert(l) {
                    stack.push(l);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in cfg.preds(b) {
                    if dom.contains(p) && body.insert(p) {
                        stack.push(p);
                    }
                }
            }
            loops.push(Loop {
                header,
                latches,
                blocks: body.into_iter().collect(),
                parent: None,
                depth: 0,
            });
        }
        // Order outer loops before inner ones (by body size, descending)
        // so parent assignment can scan earlier entries.
        loops.sort_by(|a, b| {
            b.blocks
                .len()
                .cmp(&a.blocks.len())
                .then(a.header.cmp(&b.header))
        });
        for i in 0..loops.len() {
            // The parent is the smallest loop strictly containing this one.
            let mut parent: Option<usize> = None;
            for j in 0..i {
                if i != j
                    && loops[j].blocks.len() > loops[i].blocks.len()
                    && loops[i].blocks.iter().all(|b| loops[j].contains(*b))
                {
                    parent = Some(match parent {
                        None => j,
                        Some(p) if loops[j].blocks.len() < loops[p].blocks.len() => j,
                        Some(p) => p,
                    });
                }
            }
            loops[i].parent = parent.map(|p| LoopId(p as u32));
            loops[i].depth = parent.map_or(0, |p| loops[p].depth + 1);
        }
        Self { loops }
    }

    /// The loop with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.0 as usize]
    }

    /// Iterates over all loops, outermost first.
    pub fn loops(&self) -> impl Iterator<Item = (LoopId, &Loop)> {
        self.loops
            .iter()
            .enumerate()
            .map(|(i, l)| (LoopId(i as u32), l))
    }

    /// The number of loops discovered.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether no loops were discovered.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Finds the loop headed at `header`, if any.
    pub fn loop_with_header(&self, header: BlockId) -> Option<LoopId> {
        self.loops
            .iter()
            .position(|l| l.header == header)
            .map(|i| LoopId(i as u32))
    }

    /// The innermost loop containing `block`, if any.
    pub fn innermost_containing(&self, block: BlockId) -> Option<LoopId> {
        self.loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains(block))
            .min_by_key(|(_, l)| l.blocks.len())
            .map(|(i, _)| LoopId(i as u32))
    }

    /// All instruction ids inside the body of `id`, in block order.
    pub fn body_insts(&self, id: LoopId, func: &Function) -> Vec<InstId> {
        self.get(id)
            .blocks
            .iter()
            .flat_map(|b| func.block(*b).insts.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    /// entry -> outer_header -> inner_header -> inner_body -> inner_header
    ///                       \-> exit          \-> outer_latch -> outer_header
    fn nested_loops() -> Function {
        let mut b = FunctionBuilder::new("nested");
        let oh = b.add_block("outer_header");
        let ih = b.add_block("inner_header");
        let ib = b.add_block("inner_body");
        let ol = b.add_block("outer_latch");
        let exit = b.add_block("exit");
        b.jump(oh);
        b.switch_to(oh);
        let c1 = b.const_(1);
        b.cond_branch(c1, ih, exit);
        b.switch_to(ih);
        let c2 = b.const_(1);
        b.cond_branch(c2, ib, ol);
        b.switch_to(ib);
        b.jump(ih);
        b.switch_to(ol);
        b.jump(oh);
        b.switch_to(exit);
        b.ret(None);
        b.into_function()
    }

    use crate::function::Function;

    #[test]
    fn finds_nested_loops_with_parent_links() {
        let f = nested_loops();
        let forest = LoopForest::build(&f);
        assert_eq!(forest.len(), 2);
        let outer = forest.loop_with_header(BlockId::new(1)).unwrap();
        let inner = forest.loop_with_header(BlockId::new(2)).unwrap();
        assert_eq!(forest.get(outer).depth, 0);
        assert_eq!(forest.get(inner).depth, 1);
        assert_eq!(forest.get(inner).parent, Some(outer));
        assert_eq!(forest.get(outer).parent, None);
        // Outer body contains the inner loop entirely.
        for b in &forest.get(inner).blocks {
            assert!(forest.get(outer).contains(*b));
        }
        // Exit is outside both loops.
        assert!(!forest.get(outer).contains(BlockId::new(5)));
    }

    #[test]
    fn innermost_containing_picks_smallest_loop() {
        let f = nested_loops();
        let forest = LoopForest::build(&f);
        let inner = forest.loop_with_header(BlockId::new(2)).unwrap();
        let outer = forest.loop_with_header(BlockId::new(1)).unwrap();
        assert_eq!(forest.innermost_containing(BlockId::new(3)), Some(inner));
        assert_eq!(forest.innermost_containing(BlockId::new(4)), Some(outer));
        assert_eq!(forest.innermost_containing(BlockId::new(5)), None);
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut b = FunctionBuilder::new("f");
        let v = b.const_(1);
        b.ret(Some(v));
        let forest = LoopForest::build(&b.into_function());
        assert!(forest.is_empty());
    }

    #[test]
    fn self_loop_is_a_loop_of_one_block() {
        let mut b = FunctionBuilder::new("f");
        let body = b.add_block("body");
        let exit = b.add_block("exit");
        b.jump(body);
        b.switch_to(body);
        let c = b.const_(1);
        b.cond_branch(c, body, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.into_function();
        let forest = LoopForest::build(&f);
        assert_eq!(forest.len(), 1);
        let (_, l) = forest.loops().next().unwrap();
        assert_eq!(l.blocks, vec![body]);
        assert_eq!(l.latches, vec![body]);
    }

    #[test]
    fn body_insts_collects_loop_instructions() {
        let f = nested_loops();
        let forest = LoopForest::build(&f);
        let outer = forest.loop_with_header(BlockId::new(1)).unwrap();
        // c1 (header) and c2 (inner header) are inside the outer loop.
        assert_eq!(forest.body_insts(outer, &f).len(), 2);
    }
}
