//! 255.vortex — object-oriented database transactions (paper §4.1.2).
//!
//! A real B-tree keyed store executes lookup/delete/create transactions,
//! mirroring vortex's `BMT_Test` loop over `Lookup`, `Delete`, and
//! `Create` parts. The paper's parallelization runs the iterations of
//! `BMT_CreateParts` / `BMT_DeleteParts` speculatively in parallel and
//! needs two speculations:
//!
//! * **value speculation** on the ubiquitous `STATUS` variable — almost
//!   every call returns `NORMAL`, so the loop-carried `STATUS` chain is
//!   predicted around the backedge; a failing operation violates it;
//! * **alias speculation** on the database's internal B-tree — usually a
//!   transaction touches disjoint leaves, but "the rare case that an
//!   update ... is dependent on a previous update's modification of the
//!   internal representation": node splits and merges. Those rebalances
//!   are real events of the B-tree here and are the limiting factor, as
//!   in the paper.

use crate::common::{InputSize, IrModel, Prng, WorkMeter, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{RestorePoints, VersionedJob};
use seqpar::{IterationRecord, IterationTrace, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{ExternEffect, FunctionBuilder, Opcode, Program};
use std::sync::Arc;

/// Minimum degree of the B-tree (CLRS `t`): nodes hold `t-1..=2t-1` keys.
/// Small nodes rebalance often — vortex's B-tree pages are shallow.
const T: usize = 6;

/// A node shares its children with every tree cloned from it. A writer
/// reaches a child through [`Arc::make_mut`], which copies it only while
/// another tree still holds it: a mutation copies the path it walks.
#[derive(Clone, Debug, Default)]
struct Node {
    keys: Vec<u64>,
    vals: Vec<u64>,
    children: Vec<Arc<Node>>,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// Operation status, vortex's `STATUS` variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Success.
    Normal,
    /// The key was absent.
    NotFound,
}

/// A B-tree keyed store that counts its structural changes.
///
/// Persistent: a clone shares every node with the original and costs
/// O(1), and a later mutation of either copies only the nodes on its
/// root-to-leaf path, so neither ever sees the other's edits.
#[derive(Clone, Debug)]
pub struct BTree {
    root: Arc<Node>,
    /// Node splits performed.
    pub splits: u64,
    /// Node merges performed.
    pub merges: u64,
    /// Key borrows between siblings.
    pub borrows: u64,
    len: usize,
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: Arc::default(),
            splits: 0,
            merges: 0,
            borrows: 0,
            len: 0,
        }
    }

    /// The number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total structural changes so far (splits + merges + borrows).
    pub fn rebalances(&self) -> u64 {
        self.splits + self.merges + self.borrows
    }

    /// Looks up `key`, metering nodes visited.
    pub fn lookup(&self, key: u64, meter: &mut WorkMeter) -> Option<u64> {
        let mut node = &self.root;
        loop {
            meter.add(2);
            match node.keys.binary_search(&key) {
                Ok(i) => return Some(node.vals[i]),
                Err(i) => {
                    if node.is_leaf() {
                        return None;
                    }
                    node = &node.children[i];
                }
            }
        }
    }

    /// Inserts `key -> val`, metering work; replaces existing values.
    pub fn insert(&mut self, key: u64, val: u64, meter: &mut WorkMeter) -> Status {
        if self.root.keys.len() == 2 * T - 1 {
            // Grow the tree: split the root.
            let old_root = std::mem::take(&mut self.root);
            let root = Arc::make_mut(&mut self.root);
            root.children.push(old_root);
            Self::split_child_of(root, 0, meter);
            self.splits += 1;
        }
        let root = Arc::make_mut(&mut self.root);
        if Self::insert_nonfull(root, key, val, meter, &mut self.splits) {
            self.len += 1;
        }
        Status::Normal
    }

    fn split_child_of(parent: &mut Node, i: usize, meter: &mut WorkMeter) {
        meter.add(2 * T as u64);
        let child = Arc::make_mut(&mut parent.children[i]);
        let mut right = Node {
            keys: child.keys.split_off(T),
            vals: child.vals.split_off(T),
            children: Vec::new(),
        };
        if !child.is_leaf() {
            right.children = child.children.split_off(T);
        }
        let mid_key = child.keys.pop().expect("full child");
        let mid_val = child.vals.pop().expect("full child");
        parent.keys.insert(i, mid_key);
        parent.vals.insert(i, mid_val);
        parent.children.insert(i + 1, Arc::new(right));
    }

    fn insert_nonfull(
        node: &mut Node,
        key: u64,
        val: u64,
        meter: &mut WorkMeter,
        splits: &mut u64,
    ) -> bool {
        meter.add(2);
        match node.keys.binary_search(&key) {
            Ok(i) => {
                node.vals[i] = val;
                false
            }
            Err(i) => {
                if node.is_leaf() {
                    node.keys.insert(i, key);
                    node.vals.insert(i, val);
                    true
                } else {
                    let mut i = i;
                    if node.children[i].keys.len() == 2 * T - 1 {
                        Self::split_child_of(node, i, meter);
                        *splits += 1;
                        match node.keys[i].cmp(&key) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Equal => {
                                node.vals[i] = val;
                                return false;
                            }
                            std::cmp::Ordering::Greater => {}
                        }
                    }
                    let child = Arc::make_mut(&mut node.children[i]);
                    Self::insert_nonfull(child, key, val, meter, splits)
                }
            }
        }
    }

    /// Deletes `key`, metering work.
    pub fn delete(&mut self, key: u64, meter: &mut WorkMeter) -> Status {
        let found = Self::delete_from(
            Arc::make_mut(&mut self.root),
            key,
            meter,
            &mut self.merges,
            &mut self.borrows,
        );
        if found {
            self.len -= 1;
        }
        // Shrink the root when it empties.
        if self.root.keys.is_empty() && !self.root.is_leaf() {
            self.root = Arc::make_mut(&mut self.root).children.remove(0);
        }
        if found {
            Status::Normal
        } else {
            Status::NotFound
        }
    }

    fn delete_from(
        node: &mut Node,
        key: u64,
        meter: &mut WorkMeter,
        merges: &mut u64,
        borrows: &mut u64,
    ) -> bool {
        meter.add(2);
        match node.keys.binary_search(&key) {
            Ok(i) => {
                if node.is_leaf() {
                    node.keys.remove(i);
                    node.vals.remove(i);
                    true
                } else if node.children[i].keys.len() >= T {
                    // Replace with predecessor.
                    let (pk, pv) = Self::max_entry(&node.children[i], meter);
                    node.keys[i] = pk;
                    node.vals[i] = pv;
                    let child = Arc::make_mut(&mut node.children[i]);
                    Self::delete_from(child, pk, meter, merges, borrows)
                } else if node.children[i + 1].keys.len() >= T {
                    let (sk, sv) = Self::min_entry(&node.children[i + 1], meter);
                    node.keys[i] = sk;
                    node.vals[i] = sv;
                    let child = Arc::make_mut(&mut node.children[i + 1]);
                    Self::delete_from(child, sk, meter, merges, borrows)
                } else {
                    Self::merge_children(node, i, meter);
                    *merges += 1;
                    let child = Arc::make_mut(&mut node.children[i]);
                    Self::delete_from(child, key, meter, merges, borrows)
                }
            }
            Err(i) => {
                if node.is_leaf() {
                    return false;
                }
                let mut i = i;
                if node.children[i].keys.len() < T {
                    i = Self::fill_child(node, i, meter, merges, borrows);
                }
                let child = Arc::make_mut(&mut node.children[i]);
                Self::delete_from(child, key, meter, merges, borrows)
            }
        }
    }

    fn max_entry(node: &Node, meter: &mut WorkMeter) -> (u64, u64) {
        let mut n = node;
        while !n.is_leaf() {
            meter.add(1);
            n = n.children.last().expect("internal node has children");
        }
        (
            *n.keys.last().expect("non-empty"),
            *n.vals.last().expect("non-empty"),
        )
    }

    fn min_entry(node: &Node, meter: &mut WorkMeter) -> (u64, u64) {
        let mut n = node;
        while !n.is_leaf() {
            meter.add(1);
            n = &n.children[0];
        }
        (n.keys[0], n.vals[0])
    }

    /// Ensures `children[i]` has at least `T` keys; returns the index of
    /// the child to descend into (it may shift after a merge).
    fn fill_child(
        node: &mut Node,
        i: usize,
        meter: &mut WorkMeter,
        merges: &mut u64,
        borrows: &mut u64,
    ) -> usize {
        meter.add(4);
        if i > 0 && node.children[i - 1].keys.len() >= T {
            // Borrow from the left sibling through the separator.
            *borrows += 1;
            let (k, v, c) = {
                let left = Arc::make_mut(&mut node.children[i - 1]);
                (
                    left.keys.pop().expect("rich sibling"),
                    left.vals.pop().expect("rich sibling"),
                    if left.is_leaf() {
                        None
                    } else {
                        left.children.pop()
                    },
                )
            };
            let sep_k = std::mem::replace(&mut node.keys[i - 1], k);
            let sep_v = std::mem::replace(&mut node.vals[i - 1], v);
            let child = Arc::make_mut(&mut node.children[i]);
            child.keys.insert(0, sep_k);
            child.vals.insert(0, sep_v);
            if let Some(c) = c {
                child.children.insert(0, c);
            }
            i
        } else if i + 1 < node.children.len() && node.children[i + 1].keys.len() >= T {
            *borrows += 1;
            let (k, v, c) = {
                let right = Arc::make_mut(&mut node.children[i + 1]);
                let c = if right.is_leaf() {
                    None
                } else {
                    Some(right.children.remove(0))
                };
                (right.keys.remove(0), right.vals.remove(0), c)
            };
            let sep_k = std::mem::replace(&mut node.keys[i], k);
            let sep_v = std::mem::replace(&mut node.vals[i], v);
            let child = Arc::make_mut(&mut node.children[i]);
            child.keys.push(sep_k);
            child.vals.push(sep_v);
            if let Some(c) = c {
                child.children.push(c);
            }
            i
        } else if i + 1 < node.children.len() {
            Self::merge_children(node, i, meter);
            *merges += 1;
            i
        } else {
            Self::merge_children(node, i - 1, meter);
            *merges += 1;
            i - 1
        }
    }

    /// Merges `children[i]`, the separator, and `children[i+1]`.
    fn merge_children(node: &mut Node, i: usize, meter: &mut WorkMeter) {
        meter.add(2 * T as u64);
        let right = Arc::unwrap_or_clone(node.children.remove(i + 1));
        let k = node.keys.remove(i);
        let v = node.vals.remove(i);
        let left = Arc::make_mut(&mut node.children[i]);
        left.keys.push(k);
        left.vals.push(v);
        left.keys.extend(right.keys);
        left.vals.extend(right.vals);
        left.children.extend(right.children);
    }

    /// Checks the B-tree invariants (for tests): key ordering, node
    /// occupancy, and uniform leaf depth. Returns the key count.
    pub fn check_invariants(&self) -> usize {
        fn walk(node: &Node, depth: usize, leaf_depth: &mut Option<usize>, root: bool) -> usize {
            assert_eq!(node.keys.len(), node.vals.len());
            assert!(node.keys.windows(2).all(|w| w[0] < w[1]), "keys sorted");
            assert!(node.keys.len() < 2 * T, "node overfull");
            if !root {
                assert!(node.keys.len() + 1 >= T, "node underfull");
            }
            if node.is_leaf() {
                match leaf_depth {
                    Some(d) => assert_eq!(*d, depth, "leaves at equal depth"),
                    None => *leaf_depth = Some(depth),
                }
                node.keys.len()
            } else {
                assert_eq!(node.children.len(), node.keys.len() + 1);
                let mut count = node.keys.len();
                for c in &node.children {
                    count += walk(c, depth + 1, leaf_depth, false);
                }
                count
            }
        }
        walk(&self.root, 0, &mut None, true)
    }
}

/// One database transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Txn {
    /// Look up `count` keys starting at a seed.
    Lookup {
        /// PRNG seed choosing the keys.
        seed: u64,
        /// How many keys.
        count: u8,
    },
    /// Create `count` items.
    Create {
        /// PRNG seed choosing the keys.
        seed: u64,
        /// How many items.
        count: u8,
    },
    /// Delete `count` keys.
    Delete {
        /// PRNG seed choosing the keys.
        seed: u64,
        /// How many keys.
        count: u8,
    },
}

/// Generates the benchmark transaction stream.
pub fn generate_txns(count: usize, seed: u64) -> Vec<Txn> {
    let mut rng = Prng::new(seed);
    (0..count)
        .map(|_| {
            let seed = rng.next_u64();
            match rng.below(10) {
                0..=4 => Txn::Lookup {
                    seed,
                    count: 4 + rng.below(12) as u8,
                },
                5..=7 => Txn::Create {
                    seed,
                    count: 2 + rng.below(4) as u8,
                },
                _ => Txn::Delete {
                    seed,
                    count: 1 + rng.below(3) as u8,
                },
            }
        })
        .collect()
}

/// Key universe: small enough that deletes usually hit.
const KEY_SPACE: u64 = 50_000;

/// Executes one transaction; returns (worst status, structural changes).
pub fn exec_txn(tree: &mut BTree, txn: Txn, meter: &mut WorkMeter) -> (Status, u64) {
    let before = tree.rebalances();
    let mut status = Status::Normal;
    match txn {
        Txn::Lookup { seed, count } => {
            let mut rng = Prng::new(seed);
            for _ in 0..count {
                let _ = tree.lookup(rng.below(KEY_SPACE), meter);
            }
        }
        Txn::Create { seed, count } => {
            let mut rng = Prng::new(seed);
            for _ in 0..count {
                let k = rng.below(KEY_SPACE);
                tree.insert(k, k.wrapping_mul(31), meter);
            }
        }
        Txn::Delete { seed, count } => {
            let mut rng = Prng::new(seed);
            for _ in 0..count {
                if tree.delete(rng.below(KEY_SPACE), meter) == Status::NotFound {
                    status = Status::NotFound;
                }
            }
        }
    }
    (status, tree.rebalances() - before)
}

/// The 255.vortex workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Vortex;

impl Vortex {
    fn txn_count(&self, size: InputSize) -> usize {
        600 * size.factor() as usize
    }

    fn seeded_tree(&self, meter: &mut WorkMeter) -> BTree {
        let mut tree = BTree::new();
        let mut rng = Prng::new(0xDB);
        for _ in 0..8_000 {
            let k = rng.below(KEY_SPACE);
            tree.insert(k, k ^ 0x5555, meter);
        }
        tree
    }

    /// Runs the transaction stream once against the seeded tree: the
    /// trace and the transactions. `before` sees the tree ahead of each
    /// transaction.
    fn walk(&self, size: InputSize, mut before: impl FnMut(&BTree)) -> (IterationTrace, Vec<Txn>) {
        let mut setup_meter = WorkMeter::new();
        let mut tree = self.seeded_tree(&mut setup_meter);
        let txns = generate_txns(self.txn_count(size), 0x255);
        let mut trace = IterationTrace::speculative();
        let mut prev_rebalanced = false;
        let mut prev_status = Status::Normal;
        for (i, txn) in txns.iter().enumerate() {
            before(&tree);
            let mut meter = WorkMeter::new();
            let (status, rebalances) = exec_txn(&mut tree, *txn, &mut meter);
            // Alias misspeculation: the previous transaction restructured
            // the tree this one traverses. STATUS value misspeculation:
            // the previous call did not return NORMAL.
            let misspec = i > 0 && (prev_rebalanced || prev_status != Status::Normal);
            let b_cost = meter.take().max(1);
            // Table 1: the parallelized loops cover ~90% of vortex's
            // runtime; the rest (command dispatch in BMT_Test and the
            // non-parallel Lookup path) stays in the sequential phase A.
            let a_cost = 2 + b_cost / 7;
            let mut rec = IterationRecord::new(a_cost, b_cost, 1);
            if misspec {
                rec = rec.with_misspec_on((i - 1) as u64);
            }
            trace.push(rec);
            prev_rebalanced = rebalances > 0;
            prev_status = status;
        }
        (trace, txns)
    }
}

impl Workload for Vortex {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "255.vortex",
            name: "vortex",
            loops: &[
                "BMT_CreateParts (bmt01.c:82-252)",
                "BMT_DeleteParts (bmt10.c:371-393)",
            ],
            exec_time_pct: 90,
            lines_changed_all: 0,
            lines_changed_model: 0,
            techniques: &[
                Technique::AliasSpeculation,
                Technique::ValueSpeculation,
                Technique::TlsMemory,
                Technique::Dswp,
            ],
            paper_speedup: 4.92,
            paper_threads: 32,
        }
    }

    fn trace(&self, size: InputSize) -> IterationTrace {
        self.walk(size, |_| {}).0
    }

    fn versioned_job(&self, size: InputSize) -> VersionedJob {
        // Loop-carried state: the not-found transaction count and the
        // cumulative rebalance total — the error log and structural-edit
        // clock the database threads across transactions. Read-only
        // lookups that hit leave both slots unchanged, so their
        // write-backs are silent-store bets.
        // The tree is persistent: a point is an O(1) clone, and a chunk
        // copies only the paths its transactions touch.
        let mut points = RestorePoints::new();
        let (trace, txns) = self.walk(size, |tree| points.offer(|| tree.clone()));
        VersionedJob::accumulating(
            trace,
            points.runner(BTree::clone, move |tree, iter| {
                let mut meter = WorkMeter::new();
                let (status, rebalances) = exec_txn(tree, txns[iter as usize], &mut meter);
                let mut bytes = vec![match status {
                    Status::Normal => 0u8,
                    Status::NotFound => 1u8,
                }];
                bytes.extend(rebalances.to_le_bytes());
                (bytes, meter.take().max(1))
            }),
            2,
            |_, bytes, acc| {
                acc[0] += u64::from(bytes[0]);
                acc[1] += u64::from_le_bytes([
                    bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7], bytes[8],
                ]);
            },
        )
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("255.vortex");
        let status_g = program.add_global("STATUS", 1);
        let btree = program.add_global("btree", 1 << 16);
        program.declare_extern("next_command", ExternEffect::pure_fn());
        program.declare_extern(
            "do_part",
            ExternEffect {
                reads: vec![btree, status_g],
                writes: vec![btree, status_g],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("BMT_CreateParts");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let cmd = b.call_ext("next_command", &[], None);
        b.label_last("read");
        let res = b.call_ext("do_part", &[cmd], None);
        b.label_last("part");
        let astatus = b.global_addr(status_g);
        let status = b.load(astatus);
        b.label_last("load_status");
        let merged = b.binop(Opcode::Or, status, res);
        b.store(astatus, merged);
        b.label_last("store_status");
        let zero = b.const_(0);
        let done = b.binop(Opcode::CmpEq, cmd, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        let mut profile = LoopProfile::with_trip_count(2400);
        let f = program.function(func);
        // STATUS is NORMAL around the backedge almost always; the B-tree
        // is rarely restructured.
        profile
            .memory
            .record_by_label(f, "store_status", "load_status", 0.02);
        profile.memory.record_by_label(f, "part", "part", 0.15);
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
    use std::collections::BTreeMap;

    #[test]
    fn insert_lookup_delete_match_reference() {
        let mut tree = BTree::new();
        let mut reference = BTreeMap::new();
        let mut rng = Prng::new(99);
        let mut m = WorkMeter::new();
        for _ in 0..5_000 {
            let k = rng.below(800);
            match rng.below(3) {
                0 => {
                    tree.insert(k, k * 2, &mut m);
                    reference.insert(k, k * 2);
                }
                1 => {
                    let got = tree.delete(k, &mut m);
                    let expected = reference.remove(&k).is_some();
                    assert_eq!(got == Status::Normal, expected, "delete {k}");
                }
                _ => {
                    assert_eq!(
                        tree.lookup(k, &mut m),
                        reference.get(&k).copied(),
                        "lookup {k}"
                    );
                }
            }
        }
        assert_eq!(tree.check_invariants(), reference.len());
        assert_eq!(tree.len(), reference.len());
    }

    #[test]
    fn invariants_hold_under_heavy_churn() {
        let mut tree = BTree::new();
        let mut m = WorkMeter::new();
        for k in 0..2_000u64 {
            tree.insert(k, k, &mut m);
        }
        tree.check_invariants();
        for k in (0..2_000u64).step_by(2) {
            assert_eq!(tree.delete(k, &mut m), Status::Normal);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 1_000);
        for k in (1..2_000u64).step_by(2) {
            assert_eq!(tree.lookup(k, &mut m), Some(k));
        }
    }

    #[test]
    fn deleting_everything_empties_the_tree() {
        let mut tree = BTree::new();
        let mut m = WorkMeter::new();
        for k in 0..500u64 {
            tree.insert(k, k, &mut m);
        }
        for k in 0..500u64 {
            assert_eq!(tree.delete(k, &mut m), Status::Normal);
        }
        assert!(tree.is_empty());
        assert_eq!(tree.delete(7, &mut m), Status::NotFound);
        tree.check_invariants();
    }

    #[test]
    fn splits_and_merges_are_counted() {
        let mut tree = BTree::new();
        let mut m = WorkMeter::new();
        for k in 0..1_000u64 {
            tree.insert(k, k, &mut m);
        }
        assert!(tree.splits > 0);
        for k in 0..1_000u64 {
            tree.delete(k, &mut m);
        }
        assert!(tree.merges + tree.borrows > 0);
    }

    #[test]
    fn duplicate_insert_replaces_value() {
        let mut tree = BTree::new();
        let mut m = WorkMeter::new();
        tree.insert(5, 1, &mut m);
        tree.insert(5, 2, &mut m);
        assert_eq!(tree.lookup(5, &mut m), Some(2));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn rebalances_are_rare_per_transaction() {
        // The paper: misspeculation on rebalances is rare but limiting.
        let t = Vortex.trace(InputSize::Test);
        let rate = t.misspec_rate();
        assert!(rate > 0.02 && rate < 0.4, "misspec rate {rate}");
    }

    #[test]
    fn ir_model_uses_alias_and_value_speculation() {
        let model = Vortex.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(result.report().uses(Technique::AliasSpeculation));
        assert!(result.partition().has_parallel_stage());
    }
}
