//! 186.crafty — alpha-beta game-tree search (paper §4.3.1).
//!
//! A real alpha-beta searcher with a transposition table and move
//! ordering, running over a deterministic synthetic game (move lists and
//! evaluations derived from position hashes — chess rules replaced, search
//! dynamics preserved). The paper's parallelization searches root moves
//! independently (`SearchRoot`) and, to beat the 2× wall created by wildly
//! variable subtree sizes, *unrolls the recursion one level* so the loops
//! in `SearchRoot` and the first `Search` call both parallelize. The
//! transposition and pawn caches are marked **Commutative** (a cache may
//! be queried in any order); the search state restored by `UnMakeMove` is
//! value-predicted.
//!
//! Tasks here are exactly those second-level subtree searches; their cost
//! is the real node count visited, pruning included — the heavy-tailed
//! distribution that makes this benchmark interesting.

use crate::common::{InputSize, IrModel, WorkMeter, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{Kernel, KernelLoop};
use seqpar::{IterationRecord, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{CommGroupId, ExternEffect, FunctionBuilder, Opcode, Program};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A game position (synthetic: a hash that fully determines the
/// subgame below it).
pub type Position = u64;

fn mix(x: u64) -> u64 {
    // splitmix64 finalizer.
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The most legal moves a position has.
const MAX_MOVES: usize = 12;

/// The legal moves from `pos` (children positions), deterministic in the
/// position. Branching factor varies between 4 and 12 like midgame chess.
pub fn moves(pos: Position) -> Vec<Position> {
    let mut children = [0; MAX_MOVES];
    let count = moves_into(pos, &mut children);
    children[..count].to_vec()
}

/// The move generator behind [`moves`]: writes the children of `pos`
/// into the front of `out` and returns how many there are, so that
/// [`search`] generates moves on the stack.
fn moves_into(pos: Position, out: &mut [Position; MAX_MOVES]) -> usize {
    let count = 4 + (mix(pos) % 9) as usize;
    for (i, child) in out[..count].iter_mut().enumerate() {
        *child = mix(pos ^ (i as u64 + 1).wrapping_mul(0xA24BAED4963EE407));
    }
    count
}

/// Static evaluation of a position, in centipawns.
pub fn evaluate(pos: Position) -> i32 {
    ((mix(pos ^ 0xE7037ED1A0B428DB) % 2001) as i32) - 1000
}

/// How a stored score bounds the true value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Bound {
    Exact,
    Lower,
    Upper,
}

/// A transposition-table entry.
#[derive(Clone, Copy, Debug)]
struct TtEntry {
    depth: u32,
    score: i32,
    bound: Bound,
}

/// Hashes a [`Position`] as itself. A position is a splitmix64 output,
/// already as evenly spread as a hash of it would be, so the table skips
/// the SipHash round the default hasher runs on every lookup and insert.
/// Positions come from the move generator, never from outside the
/// program, so nothing can pick keys that collide.
#[derive(Debug, Default)]
struct PositionHasher(u64);

impl Hasher for PositionHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The transposition table — the cache the paper marks *Commutative*.
/// Its keys hash as themselves (`PositionHasher` says why).
#[derive(Debug, Default)]
pub struct TransTable {
    map: HashMap<Position, TtEntry, BuildHasherDefault<PositionHasher>>,
    /// Lookup hits, for cache-effectiveness tests.
    pub hits: u64,
}

impl TransTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Alpha-beta search with transposition cutoffs and move ordering.
/// Returns the negamax score of `pos`; accrues one work unit per node
/// visited.
pub fn search(
    pos: Position,
    depth: u32,
    mut alpha: i32,
    beta: i32,
    tt: &mut TransTable,
    meter: &mut WorkMeter,
) -> i32 {
    meter.add(1);
    if depth == 0 {
        return evaluate(pos);
    }
    if let Some(e) = tt.map.get(&pos) {
        if e.depth >= depth {
            let usable = match e.bound {
                Bound::Exact => true,
                Bound::Lower => e.score >= beta,
                Bound::Upper => e.score <= alpha,
            };
            if usable {
                tt.hits += 1;
                return e.score;
            }
        }
    }
    let alpha_orig = alpha;
    let mut positions = [0; MAX_MOVES];
    let count = moves_into(pos, &mut positions);
    let mut children = [(0, 0); MAX_MOVES];
    for (slot, &child) in children.iter_mut().zip(&positions[..count]) {
        *slot = (evaluate(child), child);
    }
    let children = &mut children[..count];
    // Move ordering: try statically better children first — this is what
    // makes pruning (and thus task-size variance) strong. Each child is
    // evaluated once, and the sort is stable, so equal evaluations keep
    // generation order.
    children.sort_by_key(|&(eval, _)| eval);
    let mut best = i32::MIN + 1;
    for &(_, child) in children.iter() {
        let score = -search(child, depth - 1, -beta, -alpha, tt, meter);
        if score > best {
            best = score;
        }
        if best > alpha {
            alpha = best;
        }
        if alpha >= beta {
            break; // beta cutoff
        }
    }
    let bound = if best <= alpha_orig {
        Bound::Upper
    } else if best >= beta {
        Bound::Lower
    } else {
        Bound::Exact
    };
    tt.map.insert(
        pos,
        TtEntry {
            depth,
            score: best,
            bound,
        },
    );
    best
}

/// The root-search decomposition the paper parallelizes: the recursion is
/// unrolled one level, so each (root move, reply) pair is one independent
/// task. Returns `(root_move_index, reply_position, depth)` descriptors.
pub fn root_tasks(root: Position, depth: u32) -> Vec<(usize, Position, u32)> {
    let mut tasks = Vec::new();
    for (i, m) in moves(root).into_iter().enumerate() {
        for reply in moves(m) {
            tasks.push((i, reply, depth.saturating_sub(2)));
        }
    }
    tasks
}

/// The 186.crafty workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Crafty;

impl Crafty {
    const ROOT: Position = 0x186_186_186;
}

/// crafty's loop: one (root move, reply) subtree an iteration, its
/// `(reply, depth)`. Iterative deepening: each depth contributes one
/// round of (root move, reply) tasks. Each task's cost is the real node
/// count of its subtree search, full window (parallel tasks cannot share
/// each other's alpha bounds). The tail is the running best root score
/// and a wrapping tally of all subtree scores: the alpha bound and node
/// statistics a real search threads across root moves.
struct Subtrees(Vec<(Position, u32)>);

impl Kernel for Subtrees {
    type State = ();
    type Point = ();
    type Seen = ();
    type Book = ();
    const SPECULATIVE: bool = false;

    fn start(&self) {}

    fn step(&self, _: &mut (), i: u64) -> Option<(Vec<u8>, u64, ())> {
        let &(reply, depth) = self.0.get(i as usize)?;
        let (mut meter, mut tt) = (WorkMeter::new(), TransTable::new());
        let score = search(
            reply,
            depth,
            i32::MIN + 1,
            i32::MAX - 1,
            &mut tt,
            &mut meter,
        );
        Some((score.to_le_bytes().to_vec(), meter.take().max(1), ()))
    }

    fn record(&self, _: &mut (), _: u64, work: u64, _: ()) -> IterationRecord {
        // A: move generation + MakeMove; C: merge best score.
        IterationRecord::new(2, work, 1)
    }

    fn fold(&self, i: u64, bytes: &[u8], acc: &mut [u64]) {
        let score = i64::from(i32::from_le_bytes(bytes.try_into().expect("four bytes")));
        if i == 0 || score > acc[0] as i64 {
            acc[0] = score as u64;
        }
        acc[1] = acc[1].wrapping_add(score as u64);
    }
}

impl Workload for Crafty {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "186.crafty",
            name: "crafty",
            loops: &["SearchRoot (searchr.c:52-153)", "Search (search.c:218-368)"],
            exec_time_pct: 100,
            lines_changed_all: 0,
            lines_changed_model: 9,
            techniques: &[
                Technique::Commutative,
                Technique::TlsMemory,
                Technique::Dswp,
                Technique::Nested,
            ],
            paper_speedup: 25.18,
            paper_threads: 32,
        }
    }

    fn kernel(&self, size: InputSize) -> KernelLoop {
        let depth = match size {
            InputSize::Test => 6,
            InputSize::Train => 7,
            InputSize::Ref => 8,
        };
        let tasks = (2..=depth).flat_map(|d| root_tasks(Self::ROOT, d));
        KernelLoop::new(Subtrees(
            tasks.map(|(_, reply, sub)| (reply, sub)).collect(),
        ))
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("186.crafty");
        let best = program.add_global("best_score", 1);
        let tt = program.add_global("trans_ref", 1 << 16);
        program.declare_extern("NextMove", ExternEffect::pure_fn());
        program.declare_extern(
            "Search",
            ExternEffect {
                reads: vec![tt],
                writes: vec![tt],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("SearchRoot");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let mv = b.call_ext("NextMove", &[], None);
        b.label_last("next_move");
        // The recursive Search touches the caches: Commutative group 0
        // covers the transposition/pawn cache lookups.
        let score = b.call_ext("Search", &[mv], Some(CommGroupId(0)));
        b.label_last("search");
        let abest = b.global_addr(best);
        let old = b.load(abest);
        let merged = b.binop(Opcode::Add, old, score);
        b.store(abest, merged);
        b.label_last("store_best");
        let zero = b.const_(0);
        let done = b.binop(Opcode::CmpEq, mv, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        IrModel {
            program,
            func,
            profile: LoopProfile::with_trip_count(40),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_are_deterministic_with_varied_branching() {
        let a = moves(Crafty::ROOT);
        let b = moves(Crafty::ROOT);
        assert_eq!(a, b);
        assert!(a.len() >= 4 && a.len() <= 12);
        let widths: Vec<usize> = (0..50).map(|i| moves(mix(i)).len()).collect();
        assert!(
            widths.iter().any(|w| *w != widths[0]),
            "branching must vary"
        );
    }

    #[test]
    fn search_matches_plain_negamax_without_pruning_effects() {
        // Alpha-beta with full window must equal plain negamax.
        fn negamax(pos: Position, depth: u32) -> i32 {
            if depth == 0 {
                return evaluate(pos);
            }
            moves(pos)
                .into_iter()
                .map(|c| -negamax(c, depth - 1))
                .max()
                .expect("at least 4 moves")
        }
        let mut tt = TransTable::new();
        let mut m = WorkMeter::new();
        for seed in 0..5 {
            let pos = mix(seed);
            let ab = search(pos, 3, i32::MIN + 1, i32::MAX - 1, &mut tt, &mut m);
            assert_eq!(ab, negamax(pos, 3), "position {seed}");
        }
    }

    #[test]
    fn pruning_reduces_node_count() {
        let pos = Crafty::ROOT;
        let mut tt = TransTable::new();
        let mut pruned = WorkMeter::new();
        // A narrow window prunes far more than the full window.
        let mut tt2 = TransTable::new();
        let mut full = WorkMeter::new();
        let full_score = search(pos, 5, i32::MIN + 1, i32::MAX - 1, &mut tt2, &mut full);
        let _ = search(pos, 5, full_score - 1, full_score + 1, &mut tt, &mut pruned);
        assert!(pruned.total() < full.total());
    }

    #[test]
    fn transposition_table_hits_on_repeated_search() {
        let mut tt = TransTable::new();
        let mut m = WorkMeter::new();
        let s1 = search(Crafty::ROOT, 4, i32::MIN + 1, i32::MAX - 1, &mut tt, &mut m);
        let before = m.total();
        let s2 = search(Crafty::ROOT, 4, i32::MIN + 1, i32::MAX - 1, &mut tt, &mut m);
        assert_eq!(s1, s2);
        assert!(
            m.total() - before < before / 100,
            "second search must be ~free"
        );
        assert!(tt.hits > 0);
    }

    #[test]
    fn root_tasks_unroll_two_levels() {
        let tasks = root_tasks(Crafty::ROOT, 6);
        let root_moves = moves(Crafty::ROOT).len();
        assert!(tasks.len() > root_moves, "unrolling multiplies task count");
        assert!(tasks.iter().all(|(_, _, d)| *d == 4));
    }

    #[test]
    fn trace_has_heavy_tailed_task_costs() {
        let t = Crafty.trace(InputSize::Test);
        assert!(t.len() > 100, "{} tasks", t.len());
        assert_eq!(t.misspec_rate(), 0.0);
        let costs: Vec<u64> = t.records().iter().map(|r| r.b_cost).collect();
        let max = *costs.iter().max().unwrap();
        let mean = costs.iter().sum::<u64>() / costs.len() as u64;
        assert!(max > mean * 4, "variance too low: max {max} mean {mean}");
    }

    #[test]
    fn ir_model_needs_commutative_for_the_caches() {
        let model = Crafty.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(result.report().uses(Technique::Commutative));
        assert!(result.partition().has_parallel_stage());
    }
}
