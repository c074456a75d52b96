//! 175.vpr — FPGA placement by simulated annealing (paper §4.3.4).
//!
//! A real annealing placer: blocks live on a grid, nets connect them, and
//! `try_swap` proposes moving a random block to a random position
//! (swapping if occupied), accepting by the Metropolis criterion under a
//! falling temperature. The paper speculatively executes `try_swap`
//! iterations in parallel:
//!
//! * the RNG is marked **Commutative** (draws may happen in any order),
//! * block-coordinate and net loads are value/alias-speculated.
//!
//! A speculation is violated when a concurrent earlier swap was *accepted*
//! and touched the same nets — a real collision event here. Early, hot
//! iterations accept most moves ("the speculation fails more than 80% of
//! the time") while late, cold iterations rarely do ("succeeds more than
//! 80% of the time"), so "good parallel performance requires many
//! threads" in the late region — the paper's 3.59× at 15 threads.

use crate::common::{annealer_record, InputSize, IrModel, Prng, Touches, WorkMeter, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{Kernel, KernelLoop};
use seqpar::{IterationRecord, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{ExternEffect, FunctionBuilder, Opcode, Program};
use std::sync::Arc;

/// A placement instance and its current state. The netlist never changes
/// once generated, so every clone shares it: a clone copies only the
/// coordinates and the occupancy grid.
#[derive(Clone, Debug)]
pub struct Placement {
    grid: usize,
    /// Block index -> (x, y).
    pub pos: Vec<(u16, u16)>,
    /// Cell -> block index (or usize::MAX).
    cell: Vec<usize>,
    /// Nets: lists of block indices.
    pub nets: Arc<Vec<Vec<u32>>>,
    /// Net lists per block.
    nets_of: Arc<Vec<Vec<u32>>>,
}

impl Placement {
    /// Generates a random instance: `blocks` blocks on a `grid`×`grid`
    /// array with `nets` nets of 3-6 pins.
    pub fn generate(grid: usize, blocks: usize, nets: usize, seed: u64) -> Self {
        assert!(blocks <= grid * grid, "too many blocks for the grid");
        let mut rng = Prng::new(seed);
        // Place blocks on distinct cells (partial Fisher-Yates).
        let mut cells: Vec<usize> = (0..grid * grid).collect();
        for i in 0..blocks {
            let j = i + rng.below((cells.len() - i) as u64) as usize;
            cells.swap(i, j);
        }
        let mut cell = vec![usize::MAX; grid * grid];
        let mut pos = Vec::with_capacity(blocks);
        for (b, &c) in cells[..blocks].iter().enumerate() {
            cell[c] = b;
            pos.push(((c % grid) as u16, (c / grid) as u16));
        }
        let mut net_list = Vec::with_capacity(nets);
        let mut nets_of = vec![Vec::new(); blocks];
        for n in 0..nets {
            let pins = 2 + rng.below(3) as usize;
            let mut net = Vec::with_capacity(pins);
            for _ in 0..pins {
                let b = rng.below(blocks as u64) as u32;
                if !net.contains(&b) {
                    net.push(b);
                }
            }
            for &b in &net {
                nets_of[b as usize].push(n as u32);
            }
            net_list.push(net);
        }
        Self {
            grid,
            pos,
            cell,
            nets: Arc::new(net_list),
            nets_of: Arc::new(nets_of),
        }
    }

    /// Half-perimeter wirelength of one net.
    pub fn net_cost(&self, net: usize, meter: &mut WorkMeter) -> i64 {
        let blocks = &self.nets[net];
        let (mut xmin, mut xmax, mut ymin, mut ymax) = (u16::MAX, 0u16, u16::MAX, 0u16);
        for &b in blocks {
            meter.add(1);
            let (x, y) = self.pos[b as usize];
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
        (xmax - xmin) as i64 + (ymax - ymin) as i64
    }

    /// Total placement cost.
    pub fn total_cost(&self, meter: &mut WorkMeter) -> i64 {
        (0..self.nets.len()).map(|n| self.net_cost(n, meter)).sum()
    }

    fn cell_index(&self, x: u16, y: u16) -> usize {
        y as usize * self.grid + x as usize
    }

    /// Moves block `b` to `(x, y)`, swapping with any occupant. Returns
    /// the other block if one was swapped.
    fn apply_move(&mut self, b: usize, x: u16, y: u16) -> Option<usize> {
        let (ox, oy) = self.pos[b];
        let from = self.cell_index(ox, oy);
        let to = self.cell_index(x, y);
        let occupant = self.cell[to];
        self.cell[to] = b;
        self.pos[b] = (x, y);
        if occupant != usize::MAX {
            self.cell[from] = occupant;
            self.pos[occupant] = (ox, oy);
            Some(occupant)
        } else {
            self.cell[from] = usize::MAX;
            None
        }
    }
}

/// The outcome of one `try_swap`.
#[derive(Clone, Debug)]
pub struct SwapOutcome {
    /// Whether the move was accepted.
    pub accepted: bool,
    /// Cost delta of the move (applied only if accepted).
    pub delta: i64,
    /// Nets whose bounding boxes were recomputed.
    pub nets_touched: Vec<u32>,
}

/// The cooling schedule of `try_place`: 40.0, ×0.8 per outer iteration,
/// down to 0.01.
pub fn schedule() -> impl Iterator<Item = f64> {
    std::iter::successors(Some(40.0), |t| Some(t * 0.8)).take_while(|t| *t > 0.01)
}

/// The annealing schedule driver (vpr's `try_place`).
///
/// Calls `on_swap(outer_iteration, outcome, work)` after every inner
/// `try_swap`.
pub fn anneal(
    place: &mut Placement,
    moves_per_temp: usize,
    seed: u64,
    mut on_swap: impl FnMut(usize, &SwapOutcome, u64),
) -> i64 {
    let mut rng = Prng::new(seed);
    let mut meter = WorkMeter::new();
    for (outer, temperature) in schedule().enumerate() {
        for _ in 0..moves_per_temp {
            let mut m = WorkMeter::new();
            let outcome = try_swap(place, &mut rng, temperature, &mut m);
            on_swap(outer, &outcome, m.total().max(1));
        }
    }
    place.total_cost(&mut meter)
}

/// Proposes and maybe applies one swap (vpr's `try_swap`): pick a random
/// block and a random distinct target, swap with any occupant, evaluate
/// the affected nets, and accept by the Metropolis criterion.
pub fn try_swap(
    place: &mut Placement,
    rng: &mut Prng,
    temperature: f64,
    meter: &mut WorkMeter,
) -> SwapOutcome {
    let blocks = place.pos.len();
    let b = rng.below(blocks as u64) as usize;
    let orig = place.pos[b];
    let (mut x, mut y) = (
        rng.below(place.grid as u64) as u16,
        rng.below(place.grid as u64) as u16,
    );
    while (x, y) == orig {
        x = rng.below(place.grid as u64) as u16;
        y = rng.below(place.grid as u64) as u16;
        meter.add(1);
    }
    let occupant = place.cell[place.cell_index(x, y)];
    let mut nets_touched: Vec<u32> = place.nets_of[b].clone();
    if occupant != usize::MAX {
        for &n in &place.nets_of[occupant] {
            if !nets_touched.contains(&n) {
                nets_touched.push(n);
            }
        }
    }
    let before: i64 = nets_touched
        .iter()
        .map(|&n| place.net_cost(n as usize, meter))
        .sum();
    place.apply_move(b, x, y);
    let after: i64 = nets_touched
        .iter()
        .map(|&n| place.net_cost(n as usize, meter))
        .sum();
    let delta = after - before;
    meter.add(4);
    let accepted = delta <= 0 || rng.unit() < (-(delta as f64) / temperature.max(1e-9)).exp();
    if !accepted {
        // Revert: move b back to its original cell (this swaps the
        // occupant back too, if there was one).
        place.apply_move(b, orig.0, orig.1);
    }
    SwapOutcome {
        accepted,
        delta,
        nets_touched,
    }
}

/// The 175.vpr workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Vpr;

/// vpr's loop, `try_place`'s moves in order: the instance before the
/// first, how many moves each temperature of the schedule runs, and the
/// schedule. The tail is the accepted-move count and the wrapping sum of
/// accepted cost deltas: the running placement cost the annealer
/// threads across moves.
struct Place {
    instance: Placement,
    moves: usize,
    temperatures: Vec<f64>,
}

impl Kernel for Place {
    type State = (Placement, Prng);
    type Point = (Vec<(u16, u16)>, Prng);
    type Seen = SwapOutcome;
    type Book = Touches;

    fn start(&self) -> Self::State {
        (self.instance.clone(), Prng::new(0xABCD))
    }

    fn step(&self, (place, rng): &mut Self::State, i: u64) -> Option<(Vec<u8>, u64, SwapOutcome)> {
        let &temperature = self.temperatures.get(i as usize / self.moves)?;
        let mut meter = WorkMeter::new();
        let outcome = try_swap(place, rng, temperature, &mut meter);
        let mut bytes = vec![u8::from(outcome.accepted)];
        bytes.extend(outcome.delta.to_le_bytes());
        Some((bytes, meter.take().max(1), outcome))
    }

    /// The coordinates and the RNG, kept before each chunk of a plan with
    /// two or more seats; a restore rebuilds the occupancy map.
    fn point(&self, (place, rng): &Self::State) -> Option<Self::Point> {
        Some((place.pos.clone(), rng.clone()))
    }

    fn restore(&self, (pos, rng): &Self::Point) -> Self::State {
        // Blocks moved in turn to their kept cells displace none before.
        let mut place = self.instance.clone();
        for (b, &(x, y)) in pos.iter().enumerate() {
            place.apply_move(b, x, y);
        }
        (place, rng.clone())
    }

    /// Real collisions, so misspeculation is high while hot and low once
    /// cold (§4.3.4).
    fn record(&self, book: &mut Touches, _: u64, work: u64, o: SwapOutcome) -> IterationRecord {
        annealer_record(book, o.accepted, o.nets_touched, work)
    }

    fn fold(&self, _: u64, bytes: &[u8], acc: &mut [u64]) {
        if bytes[0] == 1 {
            acc[0] += 1;
            let delta = i64::from_le_bytes(bytes[1..9].try_into().expect("eight bytes"));
            acc[1] = acc[1].wrapping_add(delta as u64);
        }
    }
}

impl Workload for Vpr {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "175.vpr",
            name: "vpr",
            loops: &["try_place (place.c:506-513)"],
            exec_time_pct: 100,
            lines_changed_all: 1,
            lines_changed_model: 1,
            techniques: &[
                Technique::Commutative,
                Technique::AliasSpeculation,
                Technique::ValueSpeculation,
                Technique::ControlSpeculation,
                Technique::TlsMemory,
                Technique::Dswp,
            ],
            paper_speedup: 3.59,
            paper_threads: 15,
        }
    }

    fn kernel(&self, size: InputSize) -> KernelLoop {
        KernelLoop::new(Place {
            instance: Placement::generate(16, 200, 240, 0x175),
            moves: 60 * size.factor() as usize,
            temperatures: schedule().collect(),
        })
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("175.vpr");
        let seed = program.add_global("rng_state", 1);
        let blocks = program.add_global("block_coords", 1 << 10);
        program.declare_extern(
            "my_irand",
            ExternEffect {
                reads: vec![seed],
                writes: vec![seed],
                ..Default::default()
            },
        );
        program.declare_extern(
            "try_swap_eval",
            ExternEffect {
                reads: vec![blocks],
                writes: vec![blocks],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("try_place");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        // The RNG needs no annotation: its seed is provably
        // encapsulated, so the audit pass infers Commutative itself.
        let r = b.call_ext("my_irand", &[], None);
        b.label_last("rand");
        let res = b.call_ext("try_swap_eval", &[r], None);
        b.label_last("swap");
        let zero = b.const_(0);
        let done = b.binop(Opcode::CmpEq, res, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        let mut profile = LoopProfile::with_trip_count(12_000);
        let f = program.function(func);
        // Block/net alias dependences manifest when swaps collide.
        profile.memory.record_by_label(f, "swap", "swap", 0.18);
        // try_place's move budget is temperature-driven: the continue
        // branch is strongly biased (paper: control speculation).
        profile.branches.record(seqpar_ir::BlockId::new(1), 0.001);
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
    fn generated_placement_is_consistent() {
        let p = Placement::generate(10, 60, 80, 1);
        // Every block's cell maps back to it.
        for (b, &(x, y)) in p.pos.iter().enumerate() {
            assert_eq!(p.cell[y as usize * 10 + x as usize], b);
        }
        assert_eq!(p.nets.len(), 80);
    }

    #[test]
    fn net_cost_is_half_perimeter() {
        let mut p = Placement::generate(10, 4, 1, 2);
        Arc::make_mut(&mut p.nets)[0] = vec![0, 1];
        p.pos[0] = (1, 1);
        p.pos[1] = (4, 5);
        let mut m = WorkMeter::new();
        assert_eq!(p.net_cost(0, &mut m), 3 + 4);
    }

    #[test]
    fn rejected_swaps_restore_the_placement() {
        let mut p = Placement::generate(12, 80, 100, 3);
        let snapshot = (p.pos.clone(), p.cell.clone());
        let mut rng = Prng::new(5);
        let mut m = WorkMeter::new();
        // Freezing temperature: only improving moves accepted.
        for _ in 0..200 {
            let o = try_swap(&mut p, &mut rng, 1e-9, &mut m);
            if o.accepted {
                break;
            }
            assert_eq!(p.pos, snapshot.0, "rejected swap must revert positions");
            assert_eq!(p.cell, snapshot.1, "rejected swap must revert cells");
        }
    }

    #[test]
    fn annealing_reduces_cost() {
        let mut p = Placement::generate(12, 80, 120, 4);
        let mut m = WorkMeter::new();
        let before = p.total_cost(&mut m);
        let after = anneal(&mut p, 100, 7, |_, _, _| {});
        assert!(
            after < before,
            "annealing must improve: {before} -> {after}"
        );
        assert_eq!(after, p.total_cost(&mut m));
    }

    #[test]
    fn acceptance_rate_falls_as_temperature_drops() {
        let mut p = Placement::generate(14, 120, 180, 5);
        let mut accepted_by_outer: Vec<(u64, u64)> = Vec::new();
        anneal(&mut p, 100, 9, |outer, o, _| {
            if accepted_by_outer.len() <= outer {
                accepted_by_outer.resize(outer + 1, (0, 0));
            }
            accepted_by_outer[outer].1 += 1;
            if o.accepted {
                accepted_by_outer[outer].0 += 1;
            }
        });
        let rate = |i: usize| {
            let (a, t) = accepted_by_outer[i];
            a as f64 / t as f64
        };
        let early = rate(0).max(rate(1));
        let n = accepted_by_outer.len();
        let late = rate(n - 1).min(rate(n - 2));
        assert!(early > 0.5, "early acceptance {early}");
        assert!(late < 0.35, "late acceptance {late}");
        assert!(early > late);
    }

    #[test]
    fn trace_misspeculation_declines_over_the_run() {
        let t = Vpr.trace(InputSize::Test);
        let n = t.len();
        let early: Vec<_> = t.records()[..n / 4].to_vec();
        let late: Vec<_> = t.records()[3 * n / 4..].to_vec();
        let rate = |recs: &[seqpar::IterationRecord]| {
            recs.iter().filter(|r| r.misspec_on.is_some()).count() as f64 / recs.len() as f64
        };
        assert!(
            rate(&early) > rate(&late) + 0.2,
            "early {} late {}",
            rate(&early),
            rate(&late)
        );
        assert!(rate(&early) > 0.6, "early misspeculation {}", rate(&early));
    }

    #[test]
    fn ir_model_marks_the_rng_commutative() {
        let model = Vpr.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(result.report().uses(Technique::Commutative));
        assert!(result.report().uses(Technique::AliasSpeculation));
    }
}
