//! 300.twolf — standard-cell place-and-route (paper §4.3.3 and Fig. 2).
//!
//! A real standard-cell annealer: cells sit in rows, nets connect them,
//! and `uloop` repeatedly calls the swap evaluator (`ucxx2`, ~75% of
//! runtime) on randomly chosen cell pairs. The paper parallelizes the
//! `uloop` iterations speculatively and hits two misspeculation sources:
//!
//! * the **pseudo-random number generator** — `Yacm_random`'s `seed`
//!   recurrence (Figure 2) serializes everything until the programmer
//!   marks it **Commutative** ("it seems counterintuitive for parallelism
//!   to be limited by the generation of random numbers");
//! * **block and net structures** — an accepted concurrent swap moved a
//!   cell on a net this iteration evaluates, a real collision event here.
//!
//! twolf's nets are denser than vpr's, so collisions stay frequent
//! through the whole schedule and the paper's speedup saturates at ~2× on
//! 8 threads.

use crate::common::{annealer_record, InputSize, IrModel, Prng, Touches, WorkMeter, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{Kernel, KernelLoop};
use seqpar::{IterationRecord, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{ExternEffect, FunctionBuilder, Opcode, Program};
use std::sync::Arc;

/// The paper's Figure 2 RNG, verbatim semantics: a linear congruential
/// generator with internal `seed` state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct YacmRandom {
    seed: u64,
}

impl YacmRandom {
    /// Creates the generator with twolf's default seed.
    pub fn new(seed: u64) -> Self {
        Self { seed: seed.max(1) }
    }

    /// The next draw (the `Yacm_random` body: a Lehmer LCG).
    #[allow(clippy::should_implement_trait)] // the paper's function name
    pub fn next(&mut self) -> u64 {
        // Park–Miller minimal standard generator.
        self.seed = self.seed.wrapping_mul(16807) % 2147483647;
        self.seed
    }

    /// Draw below a bound.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        self.next() as f64 / 2147483647.0
    }
}

/// A row-based standard-cell placement. As in vpr, clones share the
/// netlist and copy only the coordinates and the slot map.
#[derive(Clone, Debug)]
pub struct CellPlacement {
    rows: usize,
    cols: usize,
    /// Cell -> (row, col).
    pub pos: Vec<(u16, u16)>,
    /// (row, col) -> cell.
    slot: Vec<usize>,
    /// Nets as cell lists.
    pub nets: Arc<Vec<Vec<u32>>>,
    nets_of: Arc<Vec<Vec<u32>>>,
}

impl CellPlacement {
    /// Generates `rows` × `cols` slots fully populated with cells and
    /// `nets` nets of 4-9 pins (denser than vpr's).
    pub fn generate(rows: usize, cols: usize, nets: usize, seed: u64) -> Self {
        let mut rng = Prng::new(seed);
        let count = rows * cols;
        let mut pos = Vec::with_capacity(count);
        let mut slot = Vec::with_capacity(count);
        for i in 0..count {
            pos.push(((i / cols) as u16, (i % cols) as u16));
            slot.push(i);
        }
        let mut net_list = Vec::with_capacity(nets);
        let mut nets_of = vec![Vec::new(); count];
        for n in 0..nets {
            let pins = 4 + rng.below(6) as usize;
            let mut net = Vec::new();
            for _ in 0..pins {
                let c = rng.below(count as u64) as u32;
                if !net.contains(&c) {
                    net.push(c);
                }
            }
            for &c in &net {
                nets_of[c as usize].push(n as u32);
            }
            net_list.push(net);
        }
        Self {
            rows,
            cols,
            pos,
            slot,
            nets: Arc::new(net_list),
            nets_of: Arc::new(nets_of),
        }
    }

    /// Wirelength of one net: half-perimeter with rows weighted double
    /// (row changes cost feedthroughs in twolf).
    pub fn net_cost(&self, net: usize, meter: &mut WorkMeter) -> i64 {
        let (mut rmin, mut rmax, mut cmin, mut cmax) = (u16::MAX, 0u16, u16::MAX, 0u16);
        for &c in &self.nets[net] {
            meter.add(1);
            let (r, col) = self.pos[c as usize];
            rmin = rmin.min(r);
            rmax = rmax.max(r);
            cmin = cmin.min(col);
            cmax = cmax.max(col);
        }
        2 * (rmax - rmin) as i64 + (cmax - cmin) as i64
    }

    /// Total wirelength.
    pub fn total_cost(&self, meter: &mut WorkMeter) -> i64 {
        (0..self.nets.len()).map(|n| self.net_cost(n, meter)).sum()
    }

    /// Rewinds to a snapshot of this netlist's placement: each cell in
    /// turn swaps into its kept slot, so it displaces none placed before.
    pub fn set_positions(&mut self, pos: &[(u16, u16)]) {
        for (c, &(r, col)) in pos.iter().enumerate() {
            self.swap_cells(c, self.slot[r as usize * self.cols + col as usize]);
        }
    }

    fn swap_cells(&mut self, a: usize, b: usize) {
        let (pa, pb) = (self.pos[a], self.pos[b]);
        self.pos.swap(a, b);
        self.slot[pa.0 as usize * self.cols + pa.1 as usize] = b;
        self.slot[pb.0 as usize * self.cols + pb.1 as usize] = a;
    }

    /// The number of cells.
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }
}

/// Outcome of one `ucxx2`-style pairwise-exchange evaluation.
#[derive(Clone, Debug)]
pub struct ExchangeOutcome {
    /// Whether the exchange was kept.
    pub accepted: bool,
    /// Nets evaluated.
    pub nets_touched: Vec<u32>,
}

/// One iteration of `uloop`: pick two cells via the (commutative) RNG,
/// evaluate the exchange (`ucxx2`), keep it under Metropolis.
pub fn uloop_iter(
    place: &mut CellPlacement,
    rng: &mut YacmRandom,
    temperature: f64,
    meter: &mut WorkMeter,
) -> ExchangeOutcome {
    let count = place.cell_count();
    let a = rng.below(count as u64) as usize;
    let mut b = rng.below(count as u64) as usize;
    while b == a {
        b = rng.below(count as u64) as usize;
        meter.add(1);
    }
    let mut nets_touched: Vec<u32> = place.nets_of[a].clone();
    for &n in &place.nets_of[b] {
        if !nets_touched.contains(&n) {
            nets_touched.push(n);
        }
    }
    let cost = |p: &CellPlacement, m: &mut WorkMeter| -> i64 {
        nets_touched.iter().map(|&n| p.net_cost(n as _, m)).sum()
    };
    let before = cost(place, meter);
    place.swap_cells(a, b);
    let after = cost(place, meter);
    let delta = after - before;
    meter.add(6);
    let accepted = delta <= 0 || rng.unit() < (-(delta as f64) / temperature.max(1e-9)).exp();
    if !accepted {
        place.swap_cells(a, b);
    }
    ExchangeOutcome {
        accepted,
        nets_touched,
    }
}

/// The cooling schedule of `uloop`: 30.0, ×0.75 per outer iteration,
/// down to 0.3.
pub fn schedule() -> impl Iterator<Item = f64> {
    std::iter::successors(Some(30.0), |t| Some(t * 0.75)).take_while(|t| *t > 0.3)
}

/// Runs the full annealing schedule. Calls `on_iter(outcome, work)`
/// after every iteration.
pub fn uloop(
    place: &mut CellPlacement,
    iters_per_temp: usize,
    seed: u64,
    mut on_iter: impl FnMut(&ExchangeOutcome, u64),
) -> i64 {
    let mut rng = YacmRandom::new(seed);
    for temperature in schedule() {
        for _ in 0..iters_per_temp {
            let mut m = WorkMeter::new();
            let outcome = uloop_iter(place, &mut rng, temperature, &mut m);
            on_iter(&outcome, m.total().max(1));
        }
    }
    place.total_cost(&mut WorkMeter::new())
}

/// The 300.twolf workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Twolf;

impl Twolf {
    fn instance(&self) -> CellPlacement {
        CellPlacement::generate(8, 16, 340, 0x300)
    }
}

/// twolf's loop, `uloop`'s iterations in order: the instance before the
/// first, how many iterations each temperature of the schedule runs, and
/// the schedule. The tail is the accepted-exchange count and the total
/// nets touched by accepted exchanges: the cost-table bookkeeping
/// `uloop` threads across iterations.
struct Uloop {
    instance: CellPlacement,
    per_temp: usize,
    temperatures: Vec<f64>,
}

impl Kernel for Uloop {
    type State = (CellPlacement, YacmRandom);
    type Point = (Vec<(u16, u16)>, YacmRandom);
    type Seen = ExchangeOutcome;
    type Book = Touches;

    fn start(&self) -> Self::State {
        (self.instance.clone(), YacmRandom::new(0x300_5EED))
    }

    fn step(&self, (place, rng): &mut Self::State, i: u64) -> Option<(Vec<u8>, u64, Self::Seen)> {
        let &temperature = self.temperatures.get(i as usize / self.per_temp)?;
        let mut meter = WorkMeter::new();
        let outcome = uloop_iter(place, rng, temperature, &mut meter);
        let mut bytes = vec![u8::from(outcome.accepted)];
        bytes.extend((outcome.nets_touched.len() as u32).to_le_bytes());
        Some((bytes, meter.take().max(1), outcome))
    }

    /// The coordinates and the RNG, kept before each chunk of a plan with
    /// two or more seats; a restore rebuilds the placement from them.
    fn point(&self, (place, rng): &Self::State) -> Option<Self::Point> {
        Some((place.pos.clone(), rng.clone()))
    }

    fn restore(&self, (pos, rng): &Self::Point) -> Self::State {
        let mut place = self.instance.clone();
        place.set_positions(pos);
        (place, rng.clone())
    }

    /// As in vpr, the global wirelength accumulator chains every accepted
    /// exchange; net sharing conflicts the rest.
    fn record(&self, book: &mut Touches, _: u64, work: u64, o: Self::Seen) -> IterationRecord {
        annealer_record(book, o.accepted, o.nets_touched, work)
    }

    fn fold(&self, _: u64, bytes: &[u8], acc: &mut [u64]) {
        if bytes[0] == 1 {
            acc[0] += 1;
            acc[1] += u64::from(u32::from_le_bytes(
                bytes[1..5].try_into().expect("four bytes"),
            ));
        }
    }
}

impl Workload for Twolf {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "300.twolf",
            name: "twolf",
            loops: &["uloop (uloop.c:154-361)"],
            exec_time_pct: 100,
            lines_changed_all: 1,
            lines_changed_model: 1,
            techniques: &[
                Technique::Commutative,
                Technique::AliasSpeculation,
                Technique::ControlSpeculation,
                Technique::TlsMemory,
                Technique::Dswp,
            ],
            paper_speedup: 2.06,
            paper_threads: 8,
        }
    }

    fn kernel(&self, size: InputSize) -> KernelLoop {
        KernelLoop::new(Uloop {
            instance: self.instance(),
            per_temp: 70 * size.factor() as usize,
            temperatures: schedule().collect(),
        })
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("300.twolf");
        let seed = program.add_global("randVarS", 1);
        let blocks = program.add_global("block_structs", 1 << 10);
        program.declare_extern(
            "Yacm_random",
            ExternEffect {
                reads: vec![seed],
                writes: vec![seed],
                ..Default::default()
            },
        );
        program.declare_extern(
            "ucxx2",
            ExternEffect {
                reads: vec![blocks],
                writes: vec![blocks],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("uloop");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        // Figure 2: the RNG call. The paper's 1-line Commutative
        // annotation (Table 1) is no longer needed — the audit pass
        // proves the seed encapsulated and infers the group.
        let r = b.call_ext("Yacm_random", &[], None);
        b.label_last("Yacm_random");
        let res = b.call_ext("ucxx2", &[r], None);
        b.label_last("ucxx2");
        let zero = b.const_(0);
        let done = b.binop(Opcode::CmpEq, res, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        let mut profile = LoopProfile::with_trip_count(9000);
        let f = program.function(func);
        profile.memory.record_by_label(f, "ucxx2", "ucxx2", 0.2);
        // The uloop continuation branch is schedule-driven, near-never
        // exiting mid-schedule: control-speculable.
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
    fn yacm_random_matches_park_miller() {
        let mut r = YacmRandom::new(1);
        // First values of the minimal-standard generator with seed 1.
        assert_eq!(r.next(), 16807);
        assert_eq!(r.next(), 282475249);
        assert_eq!(r.next(), 1622650073);
    }

    #[test]
    fn yacm_random_is_deterministic_per_seed() {
        let mut a = YacmRandom::new(7);
        let mut b = YacmRandom::new(7);
        for _ in 0..10 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn swap_keeps_slot_map_consistent() {
        let mut p = CellPlacement::generate(4, 4, 10, 1);
        p.swap_cells(0, 5);
        for (c, &(r, col)) in p.pos.iter().enumerate() {
            assert_eq!(p.slot[r as usize * 4 + col as usize], c);
        }
    }

    #[test]
    fn rejected_exchange_reverts() {
        let mut p = CellPlacement::generate(6, 10, 80, 2);
        let mut rng = YacmRandom::new(3);
        let mut m = WorkMeter::new();
        let before_pos = p.pos.clone();
        for _ in 0..100 {
            let o = uloop_iter(&mut p, &mut rng, 1e-9, &mut m);
            if o.accepted {
                break;
            }
            assert_eq!(p.pos, before_pos);
        }
    }

    #[test]
    fn annealing_reduces_wirelength() {
        let mut p = Twolf.instance();
        let mut m = WorkMeter::new();
        let before = p.total_cost(&mut m);
        let after = uloop(&mut p, 70, 1, |_, _| {});
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn trace_misspeculation_is_high_throughout() {
        let t = Twolf.trace(InputSize::Test);
        let rate = t.misspec_rate();
        assert!(rate > 0.35, "misspec rate {rate} too low for twolf");
    }

    #[test]
    fn ir_model_without_commutative_serializes() {
        // Build the same model but WITHOUT the Commutative annotation:
        // the RNG recurrence must keep the loop sequential.
        let model = Twolf.ir_model();
        let with = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(with.report().uses(Technique::Commutative));
        assert!(with.partition().has_parallel_stage());
    }
}
