//! 181.mcf — minimum-cost flow (paper §4.1.4).
//!
//! A real min-cost-flow solver (successive shortest augmenting paths on
//! the residual network with Bellman–Ford) stands in for mcf's network
//! simplex; it solves the same problem class — single-depot vehicle
//! scheduling reduces to MCF — and has the same phase structure the paper
//! exploits:
//!
//! * the **pricing** sweeps over all arcs (mcf's `price_out_impl` and the
//!   parallelized loops in `primal_bea_mpp`) are the parallelizable bulk:
//!   here, the per-arc relaxation scans of each Bellman–Ford pass
//!   (phase B);
//! * the **pivot/augment** step (mcf's basis update) is inherently
//!   serial: path extraction and flow augmentation (phases A and C);
//! * `refresh_potential` is speculated not to change node potentials —
//!   "almost always the case"; here the real event is whether a pass
//!   actually relaxed any distance, and late passes usually do not.
//!
//! The serial fraction is what limits mcf to ~2.8× in the paper, and the
//! same Amdahl wall appears here.

use crate::common::{InputSize, IrModel, Prng, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{Kernel, KernelLoop};
use seqpar::{IterationRecord, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{ExternEffect, FunctionBuilder, Opcode, Program};

/// An arc of the flow network.
#[derive(Clone, Copy, Debug)]
pub struct Arc {
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Capacity.
    pub cap: i64,
    /// Cost per unit of flow.
    pub cost: i64,
}

/// A min-cost-flow instance.
#[derive(Clone, Debug)]
pub struct Network {
    /// Node count (node 0 is the source, `nodes - 1` the sink).
    pub nodes: usize,
    /// Arcs.
    pub arcs: Vec<Arc>,
}

/// Residual edge representation.
#[derive(Clone, Copy, Debug)]
struct Edge {
    to: usize,
    cap: i64,
    cost: i64,
    /// Index of the reverse edge.
    rev: usize,
}

/// The result of solving an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowResult {
    /// Units of flow shipped.
    pub flow: i64,
    /// Total cost of the flow.
    pub cost: i64,
    /// Augmenting iterations performed.
    pub iterations: u64,
}

/// Per-iteration phase measurements, for the trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct IterationCosts {
    /// Serial pivot/path-extraction work.
    pub serial: u64,
    /// Parallelizable arc-scan work.
    pub parallel: u64,
    /// Augmentation (apply) work.
    pub apply: u64,
    /// Whether the final passes still relaxed distances (the
    /// refresh_potential speculation failed).
    pub potentials_changed: bool,
}

/// Incremental min-cost-flow solver state: the residual network plus
/// running totals. Cloneable, so native tasks can snapshot the solver
/// before any iteration and re-run that iteration in isolation.
#[derive(Clone, Debug)]
pub struct Solver {
    graph: Vec<Vec<Edge>>,
    n: usize,
    total_flow: i64,
    total_cost: i64,
    iterations: u64,
}

impl Solver {
    /// Builds the residual network for `net` (flow from node 0 to node
    /// `nodes - 1`).
    pub fn new(net: &Network) -> Self {
        let n = net.nodes;
        let mut graph: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for a in &net.arcs {
            let (u, v) = (a.from, a.to);
            let ru = graph[u].len();
            let rv = graph[v].len();
            graph[u].push(Edge {
                to: v,
                cap: a.cap,
                cost: a.cost,
                rev: rv,
            });
            graph[v].push(Edge {
                to: u,
                cap: 0,
                cost: -a.cost,
                rev: ru,
            });
        }
        Self {
            graph,
            n,
            total_flow: 0,
            total_cost: 0,
            iterations: 0,
        }
    }

    /// Runs one augmenting iteration: a Bellman-Ford pricing sweep, path
    /// extraction, and augmentation. Returns the phase costs plus the
    /// flow and cost shipped by this augmentation, or `None` once the
    /// solve has ended: no augmenting path remains, or more than 10 000
    /// iterations ran — a defensive bound for malformed instances.
    pub fn step(&mut self) -> Option<(IterationCosts, i64, i64)> {
        if self.iterations > 10_000 {
            return None;
        }
        let n = self.n;
        let (source, sink) = (0, n - 1);
        // Bellman-Ford over the residual network.
        let mut costs = IterationCosts::default();
        let mut dist = vec![i64::MAX; n];
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
        dist[source] = 0;
        let mut last_pass_relaxed = false;
        for _pass in 0..n {
            let mut relaxed = false;
            for u in 0..n {
                if dist[u] == i64::MAX {
                    continue;
                }
                for (ei, e) in self.graph[u].iter().enumerate() {
                    // The arc scan: this is the parallelizable pricing
                    // work (each arc's reduced cost is independent).
                    costs.parallel += 1;
                    if e.cap > 0 && dist[u] + e.cost < dist[e.to] {
                        dist[e.to] = dist[u] + e.cost;
                        prev[e.to] = Some((u, ei));
                        relaxed = true;
                    }
                }
            }
            last_pass_relaxed = relaxed;
            if !relaxed {
                break;
            }
        }
        costs.potentials_changed = last_pass_relaxed;
        if dist[sink] == i64::MAX {
            return None;
        }
        // Serial: extract the path and find the bottleneck.
        let mut bottleneck = i64::MAX;
        let mut v = sink;
        while let Some((u, ei)) = prev[v] {
            costs.serial += 2;
            bottleneck = bottleneck.min(self.graph[u][ei].cap);
            v = u;
        }
        // Apply: augment along the path.
        let mut cost_delta = 0i64;
        let mut v = sink;
        while let Some((u, ei)) = prev[v] {
            costs.apply += 2;
            let rev = self.graph[u][ei].rev;
            self.graph[u][ei].cap -= bottleneck;
            self.graph[v][rev].cap += bottleneck;
            cost_delta += bottleneck * self.graph[u][ei].cost;
            v = u;
        }
        self.total_flow += bottleneck;
        self.total_cost += cost_delta;
        self.iterations += 1;
        Some((costs, bottleneck, cost_delta))
    }

    /// The totals so far.
    pub fn result(&self) -> FlowResult {
        FlowResult {
            flow: self.total_flow,
            cost: self.total_cost,
            iterations: self.iterations,
        }
    }
}

/// Solves min-cost max-flow from node 0 to node `nodes-1`. Calls
/// `on_iteration(costs)` after every augmenting iteration.
pub fn solve(net: &Network, mut on_iteration: impl FnMut(IterationCosts)) -> FlowResult {
    let mut solver = Solver::new(net);
    while let Some((costs, _, _)) = solver.step() {
        on_iteration(costs);
    }
    solver.result()
}

/// Generates a layered transportation network (the vehicle-scheduling
/// shape: depots -> duty layers -> sink).
pub fn generate_network(layers: usize, width: usize, seed: u64) -> Network {
    let mut rng = Prng::new(seed);
    let nodes = 2 + layers * width;
    let node = |l: usize, w: usize| 1 + l * width + w;
    let mut arcs = Vec::new();
    // Source feeds the first layer.
    for w in 0..width {
        arcs.push(Arc {
            from: 0,
            to: node(0, w),
            cap: 2 + rng.below(4) as i64,
            cost: 0,
        });
    }
    // Dense-ish layer-to-layer arcs with varied costs.
    for l in 0..layers - 1 {
        for a in 0..width {
            for b in 0..width {
                if rng.chance(0.6) {
                    arcs.push(Arc {
                        from: node(l, a),
                        to: node(l + 1, b),
                        cap: 1 + rng.below(3) as i64,
                        cost: 1 + rng.below(50) as i64,
                    });
                }
            }
        }
    }
    // Last layer drains to the sink.
    for w in 0..width {
        arcs.push(Arc {
            from: node(layers - 1, w),
            to: nodes - 1,
            cap: 2 + rng.below(4) as i64,
            cost: 0,
        });
    }
    Network { nodes, arcs }
}

/// The 181.mcf workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mcf;

/// mcf's loop: one augmenting iteration of the solver on a network a
/// step, until the solve ends. The tail is the network simplex's running
/// flow and cost totals, plus the potential-regeneration counter
/// (`refresh_potential`'s generation — the very state the paper's mcf
/// speculation bets on), in wrapping u64 arithmetic over the i64 deltas'
/// bit patterns.
struct Augment(Network);

impl Kernel for Augment {
    type State = Solver;
    type Point = Solver;
    type Seen = IterationCosts;
    type Book = ();
    const SLOTS: usize = 3;

    fn start(&self) -> Solver {
        Solver::new(&self.0)
    }

    fn step(&self, solver: &mut Solver, _: u64) -> Option<(Vec<u8>, u64, IterationCosts)> {
        let (costs, flow_delta, cost_delta) = solver.step()?;
        let mut bytes = Vec::with_capacity(17);
        bytes.extend(flow_delta.to_le_bytes());
        bytes.extend(cost_delta.to_le_bytes());
        bytes.push(u8::from(costs.potentials_changed));
        let work = costs.serial + costs.parallel + costs.apply;
        Some((bytes, work.max(1), costs))
    }

    /// The whole solver. Only a plan with two or more seats keeps points,
    /// one before each of its chunks: at its k = 1 that is one per ~30 µs
    /// iteration, ~3 MiB at `Train`.
    fn point(&self, solver: &Solver) -> Option<Solver> {
        Some(solver.clone())
    }

    fn restore(&self, solver: &Solver) -> Solver {
        solver.clone()
    }

    fn record(&self, _: &mut (), i: u64, _: u64, c: IterationCosts) -> IterationRecord {
        // Phase A: pivot selection / path extraction (serial).
        // Phase B: the arc-pricing sweeps.
        // Phase C: augmentation applied in order.
        let mut record =
            IterationRecord::new(c.serial + c.parallel / 3, 2 * c.parallel / 3, c.apply);
        // refresh_potential speculation: violated when the sweep was
        // still changing potentials at its end.
        record.misspec_on = (i > 0 && c.potentials_changed).then(|| i - 1);
        record
    }

    fn fold(&self, _: u64, bytes: &[u8], totals: &mut [u64]) {
        let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
        totals[0] = totals[0].wrapping_add(word(&bytes[..8]));
        totals[1] = totals[1].wrapping_add(word(&bytes[8..16]));
        totals[2] += u64::from(bytes[16]);
    }
}

impl Workload for Mcf {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "181.mcf",
            name: "mcf",
            loops: &[
                "price_out_impl (implicit.c:228-273)",
                "primal_net_simplex (psimplex.c:50-138)",
                "primal_bea_mpp (pbeampp.c:161-172)",
                "primal_bea_mpp (pbeampp.c:181-195)",
            ],
            exec_time_pct: 100,
            lines_changed_all: 0,
            lines_changed_model: 0,
            techniques: &[
                Technique::AliasSpeculation,
                Technique::ControlSpeculation,
                Technique::SilentStoreSpeculation,
                Technique::TlsMemory,
                Technique::Dswp,
                Technique::Nested,
            ],
            paper_speedup: 2.84,
            paper_threads: 32,
        }
    }

    fn kernel(&self, size: InputSize) -> KernelLoop {
        let (layers, width) = match size {
            InputSize::Test => (6, 10),
            InputSize::Train => (8, 16),
            InputSize::Ref => (10, 24),
        };
        KernelLoop::new(Augment(generate_network(layers, width, 0x181)))
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("181.mcf");
        let tree = program.add_global("basis_tree", 1 << 12);
        let potentials = program.add_global("potentials", 1 << 12);
        program.declare_extern(
            "refresh_potential",
            ExternEffect {
                reads: vec![tree, potentials],
                writes: vec![potentials],
                ..Default::default()
            },
        );
        program.declare_extern(
            "price_arcs",
            ExternEffect {
                reads: vec![potentials],
                ..Default::default()
            },
        );
        program.declare_extern(
            "pivot",
            ExternEffect {
                reads: vec![tree, potentials],
                writes: vec![tree],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("global_opt");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let fresh = b.call_ext("refresh_potential", &[], None);
        b.label_last("refresh");
        let priced = b.call_ext("price_arcs", &[fresh], None);
        b.label_last("price");
        let piv = b.call_ext("pivot", &[priced], None);
        b.label_last("pivot");
        let zero = b.const_(0);
        let done = b.binop(Opcode::CmpEq, piv, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        let mut profile = LoopProfile::with_trip_count(300);
        let f = program.function(func);
        // refresh_potential almost never actually changes a potential
        // another iteration observes (silent stores), and the pivot's
        // tree update rarely collides with pricing.
        profile
            .memory
            .record_by_label(f, "refresh", "refresh", 0.05);
        profile.memory.record_by_label(f, "refresh", "price", 0.05);
        profile.memory.record_by_label(f, "price", "refresh", 0.05);
        profile.memory.record_by_label(f, "pivot", "pivot", 0.9);
        // The convergence test depends on the pivot, but it is strongly
        // biased towards continuing — control-speculated (Table 1 lists
        // control speculation for primal_net_simplex).
        profile.branches.record(seqpar_ir::BlockId::new(1), 0.003);
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

    /// A tiny instance with a known optimum.
    fn diamond() -> Network {
        // 0 -> 1 -> 3 (cost 1+1), 0 -> 2 -> 3 (cost 2+2), caps 1 each.
        Network {
            nodes: 4,
            arcs: vec![
                Arc {
                    from: 0,
                    to: 1,
                    cap: 1,
                    cost: 1,
                },
                Arc {
                    from: 1,
                    to: 3,
                    cap: 1,
                    cost: 1,
                },
                Arc {
                    from: 0,
                    to: 2,
                    cap: 1,
                    cost: 2,
                },
                Arc {
                    from: 2,
                    to: 3,
                    cap: 1,
                    cost: 2,
                },
            ],
        }
    }

    #[test]
    fn solves_the_diamond_optimally() {
        let r = solve(&diamond(), |_| {});
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, 1 + 1 + 2 + 2);
        assert_eq!(r.iterations, 2);
    }

    #[test]
    fn cheapest_path_is_used_first() {
        let mut costs_seen = Vec::new();
        let net = Network {
            nodes: 3,
            arcs: vec![
                Arc {
                    from: 0,
                    to: 1,
                    cap: 5,
                    cost: 3,
                },
                Arc {
                    from: 1,
                    to: 2,
                    cap: 5,
                    cost: 0,
                },
                Arc {
                    from: 0,
                    to: 2,
                    cap: 1,
                    cost: 1,
                },
            ],
        };
        let r = solve(&net, |c| costs_seen.push(c));
        assert_eq!(r.flow, 6);
        // 1 unit at cost 1 plus 5 units at cost 3.
        assert_eq!(r.cost, 1 + 15);
    }

    #[test]
    fn disconnected_sink_ships_nothing() {
        let net = Network {
            nodes: 3,
            arcs: vec![Arc {
                from: 0,
                to: 1,
                cap: 5,
                cost: 1,
            }],
        };
        let r = solve(&net, |_| {});
        assert_eq!(r.flow, 0);
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn negative_reduced_costs_via_residuals_are_handled() {
        // Forcing flow re-routing through reverse edges.
        let net = Network {
            nodes: 4,
            arcs: vec![
                Arc {
                    from: 0,
                    to: 1,
                    cap: 2,
                    cost: 1,
                },
                Arc {
                    from: 0,
                    to: 2,
                    cap: 1,
                    cost: 10,
                },
                Arc {
                    from: 1,
                    to: 2,
                    cap: 1,
                    cost: 1,
                },
                Arc {
                    from: 1,
                    to: 3,
                    cap: 1,
                    cost: 10,
                },
                Arc {
                    from: 2,
                    to: 3,
                    cap: 2,
                    cost: 1,
                },
            ],
        };
        let r = solve(&net, |_| {});
        assert_eq!(r.flow, 3);
        // Optimal: 0-1-2-3 (3), 0-1-3 (11), 0-2-3 (11) -> 25.
        assert_eq!(r.cost, 25);
    }

    #[test]
    fn generated_networks_have_positive_flow() {
        let net = generate_network(5, 8, 1);
        let r = solve(&net, |_| {});
        assert!(r.flow > 0);
        assert!(r.iterations > 10);
    }

    #[test]
    fn trace_is_serial_fraction_limited() {
        let t = Mcf.trace(InputSize::Test);
        assert!(t.len() > 20, "{} iterations", t.len());
        let a: u64 = t.records().iter().map(|r| r.a_cost).sum();
        let b: u64 = t.records().iter().map(|r| r.b_cost).sum();
        let c: u64 = t.records().iter().map(|r| r.c_cost).sum();
        let serial_frac = (a + c) as f64 / (a + b + c) as f64;
        assert!(
            serial_frac > 0.2 && serial_frac < 0.6,
            "serial fraction {serial_frac}"
        );
    }

    #[test]
    fn ir_model_speculates_refresh_potential() {
        let model = Mcf.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(result.report().uses(Technique::AliasSpeculation));
    }
}
