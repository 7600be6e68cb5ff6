//! Netlist partitioning: split a [`Circuit`] DAG — or any directed
//! graph given as an edge list, cycles included (see
//! [`Partition::build_graph`], used by `sim-model` component graphs) —
//! into K shards.
//!
//! Any assignment of nodes to shards is *correct* — the cross-shard
//! protocol (see [`crate::comm`]) preserves per-port FIFO delivery for an
//! arbitrary cut — so strategies trade off only *quality*: the number of
//! cut edges, and how much of the run's work each shard can do at the
//! same time as the others (the slowest shard bounds the run). Three
//! strategies are provided:
//!
//! * [`PartitionStrategy::RoundRobin`] — node `i` goes to shard `i % K`.
//!   Perfect balance, pathological cut; the baseline everything must beat.
//! * [`PartitionStrategy::BfsLayered`] — order nodes by BFS depth from
//!   the circuit inputs (ties by node id) and slice that order into K
//!   equal contiguous blocks. Keeps topological neighbourhoods together,
//!   so most edges stay inside a shard or cross into the next one.
//! * [`PartitionStrategy::GreedyCut`] — seed from *output cones*, then
//!   run boundary-refinement passes: greedily move a node to the
//!   neighbouring shard where most of its edges live whenever that
//!   strictly reduces the cut and keeps every shard within the balance
//!   tolerance.
//!
//! ## Why the greedy cut is not seeded from depth
//!
//! Depth slices form a pipeline: shard 0 owns the shallow layers, shard
//! K−1 the deep ones. In a gate-level netlist the deep layers are where
//! glitches multiply, so on ks128 at K=2 the deep shard processes ~98 %
//! of all events, and since a node run consumes a node's whole ready
//! history, the shallow shard finishes its share before the deep one is
//! well started. The two never overlap and K=2 times like K=1.
//!
//! The circuit path of `GreedyCut` therefore seeds from the output-cone
//! order: every node is keyed by the lowest-numbered circuit output it
//! reaches (a reverse-topological minimum over fanout; a node reaching
//! no output sorts last), then by depth, then by id, and that order is
//! sliced into K equal-count blocks. Each shard owns a side-by-side slice
//! of the full depth (on an adder, a range of bit columns), so every
//! shard has work from the first event. The price is a wider front
//! between slices: refinement leaves fewer cut *edges* than it does from
//! the depth seed (ks128 K=2: 304 against 693), but the edges it keeps
//! are the busy deep ones, so more *events* cross (ks128 K=2 with two
//! random vectors: 64,904 against 19,528). The trade wins because the
//! shards now run side by side. [`Partition::build_graph`] keeps the
//! BFS seed: component graphs may be cyclic and have no outputs.

use circuit::{Circuit, NodeId};

/// Index of a shard (0-based, dense).
pub type ShardId = usize;

/// How to split the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// `node i -> shard i % K`: perfect balance, worst-case cut.
    RoundRobin,
    /// Contiguous blocks of the BFS-layer order.
    BfsLayered,
    /// Output-cone seed (BFS layering on edge-list graphs) plus greedy
    /// cut-minimizing boundary refinement.
    #[default]
    GreedyCut,
}

impl PartitionStrategy {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::RoundRobin => "round-robin",
            PartitionStrategy::BfsLayered => "bfs-layered",
            PartitionStrategy::GreedyCut => "greedy-cut",
        }
    }
}

/// Partition-quality metrics, reported alongside every partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMetrics {
    /// Edges whose endpoints live in different shards.
    pub cut_edges: usize,
    /// Total edges (for cut-fraction reporting).
    pub total_edges: usize,
    /// Nodes per shard.
    pub shard_loads: Vec<usize>,
    /// `(max_load / ideal_load - 1) * 100`, rounded: how far the heaviest
    /// shard exceeds a perfectly balanced split.
    pub load_imbalance_pct: u64,
}

/// A validated assignment of every node to one of `num_shards` shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    num_shards: usize,
    assignment: Vec<ShardId>,
}

impl Partition {
    /// Split `circuit` into `num_shards` shards with `strategy`.
    /// Deterministic: same circuit + K + strategy => same partition.
    ///
    /// # Panics
    /// If `num_shards` is 0.
    pub fn build(circuit: &Circuit, num_shards: usize, strategy: PartitionStrategy) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let n = circuit.num_nodes();
        let assignment = match strategy {
            PartitionStrategy::RoundRobin => (0..n).map(|i| i % num_shards).collect(),
            PartitionStrategy::BfsLayered => bfs_layered(circuit, num_shards),
            PartitionStrategy::GreedyCut => {
                let mut a = output_cones(circuit, num_shards);
                refine(circuit, num_shards, &mut a);
                a
            }
        };
        Partition {
            num_shards,
            assignment,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Shard owning `id`.
    #[inline]
    pub fn shard_of(&self, id: NodeId) -> ShardId {
        self.assignment[id.index()]
    }

    /// The full assignment, indexed by `NodeId::index`.
    pub fn assignment(&self) -> &[ShardId] {
        &self.assignment
    }

    /// Node ids owned by `shard`, ascending.
    pub fn nodes_of(&self, shard: ShardId) -> Vec<NodeId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Reassign one node to another shard (dynamic repartitioning).
    ///
    /// # Panics
    /// If `to` is out of range.
    pub fn reassign(&mut self, id: NodeId, to: ShardId) {
        assert!(to < self.num_shards, "shard {to} out of range");
        self.assignment[id.index()] = to;
    }

    /// Compute the quality metrics of this partition over `circuit`.
    pub fn metrics(&self, circuit: &Circuit) -> PartitionMetrics {
        let mut shard_loads = vec![0usize; self.num_shards];
        for &s in &self.assignment {
            shard_loads[s] += 1;
        }
        let cut_edges = circuit
            .edges()
            .filter(|&(src, t)| self.shard_of(src) != self.shard_of(t.node))
            .count();
        let max_load = shard_loads.iter().copied().max().unwrap_or(0);
        let ideal = (circuit.num_nodes() as f64 / self.num_shards as f64).max(1.0);
        let load_imbalance_pct = ((max_load as f64 / ideal - 1.0) * 100.0).round().max(0.0) as u64;
        PartitionMetrics {
            cut_edges,
            total_edges: circuit.num_edges(),
            shard_loads,
            load_imbalance_pct,
        }
    }

    /// Split an arbitrary directed graph — `num_nodes` nodes, edges as
    /// `(src, dst)` pairs — into `num_shards` shards with `strategy`.
    ///
    /// This is the graph-agnostic face of the partitioner: `sim-model`
    /// lowers component graphs (which, unlike netlists, may contain
    /// cycles and self-loops) through it. The BFS layering runs a real
    /// breadth-first search from the in-degree-0 roots, seeding any
    /// component left unreached by cycles at its lowest node id, so
    /// every strategy is total and deterministic on cyclic inputs.
    ///
    /// # Panics
    /// If `num_shards` is 0 or an edge endpoint is out of range.
    pub fn build_graph(
        num_nodes: usize,
        edges: &[(usize, usize)],
        num_shards: usize,
        strategy: PartitionStrategy,
    ) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert!(
            edges.iter().all(|&(s, d)| s < num_nodes && d < num_nodes),
            "edge endpoint out of range"
        );
        let assignment = match strategy {
            PartitionStrategy::RoundRobin => (0..num_nodes).map(|i| i % num_shards).collect(),
            PartitionStrategy::BfsLayered => graph_bfs_layered(num_nodes, edges, num_shards),
            PartitionStrategy::GreedyCut => {
                let mut a = graph_bfs_layered(num_nodes, edges, num_shards);
                refine_neighbours(&undirected_neighbours(num_nodes, edges), num_shards, &mut a);
                a
            }
        };
        Partition {
            num_shards,
            assignment,
        }
    }

    /// Quality metrics of this partition over an edge-list graph (the
    /// [`Partition::build_graph`] counterpart of [`Partition::metrics`]).
    pub fn metrics_graph(&self, num_nodes: usize, edges: &[(usize, usize)]) -> PartitionMetrics {
        let mut shard_loads = vec![0usize; self.num_shards];
        for &s in &self.assignment {
            shard_loads[s] += 1;
        }
        let cut_edges = edges
            .iter()
            .filter(|&&(src, dst)| self.assignment[src] != self.assignment[dst])
            .count();
        let max_load = shard_loads.iter().copied().max().unwrap_or(0);
        let ideal = (num_nodes as f64 / self.num_shards as f64).max(1.0);
        let load_imbalance_pct = ((max_load as f64 / ideal - 1.0) * 100.0).round().max(0.0) as u64;
        PartitionMetrics {
            cut_edges,
            total_edges: edges.len(),
            shard_loads,
            load_imbalance_pct,
        }
    }
}

/// Undirected incidence lists from a directed edge list (one entry per
/// incident edge end; self-loops contribute to their own node twice,
/// which only ever biases a node towards staying put).
fn undirected_neighbours(num_nodes: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut neighbours = vec![Vec::new(); num_nodes];
    for &(src, dst) in edges {
        neighbours[src].push(dst);
        neighbours[dst].push(src);
    }
    neighbours
}

/// BFS depths over an arbitrary directed graph: multi-source BFS from
/// the in-degree-0 roots, then every node a cycle kept unreached is
/// seeded (lowest id first) as a fresh depth-0 root. Deterministic.
fn graph_bfs_layers(num_nodes: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut out = vec![Vec::new(); num_nodes];
    let mut indeg = vec![0usize; num_nodes];
    for &(src, dst) in edges {
        out[src].push(dst);
        indeg[dst] += 1;
    }
    let mut depth = vec![usize::MAX; num_nodes];
    let mut queue = std::collections::VecDeque::new();
    for (i, &d) in indeg.iter().enumerate() {
        if d == 0 {
            depth[i] = 0;
            queue.push_back(i);
        }
    }
    let mut next_seed = 0;
    loop {
        while let Some(i) = queue.pop_front() {
            for &j in &out[i] {
                if depth[j] == usize::MAX {
                    depth[j] = depth[i] + 1;
                    queue.push_back(j);
                }
            }
        }
        // A cycle with no root: seed its lowest unreached node.
        while next_seed < num_nodes && depth[next_seed] != usize::MAX {
            next_seed += 1;
        }
        if next_seed == num_nodes {
            return depth;
        }
        depth[next_seed] = 0;
        queue.push_back(next_seed);
    }
}

/// Order nodes by (BFS depth, id) and slice into K near-equal
/// contiguous blocks — the edge-list analogue of [`bfs_layered`].
fn graph_bfs_layered(num_nodes: usize, edges: &[(usize, usize)], k: usize) -> Vec<ShardId> {
    let depth = graph_bfs_layers(num_nodes, edges);
    let mut order: Vec<usize> = (0..num_nodes).collect();
    order.sort_by_key(|&i| (depth[i], i));
    slice(&order, k)
}

/// Slice a node order into K near-equal contiguous blocks: ranks
/// `[s*n/k, (s+1)*n/k)` go to shard `s`.
fn slice(order: &[usize], k: usize) -> Vec<ShardId> {
    let n = order.len();
    let mut assignment = vec![0; n];
    for (rank, &i) in order.iter().enumerate() {
        assignment[i] = (rank * k) / n.max(1);
    }
    assignment
}

/// BFS depth of every node from the circuit inputs (inputs are depth 0;
/// a node's depth is 1 + max over fanin — computed over the topological
/// order, so it is a longest-path layering).
fn bfs_layers(circuit: &Circuit) -> Vec<usize> {
    let mut depth = vec![0usize; circuit.num_nodes()];
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        for &src in &node.fanin {
            depth[id.index()] = depth[id.index()].max(depth[src.index()] + 1);
        }
    }
    depth
}

/// Order nodes by (layer, id) and slice into K near-equal contiguous
/// blocks.
fn bfs_layered(circuit: &Circuit, k: usize) -> Vec<ShardId> {
    let depth = bfs_layers(circuit);
    let mut order: Vec<usize> = (0..circuit.num_nodes()).collect();
    order.sort_by_key(|&i| (depth[i], i));
    slice(&order, k)
}

/// The lowest-numbered circuit output (index into `circuit.outputs()`)
/// each node reaches, `usize::MAX` for a node that reaches none: a
/// minimum over fanout, taken in reverse topological order.
fn lowest_output_reached(circuit: &Circuit) -> Vec<usize> {
    let mut cone = vec![usize::MAX; circuit.num_nodes()];
    for (k, &out) in circuit.outputs().iter().enumerate() {
        cone[out.index()] = cone[out.index()].min(k);
    }
    for &id in circuit.topo_order().iter().rev() {
        for t in &circuit.node(id).fanout {
            cone[id.index()] = cone[id.index()].min(cone[t.node.index()]);
        }
    }
    cone
}

/// Order nodes by (lowest output reached, depth, id) and slice into K
/// near-equal contiguous blocks: side-by-side slices of the full depth
/// (see the module docs for why not depth slices).
fn output_cones(circuit: &Circuit, k: usize) -> Vec<ShardId> {
    let cone = lowest_output_reached(circuit);
    let depth = bfs_layers(circuit);
    let mut order: Vec<usize> = (0..circuit.num_nodes()).collect();
    order.sort_by_key(|&i| (cone[i], depth[i], i));
    slice(&order, k)
}

/// Greedy boundary refinement: repeatedly move a node to the shard where
/// most of its edges live, when the move strictly reduces the cut and no
/// shard exceeds `ideal * (1 + TOLERANCE)` nodes. A few passes suffice —
/// each pass only ever decreases the cut, so this terminates.
fn refine(circuit: &Circuit, k: usize, assignment: &mut [ShardId]) {
    // Per-node neighbour list (fanin sources + fanout targets), each entry
    // one incident edge.
    let neighbours: Vec<Vec<usize>> = (0..circuit.num_nodes())
        .map(|i| {
            let node = circuit.node(NodeId(i as u32));
            node.fanin
                .iter()
                .map(|s| s.index())
                .chain(node.fanout.iter().map(|t| t.node.index()))
                .collect()
        })
        .collect();
    refine_neighbours(&neighbours, k, assignment);
}

/// The refinement core, over undirected incidence lists — shared by the
/// netlist and edge-list paths so both see identical move decisions.
fn refine_neighbours(neighbours: &[Vec<usize>], k: usize, assignment: &mut [ShardId]) {
    const TOLERANCE: f64 = 0.10;
    const MAX_PASSES: usize = 4;
    let n = neighbours.len();
    let max_load = (((n as f64 / k as f64) * (1.0 + TOLERANCE)).ceil() as usize).max(1);
    let mut loads = vec![0usize; k];
    for &s in assignment.iter() {
        loads[s] += 1;
    }
    let mut counts = vec![0usize; k];
    for _ in 0..MAX_PASSES {
        let mut moved = false;
        for i in 0..n {
            let home = assignment[i];
            if loads[home] == 1 {
                continue; // never empty a shard
            }
            counts.iter_mut().for_each(|c| *c = 0);
            for &nb in &neighbours[i] {
                counts[assignment[nb]] += 1;
            }
            // Best destination: most incident edges, ties to the lowest
            // shard id (determinism).
            let (best, &best_count) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(s, &c)| (c, std::cmp::Reverse(s)))
                .expect("k > 0");
            if best != home && best_count > counts[home] && loads[best] < max_load {
                assignment[i] = best;
                loads[home] -= 1;
                loads[best] += 1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::generators::{c17, inverter_chain, kogge_stone_adder};

    const ALL: [PartitionStrategy; 3] = [
        PartitionStrategy::RoundRobin,
        PartitionStrategy::BfsLayered,
        PartitionStrategy::GreedyCut,
    ];

    #[test]
    fn every_node_assigned_within_range() {
        let c = kogge_stone_adder(16);
        for strategy in ALL {
            for k in [1, 2, 3, 8] {
                let p = Partition::build(&c, k, strategy);
                assert_eq!(p.assignment().len(), c.num_nodes());
                assert!(p.assignment().iter().all(|&s| s < k), "{strategy:?} k={k}");
                let m = p.metrics(&c);
                assert_eq!(m.shard_loads.iter().sum::<usize>(), c.num_nodes());
            }
        }
    }

    #[test]
    fn single_shard_has_no_cut() {
        let c = c17();
        for strategy in ALL {
            let p = Partition::build(&c, 1, strategy);
            let m = p.metrics(&c);
            assert_eq!(m.cut_edges, 0, "{strategy:?}");
            assert_eq!(m.load_imbalance_pct, 0);
        }
    }

    #[test]
    fn partitions_are_deterministic() {
        let c = kogge_stone_adder(32);
        for strategy in ALL {
            let a = Partition::build(&c, 4, strategy);
            let b = Partition::build(&c, 4, strategy);
            assert_eq!(a, b, "{strategy:?}");
        }
    }

    #[test]
    fn greedy_cut_no_worse_than_bfs_layering() {
        for k in [2, 4, 8] {
            let c = kogge_stone_adder(64);
            let bfs = Partition::build(&c, k, PartitionStrategy::BfsLayered).metrics(&c);
            let greedy = Partition::build(&c, k, PartitionStrategy::GreedyCut).metrics(&c);
            assert!(
                greedy.cut_edges <= bfs.cut_edges,
                "k={k}: greedy {} > bfs {}",
                greedy.cut_edges,
                bfs.cut_edges
            );
        }
    }

    #[test]
    fn greedy_cut_stays_node_balanced_on_kogge_stone() {
        // The depth seed left refinement room to drift to 4-10 % on these
        // circuits; equal-count cone slices leave it nothing to trade.
        for bits in [64, 128] {
            let c = kogge_stone_adder(bits);
            for k in [2, 4, 8] {
                let m = Partition::build(&c, k, PartitionStrategy::GreedyCut).metrics(&c);
                assert!(
                    m.load_imbalance_pct <= 2,
                    "ks{bits} k={k}: imbalance {}%",
                    m.load_imbalance_pct
                );
            }
        }
    }

    #[test]
    fn greedy_cut_slices_side_by_side_not_by_depth() {
        // Every shard owns circuit inputs and circuit outputs, so each
        // has work from the first event; depth slices give the inputs to
        // shard 0 and the outputs to shard K-1.
        let c = kogge_stone_adder(64);
        for k in [2, 4, 8] {
            let p = Partition::build(&c, k, PartitionStrategy::GreedyCut);
            for s in 0..k {
                for (what, ends) in [("input", c.inputs()), ("output", c.outputs())] {
                    assert!(
                        ends.iter().any(|&id| p.shard_of(id) == s),
                        "k={k}: shard {s} owns no circuit {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn layered_beats_round_robin_on_a_chain() {
        // On a chain, round-robin cuts every edge; layering cuts K-1.
        let c = inverter_chain(40);
        let rr = Partition::build(&c, 4, PartitionStrategy::RoundRobin).metrics(&c);
        let bfs = Partition::build(&c, 4, PartitionStrategy::BfsLayered).metrics(&c);
        assert!(bfs.cut_edges < rr.cut_edges);
        assert_eq!(bfs.cut_edges, 3);
    }

    #[test]
    fn refinement_respects_balance_tolerance() {
        let c = kogge_stone_adder(64);
        for k in [2, 4, 8] {
            let m = Partition::build(&c, k, PartitionStrategy::GreedyCut).metrics(&c);
            // 10% tolerance + ceil rounding: stay comfortably under 25%.
            assert!(
                m.load_imbalance_pct <= 25,
                "k={k}: imbalance {}%",
                m.load_imbalance_pct
            );
        }
    }

    #[test]
    fn more_shards_than_nodes_leaves_empty_shards_only() {
        let c = c17(); // 13 nodes: 5 inputs + 6 gates + 2 outputs
        let p = Partition::build(&c, 16, PartitionStrategy::RoundRobin);
        let m = p.metrics(&c);
        assert_eq!(m.shard_loads.iter().sum::<usize>(), 13);
        assert!(m.shard_loads.iter().all(|&l| l <= 1));
    }

    #[test]
    fn nodes_of_matches_assignment() {
        let c = c17();
        let p = Partition::build(&c, 3, PartitionStrategy::GreedyCut);
        for s in 0..3 {
            for id in p.nodes_of(s) {
                assert_eq!(p.shard_of(id), s);
            }
        }
    }
}
