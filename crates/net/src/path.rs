//! Path representation and routing algorithms: Dijkstra shortest paths and
//! Yen's k-shortest loopless paths (the multi-flow scenario routes each flow
//! on its shortest path and migrates it to the 2nd-shortest, §9.1).

use crate::graph::{NodeId, Topology};
use p4update_des::SimDuration;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simple (loop-free) path through the topology, as an ordered node list
/// from ingress to egress. Consecutive nodes are guaranteed adjacent when the
/// path was produced by the algorithms in this module; [`Path::validate`]
/// checks arbitrary inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Wrap an ordered node list. Panics on fewer than 2 nodes or repeated
    /// nodes (paths are simple by definition in the update model).
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(nodes.len() >= 2, "a path needs at least ingress and egress");
        let mut seen = nodes.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), nodes.len(), "path visits a node twice");
        Path { nodes }
    }

    /// Ordered nodes, ingress first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The ingress (source) node.
    pub fn ingress(&self) -> NodeId {
        self.nodes[0]
    }

    /// The egress (destination) node.
    pub fn egress(&self) -> NodeId {
        *self.nodes.last().expect("non-empty by construction")
    }

    /// Number of hops (edges).
    pub fn hop_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether `v` lies on the path.
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }

    /// Position of `v` on the path (0 = ingress).
    pub fn position(&self, v: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == v)
    }

    /// Hop distance from `v` to the egress along this path — the paper's
    /// distance label `D` (egress has distance 0).
    pub fn distance_to_egress(&self, v: NodeId) -> Option<u32> {
        self.position(v).map(|p| (self.nodes.len() - 1 - p) as u32)
    }

    /// The node `v` forwards to on this path (its *parent* / successor in
    /// the paper's terminology), `None` for the egress.
    pub fn successor(&self, v: NodeId) -> Option<NodeId> {
        let p = self.position(v)?;
        self.nodes.get(p + 1).copied()
    }

    /// The node that forwards to `v` (its *child* / predecessor), `None` for
    /// the ingress.
    pub fn predecessor(&self, v: NodeId) -> Option<NodeId> {
        let p = self.position(v)?;
        p.checked_sub(1).map(|i| self.nodes[i])
    }

    /// Directed edges `(from, to)` along the path.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// Sum of link latencies along the path.
    pub fn total_latency(&self, topo: &Topology) -> SimDuration {
        self.edges().fold(SimDuration::ZERO, |acc, (a, b)| {
            acc + topo
                .latency_between(a, b)
                .expect("path edge must be a topology link")
        })
    }

    /// Check that every consecutive pair is adjacent in `topo`.
    pub fn validate(&self, topo: &Topology) -> bool {
        self.edges().all(|(a, b)| topo.link_between(a, b).is_some())
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on cost, tie-broken by node id for determinism
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("costs are finite")
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Latency-weighted shortest-path distances (in milliseconds) from `src` to
/// every node; `f64::INFINITY` for unreachable nodes.
pub fn latency_distances_from(topo: &Topology, src: NodeId) -> Vec<f64> {
    let mut search = Search::new(topo.node_count());
    search.run(topo, src, None, &[], &Prune::NONE);
    search.dist
}

/// Hop counts from `v` to every node (BFS; the topology is undirected, so
/// these are also the hop counts *to* `v`); `u32::MAX` for unreachable
/// nodes.
pub fn hop_distances_from(topo: &Topology, v: NodeId) -> Vec<u32> {
    let mut hops = vec![u32::MAX; topo.node_count()];
    hops[v.index()] = 0;
    let mut queue = std::collections::VecDeque::from([v]);
    while let Some(x) = queue.pop_front() {
        for &(y, _) in topo.neighbors(x) {
            if hops[y.index()] == u32::MAX {
                hops[y.index()] = hops[x.index()] + 1;
                queue.push_back(y);
            }
        }
    }
    hops
}

/// Which nodes a bounded search may skip: any node whose cost so far plus
/// an admissible lower bound on its remaining cost exceeds `limit_ms`.
/// The lower bound is the node's hop count to the destination times the
/// topology's minimum link latency (DESIGN.md §17 gives the exactness
/// argument).
struct Prune<'a> {
    /// Hop count from every node to the destination; empty for no bound.
    hops: &'a [u32],
    min_latency_ms: f64,
    limit_ms: f64,
}

impl Prune<'_> {
    /// A lower bound of zero and no limit: a plain Dijkstra.
    const NONE: Prune<'static> = Prune {
        hops: &[],
        min_latency_ms: 0.0,
        limit_ms: f64::INFINITY,
    };

    fn skips(&self, v: NodeId, cost: f64) -> bool {
        let h = self
            .hops
            .get(v.index())
            .map_or(0.0, |&k| f64::from(k) * self.min_latency_ms);
        cost + h > self.limit_ms
    }
}

fn edge_banned(banned_edges: &[(NodeId, NodeId)], a: NodeId, b: NodeId) -> bool {
    banned_edges
        .iter()
        .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
}

/// The one shortest-path search: Dijkstra over link latency with banned
/// nodes and edges (Yen's spur computation), optional pruning, and
/// deterministic ties (pop order `(cost, id)`; an equal-cost relaxation
/// from a smaller node id takes over the predecessor). Buffers are reused
/// across searches; only the entries a search touched are reset.
struct Search {
    dist: Vec<f64>,
    prev: Vec<Option<NodeId>>,
    /// Nodes the next search must not enter.
    banned: Vec<bool>,
    touched: Vec<NodeId>,
    heap: BinaryHeap<HeapEntry>,
    /// [`Self::feasible_bound`]'s path so far: node, latency from the
    /// walk's start, and the next neighbour to try.
    walk: Vec<(NodeId, f64, usize)>,
    /// Nodes [`Self::feasible_bound`] has visited.
    visited: Vec<NodeId>,
}

/// Nodes [`Search::feasible_bound`] may visit before it gives up.
const WALK_BUDGET: usize = 64;

impl Search {
    fn new(n: usize) -> Self {
        Search {
            dist: vec![f64::INFINITY; n],
            prev: vec![None; n],
            banned: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            walk: Vec::new(),
            visited: Vec::new(),
        }
    }

    fn set(&mut self, v: NodeId, cost: f64, prev: Option<NodeId>) {
        if self.dist[v.index()] == f64::INFINITY {
            self.touched.push(v);
        }
        self.dist[v.index()] = cost;
        self.prev[v.index()] = prev;
        self.heap.push(HeapEntry { cost, node: v });
    }

    /// Search from `src`, stopping once `dst` pops (`None`: settle every
    /// reachable node). Leaves the distances and predecessors in `self`.
    fn run(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: Option<NodeId>,
        banned_edges: &[(NodeId, NodeId)],
        prune: &Prune,
    ) {
        for v in self.touched.drain(..) {
            self.dist[v.index()] = f64::INFINITY;
            self.prev[v.index()] = None;
        }
        self.heap.clear();
        if self.banned[src.index()] || dst.is_some_and(|d| self.banned[d.index()]) {
            return;
        }
        self.set(src, 0.0, None);
        while let Some(HeapEntry { cost, node }) = self.heap.pop() {
            if cost > self.dist[node.index()] {
                continue;
            }
            if Some(node) == dst {
                break;
            }
            for &(next, link) in topo.neighbors(node) {
                if self.banned[next.index()] || edge_banned(banned_edges, node, next) {
                    continue;
                }
                let nd = cost + topo.link(link).latency.as_millis_f64();
                if prune.skips(next, nd) {
                    continue;
                }
                let d = self.dist[next.index()];
                if nd < d || (nd == d && self.prev[next.index()].is_some_and(|p| node < p)) {
                    self.set(next, nd, Some(node));
                }
            }
        }
    }

    /// The path the last search found to `dst`.
    fn path_to(&self, src: NodeId, dst: NodeId) -> Option<Path> {
        if !self.dist[dst.index()].is_finite() {
            return None;
        }
        let mut nodes = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = self.prev[cur.index()].expect("reachable node has a predecessor");
            nodes.push(cur);
        }
        nodes.reverse();
        Some(Path::new(nodes))
    }

    /// Latency of one feasible path from `from` to the node `hops` counts
    /// to, or infinity when none turns up within [`WALK_BUDGET`] visited
    /// nodes. The path comes from a depth-first walk that tries allowed
    /// neighbours one hop closer first, then level ones, then one hop
    /// farther; its latency is summed in the order a search from `from`
    /// would sum it.
    fn feasible_bound(
        &mut self,
        topo: &Topology,
        from: NodeId,
        hops: &[u32],
        banned_edges: &[(NodeId, NodeId)],
    ) -> f64 {
        let mut bound = f64::INFINITY;
        if hops[from.index()] == u32::MAX || self.banned[from.index()] {
            return bound;
        }
        // Visited nodes are banned while the walk runs, then released.
        self.banned[from.index()] = true;
        self.visited.push(from);
        self.walk.push((from, 0.0, 0));
        while let Some(top) = self.walk.last_mut() {
            let (cur, cost) = (top.0, top.1);
            let level = u64::from(hops[cur.index()]);
            if level == 0 {
                bound = cost;
                break;
            }
            let adj = topo.neighbors(cur);
            let mut step = None;
            while top.2 < 3 * adj.len() {
                let (pass, i) = (top.2 / adj.len(), top.2 % adj.len());
                top.2 += 1;
                let (next, link) = adj[i];
                if u64::from(hops[next.index()]) + 1 == level + pass as u64
                    && !self.banned[next.index()]
                    && !edge_banned(banned_edges, cur, next)
                {
                    step = Some((next, cost + topo.link(link).latency.as_millis_f64()));
                    break;
                }
            }
            match step {
                None => {
                    self.walk.pop();
                }
                Some(_) if self.visited.len() == WALK_BUDGET => break,
                Some((next, cost)) => {
                    self.banned[next.index()] = true;
                    self.visited.push(next);
                    self.walk.push((next, cost, 0));
                }
            }
        }
        self.walk.clear();
        for v in self.visited.drain(..) {
            self.banned[v.index()] = false;
        }
        bound
    }

    /// Shortest allowed path from `src` to the node `hops` counts to,
    /// pruned by the cost of one feasible path. Same result as an unpruned
    /// search, ties included.
    fn bounded_path(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        banned_edges: &[(NodeId, NodeId)],
        hops: &[u32],
    ) -> Option<Path> {
        let bound = self.feasible_bound(topo, src, hops, banned_edges);
        let prune = Prune {
            hops,
            min_latency_ms: topo.min_link_latency().as_millis_f64(),
            limit_ms: bound * (1.0 + 1e-9),
        };
        self.run(topo, src, Some(dst), banned_edges, &prune);
        self.path_to(src, dst)
    }
}

/// Latency-weighted shortest path from `src` to `dst`.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
    if src == dst {
        return None;
    }
    let mut search = Search::new(topo.node_count());
    search.run(topo, src, Some(dst), &[], &Prune::NONE);
    search.path_to(src, dst)
}

/// Yen's algorithm: the `k` shortest loopless paths from `src` to `dst`, in
/// nondecreasing latency order. Returns fewer than `k` if the graph does not
/// contain that many distinct simple paths.
pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if src == dst {
        return Vec::new();
    }
    let hops = hop_distances_from(topo, dst);
    let mut search = Search::new(topo.node_count());
    let Some(first) = search.bounded_path(topo, src, dst, &[], &hops) else {
        return Vec::new();
    };
    let mut result = vec![first];
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    let mut banned_edges = Vec::new();

    while result.len() < k {
        let last = result.last().expect("result non-empty").clone();
        // Each node of the previous path (except egress) is a spur point.
        for spur_idx in 0..last.nodes().len() - 1 {
            let spur_node = last.nodes()[spur_idx];
            let root = &last.nodes()[..=spur_idx];

            // Ban edges that would recreate an already-found path with the
            // same root, and ban root nodes (except the spur) to keep the
            // total path simple.
            banned_edges.clear();
            for p in result
                .iter()
                .map(Path::nodes)
                .chain(candidates.iter().map(|(_, p)| p.nodes()))
            {
                if p.len() > spur_idx + 1 && p[..=spur_idx] == *root {
                    banned_edges.push((p[spur_idx], p[spur_idx + 1]));
                }
            }
            for &v in &root[..spur_idx] {
                search.banned[v.index()] = true;
            }
            let spur = search.bounded_path(topo, spur_node, dst, &banned_edges, &hops);
            for &v in &root[..spur_idx] {
                search.banned[v.index()] = false;
            }

            if let Some(spur) = spur {
                let mut total = root.to_vec();
                total.extend_from_slice(&spur.nodes()[1..]);
                let path = Path::new(total);
                let cost = path.total_latency(topo).as_millis_f64();
                if !candidates.iter().any(|(_, p)| *p == path) && !result.contains(&path) {
                    candidates.push((cost, path));
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Pop the cheapest candidate (deterministic tie-break on node list).
        candidates.sort_by(|(c1, p1), (c2, p2)| {
            c1.partial_cmp(c2)
                .expect("finite")
                .then_with(|| p1.nodes().cmp(p2.nodes()))
        });
        result.push(candidates.remove(0).1);
    }
    result
}

/// The unbounded, allocate-per-search Yen's algorithm the bounded search
/// replaced, kept verbatim as the differential tests' oracle.
#[cfg(test)]
mod oracle {
    use super::{HeapEntry, Path};
    use crate::graph::{NodeId, Topology};
    use std::collections::BinaryHeap;

    fn shortest_path_filtered(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        banned_nodes: &[bool],
        banned_edges: &[(NodeId, NodeId)],
    ) -> Option<Path> {
        let n = topo.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        if banned_nodes[src.index()] || banned_nodes[dst.index()] {
            return None;
        }
        dist[src.index()] = 0.0;
        heap.push(HeapEntry {
            cost: 0.0,
            node: src,
        });
        while let Some(HeapEntry { cost, node }) = heap.pop() {
            if cost > dist[node.index()] {
                continue;
            }
            if node == dst {
                break;
            }
            for &(next, link) in topo.neighbors(node) {
                if banned_nodes[next.index()] {
                    continue;
                }
                if banned_edges
                    .iter()
                    .any(|&(a, b)| (a == node && b == next) || (a == next && b == node))
                {
                    continue;
                }
                let w = topo.link(link).latency.as_millis_f64();
                let nd = cost + w;
                if nd < dist[next.index()]
                    || (nd == dist[next.index()] && prev[next.index()].is_some_and(|p| node < p))
                {
                    dist[next.index()] = nd;
                    prev[next.index()] = Some(node);
                    heap.push(HeapEntry {
                        cost: nd,
                        node: next,
                    });
                }
            }
        }
        if !dist[dst.index()].is_finite() {
            return None;
        }
        let mut nodes = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = prev[cur.index()].expect("reachable node has a predecessor");
            nodes.push(cur);
        }
        nodes.reverse();
        Some(Path::new(nodes))
    }

    pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
        if src == dst {
            return None;
        }
        shortest_path_filtered(topo, src, dst, &vec![false; topo.node_count()], &[])
    }

    pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let Some(first) = shortest_path(topo, src, dst) else {
            return Vec::new();
        };
        let mut result = vec![first];
        let mut candidates: Vec<(f64, Path)> = Vec::new();

        while result.len() < k {
            let last = result.last().expect("result non-empty").clone();
            for spur_idx in 0..last.nodes().len() - 1 {
                let spur_node = last.nodes()[spur_idx];
                let root: Vec<NodeId> = last.nodes()[..=spur_idx].to_vec();
                let mut banned_edges = Vec::new();
                for p in result
                    .iter()
                    .map(Path::nodes)
                    .chain(candidates.iter().map(|(_, p)| p.nodes()))
                {
                    if p.len() > spur_idx + 1 && p[..=spur_idx] == root[..] {
                        banned_edges.push((p[spur_idx], p[spur_idx + 1]));
                    }
                }
                let mut banned_nodes = vec![false; topo.node_count()];
                for &v in &root[..spur_idx] {
                    banned_nodes[v.index()] = true;
                }
                if let Some(spur) =
                    shortest_path_filtered(topo, spur_node, dst, &banned_nodes, &banned_edges)
                {
                    let mut total = root.clone();
                    total.extend_from_slice(&spur.nodes()[1..]);
                    let path = Path::new(total);
                    let cost = path.total_latency(topo).as_millis_f64();
                    if !candidates.iter().any(|(_, p)| *p == path) && !result.contains(&path) {
                        candidates.push((cost, path));
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|(c1, p1), (c2, p2)| {
                c1.partial_cmp(c2)
                    .expect("finite")
                    .then_with(|| p1.nodes().cmp(p2.nodes()))
            });
            result.push(candidates.remove(0).1);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;
    use crate::topologies;
    use p4update_des::SimRng;

    /// Every ordered pair of `topo` for k ∈ {2, 3, 4}: the bounded Yen
    /// search returns exactly the oracle's paths, and `shortest_path` the
    /// oracle's first one.
    fn assert_all_pairs_match_oracle(topo: &Topology) {
        for src in topo.node_ids() {
            for dst in topo.node_ids() {
                assert_eq!(
                    shortest_path(topo, src, dst),
                    oracle::shortest_path(topo, src, dst),
                    "{}: shortest {src} -> {dst}",
                    topo.name
                );
                for k in 2..=4 {
                    assert_eq!(
                        k_shortest_paths(topo, src, dst, k),
                        oracle::k_shortest_paths(topo, src, dst, k),
                        "{}: k = {k}, {src} -> {dst}",
                        topo.name
                    );
                }
            }
        }
    }

    #[test]
    fn yen_matches_the_oracle_on_every_named_topology() {
        for topo in [
            topologies::fig1(),
            topologies::fig2_chain(),
            topologies::fig2_chain_slow_detour(),
            topologies::multi_gateway(),
            topologies::fig4_net(),
            topologies::b4(),
            topologies::internet2(),
            topologies::att_mpls(),
            topologies::chinanet(),
            topologies::synthetic_fat_tree_64(),
            topologies::fat_tree(4),
        ] {
            assert_all_pairs_match_oracle(&topo);
        }
    }

    #[test]
    fn yen_matches_the_oracle_on_random_ft512_pairs() {
        let topo = topologies::synthetic_fat_tree_512();
        let n = topo.node_count();
        let mut rng = SimRng::new(512);
        for _ in 0..2000 {
            let src = NodeId(rng.uniform_usize(n) as u32);
            let dst = NodeId(rng.uniform_usize(n) as u32);
            assert_eq!(
                k_shortest_paths(&topo, src, dst, 2),
                oracle::k_shortest_paths(&topo, src, dst, 2),
                "{src} -> {dst}"
            );
        }
    }

    /// A zero-latency link makes the hop lower bound vanish, and
    /// equal-cost routes leave pop-order ties alone to decide each
    /// predecessor.
    #[test]
    fn yen_matches_the_oracle_with_zero_latency_ties() {
        // A 3×3 grid of 1 ms links (many equal-cost routes between
        // opposite corners) plus two bridge nodes joined by a 0 ms link.
        // The zero link joins the two largest ids: a pair of equal-distance
        // nodes on a zero link can otherwise take each other as predecessor,
        // and then both searches loop forever rebuilding the path.
        let mut b = TopologyBuilder::new("zero-ties");
        let v: Vec<_> = (0..11).map(|i| b.add_node(format!("g{i}"))).collect();
        let one = SimDuration::from_millis(1);
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c < 2 {
                    b.add_link(v[i], v[i + 1], one, 10.0);
                }
                if r < 2 {
                    b.add_link(v[i], v[i + 3], one, 10.0);
                }
            }
        }
        b.add_link(v[0], v[9], one, 10.0);
        b.add_link(v[2], v[9], one, 10.0);
        b.add_link(v[6], v[10], one, 10.0);
        b.add_link(v[8], v[10], one, 10.0);
        b.add_link(v[9], v[10], SimDuration::ZERO, 10.0);
        let grid = b.build();
        assert_eq!(grid.min_link_latency(), SimDuration::ZERO);
        assert_all_pairs_match_oracle(&grid);

        // Small random graphs whose latencies are drawn from {1, 2} ms:
        // equal-cost routes everywhere.
        let mut rng = SimRng::new(17);
        for round in 0..40 {
            let n = 6 + rng.uniform_usize(6);
            let mut b = TopologyBuilder::new(format!("ties-{round}"));
            let v: Vec<_> = (0..n).map(|i| b.add_node(format!("t{i}"))).collect();
            for i in 1..n {
                let j = rng.uniform_usize(i);
                let lat = SimDuration::from_millis(1 + rng.uniform_usize(2) as u64);
                b.add_link(v[i], v[j], lat, 10.0);
            }
            for _ in 0..n {
                let (i, j) = (rng.uniform_usize(n), rng.uniform_usize(n));
                if i != j && !b.has_link(v[i], v[j]) {
                    let lat = SimDuration::from_millis(1 + rng.uniform_usize(2) as u64);
                    b.add_link(v[i], v[j], lat, 10.0);
                }
            }
            assert_all_pairs_match_oracle(&b.build());
        }
    }

    #[test]
    fn hop_distances_count_links() {
        let t = diamond();
        assert_eq!(hop_distances_from(&t, NodeId(0)), vec![0, 1, 1, 1]);
        assert_eq!(hop_distances_from(&t, NodeId(1)), vec![1, 0, 2, 1]);
    }

    /// Diamond: 0-1-3 (fast) and 0-2-3 (slow), plus direct 0-3 (slowest).
    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new("diamond");
        let v: Vec<_> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[3], SimDuration::from_millis(1), 10.0);
        b.add_link(v[0], v[2], SimDuration::from_millis(2), 10.0);
        b.add_link(v[2], v[3], SimDuration::from_millis(2), 10.0);
        b.add_link(v[0], v[3], SimDuration::from_millis(10), 10.0);
        b.build()
    }

    #[test]
    fn path_accessors() {
        let p = Path::new(vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(p.ingress(), NodeId(0));
        assert_eq!(p.egress(), NodeId(3));
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.distance_to_egress(NodeId(0)), Some(2));
        assert_eq!(p.distance_to_egress(NodeId(3)), Some(0));
        assert_eq!(p.distance_to_egress(NodeId(9)), None);
        assert_eq!(p.successor(NodeId(1)), Some(NodeId(3)));
        assert_eq!(p.successor(NodeId(3)), None);
        assert_eq!(p.predecessor(NodeId(1)), Some(NodeId(0)));
        assert_eq!(p.predecessor(NodeId(0)), None);
        assert!(p.contains(NodeId(1)));
        assert!(!p.contains(NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn looping_path_panics() {
        Path::new(vec![NodeId(0), NodeId(1), NodeId(0)]);
    }

    #[test]
    fn dijkstra_picks_the_fast_branch() {
        let t = diamond();
        let p = shortest_path(&t, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(p.total_latency(&t).as_millis_f64(), 2.0);
    }

    #[test]
    fn dijkstra_same_node_is_none() {
        let t = diamond();
        assert!(shortest_path(&t, NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    fn distances_from_source() {
        let t = diamond();
        let d = latency_distances_from(&t, NodeId(0));
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 2.0);
        assert_eq!(d[3], 2.0);
    }

    #[test]
    fn yen_orders_three_paths() {
        let t = diamond();
        let paths = k_shortest_paths(&t, NodeId(0), NodeId(3), 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(paths[1].nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(paths[2].nodes(), &[NodeId(0), NodeId(3)]);
        let costs: Vec<f64> = paths
            .iter()
            .map(|p| p.total_latency(&t).as_millis_f64())
            .collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn yen_returns_fewer_when_exhausted() {
        let mut b = TopologyBuilder::new("line");
        let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 1.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 1.0);
        let t = b.build();
        let paths = k_shortest_paths(&t, v[0], v[2], 5);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn yen_paths_are_simple_and_valid() {
        let t = crate::topologies::internet2();
        let paths = k_shortest_paths(&t, NodeId(0), NodeId(15), 4);
        assert!(paths.len() >= 2);
        for p in &paths {
            assert!(p.validate(&t));
        }
        // All distinct.
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                assert_ne!(paths[i], paths[j]);
            }
        }
    }

    #[test]
    fn validate_rejects_non_adjacent_hops() {
        let t = diamond();
        let p = Path::new(vec![NodeId(1), NodeId(2)]); // not adjacent
        assert!(!p.validate(&t));
    }
}
