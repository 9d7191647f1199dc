//! The network graph: switches (nodes) and bidirectional links with
//! propagation latency and per-direction capacity.

use p4update_des::SimDuration;
use std::fmt;

/// Identifier of a switch / node. Dense, assigned in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into dense per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an undirected link (index into [`Topology::links`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index into the topology's link table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A directed view of a link: the capacity unit the congestion model tracks.
/// Links are full-duplex; each direction has its own capacity budget and is
/// controlled exclusively by the sending endpoint (which is what makes the
/// paper's *local* congestion scheduling well-defined).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DirectedLink {
    /// Transmitting endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
}

/// A node: a P4 switch with an optional geographic position (used to derive
/// propagation latency for WAN topologies).
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable site name ("Chicago", "v3", ...).
    pub name: String,
    /// `(latitude, longitude)` in degrees, if the topology is geographic.
    pub position: Option<(f64, f64)>,
}

/// An undirected link between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint (the lower `NodeId` by convention after normalization).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Capacity per direction, in abstract flow-size units.
    pub capacity: f64,
}

impl Link {
    /// The endpoint opposite to `n`, or `None` if `n` is not an endpoint.
    pub fn opposite(&self, n: NodeId) -> Option<NodeId> {
        if n == self.a {
            Some(self.b)
        } else if n == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// An immutable network topology.
///
/// Construction goes through [`TopologyBuilder`]; the built topology
/// precomputes adjacency so path algorithms and the simulator can look up
/// neighbors in O(degree).
#[derive(Debug, Clone)]
pub struct Topology {
    /// Descriptive name ("B4", "Internet2", "fat-tree-k4", ...).
    pub name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[v] = sorted list of (neighbor, link id)
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    /// Smallest link latency (zero for a link-free topology).
    min_link_latency: SimDuration,
}

impl Topology {
    /// The smallest latency of any link: the cheapest a hop can be, which
    /// turns hop counts into admissible latency lower bounds.
    pub(crate) fn min_link_latency(&self) -> SimDuration {
        self.min_link_latency
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Find a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Link metadata.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbors of `v` with the connecting link, sorted by neighbor id.
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[v.index()]
    }

    /// The link between `a` and `b`, if they are adjacent. Binary search
    /// over `a`'s sorted neighbor list — a couple of cache lines even on
    /// the largest fat-trees, where this sits on the per-packet hot path
    /// (`transit` resolves every switch-to-switch hop through it).
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let adj = self.adjacency.get(a.index())?;
        adj.binary_search_by_key(&b, |&(n, _)| n)
            .ok()
            .map(|i| adj[i].1)
    }

    /// One-way latency between two *adjacent* nodes.
    pub fn latency_between(&self, a: NodeId, b: NodeId) -> Option<SimDuration> {
        self.link_between(a, b).map(|l| self.link(l).latency)
    }

    /// True if the graph is connected (and non-empty).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in self.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.nodes.len()
    }

    /// The node minimizing the maximum shortest-path latency to all others —
    /// where the evaluation places the controller ("the physical controller
    /// resides at the centroid node, to minimize worst-case control
    /// latency", §9.1).
    pub fn centroid(&self) -> NodeId {
        let mut best = NodeId(0);
        let mut best_ecc = f64::INFINITY;
        for v in self.node_ids() {
            let dist = crate::path::latency_distances_from(self, v);
            let ecc = dist.iter().copied().fold(0.0f64, |acc, d| {
                if d.is_finite() {
                    acc.max(d)
                } else {
                    f64::INFINITY
                }
            });
            if ecc < best_ecc {
                best_ecc = ecc;
                best = v;
            }
        }
        best
    }
}

/// Builder for [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Normalized endpoint pairs already linked — duplicate detection must
    /// be O(1) per link or hyper-scale topologies (ft32768: 1.1M links)
    /// take quadratic time to even build.
    seen: std::collections::HashSet<(NodeId, NodeId)>,
}

impl TopologyBuilder {
    /// Start a topology with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Add a node without coordinates; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            position: None,
        });
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Add a node with `(latitude, longitude)` coordinates; returns its id.
    pub fn add_site(&mut self, name: impl Into<String>, lat: f64, lon: f64) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            position: Some((lat, lon)),
        });
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Add an undirected link with explicit latency and capacity.
    ///
    /// # Panics
    /// Panics on self-loops, unknown endpoints, or duplicate links — all of
    /// which indicate a topology definition bug.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, latency: SimDuration, capacity: f64) {
        assert!(a != b, "self-loop {a}");
        assert!(a.index() < self.nodes.len(), "unknown endpoint {a}");
        assert!(b.index() < self.nodes.len(), "unknown endpoint {b}");
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        assert!(self.seen.insert((a, b)), "duplicate link {a}-{b}");
        self.links.push(Link {
            a,
            b,
            latency,
            capacity,
        });
    }

    /// Add a link whose latency is derived from the endpoints' geographic
    /// distance at signal speed 2·10⁵ km/s (the paper's optical-propagation
    /// assumption, §9.1). Both endpoints must have coordinates.
    pub fn add_geo_link(&mut self, a: NodeId, b: NodeId, capacity: f64) {
        let pa = self.nodes[a.index()]
            .position
            .expect("geo link endpoint without coordinates");
        let pb = self.nodes[b.index()]
            .position
            .expect("geo link endpoint without coordinates");
        let latency = crate::geo::propagation_latency(pa, pb);
        self.add_link(a, b, latency, capacity);
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links added so far.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Position of an already-added node.
    pub fn position(&self, id: NodeId) -> Option<(f64, f64)> {
        self.nodes[id.index()].position
    }

    /// True if a link between `a` and `b` exists already.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.links.iter().any(|l| l.a == a && l.b == b)
    }

    /// Finalize into an immutable [`Topology`].
    pub fn build(self) -> Topology {
        let mut adjacency = vec![Vec::new(); self.nodes.len()];
        for (i, link) in self.links.iter().enumerate() {
            let id = LinkId(i as u32);
            adjacency[link.a.index()].push((link.b, id));
            adjacency[link.b.index()].push((link.a, id));
        }
        for adj in &mut adjacency {
            adj.sort_unstable_by_key(|&(n, _)| n);
        }
        let min_link_latency = self
            .links
            .iter()
            .map(|l| l.latency)
            .min()
            .unwrap_or(SimDuration::ZERO);
        Topology {
            name: self.name,
            nodes: self.nodes,
            links: self.links,
            adjacency,
            min_link_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut b = TopologyBuilder::new("tri");
        let v0 = b.add_node("a");
        let v1 = b.add_node("b");
        let v2 = b.add_node("c");
        b.add_link(v0, v1, SimDuration::from_millis(1), 10.0);
        b.add_link(v1, v2, SimDuration::from_millis(2), 10.0);
        b.add_link(v0, v2, SimDuration::from_millis(3), 10.0);
        b.build()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let t = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.node(NodeId(1)).name, "b");
        assert_eq!(t.node_by_name("c"), Some(NodeId(2)));
        assert_eq!(t.node_by_name("zz"), None);
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let t = triangle();
        for v in t.node_ids() {
            for &(w, l) in t.neighbors(v) {
                assert!(t.neighbors(w).iter().any(|&(x, l2)| x == v && l2 == l));
            }
            let ids: Vec<_> = t.neighbors(v).iter().map(|&(n, _)| n).collect();
            let mut sorted = ids.clone();
            sorted.sort();
            assert_eq!(ids, sorted);
        }
    }

    #[test]
    fn link_lookup_is_order_independent() {
        let t = triangle();
        assert_eq!(
            t.link_between(NodeId(0), NodeId(2)),
            t.link_between(NodeId(2), NodeId(0))
        );
        assert_eq!(
            t.latency_between(NodeId(1), NodeId(2)),
            Some(SimDuration::from_millis(2))
        );
        assert_eq!(t.link_between(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn opposite_endpoint() {
        let t = triangle();
        let l = t.link(t.link_between(NodeId(0), NodeId(1)).unwrap());
        assert_eq!(l.opposite(NodeId(0)), Some(NodeId(1)));
        assert_eq!(l.opposite(NodeId(1)), Some(NodeId(0)));
        assert_eq!(l.opposite(NodeId(2)), None);
    }

    #[test]
    fn connectivity() {
        let t = triangle();
        assert!(t.is_connected());
        let mut b = TopologyBuilder::new("disc");
        b.add_node("a");
        b.add_node("b");
        assert!(!b.build().is_connected());
        let empty = TopologyBuilder::new("empty").build();
        assert!(!empty.is_connected());
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_panics() {
        let mut b = TopologyBuilder::new("dup");
        let v0 = b.add_node("a");
        let v1 = b.add_node("b");
        b.add_link(v0, v1, SimDuration::ZERO, 1.0);
        b.add_link(v1, v0, SimDuration::ZERO, 1.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut b = TopologyBuilder::new("loop");
        let v0 = b.add_node("a");
        b.add_link(v0, v0, SimDuration::ZERO, 1.0);
    }

    #[test]
    fn centroid_of_a_path_is_the_middle() {
        let mut b = TopologyBuilder::new("path");
        let ids: Vec<_> = (0..5).map(|i| b.add_node(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            b.add_link(w[0], w[1], SimDuration::from_millis(10), 1.0);
        }
        assert_eq!(b.build().centroid(), NodeId(2));
    }
}
