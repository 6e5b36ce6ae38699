//! Delay-based shortest-path routing.
//!
//! The paper's simulator "simulates both IP-layer and overlay data routing
//! using delay-based shortest path routing" (§4.1). [`RoutingTable`] runs
//! Dijkstra per source on demand and caches the result, which keeps
//! all-pairs queries affordable on the 3 200-node IP graph.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use acp_simcore::SimDuration;

use crate::graph::{EdgeId, Graph, NodeId};

/// A concrete routed path through a [`Graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct IpPath {
    /// Visited nodes, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// Traversed edges; `edges.len() == nodes.len() - 1`.
    pub edges: Vec<EdgeId>,
    /// Total propagation delay (sum over edges).
    pub delay: SimDuration,
    /// Bottleneck capacity (minimum over edges), kbit/s.
    pub bottleneck_kbps: f64,
    /// End-to-end loss probability `1 - Π(1 - l_e)`.
    pub loss_rate: f64,
}

impl IpPath {
    /// A zero-length path (source == destination).
    pub fn trivial(node: NodeId) -> Self {
        IpPath {
            nodes: vec![node],
            edges: Vec::new(),
            delay: SimDuration::ZERO,
            bottleneck_kbps: f64::INFINITY,
            loss_rate: 0.0,
        }
    }

    /// Number of hops (edges).
    pub fn hop_count(&self) -> usize {
        self.edges.len()
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("paths contain at least one node")
    }
}

/// Distance of a node the tree does not reach.
const UNREACHED: u64 = u64::MAX;
/// Predecessor of the source and of unreached nodes.
const NO_PREV: (u32, u32) = (u32::MAX, u32::MAX);

/// Single-source shortest-path tree (by delay).
///
/// Distances are raw microseconds with an `UNREACHED` sentinel and
/// predecessors raw `(node, edge)` indices with a `NO_PREV` sentinel:
/// 16 bytes per node instead of the 28 of `Option` slots, which matters
/// when one tree per overlay node stays cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<u64>,
    prev: Vec<(u32, u32)>,
}

impl ShortestPathTree {
    /// Runs Dijkstra from `source`, minimising total delay.
    pub fn compute(graph: &Graph, source: NodeId) -> Self {
        Self::compute_excluding(graph, source, &[])
    }

    /// Runs Dijkstra from `source`, never relaxing through a node whose
    /// `blocked` flag is set (failed overlay nodes drop out of the
    /// forwarding plane). `blocked` may be empty (nothing blocked) or one
    /// flag per graph node. A blocked source yields an all-unreachable
    /// tree.
    ///
    /// Nodes settle in `(delay, node id)` order and a predecessor is
    /// replaced only by a strictly shorter route, so among equal-delay
    /// routes the one whose last relay settles first wins. Routed paths,
    /// and every digest built on them, depend on this tie-break.
    pub fn compute_excluding(graph: &Graph, source: NodeId, blocked: &[bool]) -> Self {
        let n = graph.node_count();
        let mut dist = vec![UNREACHED; n];
        let mut prev = vec![NO_PREV; n];
        let is_blocked = |v: usize| blocked.get(v).copied().unwrap_or(false);
        if is_blocked(source.index()) {
            return ShortestPathTree { source, dist, prev };
        }
        let mut heap = BinaryHeap::with_capacity(n);
        dist[source.index()] = 0;
        heap.push(Reverse((0u64, source.0)));

        while let Some(Reverse((d, u))) = heap.pop() {
            // A node is pushed once per strict improvement, so every entry
            // but the one carrying its final distance is stale.
            if d > dist[u as usize] {
                continue;
            }
            for &(v, e) in graph.neighbors(NodeId(u)) {
                let cand = d + graph.props(e).delay.as_micros();
                if cand < dist[v.index()] && !is_blocked(v.index()) {
                    dist[v.index()] = cand;
                    prev[v.index()] = (u, e.0);
                    heap.push(Reverse((cand, v.0)));
                }
            }
        }
        ShortestPathTree { source, dist, prev }
    }

    /// Delay from the source to `dst`; `None` when unreachable.
    pub fn distance(&self, dst: NodeId) -> Option<SimDuration> {
        let d = self.dist[dst.index()];
        (d != UNREACHED).then_some(SimDuration::from_micros(d))
    }

    /// The node this tree is rooted at.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// True when `node` forwards traffic in this tree: it is the source
    /// or the predecessor of some reachable node. Paths to nodes whose
    /// chain never passes through `node` are unaffected by its failure,
    /// so trees for which this is false stay valid when `node` dies.
    pub fn routes_through(&self, node: NodeId) -> bool {
        self.source == node || self.prev.iter().any(|&(p, _)| p == node.0)
    }

    /// Takes the now-blocked `node` out of the tree. Returns `false`, and
    /// leaves the tree as it was, when `node` forwards traffic in it (see
    /// [`Self::routes_through`]); the caller must then drop the tree.
    /// Otherwise `node` was at most a leaf, and clearing its entry leaves
    /// exactly the tree a fresh [`Self::compute_excluding`] would build.
    pub(crate) fn block_leaf(&mut self, node: NodeId) -> bool {
        if self.routes_through(node) {
            return false;
        }
        self.dist[node.index()] = UNREACHED;
        self.prev[node.index()] = NO_PREV;
        true
    }

    /// Re-admits `node`, which was blocked when this tree was built and
    /// is unblocked now (`blocked` is the new block set). Returns `true`
    /// when the tree is patched to exactly what a fresh
    /// [`Self::compute_excluding`] would build, and `false` when that
    /// cannot be shown cheaply and the caller must drop the tree.
    ///
    /// The tree is unchanged when no unblocked neighbour of `node` is
    /// reached. Otherwise `node` joins as a leaf when every unblocked
    /// neighbour `w` is already reached strictly faster than through
    /// `node`: then no other distance or predecessor moves. Ties are
    /// refused: an equal-delay route through `node` could win the
    /// settle-order tie-break, and so could two equally good predecessors
    /// of `node` itself.
    pub(crate) fn admit_leaf(&mut self, graph: &Graph, node: NodeId, blocked: &[bool]) -> bool {
        let is_blocked = |v: usize| blocked.get(v).copied().unwrap_or(false);
        if node == self.source {
            return false;
        }
        // Dijkstra's predecessor for `node`: the smallest `(delay via u,
        // dist[u])`, since among equal-delay offers the relay that settles
        // first wins. A tie on both would fall to node ids; refuse it.
        let mut best: Option<((u64, u64), (u32, u32))> = None;
        let mut tied = false;
        for &(u, e) in graph.neighbors(node) {
            let du = self.dist[u.index()];
            if du == UNREACHED || is_blocked(u.index()) {
                continue;
            }
            let key = (du + graph.props(e).delay.as_micros(), du);
            match best {
                Some((bk, _)) if key == bk => tied = true,
                Some((bk, _)) if key > bk => {}
                _ => {
                    best = Some((key, (u.0, e.0)));
                    tied = false;
                }
            }
        }
        let Some(((dv, _), via)) = best else {
            return true;
        };
        if tied {
            return false;
        }
        for &(w, e) in graph.neighbors(node) {
            if !is_blocked(w.index())
                && dv + graph.props(e).delay.as_micros() <= self.dist[w.index()]
            {
                return false;
            }
        }
        self.dist[node.index()] = dv;
        self.prev[node.index()] = via;
        true
    }

    /// Materialises the routed path to `dst`; `None` when unreachable.
    pub fn path_to(&self, graph: &Graph, dst: NodeId) -> Option<IpPath> {
        let delay = self.distance(dst)?;
        if dst == self.source {
            return Some(IpPath::trivial(dst));
        }
        let mut nodes = vec![dst];
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != self.source {
            let (p, e) = self.prev[cur.index()];
            debug_assert!((p, e) != NO_PREV, "reachable nodes have predecessors");
            edges.push(EdgeId(e));
            nodes.push(NodeId(p));
            cur = NodeId(p);
        }
        nodes.reverse();
        edges.reverse();

        let mut bottleneck = f64::INFINITY;
        let mut pass = 1.0f64;
        for &e in &edges {
            let p = graph.props(e);
            bottleneck = bottleneck.min(p.bandwidth_kbps);
            pass *= 1.0 - p.loss_rate;
        }
        Some(IpPath { nodes, edges, delay, bottleneck_kbps: bottleneck, loss_rate: 1.0 - pass })
    }
}

/// Lazily-populated all-pairs routing over a fixed graph.
///
/// # Example
///
/// ```
/// use acp_topology::{Graph, LinkProps, NodeId, RoutingTable};
/// use acp_simcore::SimDuration;
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), LinkProps::new(SimDuration::from_millis(5), 1e5, 0.0));
/// g.add_edge(NodeId(1), NodeId(2), LinkProps::new(SimDuration::from_millis(5), 1e5, 0.0));
/// let mut rt = RoutingTable::new();
/// let p = rt.path(&g, NodeId(0), NodeId(2)).unwrap();
/// assert_eq!(p.hop_count(), 2);
/// assert_eq!(p.delay, SimDuration::from_millis(10));
/// ```
#[derive(Debug, Default)]
pub struct RoutingTable {
    trees: HashMap<NodeId, ShortestPathTree>,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RoutingTable { trees: HashMap::new() }
    }

    /// Shortest-path tree rooted at `src`, computing it on first use.
    pub fn tree(&mut self, graph: &Graph, src: NodeId) -> &ShortestPathTree {
        self.trees.entry(src).or_insert_with(|| ShortestPathTree::compute(graph, src))
    }

    /// Delay of the routed path `src → dst`; `None` when unreachable.
    pub fn distance(&mut self, graph: &Graph, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        self.tree(graph, src).distance(dst)
    }

    /// The routed path `src → dst`; `None` when unreachable.
    pub fn path(&mut self, graph: &Graph, src: NodeId, dst: NodeId) -> Option<IpPath> {
        let tree = self.trees.entry(src).or_insert_with(|| ShortestPathTree::compute(graph, src));
        tree.path_to(graph, dst)
    }

    /// Number of cached source trees.
    pub fn cached_sources(&self) -> usize {
        self.trees.len()
    }

    /// Drops all cached trees (e.g. after the graph changes).
    pub fn invalidate(&mut self) {
        self.trees.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkProps;

    fn link(ms: u64, bw: f64, loss: f64) -> LinkProps {
        LinkProps::new(SimDuration::from_millis(ms), bw, loss)
    }

    /// Diamond: 0-1 (1ms), 1-3 (1ms), 0-2 (5ms), 2-3 (5ms). Shortest 0→3 is
    /// via 1.
    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), link(1, 1_000.0, 0.01));
        g.add_edge(NodeId(1), NodeId(3), link(1, 500.0, 0.01));
        g.add_edge(NodeId(0), NodeId(2), link(5, 2_000.0, 0.0));
        g.add_edge(NodeId(2), NodeId(3), link(5, 2_000.0, 0.0));
        g
    }

    #[test]
    fn picks_min_delay_route() {
        let g = diamond();
        let mut rt = RoutingTable::new();
        let p = rt.path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(p.delay, SimDuration::from_millis(2));
        assert_eq!(p.bottleneck_kbps, 500.0);
        assert!((p.loss_rate - (1.0 - 0.99f64 * 0.99)).abs() < 1e-12);
    }

    #[test]
    fn trivial_path() {
        let g = diamond();
        let mut rt = RoutingTable::new();
        let p = rt.path(&g, NodeId(2), NodeId(2)).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.delay, SimDuration::ZERO);
        assert_eq!(p.source(), p.destination());
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), link(1, 1_000.0, 0.0));
        let mut rt = RoutingTable::new();
        assert!(rt.path(&g, NodeId(0), NodeId(2)).is_none());
        assert!(rt.distance(&g, NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn caching_counts_sources() {
        let g = diamond();
        let mut rt = RoutingTable::new();
        rt.path(&g, NodeId(0), NodeId(3));
        rt.path(&g, NodeId(0), NodeId(2));
        rt.path(&g, NodeId(1), NodeId(2));
        assert_eq!(rt.cached_sources(), 2);
        rt.invalidate();
        assert_eq!(rt.cached_sources(), 0);
    }

    /// Cross-check Dijkstra against Floyd–Warshall on random graphs.
    #[test]
    fn agrees_with_floyd_warshall() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let n = rng.gen_range(4..12);
            let mut g = Graph::new(n);
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(0.45) {
                        g.add_edge(
                            NodeId(a as u32),
                            NodeId(b as u32),
                            link(rng.gen_range(1..30), 1_000.0, 0.0),
                        );
                    }
                }
            }
            // Floyd–Warshall oracle in microseconds.
            const INF: u64 = u64::MAX / 4;
            let mut d = vec![vec![INF; n]; n];
            for (i, row) in d.iter_mut().enumerate() {
                row[i] = 0;
            }
            for e in 0..g.edge_count() {
                let (a, b) = g.endpoints(EdgeId(e as u32));
                let w = g.props(EdgeId(e as u32)).delay.as_micros();
                d[a.index()][b.index()] = d[a.index()][b.index()].min(w);
                d[b.index()][a.index()] = d[b.index()][a.index()].min(w);
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        let via = d[i][k].saturating_add(d[k][j]);
                        if via < d[i][j] {
                            d[i][j] = via;
                        }
                    }
                }
            }
            let mut rt = RoutingTable::new();
            for (i, row) in d.iter().enumerate() {
                for (j, &dij) in row.iter().enumerate() {
                    let got = rt.distance(&g, NodeId(i as u32), NodeId(j as u32));
                    if dij >= INF {
                        assert!(got.is_none());
                    } else {
                        assert_eq!(got.unwrap().as_micros(), dij, "mismatch {i}->{j}");
                    }
                }
            }
        }
    }

    /// Per-node distances and predecessors, `None` when unreached.
    type ReferenceTree = (Vec<Option<SimDuration>>, Vec<Option<(NodeId, EdgeId)>>);

    /// The textbook Dijkstra with `Option` slots and a `done` vector that
    /// [`ShortestPathTree::compute_excluding`] replaced; kept as the
    /// reference the lean kernel must match slot for slot.
    fn reference_dijkstra(graph: &Graph, source: NodeId, blocked: &[bool]) -> ReferenceTree {
        let n = graph.node_count();
        let mut dist: Vec<Option<SimDuration>> = vec![None; n];
        let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let is_blocked = |v: NodeId| blocked.get(v.index()).copied().unwrap_or(false);
        if is_blocked(source) {
            return (dist, prev);
        }
        let mut done = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[source.index()] = Some(SimDuration::ZERO);
        heap.push(Reverse((SimDuration::ZERO, source.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            let u = NodeId(u);
            if done[u.index()] {
                continue;
            }
            done[u.index()] = true;
            for &(v, e) in graph.neighbors(u) {
                if done[v.index()] || is_blocked(v) {
                    continue;
                }
                let cand = d + graph.props(e).delay;
                if dist[v.index()].is_none_or(|cur| cand < cur) {
                    dist[v.index()] = Some(cand);
                    prev[v.index()] = Some((u, e));
                    heap.push(Reverse((cand, v.0)));
                }
            }
        }
        (dist, prev)
    }

    /// The lean kernel returns the reference's distances *and*
    /// predecessors: paths, and every digest built on them, follow the
    /// predecessor tie-break. Delays of 0–2 ms make equal-delay routes
    /// and zero-delay edges common; some graphs are disconnected and some
    /// nodes blocked.
    #[test]
    fn lean_kernel_matches_reference_dijkstra() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..200 {
            let n = rng.gen_range(2..24);
            let mut g = Graph::new(n);
            let density = rng.gen_range(0.05..0.5);
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(density) {
                        g.add_edge(
                            NodeId(a as u32),
                            NodeId(b as u32),
                            link(rng.gen_range(0..3), 1_000.0, 0.0),
                        );
                    }
                }
            }
            let blocked: Vec<bool> = if rng.gen_bool(0.3) {
                Vec::new()
            } else {
                (0..n).map(|_| rng.gen_bool(0.2)).collect()
            };
            for s in 0..n {
                let source = NodeId(s as u32);
                let tree = ShortestPathTree::compute_excluding(&g, source, &blocked);
                let (dist, prev) = reference_dijkstra(&g, source, &blocked);
                for v in 0..n {
                    let node = NodeId(v as u32);
                    assert_eq!(tree.distance(node), dist[v], "dist {source}->{node}");
                    let lean_prev = (tree.prev[v] != NO_PREV)
                        .then(|| (NodeId(tree.prev[v].0), EdgeId(tree.prev[v].1)));
                    assert_eq!(lean_prev, prev[v], "prev {source}->{node}");
                }
            }
        }
    }

    /// Blocking a forwarding node reroutes around it; blocking the
    /// source makes everything unreachable.
    #[test]
    fn excluding_blocked_nodes_reroutes() {
        let g = diamond();
        let mut blocked = vec![false; 4];
        blocked[1] = true;
        let tree = ShortestPathTree::compute_excluding(&g, NodeId(0), &blocked);
        let p = tree.path_to(&g, NodeId(3)).unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(p.delay, SimDuration::from_millis(10));
        assert!(tree.distance(NodeId(1)).is_none(), "blocked node unreachable");

        blocked[0] = true;
        let dead = ShortestPathTree::compute_excluding(&g, NodeId(0), &blocked);
        for v in 0..4 {
            assert!(dead.distance(NodeId(v)).is_none());
        }
    }

    /// Path attributes must be internally consistent with the edge list.
    #[test]
    fn path_attributes_consistent() {
        let g = diamond();
        let mut rt = RoutingTable::new();
        let p = rt.path(&g, NodeId(0), NodeId(3)).unwrap();
        let mut delay = SimDuration::ZERO;
        let mut bw = f64::INFINITY;
        for &e in &p.edges {
            delay += g.props(e).delay;
            bw = bw.min(g.props(e).bandwidth_kbps);
        }
        assert_eq!(p.delay, delay);
        assert_eq!(p.bottleneck_kbps, bw);
        assert_eq!(p.edges.len() + 1, p.nodes.len());
    }
}
