//! Directed, edge-labeled graphs over constants and labeled nulls.
//!
//! Graphs are *monotone* stores for the chase: nodes and edges are only
//! ever added (merging happens by [`Graph::quotient`], which builds a new
//! graph). This makes a cheap delta protocol possible: the edge vector
//! doubles as an append-only log, an [`Epoch`] is a watermark into it, and
//! [`Graph::edges_since`] / [`Graph::nodes_since`] answer "what changed
//! since I last looked" in O(Δ) — the foundation of the semi-naive chase
//! layers in `gdx-nre`, `gdx-query`, and `gdx-chase`.
//!
//! # Copy-on-write forks
//!
//! The candidate machinery of `gdx-core` walks large *families* of graphs
//! that share almost all of their structure (one chased skeleton, many
//! small witness variations). [`Graph::fork`] serves that shape: it seals
//! the current value into an immutable, `Arc`-shared base and returns an
//! O(1) child that records only a private delta. Reads resolve
//! base-then-delta; the append-only logs remain conceptually one sequence
//! (base log ++ delta log), so epochs, [`Graph::edges_since`], and every
//! incremental consumer work on forks unchanged. A fork is
//! indistinguishable from an eagerly materialized copy ([`Graph::compact`]
//! is that copy, and the `overlay_equiv` suite holds the two
//! byte-identical); only the cost profile differs.

use crate::frozen::FrozenGraph;
use gdx_common::lexer::{TokenCursor, TokenKind};
use gdx_common::{FxHashMap, FxHashSet, GdxError, Result, Symbol, UnionFind};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A graph node id: a constant from the shared domain `𝒱`, or a labeled
/// null from `𝒩`.
///
/// Constants and nulls never compare equal even when their names collide;
/// the text format writes nulls with a `_` prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Node {
    /// A constant node id (e.g. a city `c1`).
    Const(Symbol),
    /// A labeled null (e.g. `N1` invented by the chase).
    Null(Symbol),
}

impl Node {
    /// Constant constructor.
    pub fn cst(name: &str) -> Node {
        Node::Const(Symbol::new(name))
    }

    /// Null constructor.
    pub fn null(name: &str) -> Node {
        Node::Null(Symbol::new(name))
    }

    /// True for [`Node::Const`].
    pub fn is_const(&self) -> bool {
        matches!(self, Node::Const(_))
    }

    /// The underlying name.
    pub fn name(&self) -> Symbol {
        match self {
            Node::Const(s) | Node::Null(s) => *s,
        }
    }
}

/// Deterministic source of fresh labeled nulls (names `~0`, `~1`, …,
/// printed `_~0`, `_~1`, …; [`Graph::parse`] reads that form back).
///
/// Each chase run owns its own factory, so null names depend only on the
/// run itself — not on how many chases executed earlier in the process
/// (the previous design used a process-global counter, which made output
/// names depend on test execution order). Collisions with nulls already
/// present in the target store are avoided by the `taken` probe: names
/// already in use are skipped, so interleaving several factories over one
/// graph stays sound.
#[derive(Debug, Clone, Default)]
pub struct NullFactory {
    next: u64,
}

/// Formats `~{n}` into a stack buffer, returning the borrowed text —
/// the probe loops below run once per chase firing, so the per-probe
/// `format!` heap allocation they used to pay is measurable.
// The buffer holds only `~` and ASCII digits by construction.
#[allow(clippy::expect_used)]
fn null_name(buf: &mut [u8; 21], mut n: u64) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    i -= 1;
    buf[i] = b'~';
    std::str::from_utf8(&buf[i..]).expect("ASCII digits")
}

impl NullFactory {
    /// A factory starting at `~0`.
    pub fn new() -> NullFactory {
        NullFactory::default()
    }

    /// A factory whose first candidate is `~{seed}` — lets callers that
    /// interleave several chases over one namespace (or want stable,
    /// non-overlapping null names per session) pick disjoint ranges.
    pub fn starting_at(seed: u64) -> NullFactory {
        NullFactory { next: seed }
    }

    /// The next fresh null not rejected by `taken`.
    ///
    /// Candidate names are formatted into a stack buffer and interned only
    /// when actually used: a name [`Symbol::lookup`] has never seen cannot
    /// be rejected as a duplicate by any graph, so rejected probes leave
    /// the intern table untouched.
    pub fn fresh_where(&mut self, mut taken: impl FnMut(Node) -> bool) -> Node {
        let mut buf = [0u8; 21];
        loop {
            let name = null_name(&mut buf, self.next);
            self.next += 1;
            let node = match Symbol::lookup(name) {
                Some(sym) => Node::Null(sym),
                None => Node::Null(Symbol::new(name)),
            };
            if !taken(node) {
                return node;
            }
        }
    }

    /// Adds a fresh null to `graph`, returning its id.
    pub fn fresh_in(&mut self, graph: &mut Graph) -> NodeId {
        let node = self.fresh_where(|n| graph.node_id(n).is_some());
        graph.add_node(node)
    }
}

/// Identity of one [`Graph`] value, used by incremental caches to detect
/// that "their" graph was swapped out underneath them (clones, forks and
/// quotients get fresh ids). Ids never repeat within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphId(u64);

fn next_graph_id() -> GraphId {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    GraphId(COUNTER.fetch_add(1, Ordering::Relaxed))
}

/// A watermark into a [`Graph`]'s append-only node and edge logs.
///
/// Epochs from different graphs (different [`Graph::id`]) must not be
/// mixed; [`Graph::edges_since`] panics (in debug builds) when handed a
/// watermark from the future. On a fork the logs are conceptually
/// `base ++ delta`, and a watermark may point anywhere in that combined
/// sequence — a fresh consumer starting from [`Epoch::ZERO`] reads the
/// whole history, base included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Epoch {
    nodes: usize,
    edges: usize,
}

impl Epoch {
    /// The epoch of the empty graph: everything is a delta against it.
    pub const ZERO: Epoch = Epoch { nodes: 0, edges: 0 };

    /// Number of nodes the graph had at this epoch.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of edges the graph had at this epoch.
    pub fn edges(&self) -> usize {
        self.edges
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Const(s) => write!(f, "{s}"),
            Node::Null(s) => write!(f, "_{s}"),
        }
    }
}

/// Dense handle to a node within one [`Graph`]. Not meaningful across
/// graphs, except between a sealed parent and its forks: fork ids extend
/// the parent's id space, so ids taken against the base stay valid in
/// every child.
pub type NodeId = u32;

/// The immutable storage of a sealed graph: every index a root graph
/// maintains, frozen at seal time and shared (`Arc`) by the whole fork
/// family. Never mutated again — forks layer private deltas on top.
#[derive(Debug)]
struct Sealed {
    nodes: Vec<Node>,
    ids: FxHashMap<Node, NodeId>,
    edges: Vec<(NodeId, Symbol, NodeId)>,
    edge_set: FxHashSet<(NodeId, Symbol, NodeId)>,
    out: FxHashMap<(NodeId, Symbol), Vec<NodeId>>,
    inc: FxHashMap<(NodeId, Symbol), Vec<NodeId>>,
    labels: FxHashSet<Symbol>,
    label_counts: FxHashMap<Symbol, usize>,
    /// CSR snapshot of the sealed base, built at most once and shared by
    /// every fork whose delta is still empty ([`Graph::freeze`] fast
    /// path) — this is how a shard-parallel family sweep runs all its
    /// workers over one base CSR.
    frozen: Mutex<Option<Arc<FrozenGraph>>>,
}

/// A directed, edge-labeled graph `G = (V, E)` with `E ⊆ V × Σ × V`.
///
/// Nodes are stored densely; adjacency is indexed by `(node, label)` in both
/// directions. Edges are deduplicated.
///
/// A graph is either a *root* (it owns all of its storage) or a *fork*
/// ([`Graph::fork`]): a private delta layered over an `Arc`-shared sealed
/// base. The read API is identical for both; writes on a fork touch only
/// the delta (adjacency buckets are copied from the base on first write —
/// copy-on-write at `(node, label)` granularity, so [`Graph::successors`]
/// keeps returning plain slices).
///
/// ```
/// use gdx_graph::{Graph, Node};
/// let mut g = Graph::new();
/// let c1 = g.add_node(Node::cst("c1"));
/// let c2 = g.add_node(Node::cst("c2"));
/// g.add_edge_labelled(c1, "f", c2);
/// assert!(g.has_edge_labelled(c1, "f", c2));
/// ```
#[derive(Debug)]
pub struct Graph {
    id: GraphId,
    /// The sealed, shared base — `None` for root graphs. Node and edge
    /// ids/logs of the delta fields below continue where the base ends.
    base: Option<Arc<Sealed>>,
    nodes: Vec<Node>,
    ids: FxHashMap<Node, NodeId>,
    edges: Vec<(NodeId, Symbol, NodeId)>,
    edge_set: FxHashSet<(NodeId, Symbol, NodeId)>,
    /// Copy-on-write adjacency: a key present here holds the node's *full*
    /// neighbor list for that label (base neighbors copied in on first
    /// delta write); absent keys read through to the base.
    out: FxHashMap<(NodeId, Symbol), Vec<NodeId>>,
    inc: FxHashMap<(NodeId, Symbol), Vec<NodeId>>,
    labels: FxHashSet<Symbol>,
    /// Per-label edge counts of the delta (the base keeps its own),
    /// maintained by [`Graph::add_edge`] — the selectivity statistics the
    /// query planner's access-path cost model reads
    /// ([`Graph::label_stats`]).
    label_counts: FxHashMap<Symbol, usize>,
    /// Pending union-find merge overlay ([`Graph::record_merge`]): node
    /// classes the egd chase has scheduled to merge. Plain reads do *not*
    /// see pending merges; [`Graph::collapse_merges`] applies them all in
    /// one quotient rebuild.
    merges: Option<Box<UnionFind>>,
    /// Per-graph counter backing [`Graph::add_fresh_null`]; cloned (and
    /// carried across forks) so null naming is a function of the graph's
    /// history, not of process-global state.
    null_counter: u64,
    /// Memoized CSR snapshot ([`Graph::freeze`]), valid while its epoch
    /// matches the graph's. Behind a `Mutex` (not a `RefCell`) so graphs
    /// stay `Sync` — evaluation workers share them read-only; the lock is
    /// touched only on `freeze`, never on plain reads.
    frozen: Mutex<Option<Arc<FrozenGraph>>>,
}

impl Default for Graph {
    fn default() -> Graph {
        Graph::with_capacity(0, 0)
    }
}

impl Clone for Graph {
    /// Clones get a fresh [`GraphId`]: incremental caches watermarked
    /// against the original must not mistake the clone for it once the
    /// two diverge. Field clones keep the copy pre-sized for the chase's
    /// candidate loop (which clones graphs it then grows): hash-table
    /// clones copy the raw table at the source's bucket count — no
    /// rehashing, no shrink — and the log vectors land exactly at their
    /// lengths. Cloning a *fork* is O(|delta|): the sealed base is shared
    /// by bumping its `Arc`, never copied. The frozen-snapshot memo is
    /// *not* carried over; the clone re-freezes on first use against its
    /// own id (forks with an empty delta still share the base snapshot).
    fn clone(&self) -> Graph {
        Graph {
            id: next_graph_id(),
            base: self.base.clone(),
            nodes: self.nodes.clone(),
            ids: self.ids.clone(),
            edges: self.edges.clone(),
            edge_set: self.edge_set.clone(),
            out: self.out.clone(),
            inc: self.inc.clone(),
            labels: self.labels.clone(),
            label_counts: self.label_counts.clone(),
            merges: self.merges.clone(),
            null_counter: self.null_counter,
            frozen: Mutex::new(None),
        }
    }
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// An empty graph with pre-sized node and edge indexes — for loaders
    /// and generators that know the target size up front (one allocation
    /// per index instead of a doubling ladder).
    pub fn with_capacity(nodes: usize, edges: usize) -> Graph {
        Graph {
            id: next_graph_id(),
            base: None,
            nodes: Vec::with_capacity(nodes),
            ids: FxHashMap::with_capacity_and_hasher(nodes, Default::default()),
            edges: Vec::with_capacity(edges),
            edge_set: FxHashSet::with_capacity_and_hasher(edges, Default::default()),
            out: FxHashMap::with_capacity_and_hasher(edges, Default::default()),
            inc: FxHashMap::with_capacity_and_hasher(edges, Default::default()),
            labels: FxHashSet::default(),
            label_counts: FxHashMap::default(),
            merges: None,
            null_counter: 0,
            frozen: Mutex::new(None),
        }
    }

    #[inline]
    fn base_node_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.nodes.len())
    }

    #[inline]
    fn base_edge_slice(&self) -> &[(NodeId, Symbol, NodeId)] {
        self.base.as_ref().map_or(&[], |b| b.edges.as_slice())
    }

    #[inline]
    fn delta_is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }

    /// True when this value is a fork layered over a shared sealed base.
    pub fn is_forked(&self) -> bool {
        self.base.is_some()
    }

    /// Seals the current value and returns an O(1) copy-on-write child
    /// sharing the sealed storage (and its memoized CSR snapshot).
    ///
    /// The first fork of a root moves the root's indexes into the shared
    /// base (no copying); the root keeps its id and epoch and becomes an
    /// empty-delta fork of its own base. Forking a fork whose delta has
    /// grown first *escalates*: base and delta are folded into a new
    /// sealed base (O(|G|), paid once per generation, amortized across
    /// the children). Pending merges are collapsed first — a sealed base
    /// must be a plain graph value.
    ///
    /// The child gets a fresh [`GraphId`] and inherits the parent's
    /// null-naming counter, so a fork chased in place produces exactly the
    /// null names an eager copy would.
    pub fn fork(&mut self) -> Graph {
        self.collapse_merges();
        if self.base.is_none() || !self.delta_is_empty() {
            self.seal();
        }
        Graph {
            id: next_graph_id(),
            base: self.base.clone(),
            nodes: Vec::new(),
            ids: FxHashMap::default(),
            edges: Vec::new(),
            edge_set: FxHashSet::default(),
            out: FxHashMap::default(),
            inc: FxHashMap::default(),
            labels: FxHashSet::default(),
            label_counts: FxHashMap::default(),
            merges: None,
            null_counter: self.null_counter,
            frozen: Mutex::new(None),
        }
    }

    /// Moves the current storage into a shared [`Sealed`] base, folding an
    /// existing base and delta together first when necessary.
    fn seal(&mut self) {
        debug_assert!(self.merges.is_none(), "collapse_merges before sealing");
        if let Some(base) = self.base.take() {
            if self.delta_is_empty() {
                self.base = Some(base);
                return;
            }
            // Escalation: fold base + delta into owned root storage, then
            // fall through to seal that.
            let mut nodes = Vec::with_capacity(base.nodes.len() + self.nodes.len());
            nodes.extend_from_slice(&base.nodes);
            nodes.append(&mut self.nodes);
            self.nodes = nodes;
            let mut ids = base.ids.clone();
            // gdx-lint: allow(hash-iter) — map-to-map fold: hash order cannot escape
            ids.extend(self.ids.drain());
            self.ids = ids;
            let mut edges = Vec::with_capacity(base.edges.len() + self.edges.len());
            edges.extend_from_slice(&base.edges);
            edges.append(&mut self.edges);
            self.edges = edges;
            let mut edge_set = base.edge_set.clone();
            // gdx-lint: allow(hash-iter) — set-to-set fold: hash order cannot escape
            edge_set.extend(self.edge_set.drain());
            self.edge_set = edge_set;
            let mut out = base.out.clone();
            // gdx-lint: allow(hash-iter) — map-to-map fold: hash order cannot escape
            out.extend(self.out.drain());
            self.out = out;
            let mut inc = base.inc.clone();
            // gdx-lint: allow(hash-iter) — map-to-map fold: hash order cannot escape
            inc.extend(self.inc.drain());
            self.inc = inc;
            let mut labels = base.labels.clone();
            // gdx-lint: allow(hash-iter) — set-to-set fold: hash order cannot escape
            labels.extend(self.labels.drain());
            self.labels = labels;
            let mut label_counts = base.label_counts.clone();
            // gdx-lint: allow(hash-iter) — per-key addition into a map is commutative
            for (l, c) in self.label_counts.drain() {
                *label_counts.entry(l).or_insert(0) += c;
            }
            self.label_counts = label_counts;
        }
        let epoch = self.epoch();
        // Poison recovery is sound for the freeze memo: the slot only
        // ever holds a complete snapshot or None, replaced atomically.
        let frozen_memo = self
            .frozen
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .filter(|f| f.epoch() == epoch);
        self.base = Some(Arc::new(Sealed {
            nodes: std::mem::take(&mut self.nodes),
            ids: std::mem::take(&mut self.ids),
            edges: std::mem::take(&mut self.edges),
            edge_set: std::mem::take(&mut self.edge_set),
            out: std::mem::take(&mut self.out),
            inc: std::mem::take(&mut self.inc),
            labels: std::mem::take(&mut self.labels),
            label_counts: std::mem::take(&mut self.label_counts),
            frozen: Mutex::new(frozen_memo),
        }));
    }

    /// An eagerly materialized private root copy of this value: same
    /// nodes, ids, logs and null-naming state, no shared base (and a fresh
    /// [`GraphId`], like [`Graph::clone`]). This is the escalation
    /// primitive — and the oracle the `overlay_equiv` property tests
    /// compare forks against, since replaying the combined log produces a
    /// byte-identical graph.
    pub fn compact(&self) -> Graph {
        let mut g = Graph::with_capacity(self.node_count(), self.edge_count());
        for id in self.node_ids() {
            g.add_node(self.node(id));
        }
        for &(s, l, d) in self.edges() {
            g.add_edge(s, l, d);
        }
        g.null_counter = self.null_counter;
        g
    }

    /// The CSR snapshot of the graph at its current epoch, memoized per
    /// `(GraphId, Epoch)`: repeated calls between two growth steps share
    /// one `Arc`; any node or edge added since the last call triggers one
    /// rebuild. Forks whose delta is still empty share the *base's*
    /// snapshot — every worker of a family sweep probes one CSR — and
    /// build their own (full) snapshot only once their delta is non-empty.
    /// See [`FrozenGraph`] for the layout and the read API.
    pub fn freeze(&self) -> Arc<FrozenGraph> {
        if let Some(base) = &self.base {
            if self.delta_is_empty() {
                let mut slot = base.frozen.lock().unwrap_or_else(PoisonError::into_inner);
                return match &*slot {
                    Some(f) => Arc::clone(f),
                    None => {
                        let f = Arc::new(FrozenGraph::build(self));
                        *slot = Some(Arc::clone(&f));
                        f
                    }
                };
            }
        }
        let mut slot = self.frozen.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some(f) if f.epoch() == self.epoch() => Arc::clone(f),
            _ => {
                let f = Arc::new(FrozenGraph::build(self));
                *slot = Some(Arc::clone(&f));
                f
            }
        }
    }

    /// This graph value's identity (fresh per clone/fork/quotient).
    pub fn id(&self) -> GraphId {
        self.id
    }

    /// The current watermark: everything added later is "since" it. On a
    /// fork the counts cover base and delta together, so epochs taken on
    /// the parent before sealing remain valid watermarks on every child.
    pub fn epoch(&self) -> Epoch {
        Epoch {
            nodes: self.base_node_len() + self.nodes.len(),
            edges: self.base_edge_slice().len() + self.edges.len(),
        }
    }

    /// The edges added since `since` (in insertion order). On a fork the
    /// log is `base ++ delta`; a watermark below the seal point replays
    /// the base tail first.
    pub fn edges_since(
        &self,
        since: Epoch,
    ) -> impl Iterator<Item = &(NodeId, Symbol, NodeId)> + '_ {
        let base = self.base_edge_slice();
        debug_assert!(since.edges <= base.len() + self.edges.len());
        let bstart = since.edges.min(base.len());
        let dstart = (since.edges - bstart).min(self.edges.len());
        base[bstart..].iter().chain(self.edges[dstart..].iter())
    }

    /// The node ids added since `since`.
    pub fn nodes_since(&self, since: Epoch) -> impl Iterator<Item = NodeId> + '_ {
        debug_assert!(since.nodes <= self.node_count());
        since.nodes as NodeId..self.node_count() as NodeId
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.base_node_len() + self.nodes.len()
    }

    /// Number of (distinct) edges.
    pub fn edge_count(&self) -> usize {
        self.base_edge_slice().len() + self.edges.len()
    }

    /// Adds (or finds) a node, returning its dense id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        if let Some(base) = &self.base {
            if let Some(&id) = base.ids.get(&node) {
                return id;
            }
        }
        // Capacity invariant: u32 node ids run out long after memory.
        #[allow(clippy::expect_used)]
        let id = u32::try_from(self.node_count()).expect("node id overflow");
        self.nodes.push(node);
        self.ids.insert(node, id);
        id
    }

    /// Adds a constant node by name.
    pub fn add_const(&mut self, name: &str) -> NodeId {
        self.add_node(Node::cst(name))
    }

    /// Adds a fresh null node, named by this graph's own counter (`~0`,
    /// `~1`, …, skipping names already present). Deterministic: the name
    /// depends only on this graph's history — forks inherit the parent's
    /// counter, so a fork continues exactly where an eager copy would.
    /// Candidate names probe via [`Symbol::lookup`] from a stack buffer
    /// and intern only on success.
    pub fn add_fresh_null(&mut self) -> NodeId {
        let mut buf = [0u8; 21];
        loop {
            let name = null_name(&mut buf, self.null_counter);
            self.null_counter += 1;
            match Symbol::lookup(name) {
                Some(sym) if self.node_id(Node::Null(sym)).is_some() => continue,
                Some(sym) => return self.add_node(Node::Null(sym)),
                None => return self.add_node(Node::Null(Symbol::new(name))),
            }
        }
    }

    /// The node behind a dense id.
    // `id < base_node_len()` implies a base graph exists; a miss is a
    // caller handing ids across graphs — a bug worth a loud panic.
    #[allow(clippy::expect_used)]
    pub fn node(&self, id: NodeId) -> Node {
        let b = self.base_node_len();
        if (id as usize) < b {
            self.base.as_ref().expect("base ids exist").nodes[id as usize]
        } else {
            self.nodes[id as usize - b]
        }
    }

    /// The dense id of `node`, if present.
    pub fn node_id(&self, node: Node) -> Option<NodeId> {
        if let Some(&id) = self.ids.get(&node) {
            return Some(id);
        }
        self.base.as_ref().and_then(|b| b.ids.get(&node).copied())
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as u32
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        let base = self.base.as_ref().map_or(&[][..], |b| b.nodes.as_slice());
        base.iter().chain(self.nodes.iter()).copied()
    }

    /// Adds an edge (nodes must already exist). Returns `true` when new.
    pub fn add_edge(&mut self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        debug_assert!((src as usize) < self.node_count());
        debug_assert!((dst as usize) < self.node_count());
        if let Some(base) = &self.base {
            if base.edge_set.contains(&(src, label, dst)) {
                return false;
            }
        }
        if !self.edge_set.insert((src, label, dst)) {
            return false;
        }
        self.edges.push((src, label, dst));
        let base = self.base.as_deref();
        cow_bucket(&mut self.out, base.map(|b| &b.out), (src, label)).push(dst);
        cow_bucket(&mut self.inc, base.map(|b| &b.inc), (dst, label)).push(src);
        self.labels.insert(label);
        *self.label_counts.entry(label).or_insert(0) += 1;
        true
    }

    /// Adds an edge with a string label.
    pub fn add_edge_labelled(&mut self, src: NodeId, label: &str, dst: NodeId) -> bool {
        self.add_edge(src, Symbol::new(label), dst)
    }

    /// Convenience: add nodes and edge in one call, constants by name.
    pub fn add_edge_consts(&mut self, src: &str, label: &str, dst: &str) {
        let s = self.add_const(src);
        let d = self.add_const(dst);
        self.add_edge_labelled(s, label, d);
    }

    /// Edge membership.
    pub fn has_edge(&self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        self.edge_set.contains(&(src, label, dst))
            || self
                .base
                .as_ref()
                .is_some_and(|b| b.edge_set.contains(&(src, label, dst)))
    }

    /// Edge membership with a string label.
    pub fn has_edge_labelled(&self, src: NodeId, label: &str, dst: NodeId) -> bool {
        self.has_edge(src, Symbol::new(label), dst)
    }

    /// All edges in insertion order (base log first on forks).
    pub fn edges(&self) -> impl Iterator<Item = &(NodeId, Symbol, NodeId)> + '_ {
        self.base_edge_slice().iter().chain(self.edges.iter())
    }

    /// Successors of `src` along `label`-edges.
    pub fn successors(&self, src: NodeId, label: Symbol) -> &[NodeId] {
        if let Some(v) = self.out.get(&(src, label)) {
            return v;
        }
        match &self.base {
            Some(b) => b.out.get(&(src, label)).map_or(&[], Vec::as_slice),
            None => &[],
        }
    }

    /// Predecessors of `dst` along `label`-edges.
    pub fn predecessors(&self, dst: NodeId, label: Symbol) -> &[NodeId] {
        if let Some(v) = self.inc.get(&(dst, label)) {
            return v;
        }
        match &self.base {
            Some(b) => b.inc.get(&(dst, label)).map_or(&[], Vec::as_slice),
            None => &[],
        }
    }

    /// All edge labels that occur in the graph.
    pub fn labels(&self) -> impl Iterator<Item = Symbol> + '_ {
        let base = self.base.as_ref().map(|b| &b.labels);
        base.into_iter()
            .flatten()
            .copied()
            // gdx-lint: allow(hash-iter) — documented unordered iterator; callers aggregate order-insensitively
            .chain(self.labels.iter().copied().filter(move |l| {
                // Delta re-records labels the base already has; report each
                // label once.
                !base.is_some_and(|b| b.contains(l))
            }))
    }

    /// Number of edges carrying `label` — the selectivity statistic the
    /// access-path planner uses to choose between materializing `⟦r⟧_G`
    /// and seeded product-BFS.
    pub fn label_count(&self, label: Symbol) -> usize {
        self.label_counts.get(&label).copied().unwrap_or(0)
            + self
                .base
                .as_ref()
                .map_or(0, |b| b.label_counts.get(&label).copied().unwrap_or(0))
    }

    /// Per-label edge counts, maintained incrementally by
    /// [`Graph::add_edge`] (on forks: base and delta counts summed).
    pub fn label_stats(&self) -> FxHashMap<Symbol, usize> {
        match &self.base {
            None => self.label_counts.clone(),
            Some(b) => {
                let mut stats = b.label_counts.clone();
                // gdx-lint: allow(hash-iter) — per-key addition into a map is commutative
                for (l, c) in &self.label_counts {
                    *stats.entry(*l).or_insert(0) += c;
                }
                stats
            }
        }
    }

    /// All `(src, dst)` pairs of `label`-edges.
    pub fn label_pairs(&self, label: Symbol) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges()
            .filter(move |&&(_, l, _)| l == label)
            .map(|&(s, _, d)| (s, d))
    }

    /// Ids of all constant nodes.
    pub fn const_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&id| self.node(id).is_const())
    }

    /// Records a pending merge of `drop`'s class into `keep`'s in the
    /// union-find overlay. Plain reads (adjacency, `has_edge`, epochs)
    /// keep seeing the unmerged graph; [`Graph::merge_find`] canonicalizes
    /// through the overlay, and [`Graph::collapse_merges`] applies every
    /// recorded merge in a single quotient rebuild — the egd repair loop
    /// records all violations of an evaluation round and pays one rebuild
    /// per round instead of one per merge.
    pub fn record_merge(&mut self, keep: NodeId, drop: NodeId) {
        let n = self.node_count();
        let uf = self
            .merges
            .get_or_insert_with(|| Box::new(UnionFind::new(n)));
        while uf.len() < n {
            uf.push();
        }
        let (rk, rd) = (uf.find(keep), uf.find(drop));
        if rk != rd {
            uf.union_into(rk, rd);
        }
    }

    /// The representative of `id` under the pending merge overlay (`id`
    /// itself when no merges are recorded).
    pub fn merge_find(&self, id: NodeId) -> NodeId {
        match &self.merges {
            Some(uf) if (id as usize) < uf.len() => uf.find_const(id),
            _ => id,
        }
    }

    /// Number of pending (non-trivial) merges recorded in the overlay.
    pub fn pending_merges(&self) -> usize {
        self.merges
            .as_ref()
            .map_or(0, |uf| uf.len() - uf.class_count())
    }

    /// Applies every pending merge in one quotient rebuild. A no-op (the
    /// graph value and its [`GraphId`] survive) when nothing was recorded;
    /// otherwise the graph is replaced by its quotient — a fresh private
    /// root, exactly as if [`Graph::quotient`] had been called with the
    /// overlay's representative map. Forks escalate here: a collapsed
    /// fork no longer shares its base.
    pub fn collapse_merges(&mut self) {
        let Some(uf) = self.merges.take() else {
            return;
        };
        if uf.len() == uf.class_count() {
            return;
        }
        *self = self.quotient(|id| uf.find_const(id));
    }

    /// Drops the pending merge overlay without applying it.
    pub fn discard_merges(&mut self) {
        self.merges = None;
    }

    /// The quotient of the graph under a node mapping: node `id` of `self`
    /// becomes `rep(id)` (a *node id of `self`*), nodes that are the image
    /// of nothing disappear, and edges are rewritten (and deduplicated).
    ///
    /// This is how the egd chase merges nodes without fighting the borrow
    /// checker: compute classes in a union-find (or record them in the
    /// merge overlay, see [`Graph::record_merge`]), then rebuild. The
    /// result is always a private root graph — quotienting renumbers the
    /// dense ids, so nothing of a shared base can be reused.
    pub fn quotient(&self, mut rep: impl FnMut(NodeId) -> NodeId) -> Graph {
        // Merging only shrinks, so the source sizes are an upper bound.
        let mut g = Graph::with_capacity(self.node_count(), self.edge_count());
        let mut remap: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        for id in self.node_ids() {
            let r = rep(id);
            let node = self.node(r);
            let new_id = g.add_node(node);
            remap.insert(id, new_id);
        }
        for &(s, l, d) in self.edges() {
            g.add_edge(remap[&s], l, remap[&d]);
        }
        g
    }

    /// Checks the graph only uses labels from `alphabet` (target schema
    /// conformance).
    pub fn conforms_to(&self, alphabet: &FxHashSet<Symbol>) -> bool {
        self.labels().all(|l| alphabet.contains(&l))
    }

    /// Parses the edge-list format: `(src, label, dst);` per edge, names
    /// with a `_` prefix denoting labeled nulls:
    ///
    /// ```text
    /// (c1, f, _N); (_N, h, hx); (_N, f, c2);
    /// ```
    ///
    /// Fresh nulls print as `_~0`, `_~1`, … and parse back as the same
    /// nulls, so `Graph::parse(&g.to_string())` is isomorphic to `g`.
    ///
    /// Isolated nodes can be declared as `node(x);` / `node(_x);`.
    pub fn parse(input: &str) -> Result<Graph> {
        let mut cur = TokenCursor::new(input)?;
        let mut g = Graph::new();
        while !cur.at_eof() {
            if cur.eat_keyword("node") {
                cur.expect(&TokenKind::LParen, "node declaration")?;
                let n = parse_node(&mut cur)?;
                g.add_node(n);
                cur.expect(&TokenKind::RParen, "node declaration")?;
            } else {
                cur.expect(&TokenKind::LParen, "edge")?;
                let src = parse_node(&mut cur)?;
                cur.expect(&TokenKind::Comma, "edge")?;
                let label = cur.expect_ident("edge label")?;
                cur.expect(&TokenKind::Comma, "edge")?;
                let dst = parse_node(&mut cur)?;
                cur.expect(&TokenKind::RParen, "edge")?;
                let s = g.add_node(src);
                let d = g.add_node(dst);
                g.add_edge(s, Symbol::new(&label), d);
            }
            while cur.eat(&TokenKind::Semi) || cur.eat(&TokenKind::Comma) {}
        }
        Ok(g)
    }

    /// GraphViz DOT rendering (constants as boxes, nulls as ellipses).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph G {\n");
        for id in self.node_ids() {
            let n = self.node(id);
            let shape = if n.is_const() { "box" } else { "ellipse" };
            let _ = writeln!(s, "  n{id} [label=\"{n}\", shape={shape}];");
        }
        for &(src, l, dst) in self.edges() {
            let _ = writeln!(s, "  n{src} -> n{dst} [label=\"{l}\"];");
        }
        s.push_str("}\n");
        s
    }
}

/// The copy-on-write adjacency write path: returns the delta's bucket for
/// `key`, seeding it with the base's full neighbor list on first write.
fn cow_bucket<'a>(
    delta: &'a mut FxHashMap<(NodeId, Symbol), Vec<NodeId>>,
    base: Option<&FxHashMap<(NodeId, Symbol), Vec<NodeId>>>,
    key: (NodeId, Symbol),
) -> &'a mut Vec<NodeId> {
    delta
        .entry(key)
        .or_insert_with(|| base.and_then(|b| b.get(&key)).cloned().unwrap_or_default())
}

fn parse_node(cur: &mut TokenCursor) -> Result<Node> {
    // `_name` lexes as the single identifier "_name".
    let name = cur.expect_ident("node")?;
    if let Some(rest) = name.strip_prefix('_') {
        if rest.is_empty() {
            return Err(GdxError::parse(
                cur.peek().line,
                cur.peek().col,
                "null node needs a name after `_`",
            ));
        }
        Ok(Node::null(rest))
    } else {
        Ok(Node::cst(&name))
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &(s, l, d) in self.edges() {
            writeln!(f, "({}, {l}, {});", self.node(s), self.node(d))?;
        }
        // Isolated nodes.
        let mut touched: FxHashSet<NodeId> = FxHashSet::default();
        for &(s, _, d) in self.edges() {
            touched.insert(s);
            touched.insert(d);
        }
        for id in self.node_ids() {
            if !touched.contains(&id) {
                writeln!(f, "node({});", self.node(id))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_dedup() {
        let mut g = Graph::new();
        let a = g.add_const("c1");
        let b = g.add_const("c1");
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
        let n = g.add_node(Node::null("c1"));
        assert_ne!(a, n, "const c1 and null c1 are different nodes");
    }

    #[test]
    fn edges_dedup_and_index() {
        let mut g = Graph::new();
        let a = g.add_const("a");
        let b = g.add_const("b");
        assert!(g.add_edge_labelled(a, "f", b));
        assert!(!g.add_edge_labelled(a, "f", b));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(a, Symbol::new("f")), &[b]);
        assert_eq!(g.predecessors(b, Symbol::new("f")), &[a]);
        assert!(g.successors(b, Symbol::new("f")).is_empty());
    }

    #[test]
    fn parse_fig1_g1() {
        // Figure 1(a): G1.
        let g = Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);")
            .unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        let n = g.node_id(Node::null("N")).unwrap();
        let hx = g.node_id(Node::cst("hx")).unwrap();
        assert!(g.has_edge_labelled(n, "h", hx));
    }

    #[test]
    fn parse_isolated_nodes() {
        let g = Graph::parse("node(a); node(_x); (a, f, b);").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn parse_errors() {
        assert!(Graph::parse("(a, f)").is_err());
        assert!(Graph::parse("(a f b)").is_err());
        assert!(Graph::parse("(_, f, b)").is_err());
    }

    #[test]
    fn display_roundtrip() {
        let g = Graph::parse("(c1, f, _N); (_N, h, hx); node(iso);").unwrap();
        let g2 = Graph::parse(&g.to_string()).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for &(s, l, d) in g.edges() {
            let s2 = g2.node_id(g.node(s)).unwrap();
            let d2 = g2.node_id(g.node(d)).unwrap();
            assert!(g2.has_edge(s2, l, d2));
        }
    }

    #[test]
    fn quotient_merges() {
        let g = Graph::parse("(a, f, _N1); (a, f, _N2); (_N1, h, b); (_N2, h, b);").unwrap();
        let n1 = g.node_id(Node::null("N1")).unwrap();
        let n2 = g.node_id(Node::null("N2")).unwrap();
        let q = g.quotient(|id| if id == n2 { n1 } else { id });
        assert_eq!(q.node_count(), 3);
        assert_eq!(q.edge_count(), 2, "parallel edges collapse");
        assert!(q.node_id(Node::null("N2")).is_none());
    }

    #[test]
    fn conforms_to_alphabet() {
        let g = Graph::parse("(a, f, b); (b, h, c);").unwrap();
        let mut sigma = FxHashSet::default();
        sigma.insert(Symbol::new("f"));
        assert!(!g.conforms_to(&sigma));
        sigma.insert(Symbol::new("h"));
        assert!(g.conforms_to(&sigma));
    }

    #[test]
    fn fresh_nulls_are_distinct_and_deterministic() {
        let mut g = Graph::new();
        let a = g.add_fresh_null();
        let b = g.add_fresh_null();
        assert_ne!(a, b);
        assert!(!g.node(a).is_const());
        // Per-graph naming: a second graph reuses the same names.
        let mut h = Graph::new();
        let (ha, hb) = (h.add_fresh_null(), h.add_fresh_null());
        assert_eq!(h.node(ha), g.node(a));
        assert_eq!(h.node(hb), g.node(b));
    }

    #[test]
    fn fresh_nulls_skip_taken_names() {
        let mut g = Graph::new();
        g.add_node(Node::null("~0"));
        g.add_node(Node::null("~2"));
        let a = g.add_fresh_null();
        assert_eq!(g.node(a), Node::null("~1"));
        let b = g.add_fresh_null();
        assert_eq!(g.node(b), Node::null("~3"));
    }

    #[test]
    fn null_factory_is_deterministic_and_collision_free() {
        let mut g = Graph::new();
        g.add_node(Node::null("~1"));
        let mut f = NullFactory::new();
        let a = f.fresh_in(&mut g);
        let b = f.fresh_in(&mut g);
        assert_eq!(g.node(a), Node::null("~0"));
        assert_eq!(g.node(b), Node::null("~2"), "~1 was taken");
    }

    #[test]
    fn epochs_track_deltas() {
        let mut g = Graph::new();
        let a = g.add_const("a");
        let e0 = g.epoch();
        assert_eq!(g.edges_since(e0).count(), 0);
        let b = g.add_const("b");
        g.add_edge_labelled(a, "f", b);
        g.add_edge_labelled(a, "f", b); // duplicate: not logged twice
        let e1 = g.epoch();
        assert_eq!(g.edges_since(e0).count(), 1);
        assert_eq!(g.nodes_since(e0).collect::<Vec<_>>(), vec![b]);
        assert_eq!(g.edges_since(e1).count(), 0);
        assert_eq!(g.nodes_since(e1).count(), 0);
        assert_eq!(g.edges_since(Epoch::ZERO).count(), g.edge_count());
    }

    #[test]
    fn clones_get_fresh_ids() {
        let g = Graph::parse("(a, f, b);").unwrap();
        let h = g.clone();
        assert_ne!(g.id(), h.id());
        assert_eq!(g.epoch(), h.epoch());
    }

    #[test]
    fn label_stats_track_edge_counts() {
        let g = Graph::parse("(a, f, b); (b, f, c); (a, h, c);").unwrap();
        assert_eq!(g.label_count(Symbol::new("f")), 2);
        assert_eq!(g.label_count(Symbol::new("h")), 1);
        assert_eq!(g.label_count(Symbol::new("absent")), 0);
        assert_eq!(g.label_stats().values().sum::<usize>(), g.edge_count());
        // Clones and quotients keep the stats consistent.
        let c = g.clone();
        assert_eq!(c.label_count(Symbol::new("f")), 2);
        let q = g.quotient(|id| id);
        assert_eq!(q.label_count(Symbol::new("f")), 2);
    }

    #[test]
    fn null_name_formatting() {
        let mut buf = [0u8; 21];
        assert_eq!(null_name(&mut buf, 0), "~0");
        assert_eq!(null_name(&mut buf, 7), "~7");
        assert_eq!(null_name(&mut buf, 12345), "~12345");
        assert_eq!(null_name(&mut buf, u64::MAX), format!("~{}", u64::MAX));
    }

    #[test]
    fn label_pairs() {
        let g = Graph::parse("(a, f, b); (b, f, c); (a, h, c);").unwrap();
        let f = Symbol::new("f");
        assert_eq!(g.label_pairs(f).count(), 2);
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let g = Graph::parse("(c1, f, _N);").unwrap();
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("label=\"f\""));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("shape=ellipse"));
    }

    // --- copy-on-write forks -------------------------------------------

    /// Every read of `a` must equal the same read of `b`.
    fn assert_same_reads(a: &Graph, b: &Graph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        for id in a.node_ids() {
            assert_eq!(a.node(id), b.node(id));
            assert_eq!(a.node_id(a.node(id)), b.node_id(b.node(id)));
        }
        let labels: FxHashSet<Symbol> = a.labels().collect();
        assert_eq!(labels, b.labels().collect::<FxHashSet<_>>());
        assert_eq!(a.label_stats(), b.label_stats());
        for id in a.node_ids() {
            for &l in &labels {
                assert_eq!(a.successors(id, l), b.successors(id, l), "out {id} {l}");
                assert_eq!(a.predecessors(id, l), b.predecessors(id, l));
                for v in a.node_ids() {
                    assert_eq!(a.has_edge(id, l, v), b.has_edge(id, l, v));
                }
            }
        }
    }

    #[test]
    fn fork_reads_resolve_base_then_delta() {
        let mut parent = Graph::parse("(c1, f, _N); (_N, h, hx); node(iso);").unwrap();
        let oracle = parent.compact();
        let mut fork = parent.fork();
        assert_ne!(fork.id(), parent.id());
        // Sealing must not change the parent in any observable way.
        assert_same_reads(&parent, &oracle);
        assert_same_reads(&fork, &oracle);
        // Grow the fork; an identically grown eager copy must agree.
        let mut eager = oracle.clone();
        for g in [&mut fork, &mut eager] {
            let c1 = g.node_id(Node::cst("c1")).unwrap();
            let fresh = g.add_fresh_null();
            g.add_edge_labelled(c1, "f", fresh);
            let n = g.node_id(Node::null("N")).unwrap();
            g.add_edge_labelled(fresh, "h", n);
        }
        assert_same_reads(&fork, &eager);
        // The parent saw none of it.
        assert_same_reads(&parent, &oracle);
    }

    #[test]
    fn fork_adds_are_private_and_siblings_independent() {
        let mut parent = Graph::parse("(a, f, b);").unwrap();
        let mut f1 = parent.fork();
        let mut f2 = parent.fork();
        let a = f1.node_id(Node::cst("a")).unwrap();
        let b = f1.node_id(Node::cst("b")).unwrap();
        assert!(f1.add_edge_labelled(b, "f", a));
        assert!(f2.add_edge_labelled(a, "h", b));
        assert_eq!(parent.edge_count(), 1);
        assert!(f1.has_edge_labelled(b, "f", a));
        assert!(!f1.has_edge_labelled(a, "h", b));
        assert!(f2.has_edge_labelled(a, "h", b));
        assert!(!f2.has_edge_labelled(b, "f", a));
        // Duplicate of a base edge is rejected on the fork.
        assert!(!f1.add_edge_labelled(a, "f", b));
        // COW bucket: the fork's successor list merges base and delta.
        assert_eq!(f1.successors(b, Symbol::new("f")), &[a]);
        assert_eq!(f1.predecessors(b, Symbol::new("f")), &[a]);
    }

    #[test]
    fn fork_epochs_continue_the_parent_log() {
        let mut parent = Graph::parse("(a, f, b); (b, f, c);").unwrap();
        let sealed_at = parent.epoch();
        let mut fork = parent.fork();
        assert_eq!(fork.epoch(), sealed_at);
        let a = fork.node_id(Node::cst("a")).unwrap();
        let c = fork.node_id(Node::cst("c")).unwrap();
        fork.add_edge_labelled(c, "g", a);
        // Watermark at the seal point sees exactly the delta…
        let delta: Vec<_> = fork.edges_since(sealed_at).collect();
        assert_eq!(delta, vec![&(c, Symbol::new("g"), a)]);
        // …and ZERO replays base ++ delta in insertion order.
        assert_eq!(fork.edges_since(Epoch::ZERO).count(), 3);
        assert_eq!(
            fork.edges_since(Epoch::ZERO).collect::<Vec<_>>(),
            fork.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_delta_forks_share_the_base_snapshot() {
        let mut parent = Graph::parse("(a, f, b); (b, f, c);").unwrap();
        let f1 = parent.fork();
        let f2 = parent.fork();
        let s1 = f1.freeze();
        let s2 = f2.freeze();
        assert!(Arc::ptr_eq(&s1, &s2), "one base CSR for the whole family");
        assert!(
            Arc::ptr_eq(&s1, &parent.freeze()),
            "the sealed parent shares it too"
        );
        // A grown fork stops sharing: its snapshot must see the delta.
        let mut f3 = parent.fork();
        let a = f3.node_id(Node::cst("a")).unwrap();
        let c = f3.node_id(Node::cst("c")).unwrap();
        f3.add_edge_labelled(a, "f", c);
        let s3 = f3.freeze();
        assert!(!Arc::ptr_eq(&s1, &s3));
        assert_eq!(s3.successors(a, Symbol::new("f")).len(), 2);
        assert_eq!(s1.successors(a, Symbol::new("f")).len(), 1);
    }

    #[test]
    fn fork_fresh_nulls_continue_parent_naming() {
        let mut parent = Graph::new();
        parent.add_fresh_null(); // ~0
        let mut fork = parent.fork();
        let n = fork.add_fresh_null();
        assert_eq!(fork.node(n), Node::null("~1"), "counter carried over");
        let mut eager = parent.compact();
        let m = eager.add_fresh_null();
        assert_eq!(eager.node(m), Node::null("~1"));
    }

    #[test]
    fn forking_a_grown_fork_escalates() {
        let mut parent = Graph::parse("(a, f, b);").unwrap();
        let mut child = parent.fork();
        let a = child.node_id(Node::cst("a")).unwrap();
        child.add_edge_labelled(a, "g", a);
        let oracle = child.compact();
        // Sealing the grown child folds base + delta; reads are unchanged.
        let grandchild = child.fork();
        assert_same_reads(&child, &oracle);
        assert_same_reads(&grandchild, &oracle);
    }

    #[test]
    fn fork_quotient_matches_compact_quotient() {
        let mut parent = Graph::parse("(a, f, _N1); (_N1, h, b);").unwrap();
        let mut fork = parent.fork();
        let a = fork.node_id(Node::cst("a")).unwrap();
        let n2 = fork.add_node(Node::null("N2"));
        fork.add_edge_labelled(a, "f", n2);
        let b = fork.node_id(Node::cst("b")).unwrap();
        fork.add_edge_labelled(n2, "h", b);
        let n1 = fork.node_id(Node::null("N1")).unwrap();
        let eager = fork.compact();
        let qf = fork.quotient(|id| if id == n2 { n1 } else { id });
        let qe = eager.quotient(|id| if id == n2 { n1 } else { id });
        assert_same_reads(&qf, &qe);
        assert_eq!(qf.edge_count(), 2);
    }

    #[test]
    fn merge_overlay_collapses_to_the_same_quotient() {
        let g0 = Graph::parse("(a, f, _N1); (a, f, _N2); (_N1, h, b); (_N2, h, b);").unwrap();
        let n1 = g0.node_id(Node::null("N1")).unwrap();
        let n2 = g0.node_id(Node::null("N2")).unwrap();
        let expect = g0.quotient(|id| if id == n2 { n1 } else { id });
        let mut g = g0.clone();
        assert_eq!(g.pending_merges(), 0);
        g.record_merge(n1, n2);
        assert_eq!(g.pending_merges(), 1);
        assert_eq!(g.merge_find(n2), n1);
        // Reads still see the unmerged graph until the collapse.
        assert_eq!(g.node_count(), g0.node_count());
        g.collapse_merges();
        assert_eq!(g.pending_merges(), 0);
        assert_same_reads(&g, &expect);
        // Collapse with nothing recorded preserves the graph value.
        let id_before = g.id();
        g.collapse_merges();
        assert_eq!(g.id(), id_before);
        // Discard drops the overlay without rebuilding.
        let mut h = g0.clone();
        let id_h = h.id();
        h.record_merge(n1, n2);
        h.discard_merges();
        h.collapse_merges();
        assert_eq!(h.id(), id_h);
        assert_eq!(h.node_count(), g0.node_count());
    }

    #[test]
    fn compact_replays_byte_identically() {
        let mut g = Graph::parse("(c1, f, _N); (_N, h, hx); node(iso);").unwrap();
        g.add_fresh_null();
        let c = g.compact();
        assert_ne!(c.id(), g.id());
        assert_same_reads(&c, &g);
        assert!(!c.is_forked());
        // Null naming state travels with the copy.
        let mut g2 = g.clone();
        let mut c2 = c.clone();
        assert_eq!(g2.add_fresh_null(), c2.add_fresh_null());
        assert_eq!(
            g2.node(g2.node_count() as NodeId - 1),
            c2.node(c2.node_count() as NodeId - 1)
        );
    }

    #[test]
    fn clone_of_fork_shares_base_and_diverges() {
        let mut parent = Graph::parse("(a, f, b);").unwrap();
        let mut fork = parent.fork();
        let a = fork.node_id(Node::cst("a")).unwrap();
        fork.add_edge_labelled(a, "g", a);
        let mut copy = fork.clone();
        assert_ne!(copy.id(), fork.id());
        assert_same_reads(&copy, &fork);
        // The copy's delta is private.
        let b = copy.node_id(Node::cst("b")).unwrap();
        copy.add_edge_labelled(b, "g", b);
        assert!(!fork.has_edge_labelled(b, "g", b));
        assert!(copy.has_edge_labelled(b, "g", b));
    }
}
