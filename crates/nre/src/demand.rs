//! Demand-driven NRE evaluation: BFS over the product `G × A` of the
//! graph with the expression's automaton, from seeded endpoints only.
//!
//! The paper's workloads — existence-of-solutions probes, certain-answer
//! checks, egd premise matching — overwhelmingly evaluate NREs with one or
//! both endpoints already bound. The bottom-up evaluator
//! ([`crate::eval::eval`]) still materializes the full relation `⟦r⟧_G`
//! first (worst case `O(|V|²)` pairs). This module answers the seeded
//! question directly, in the classic RPQ style: compile `r` into a small
//! automaton, then explore only the `(node, state)` pairs reachable from
//! the seeds.
//!
//! # The guarded automaton
//!
//! The test-free fragment compiles to an ordinary ε-free NFA over directed
//! letters — the same construction as `gdx_automata::EvalNfa` (that crate
//! sits *above* this one in the dependency graph, so the few lines of
//! Thompson construction are repeated here rather than imported). Nesting
//! tests `[t]` become **guard transitions**: ε-like edges that fire at a
//! graph node `u` only when `∃v. (u, v) ∈ ⟦t⟧` — decided on demand by a
//! recursive, seeded sub-evaluation of `t` from exactly `u`, memoized per
//! node. Backward runs ([`DemandAutomata::preimage`]) use the automaton
//! of the reversed expression ([`Nre::reversed`]), under which guards stay
//! in place as node predicates.
//!
//! # Compiled automata and scratch
//!
//! Evaluation state splits in two. [`DemandAutomata`] is the compiled,
//! immutable half — forward and backward automata plus the guard
//! sub-automata — and is `Send + Sync`, so one compilation serves every
//! thread. [`DemandScratch`] is the mutable half: the graph-version pin,
//! the frozen snapshot, the BFS bitsets and FIFO, the memo tables and the
//! work counters. Every probe takes both; the caller decides which
//! scratch a probe writes to (`gdx_query::PreparedQuery` keeps a small
//! checkout pool of them).
//!
//! Expressions beyond [`MAX_STATES`] automaton states fall outside the
//! supported fragment; [`eval_from`] / [`eval_into`] then fall back to the
//! materializing evaluator restricted to the seeds. The naive evaluator
//! stays the semantics of record either way — the property tests in
//! `tests/prop.rs` assert agreement on random NREs × graphs.
//!
//! [`DemandStats`] counts the `(node, state)` pairs actually expanded, so
//! regression tests can assert that seeded evaluation visits a small
//! fraction of what full materialization enumerates.
//!
//! The BFS inner loop runs on the cache-conscious data plane: once a
//! `(GraphId, Epoch)` version proves read-heavy (second BFS), adjacency
//! comes from the graph's frozen CSR snapshot ([`Graph::freeze`]) — the
//! first probe of a version reads the mutable index, so chase loops that
//! grow the graph between probes never pay per-epoch snapshot rebuilds.
//! The visited/output sets are dense bitsets held by the scratch and
//! reset in time proportional to the previous probe's reach — a probe
//! allocates nothing once its scratch is warm.

use crate::ast::Nre;
use crate::eval::{eval, BinRel};
use gdx_common::{FxHashMap, FxHashSet, GdxError, Result, ScratchBits, Symbol};
use gdx_graph::{FrozenGraph, Graph, GraphId, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Automaton state id (dense).
type State = u32;

/// Automata larger than this fall back to materializing evaluation: a
/// giant expression amortizes bottom-up evaluation across its shared
/// subterms better than a per-seed product walk would.
pub const MAX_STATES: usize = 4096;

/// One transition action of the guarded automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Action {
    /// Traverse one `a`-edge forward.
    Fwd(Symbol),
    /// Traverse one `a`-edge backward.
    Bwd(Symbol),
    /// Stay in place; fires only when the guard predicate holds at the
    /// current node (index into [`DemandAutomata::guards`]).
    Guard(u32),
}

/// A dense, ε-free NFA over graph-traversal actions, with guard
/// transitions for nesting tests. Targets are pre-closed under ε.
#[derive(Debug)]
struct GuardedNfa {
    /// ε-closure of the start state.
    start: Vec<State>,
    /// Per-state acceptance.
    accept: Vec<bool>,
    /// Per-state transitions, targets ε-closed, sorted, deduplicated.
    trans: Vec<Vec<(Action, Vec<State>)>>,
}

/// The distinct nesting-test subexpressions of one NRE, numbered in
/// first-occurrence order. The forward and backward automata intern into
/// one table (reversal keeps tests in place), so [`Action::Guard`] ids
/// mean the same guard in both directions.
#[derive(Default)]
struct Guards {
    list: Vec<Nre>,
    ids: FxHashMap<Nre, u32>,
}

impl Guards {
    fn intern(&mut self, t: &Nre) -> u32 {
        if let Some(&gi) = self.ids.get(t) {
            return gi;
        }
        let gi = self.list.len() as u32;
        self.list.push(t.clone());
        self.ids.insert(t.clone(), gi);
        gi
    }
}

/// Thompson-style builder with explicit ε-edges, eliminated at the end.
struct Builder<'g> {
    eps: Vec<Vec<State>>,
    trans: Vec<Vec<(Action, State)>>,
    guards: &'g mut Guards,
}

impl Builder<'_> {
    fn add_state(&mut self) -> State {
        let id = self.eps.len() as State;
        self.eps.push(Vec::new());
        self.trans.push(Vec::new());
        id
    }

    fn build(&mut self, r: &Nre) -> (State, State) {
        match r {
            Nre::Epsilon => {
                let (s, f) = (self.add_state(), self.add_state());
                self.eps[s as usize].push(f);
                (s, f)
            }
            Nre::Label(a) => {
                let (s, f) = (self.add_state(), self.add_state());
                self.trans[s as usize].push((Action::Fwd(*a), f));
                (s, f)
            }
            Nre::Inverse(a) => {
                let (s, f) = (self.add_state(), self.add_state());
                self.trans[s as usize].push((Action::Bwd(*a), f));
                (s, f)
            }
            Nre::Union(x, y) => {
                let (sx, fx) = self.build(x);
                let (sy, fy) = self.build(y);
                let (s, f) = (self.add_state(), self.add_state());
                self.eps[s as usize].extend([sx, sy]);
                self.eps[fx as usize].push(f);
                self.eps[fy as usize].push(f);
                (s, f)
            }
            Nre::Concat(x, y) => {
                let (sx, fx) = self.build(x);
                let (sy, fy) = self.build(y);
                self.eps[fx as usize].push(sy);
                (sx, fy)
            }
            Nre::Star(x) => {
                let (sx, fx) = self.build(x);
                let (s, f) = (self.add_state(), self.add_state());
                self.eps[s as usize].extend([sx, f]);
                self.eps[fx as usize].extend([sx, f]);
                (s, f)
            }
            Nre::Test(x) => {
                let gi = self.guards.intern(x);
                let (s, f) = (self.add_state(), self.add_state());
                self.trans[s as usize].push((Action::Guard(gi), f));
                (s, f)
            }
        }
    }

    /// ε-closure of one state, as a sorted id list.
    fn closure(&self, s: State) -> Vec<State> {
        let mut seen: FxHashSet<State> = FxHashSet::default();
        let mut stack = vec![s];
        seen.insert(s);
        while let Some(q) = stack.pop() {
            for &t in &self.eps[q as usize] {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
        let mut v: Vec<State> = seen.into_iter().collect();
        v.sort_unstable();
        v
    }
}

impl GuardedNfa {
    /// Compiles `r`, interning its nesting tests into `guards`; fails
    /// when the automaton exceeds [`MAX_STATES`].
    fn compile(r: &Nre, guards: &mut Guards) -> Result<GuardedNfa> {
        let mut b = Builder {
            eps: Vec::new(),
            trans: Vec::new(),
            guards,
        };
        let (start, accept) = b.build(r);
        let n = b.eps.len();
        if n > MAX_STATES {
            return Err(GdxError::limit(format!(
                "NRE compiles to {n} automaton states (> {MAX_STATES}); \
                 demand evaluation falls back to materialization"
            )));
        }
        let mut trans: Vec<Vec<(Action, Vec<State>)>> = Vec::with_capacity(n);
        for s in 0..n {
            let mut by_action: FxHashMap<Action, Vec<State>> = FxHashMap::default();
            for &(action, t) in &b.trans[s] {
                by_action.entry(action).or_default().extend(b.closure(t));
            }
            let mut row: Vec<(Action, Vec<State>)> = by_action.into_iter().collect();
            for (_, targets) in &mut row {
                targets.sort_unstable();
                targets.dedup();
            }
            // Deterministic transition order (hash-map iteration is not).
            row.sort_by_key(|(a, _)| *a);
            trans.push(row);
        }
        let mut accept_flags = vec![false; n];
        accept_flags[accept as usize] = true;
        Ok(GuardedNfa {
            start: b.closure(start),
            accept: accept_flags,
            trans,
        })
    }
}

/// Work counters of one [`DemandScratch`] — cumulative across calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemandStats {
    /// `(node, state)` product pairs expanded by BFS.
    pub visited: usize,
    /// Product-BFS runs started (one per uncached seed).
    pub bfs_runs: usize,
    /// Guard-predicate decisions requested (memoized hits included).
    pub guard_checks: usize,
}

impl std::ops::AddAssign for DemandStats {
    fn add_assign(&mut self, other: DemandStats) {
        self.visited += other.visited;
        self.bfs_runs += other.bfs_runs;
        self.guard_checks += other.guard_checks;
    }
}

impl DemandStats {
    /// Component-wise difference against an earlier snapshot of the same
    /// cumulative counters (saturating).
    pub fn delta_since(&self, earlier: &DemandStats) -> DemandStats {
        DemandStats {
            visited: self.visited.saturating_sub(earlier.visited),
            bfs_runs: self.bfs_runs.saturating_sub(earlier.bfs_runs),
            guard_checks: self.guard_checks.saturating_sub(earlier.guard_checks),
        }
    }

    /// Bridge into the shared registry under the `demand.*` namespace.
    /// Call with a *delta* (see [`DemandStats::delta_since`]) — registry
    /// counters are cumulative, so recording a cumulative snapshot twice
    /// would double-count.
    pub fn record_into(&self, obs: &gdx_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.add("demand.visited", self.visited as u64);
        obs.add("demand.bfs_runs", self.bfs_runs as u64);
        obs.add("demand.guard_checks", self.guard_checks as u64);
    }

    /// Stable JSON rendering (fixed field order, no dependencies).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"visited\": {}, \"bfs_runs\": {}, \"guard_checks\": {}}}",
            self.visited, self.bfs_runs, self.guard_checks
        )
    }
}

/// Run direction over the product.
#[derive(Clone, Copy)]
enum Dir {
    Fwd,
    Bwd,
}

/// Early-exit policy of one product BFS.
#[derive(Clone, Copy)]
enum BfsStop {
    /// Collect the full image.
    Exhaust,
    /// Stop at the first accepting pair (existence probes, guards).
    FirstAccept,
    /// Stop once this node is reached in an accepting state (membership
    /// probes).
    Node(NodeId),
}

/// The compiled, immutable half of demand evaluation for one NRE.
///
/// Holds the forward automaton of `r`, the automaton of `rev(r)` for
/// backward runs, and the compiled automata of every distinct nesting
/// test (shared by both directions — guards are node predicates). It is
/// `Send + Sync` and cheap to clone, so one compiled set serves any
/// number of threads; every probe takes the mutable half, a
/// [`DemandScratch`], from its caller.
///
/// ```
/// use gdx_graph::Graph;
/// use gdx_nre::parse::parse_nre;
/// use gdx_nre::demand::{DemandAutomata, DemandScratch};
/// let g = Graph::parse("(a, f, b); (b, f, c);").unwrap();
/// let auto = DemandAutomata::compile(&parse_nre("f.f").unwrap()).unwrap();
/// let mut scratch = DemandScratch::default();
/// let a = g.node_id(gdx_graph::Node::cst("a")).unwrap();
/// let c = g.node_id(gdx_graph::Node::cst("c")).unwrap();
/// assert_eq!(auto.image(&mut scratch, &g, a), &[c]);
/// ```
#[derive(Debug, Clone)]
pub struct DemandAutomata {
    fwd: Arc<GuardedNfa>,
    bwd: Arc<GuardedNfa>,
    /// Automata of the nesting-test subexpressions, indexed by
    /// [`Action::Guard`].
    guards: Arc<[DemandAutomata]>,
}

/// The mutable half of demand evaluation: everything one probe sequence
/// writes. Pair each scratch with one [`DemandAutomata`] for its whole
/// life — the memos are answers of that automaton.
///
/// Memos are pinned to one graph *version* (value identity plus epoch);
/// probing a different graph, or the same graph after it grew, resets
/// them transparently. Work counters ([`DemandScratch::stats`]) survive
/// resets.
#[derive(Debug, Default)]
pub struct DemandScratch {
    /// The graph version the memos are valid for. Chase engines grow one
    /// graph value in place; growth adds reachable pairs, so memos from
    /// an older epoch would under-report.
    graph: Option<(GraphId, gdx_graph::Epoch)>,
    /// CSR snapshot of the pinned graph version: once present, the
    /// product-BFS reads adjacency from here (two array lookups per
    /// step) instead of the mutable graph's hash index. Built **lazily**
    /// on the second BFS within one `(GraphId, Epoch)` version: chase
    /// loops that fire (moving the epoch) after every probe never pay an
    /// O(V+E) snapshot rebuild per firing — they keep reading the
    /// mutable index, exactly as cheaply as before — while read-heavy
    /// phases (certain sweeps, solution checks against a settled graph)
    /// freeze once and amortize it over every subsequent probe. The
    /// snapshot itself is memoized on the graph, so all scratches
    /// probing one version share a single rebuild.
    frozen: Option<Arc<FrozenGraph>>,
    /// BFS runs since the last version change — the lazy-freeze trigger.
    probes_in_version: u32,
    /// BFS scratch, reused across runs: visited bits over the dense
    /// `(node, state)` product (`node · |states| + state`), accept-output
    /// bits over nodes, and the FIFO frontier. Reset costs are
    /// proportional to the previous run's reach ([`ScratchBits::reset`]),
    /// so a tiny probe never pays for the universe.
    visited: ScratchBits,
    out_seen: ScratchBits,
    queue: VecDeque<(NodeId, State)>,
    fwd_images: FxHashMap<NodeId, Vec<NodeId>>,
    bwd_images: FxHashMap<NodeId, Vec<NodeId>>,
    /// Guard-style memo: does *any* node lie in the forward image?
    nonempty: FxHashMap<NodeId, bool>,
    /// Membership-probe memo, keyed by the packed `(u, v)` pair —
    /// target-early-exited runs are not full images, so they memoize here
    /// instead of in `fwd_images`.
    pair_memo: FxHashMap<u64, bool>,
    /// Scratch of the guard automata, aligned with
    /// [`DemandAutomata::guards`]; sized on the first guard check.
    guards: Vec<DemandScratch>,
    stats: DemandStats,
}

#[inline]
fn pack(node: NodeId, state: State) -> u64 {
    (u64::from(node) << 32) | u64::from(state)
}

impl DemandScratch {
    /// Cumulative work counters (survive graph resets).
    pub fn stats(&self) -> DemandStats {
        self.stats
    }

    /// Drops memos when the graph value — or its epoch — changed since
    /// the last call. The frozen snapshot is dropped too but *not*
    /// rebuilt here: [`DemandAutomata::bfs`] re-freezes only once the
    /// version proves read-heavy (see the `frozen` field docs).
    fn sync(&mut self, graph: &Graph) {
        let version = (graph.id(), graph.epoch());
        if self.graph != Some(version) {
            self.fwd_images.clear();
            self.bwd_images.clear();
            self.nonempty.clear();
            self.pair_memo.clear();
            self.frozen = None;
            self.probes_in_version = 0;
            self.graph = Some(version);
        }
    }
}

impl DemandAutomata {
    /// Compiles the automata for `r`. Errors when the expression — or any
    /// of its nesting-test subexpressions, compiled eagerly here — falls
    /// outside the supported fragment ([`MAX_STATES`]); callers then fall
    /// back to the materializing evaluator instead of discovering an
    /// uncompilable guard mid-run.
    pub fn compile(r: &Nre) -> Result<DemandAutomata> {
        let mut guards = Guards::default();
        let fwd = Arc::new(GuardedNfa::compile(r, &mut guards)?);
        let bwd = Arc::new(GuardedNfa::compile(&r.reversed(), &mut guards)?);
        let guards = guards
            .list
            .iter()
            .map(DemandAutomata::compile)
            .collect::<Result<Arc<[DemandAutomata]>>>()?;
        Ok(DemandAutomata { fwd, bwd, guards })
    }

    /// `{v | (u, v) ∈ ⟦r⟧_G}`, memoized per `u` in `scratch`.
    pub fn image<'s>(
        &self,
        scratch: &'s mut DemandScratch,
        graph: &Graph,
        u: NodeId,
    ) -> &'s [NodeId] {
        scratch.sync(graph);
        if !scratch.fwd_images.contains_key(&u) {
            let list = self.bfs(scratch, graph, Dir::Fwd, u, BfsStop::Exhaust);
            scratch.fwd_images.insert(u, list);
        }
        &scratch.fwd_images[&u]
    }

    /// `{u | (u, v) ∈ ⟦r⟧_G}`, memoized per `v` (backward product run).
    pub fn preimage<'s>(
        &self,
        scratch: &'s mut DemandScratch,
        graph: &Graph,
        v: NodeId,
    ) -> &'s [NodeId] {
        scratch.sync(graph);
        if !scratch.bwd_images.contains_key(&v) {
            let list = self.bfs(scratch, graph, Dir::Bwd, v, BfsStop::Exhaust);
            scratch.bwd_images.insert(v, list);
        }
        &scratch.bwd_images[&v]
    }

    /// Does `(u, v) ∈ ⟦r⟧_G` hold? Uses whichever memo already exists;
    /// otherwise runs a forward BFS that stops as soon as `v` is reached
    /// in an accepting state — the constant-tuple probe shape never pays
    /// for the full image.
    pub fn contains(
        &self,
        scratch: &mut DemandScratch,
        graph: &Graph,
        u: NodeId,
        v: NodeId,
    ) -> bool {
        scratch.sync(graph);
        if let Some(list) = scratch.fwd_images.get(&u) {
            return list.contains(&v);
        }
        if let Some(list) = scratch.bwd_images.get(&v) {
            return list.contains(&u);
        }
        let key = pack(u, v);
        if let Some(&b) = scratch.pair_memo.get(&key) {
            return b;
        }
        let out = self.bfs(scratch, graph, Dir::Fwd, u, BfsStop::Node(v));
        let found = out.contains(&v);
        if found {
            scratch.pair_memo.insert(key, true);
        } else {
            // The target was never reached, so the BFS ran to exhaustion
            // and `out` is the complete image of `u` — memoize it so
            // further probes from `u` are lookups, not re-runs.
            scratch.fwd_images.insert(u, out);
        }
        found
    }

    /// Does *some* `v` with `(u, v) ∈ ⟦r⟧_G` exist? Early-exits the BFS
    /// at the first accepting pair; the guard checks of enclosing
    /// automata run through this.
    pub fn has_any_successor(&self, scratch: &mut DemandScratch, graph: &Graph, u: NodeId) -> bool {
        scratch.sync(graph);
        if let Some(list) = scratch.fwd_images.get(&u) {
            return !list.is_empty();
        }
        if let Some(&b) = scratch.nonempty.get(&u) {
            return b;
        }
        let found = !self
            .bfs(scratch, graph, Dir::Fwd, u, BfsStop::FirstAccept)
            .is_empty();
        scratch.nonempty.insert(u, found);
        found
    }

    /// Product BFS from `(src, start-states)`; collects the graph nodes
    /// reached in an accepting automaton state, stopping early per `stop`.
    /// Only [`BfsStop::Exhaust`] results are complete images fit for
    /// memoization as such.
    ///
    /// Adjacency comes from the frozen CSR snapshot once the graph
    /// version has seen a second BFS (sorted neighbor slices — two array
    /// reads per step; the first run reads the mutable index so
    /// fire-probe-fire chase loops never rebuild snapshots). The visited
    /// and accept sets are dense bitsets over `(node, state)` and
    /// `node`, taken out of the scratch for the duration of the run
    /// (guard checks re-borrow it mutably) and restored afterwards for
    /// reuse.
    fn bfs(
        &self,
        scratch: &mut DemandScratch,
        graph: &Graph,
        dir: Dir,
        src: NodeId,
        stop: BfsStop,
    ) -> Vec<NodeId> {
        let auto = match dir {
            Dir::Fwd => &self.fwd,
            Dir::Bwd => &self.bwd,
        };
        scratch.probes_in_version += 1;
        if scratch.frozen.is_none() && scratch.probes_in_version >= 2 {
            scratch.frozen = Some(graph.freeze());
        }
        let frozen = scratch.frozen.clone();
        scratch.stats.bfs_runs += 1;
        let states = auto.trans.len();
        let mut visited = std::mem::take(&mut scratch.visited);
        let mut out_seen = std::mem::take(&mut scratch.out_seen);
        let mut queue = std::mem::take(&mut scratch.queue);
        visited.reset();
        out_seen.reset();
        queue.clear();
        let mut out: Vec<NodeId> = Vec::new();
        let idx = |node: NodeId, q: State| node as usize * states + q as usize;
        for &q in &auto.start {
            if visited.insert(idx(src, q)) {
                queue.push_back((src, q));
            }
        }
        // FIFO order matters for the early exits: a breadth-first frontier
        // reaches a target at graph distance d before touching anything at
        // distance d+1, so `FirstAccept`/`Node` probes stay local.
        'run: while let Some((u, q)) = queue.pop_front() {
            scratch.stats.visited += 1;
            if auto.accept[q as usize] && out_seen.insert(u as usize) {
                out.push(u);
                match stop {
                    BfsStop::FirstAccept => break 'run,
                    BfsStop::Node(t) if u == t => break 'run,
                    _ => {}
                }
            }
            for (action, targets) in &auto.trans[q as usize] {
                match *action {
                    Action::Fwd(a) => {
                        let succ = match &frozen {
                            Some(f) => f.successors(u, a),
                            None => graph.successors(u, a),
                        };
                        for &v in succ {
                            for &q2 in targets {
                                if visited.insert(idx(v, q2)) {
                                    queue.push_back((v, q2));
                                }
                            }
                        }
                    }
                    Action::Bwd(a) => {
                        let pred = match &frozen {
                            Some(f) => f.predecessors(u, a),
                            None => graph.predecessors(u, a),
                        };
                        for &v in pred {
                            for &q2 in targets {
                                if visited.insert(idx(v, q2)) {
                                    queue.push_back((v, q2));
                                }
                            }
                        }
                    }
                    Action::Guard(gi) => {
                        if self.guard_holds(scratch, graph, gi as usize, u) {
                            for &q2 in targets {
                                if visited.insert(idx(u, q2)) {
                                    queue.push_back((u, q2));
                                }
                            }
                        }
                    }
                }
            }
        }
        scratch.visited = visited;
        scratch.out_seen = out_seen;
        scratch.queue = queue;
        out
    }

    /// Decides guard `gi` at node `u` by seeded sub-evaluation of the
    /// test from exactly `u`, through the guard's compiled automata and
    /// its own nested scratch.
    fn guard_holds(
        &self,
        scratch: &mut DemandScratch,
        graph: &Graph,
        gi: usize,
        u: NodeId,
    ) -> bool {
        scratch.stats.guard_checks += 1;
        if scratch.guards.len() < self.guards.len() {
            scratch
                .guards
                .resize_with(self.guards.len(), DemandScratch::default);
        }
        let sub = &mut scratch.guards[gi];
        let before = sub.stats.visited;
        let held = self.guards[gi].has_any_successor(sub, graph, u);
        // Fold the nested run's work into this scratch's counters so
        // regression tests see the full cost of a seeded evaluation.
        let delta = sub.stats.visited - before;
        scratch.stats.visited += delta;
        held
    }
}

/// `⟦r⟧_G` restricted to the given source nodes: the pairs
/// `{(u, v) | u ∈ sources, (u, v) ∈ ⟦r⟧_G}`, computed by product-BFS from
/// the sources only. Falls back to the materializing evaluator when `r`
/// is outside the supported fragment.
pub fn eval_from(graph: &Graph, r: &Nre, sources: &[NodeId]) -> BinRel {
    match DemandAutomata::compile(r) {
        Ok(auto) => {
            let mut scratch = DemandScratch::default();
            let mut out = BinRel::new();
            for &u in sources {
                for &v in auto.image(&mut scratch, graph, u) {
                    out.insert(u, v);
                }
            }
            out
        }
        Err(_) => {
            let full = eval(graph, r);
            let set: FxHashSet<NodeId> = sources.iter().copied().collect();
            let mut out = BinRel::new();
            for (u, v) in full.iter() {
                if set.contains(&u) {
                    out.insert(u, v);
                }
            }
            out
        }
    }
}

/// `⟦r⟧_G` restricted to the given target nodes: the pairs
/// `{(u, v) | v ∈ targets, (u, v) ∈ ⟦r⟧_G}`, computed by backward
/// product-BFS from the targets only.
pub fn eval_into(graph: &Graph, r: &Nre, targets: &[NodeId]) -> BinRel {
    match DemandAutomata::compile(r) {
        Ok(auto) => {
            let mut scratch = DemandScratch::default();
            let mut out = BinRel::new();
            for &v in targets {
                for &u in auto.preimage(&mut scratch, graph, v) {
                    out.insert(u, v);
                }
            }
            out
        }
        Err(_) => {
            let full = eval(graph, r);
            let set: FxHashSet<NodeId> = targets.iter().copied().collect();
            let mut out = BinRel::new();
            for (u, v) in full.iter() {
                if set.contains(&v) {
                    out.insert(u, v);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_nre;
    use gdx_graph::Node;

    fn id(g: &Graph, name: &str) -> NodeId {
        g.node_id(Node::cst(name))
            .or_else(|| g.node_id(Node::null(name)))
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    fn check_restriction(g: &Graph, expr: &str) {
        let r = parse_nre(expr).unwrap();
        let full = eval(g, &r);
        let all: Vec<NodeId> = g.node_ids().collect();
        for &u in &all {
            let from = eval_from(g, &r, &[u]);
            for (a, b) in full.iter().filter(|&(s, _)| s == u) {
                assert!(from.contains(a, b), "{expr}: missing ({a},{b}) from {u}");
            }
            assert_eq!(
                from.len(),
                full.iter().filter(|&(s, _)| s == u).count(),
                "{expr} from {u}"
            );
            let into = eval_into(g, &r, &[u]);
            assert_eq!(
                into.len(),
                full.iter().filter(|&(_, d)| d == u).count(),
                "{expr} into {u}"
            );
            for (a, b) in into.iter() {
                assert!(full.contains(a, b), "{expr}: spurious ({a},{b}) into {u}");
            }
        }
    }

    #[test]
    fn agrees_with_naive_on_paper_graph() {
        let g = Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);")
            .unwrap();
        for expr in [
            "f",
            "f-",
            "f.f",
            "f*",
            "(f+h)*",
            "[h]",
            "f.[h].f-",
            "f.f*.[h].f-.(f-)*",
            "eps",
            "[[h]]",
            "[h-]",
        ] {
            check_restriction(&g, expr);
        }
    }

    #[test]
    fn seeded_run_visits_local_slice_only() {
        // A long f-chain: BFS from the head visits the chain, not |V|².
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..100).map(|i| g.add_const(&format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge_labelled(w[0], "f", w[1]);
        }
        let r = parse_nre("f.f").unwrap();
        let auto = DemandAutomata::compile(&r).unwrap();
        let mut s = DemandScratch::default();
        assert_eq!(auto.image(&mut s, &g, ids[0]), &[ids[2]]);
        let visited = s.stats().visited;
        assert!(
            visited <= 16,
            "two-hop probe must stay local, visited {visited}"
        );
    }

    #[test]
    fn memoization_and_graph_reset() {
        let g = Graph::parse("(a, f, b); (b, f, c);").unwrap();
        let r = parse_nre("f*").unwrap();
        let auto = DemandAutomata::compile(&r).unwrap();
        let mut s = DemandScratch::default();
        let a = id(&g, "a");
        let first = auto.image(&mut s, &g, a).to_vec();
        let runs = s.stats().bfs_runs;
        let again = auto.image(&mut s, &g, a).to_vec();
        assert_eq!(first, again);
        assert_eq!(s.stats().bfs_runs, runs, "memoized: no second run");
        // A clone is a different graph value: memos reset.
        let g2 = g.clone();
        let _ = auto.image(&mut s, &g2, a);
        assert_eq!(s.stats().bfs_runs, runs + 1);
    }

    #[test]
    fn in_place_growth_invalidates_memos() {
        // The chase grows one graph value in place; a memo from an older
        // epoch must not under-report the new witnesses.
        let mut g = Graph::parse("(a, f, b);").unwrap();
        let r = parse_nre("f.f").unwrap();
        let auto = DemandAutomata::compile(&r).unwrap();
        let mut s = DemandScratch::default();
        let a = id(&g, "a");
        assert!(auto.image(&mut s, &g, a).is_empty());
        let b = id(&g, "b");
        let c = g.add_const("c");
        g.add_edge_labelled(b, "f", c);
        assert_eq!(auto.image(&mut s, &g, a), &[c]);
    }

    #[test]
    fn contains_and_existence_probes() {
        let g = Graph::parse("(a, f, b); (b, h, x);").unwrap();
        let r = parse_nre("f.[h]").unwrap();
        let auto = DemandAutomata::compile(&r).unwrap();
        let mut s = DemandScratch::default();
        assert!(auto.contains(&mut s, &g, id(&g, "a"), id(&g, "b")));
        assert!(!auto.contains(&mut s, &g, id(&g, "b"), id(&g, "a")));
        assert!(auto.has_any_successor(&mut s, &g, id(&g, "a")));
        assert!(!auto.has_any_successor(&mut s, &g, id(&g, "x")));
    }

    #[test]
    fn contains_early_exits_and_memoizes() {
        // A membership probe must stop at the target, not enumerate the
        // image, and repeated probes must hit the pair memo.
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..200).map(|i| g.add_const(&format!("c{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge_labelled(w[0], "f", w[1]);
        }
        let r = parse_nre("f.f*").unwrap();
        let auto = DemandAutomata::compile(&r).unwrap();
        let mut s = DemandScratch::default();
        assert!(auto.contains(&mut s, &g, ids[0], ids[1]));
        let after_first = s.stats().visited;
        assert!(
            after_first < 50,
            "probe to an adjacent node explored {after_first} pairs"
        );
        let runs = s.stats().bfs_runs;
        assert!(auto.contains(&mut s, &g, ids[0], ids[1]));
        assert_eq!(s.stats().bfs_runs, runs, "second probe hits the memo");
        assert!(
            !auto.contains(&mut s, &g, ids[199], ids[0]),
            "chain is one-way"
        );
    }

    #[test]
    fn oversized_expression_falls_back() {
        // A balanced concat tree of 2^12 labels compiles to 2^13 states —
        // over the budget; the public entry points must still answer, via
        // the materializing fallback. (Balanced, not left-deep: the naive
        // evaluator recurses by tree depth.)
        fn balanced_concat(depth: u32) -> Nre {
            if depth == 0 {
                Nre::label("f")
            } else {
                Nre::Concat(
                    Box::new(balanced_concat(depth - 1)),
                    Box::new(balanced_concat(depth - 1)),
                )
            }
        }
        let big = balanced_concat(12);
        assert!(DemandAutomata::compile(&big).is_err());
        let g = Graph::parse("(a, f, a); (b, g, a);").unwrap();
        let a = id(&g, "a");
        let from = eval_from(&g, &big, &[a]);
        assert_eq!(from.len(), 1, "f^4096 on the self-loop is {{(a,a)}}");
        assert!(from.contains(a, a));
        let into = eval_into(&g, &big, &[a]);
        assert_eq!(into.len(), 1);
        assert!(into.contains(a, a));

        // An oversized expression *inside a nesting test* must surface at
        // construction time too (the outer automaton alone is tiny), so
        // the fallback fires instead of a mid-run guard failure.
        let guarded = Nre::Test(Box::new(big));
        assert!(DemandAutomata::compile(&guarded).is_err());
        let from = eval_from(&g, &guarded, &[a]);
        assert_eq!(from.len(), 1, "[f^4096] holds at the self-loop node");
        assert!(from.contains(a, a));
        assert!(eval_into(&g, &guarded, &[a]).contains(a, a));
    }

    #[test]
    fn multi_seed_eval_from() {
        let g = Graph::parse("(a, f, b); (c, f, d); (e, g, a);").unwrap();
        let r = parse_nre("f").unwrap();
        let rel = eval_from(&g, &r, &[id(&g, "a"), id(&g, "c"), id(&g, "e")]);
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(id(&g, "a"), id(&g, "b")));
        assert!(rel.contains(id(&g, "c"), id(&g, "d")));
    }

    #[test]
    fn demand_stats_bridge_and_json() {
        let g = Graph::parse("(a, f, b); (b, f, c);").unwrap();
        let auto = DemandAutomata::compile(&parse_nre("f.f").unwrap()).unwrap();
        let mut s = DemandScratch::default();
        let _ = auto.image(&mut s, &g, id(&g, "a"));
        let stats = s.stats();
        assert!(stats.bfs_runs >= 1);
        let obs = gdx_obs::Obs::enabled();
        stats.record_into(&obs);
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter("demand.visited"), stats.visited as u64);
        assert_eq!(reg.counter("demand.bfs_runs"), stats.bfs_runs as u64);
        let json = stats.render_json();
        assert!(json.starts_with("{\"visited\": "), "{json}");
        let zero = stats.delta_since(&stats);
        assert_eq!(zero.visited, 0);
        assert_eq!(zero.bfs_runs, 0);
        assert_eq!(zero.guard_checks, 0);
    }
}
