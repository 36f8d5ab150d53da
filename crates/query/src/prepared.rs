//! Prepared CNRE queries: parse, validate, and compile once — evaluate
//! many times, from any number of threads.
//!
//! [`PreparedQuery`] is the one evaluation entry point. It hoists
//! everything that only depends on the *query* into construction:
//!
//! * the query text is parsed and validated once ([`PreparedQuery::parse`]);
//! * every distinct atom NRE is compiled into demand automata up front
//!   ([`DemandAutomata`]); atoms outside the demand fragment are
//!   remembered as materialize-only, so planning never re-attempts
//!   compilation. Construction is the only place a query's automata are
//!   compiled;
//! * the variable list (the output schema) is computed once.
//!
//! Evaluation takes the graph *and* a materialization cache: relations are
//! per-graph artifacts, while the compiled automata are graph-independent.
//! The mutable half of demand evaluation — memo tables pinned to a
//! `(GraphId, Epoch)`, BFS bitsets, work counters — lives in scratch sets
//! ([`DemandScratch`], one per compiled NRE). The query keeps a small
//! checkout pool of them: an evaluation pops a set, evaluates, and pushes
//! it back, holding the pool's lock only for the pop and the push. One
//! thread therefore reuses one warm set call after call, and `N`
//! concurrent evaluations grow the pool to at most `N` sets. The query is
//! `Send + Sync`, so parallel callers share one `&PreparedQuery`.
//!
//! ```
//! use gdx_graph::Graph;
//! use gdx_nre::eval::EvalCache;
//! use gdx_query::PreparedQuery;
//!
//! let q = PreparedQuery::parse("(\"c1\", f.f, \"c2\")").unwrap();
//! let g1 = Graph::parse("(c1, f, _N); (_N, f, c2);").unwrap();
//! let g2 = Graph::parse("(c1, f, c2);").unwrap();
//! // One compiled query, probed against two different graphs.
//! assert!(q.evaluate_exists(&g1).unwrap());
//! assert!(!q.evaluate_exists(&g2).unwrap());
//! // Callers with a cache keep materialized relations warm across calls.
//! let mut cache = EvalCache::new();
//! let rows = q.matches(&g1, &mut cache).unwrap();
//! assert_eq!(rows.len(), 1, "Boolean query: one empty witness row");
//! ```

use crate::cnre::Cnre;
use crate::eval::{planned_eval, DemandBacking, NodeBindings, RelCache};
use crate::plan::PlannerMode;
use gdx_common::{FxHashMap, Result, Symbol, Term};
use gdx_graph::{Graph, NodeId};
use gdx_nre::demand::{DemandAutomata, DemandScratch, DemandStats};
use gdx_nre::eval::EvalCache;
use gdx_nre::{IncrementalCache, Nre};
use gdx_runtime::Runtime;
use std::cell::RefCell;
use std::sync::{Mutex, PoisonError};

/// One scratch per compiled NRE, aligned with [`PreparedQuery`]'s
/// automata. `RefCell` lets several atoms of one evaluation share their
/// NRE's scratch one probe at a time.
type ScratchSet = Vec<RefCell<DemandScratch>>;

/// A parsed, validated CNRE with pre-compiled demand automata and its
/// output schema — reusable across graphs, epochs and threads.
///
/// Construct once per query shape (per constraint body, per user query),
/// then call the evaluation methods freely; see the [module docs](self)
/// for what is hoisted into construction and how concurrent evaluations
/// get their scratch.
#[derive(Debug)]
pub struct PreparedQuery {
    query: Cnre,
    vars: Vec<Symbol>,
    /// Compiled automata, one per distinct atom NRE inside the demand
    /// fragment.
    automata: Vec<DemandAutomata>,
    /// Per atom: index into `automata`, or `None` when the atom's NRE is
    /// outside the demand fragment (planned evaluation materializes it).
    slots: Vec<Option<usize>>,
    /// Checkout pool of scratch sets; see the module docs.
    pool: Mutex<Vec<ScratchSet>>,
}

impl PreparedQuery {
    /// Prepares a query from its text form, validating it first.
    ///
    /// ```
    /// use gdx_query::PreparedQuery;
    /// let q = PreparedQuery::parse("(x, f.f*, y), (y, h, \"hx\")").unwrap();
    /// assert_eq!(q.variables().len(), 2);
    /// assert!(PreparedQuery::parse("(x, , y)").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<PreparedQuery> {
        let query = Cnre::parse(text)?;
        query.validate(None)?;
        Ok(PreparedQuery::new(query))
    }

    /// Prepares an already-built query. Compilation cannot fail (atoms
    /// outside the demand fragment simply materialize); shape validation
    /// happens on evaluation.
    pub fn new(query: Cnre) -> PreparedQuery {
        let vars = query.variables();
        let mut automata = Vec::new();
        let mut slots: Vec<Option<usize>> = Vec::with_capacity(query.atoms.len());
        for (i, atom) in query.atoms.iter().enumerate() {
            // Atoms sharing an NRE share its automata (and scratch).
            let slot = match query.atoms[..i].iter().position(|a| a.nre == atom.nre) {
                Some(j) => slots[j],
                None => DemandAutomata::compile(&atom.nre).ok().map(|auto| {
                    automata.push(auto);
                    automata.len() - 1
                }),
            };
            slots.push(slot);
        }
        PreparedQuery {
            query,
            vars,
            automata,
            slots,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Prepares the single-atom query `(left, r, right)` — the shape of
    /// the paper's query answering problem.
    pub fn single(left: Term, nre: Nre, right: Term) -> PreparedQuery {
        PreparedQuery::new(Cnre::single(left, nre, right))
    }

    /// The underlying query.
    pub fn cnre(&self) -> &Cnre {
        &self.query
    }

    /// Output schema: distinct variables in first-occurrence order.
    pub fn variables(&self) -> &[Symbol] {
        &self.vars
    }

    /// Evaluates over `graph` with a private, throwaway materialization
    /// cache. Callers issuing several calls against one graph should use
    /// [`PreparedQuery::matches`] with a shared [`EvalCache`].
    pub fn evaluate(&self, graph: &Graph) -> Result<NodeBindings> {
        self.matches(graph, &mut EvalCache::new())
    }

    /// Is the query satisfiable over `graph`? Early-exits at the first
    /// answer row; with a constants-only query this is the certain-answer
    /// probe shape, served by seeded product-BFS.
    pub fn evaluate_exists(&self, graph: &Graph) -> Result<bool> {
        let mut cache = EvalCache::new();
        Ok(!self
            .eval_planned(
                graph,
                &mut cache,
                &FxHashMap::default(),
                PlannerMode::Auto,
                Some(1),
                &Runtime::sequential(),
            )?
            .is_empty())
    }

    /// All matches over `graph`, with materialized relations drawn from
    /// (and left in) `cache` for reuse across calls on the same graph.
    pub fn matches(&self, graph: &Graph, cache: &mut EvalCache) -> Result<NodeBindings> {
        self.evaluate_seeded(graph, cache, &FxHashMap::default())
    }

    /// Evaluates with some variables pre-bound to graph nodes — the tgd
    /// head-satisfaction shape (frontier variables seeded, existential
    /// variables free). Seeded variables appear in the output columns with
    /// their fixed values.
    pub fn evaluate_seeded(
        &self,
        graph: &Graph,
        cache: &mut EvalCache,
        seed: &FxHashMap<Symbol, NodeId>,
    ) -> Result<NodeBindings> {
        self.eval_planned(
            graph,
            cache,
            seed,
            PlannerMode::Auto,
            None,
            &Runtime::sequential(),
        )
    }

    /// [`PreparedQuery::evaluate_seeded`] with an explicit planner mode —
    /// [`PlannerMode::Materialize`] forces the single-strategy baseline
    /// the benches and equivalence tests compare against.
    pub fn evaluate_seeded_mode(
        &self,
        graph: &Graph,
        cache: &mut EvalCache,
        seed: &FxHashMap<Symbol, NodeId>,
        mode: PlannerMode,
    ) -> Result<NodeBindings> {
        self.eval_planned(graph, cache, seed, mode, None, &Runtime::sequential())
    }

    /// Existence probe under a seed: early-exits at the first satisfying
    /// row.
    pub fn evaluate_seeded_exists(
        &self,
        graph: &Graph,
        cache: &mut EvalCache,
        seed: &FxHashMap<Symbol, NodeId>,
    ) -> Result<bool> {
        Ok(!self
            .eval_planned(
                graph,
                cache,
                seed,
                PlannerMode::Auto,
                Some(1),
                &Runtime::sequential(),
            )?
            .is_empty())
    }

    /// Explains the plan evaluation would use over `graph` with no seed:
    /// the per-atom access-path decisions and the cost estimates behind
    /// them, in join order. Shares the planner's loop, so the answer can
    /// never drift from what [`PreparedQuery::evaluate`] actually does.
    pub fn explain(&self, graph: &Graph, mode: PlannerMode) -> crate::explain::PlanExplain {
        crate::explain::explain_query(graph, &self.query, &Default::default(), mode)
    }

    /// Probe counters of the compiled demand automata for `r` (an atom's
    /// NRE), summed over every scratch set in the pool, when `r` is in the
    /// demand fragment — observability for tests and benches. Read it
    /// between evaluations: a set checked out by a running evaluation is
    /// not in the pool.
    pub fn demand_stats(&self, r: &Nre) -> Option<DemandStats> {
        let atom = self.query.atoms.iter().position(|a| &a.nre == r)?;
        let slot = self.slots[atom]?;
        let pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        let mut total = DemandStats::default();
        for set in pool.iter() {
            total += set[slot].borrow().stats();
        }
        Some(total)
    }

    /// Scratch sets currently in the pool: at most the largest number of
    /// evaluations that ran at once.
    pub fn pooled_scratch_sets(&self) -> usize {
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The full-control entry point: planner mode and an answer-row cap
    /// (`limit`) in one call — the shape session-level `Options` map onto.
    pub fn evaluate_limited(
        &self,
        graph: &Graph,
        cache: &mut EvalCache,
        seed: &FxHashMap<Symbol, NodeId>,
        mode: PlannerMode,
        limit: Option<usize>,
    ) -> Result<NodeBindings> {
        self.eval_planned(graph, cache, seed, mode, limit, &Runtime::sequential())
    }

    /// [`PreparedQuery::evaluate_limited`] with an explicit [`Runtime`]:
    /// relation materialization and (for unlimited, fully-materialized
    /// joins) the join's outer loop partition across the runtime's
    /// workers. Answers are byte-identical at any worker count.
    ///
    /// The parallelism here is *inside* one evaluation. To fan whole
    /// evaluations out, share `&self` across the workers, each with its
    /// own materialization cache: every concurrent evaluation checks out
    /// its own scratch set.
    pub fn evaluate_limited_rt(
        &self,
        graph: &Graph,
        cache: &mut EvalCache,
        seed: &FxHashMap<Symbol, NodeId>,
        mode: PlannerMode,
        limit: Option<usize>,
        rt: &Runtime,
    ) -> Result<NodeBindings> {
        self.eval_planned(graph, cache, seed, mode, limit, rt)
    }

    /// Seeded evaluation backed by an [`IncrementalCache`] — used by the
    /// chase for head-satisfaction checks, so repeated checks advance
    /// materialized relations by graph deltas instead of rebuilding them.
    /// Atoms the planner routes to the demand path skip materialization
    /// entirely.
    pub fn evaluate_seeded_incremental(
        &self,
        graph: &Graph,
        cache: &mut IncrementalCache,
        seed: &FxHashMap<Symbol, NodeId>,
    ) -> Result<NodeBindings> {
        self.eval_planned(
            graph,
            cache,
            seed,
            PlannerMode::Auto,
            None,
            &Runtime::sequential(),
        )
    }

    /// Existence probe under a seed against an [`IncrementalCache`]:
    /// early-exits at the first satisfying row — the shape of the tgd
    /// chase's head-satisfaction checks.
    pub fn evaluate_seeded_incremental_exists(
        &self,
        graph: &Graph,
        cache: &mut IncrementalCache,
        seed: &FxHashMap<Symbol, NodeId>,
    ) -> Result<bool> {
        Ok(!self
            .eval_planned(
                graph,
                cache,
                seed,
                PlannerMode::Auto,
                Some(1),
                &Runtime::sequential(),
            )?
            .is_empty())
    }

    fn eval_planned<C: RelCache>(
        &self,
        graph: &Graph,
        cache: &mut C,
        seed: &FxHashMap<Symbol, NodeId>,
        mode: PlannerMode,
        limit: Option<usize>,
        rt: &Runtime,
    ) -> Result<NodeBindings> {
        let scratch = self.checkout();
        let demand = DemandBacking {
            automata: &self.automata,
            slots: &self.slots,
            scratch: &scratch,
        };
        let out = planned_eval(graph, &self.query, cache, &demand, seed, mode, limit, rt);
        self.checkin(scratch);
        out
    }

    /// Pops a scratch set, or makes a fresh one when every set is out.
    fn checkout(&self) -> ScratchSet {
        let pooled = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        pooled.unwrap_or_else(|| self.automata.iter().map(|_| RefCell::default()).collect())
    }

    fn checkin(&self, scratch: ScratchSet) {
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_common::FxHashSet;
    use gdx_graph::Node;

    fn g1() -> Graph {
        Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);").unwrap()
    }

    fn row_set(b: &NodeBindings) -> FxHashSet<Vec<NodeId>> {
        b.rows().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn demand_plan_agrees_with_materialization_across_shapes() {
        let g = g1();
        for text in [
            "(x, h, y)",
            "(x1, f.f*.[h].f-.(f-)*, x2)",
            "(x, f, y), (y, h, \"hx\")",
            "(\"c1\", f.f, \"c2\")",
        ] {
            let q = PreparedQuery::parse(text).unwrap();
            let mut cache = EvalCache::new();
            let free = q
                .evaluate_seeded_mode(
                    &g,
                    &mut cache,
                    &FxHashMap::default(),
                    PlannerMode::Materialize,
                )
                .unwrap();
            assert_eq!(row_set(&q.evaluate(&g).unwrap()), row_set(&free), "{text}");
            assert_eq!(q.evaluate_exists(&g).unwrap(), !free.is_empty(), "{text}");
        }
    }

    #[test]
    fn one_prepared_query_serves_many_graphs() {
        let q = PreparedQuery::parse("(x, f, y), (y, h, z)").unwrap();
        let with = g1();
        let without = Graph::parse("(a, f, b);").unwrap();
        assert_eq!(q.evaluate(&with).unwrap().len(), 4);
        assert!(q.evaluate(&without).unwrap().is_empty());
        // …and the same graph again after it grew (epoch advance).
        let mut grown = without;
        let b = grown.node_id(Node::cst("b")).unwrap();
        let p = grown.add_const("p");
        grown.add_edge_labelled(b, "h", p);
        assert_eq!(q.evaluate(&grown).unwrap().len(), 1);
    }

    #[test]
    fn seeded_and_mode_variants_agree() {
        let g = g1();
        let q = PreparedQuery::parse("(x, f, y), (y, h, z)").unwrap();
        let c1 = g.node_id(Node::cst("c1")).unwrap();
        let mut seed = FxHashMap::default();
        seed.insert(Symbol::new("x"), c1);
        let mut cache = EvalCache::new();
        let auto = q.evaluate_seeded(&g, &mut cache, &seed).unwrap();
        let mut cache2 = EvalCache::new();
        let mat = q
            .evaluate_seeded_mode(&g, &mut cache2, &seed, PlannerMode::Materialize)
            .unwrap();
        assert_eq!(row_set(&auto), row_set(&mat));
        assert_eq!(auto.len(), 2);
        let mut cache3 = EvalCache::new();
        assert!(q.evaluate_seeded_exists(&g, &mut cache3, &seed).unwrap());
    }

    #[test]
    fn limit_caps_answer_rows() {
        let g = g1();
        let q = PreparedQuery::parse("(x, h, y)").unwrap();
        let mut cache = EvalCache::new();
        let capped = q
            .evaluate_limited(
                &g,
                &mut cache,
                &FxHashMap::default(),
                PlannerMode::Auto,
                Some(1),
            )
            .unwrap();
        assert_eq!(capped.len(), 1);
        assert_eq!(q.matches(&g, &mut cache).unwrap().len(), 2);
    }

    #[test]
    fn parse_validates_eagerly() {
        assert!(PreparedQuery::parse("(x, f y)").is_err());
        assert!(PreparedQuery::parse("").is_err());
    }

    #[test]
    fn single_matches_paper_shape() {
        let q = PreparedQuery::single(
            Term::cst("c1"),
            gdx_nre::parse::parse_nre("f.f").unwrap(),
            Term::cst("c2"),
        );
        assert!(q.evaluate_exists(&g1()).unwrap());
        assert!(q.variables().is_empty());
    }
}
