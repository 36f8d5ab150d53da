//! The adapted chase of Section 5: egd steps on graph patterns.
//!
//! For each egd `ψ_Σ(x̄) → x₁ = x₂` and each *certain* match of the body in
//! the pattern:
//!
//! 1. both images constants → the chase **fails**;
//! 2. one constant, one labeled null → the null is **substituted** by the
//!    constant;
//! 3. two labeled nulls → one **replaces** the other.
//!
//! ## Certain matching
//!
//! A pattern edge carries a whole NRE, so deciding whether a body atom
//! `(x, s, y)` is matched by a pair of pattern nodes requires *entailment*:
//! the match must hold in **every** graph of `Rep_Σ(π)`. We use a sound
//! criterion: a sequence of pattern edges `(u, r₁, ·) … (·, r_m, v)` (each
//! traversable forward or, optionally, backward with the reversed NRE)
//! entails `(u, s, v)` when `L(r₁·…·r_m) ⊆ L(s)`. Sequences are bounded by
//! `path_bound`. The [`EntailmentIndex`] decides every inclusion of a
//! chase with one [`PathInclusion`] kernel: each test-free target is
//! compiled once into a DFA, and a sequence is included when the image of
//! the DFA's start state through its steps' memoized reach images is all
//! accepting. NREs with nesting tests fall back to single-edge syntactic
//! equality (exact on the paper's SORE(·) egds, which are test-free
//! anyway). ARCHITECTURE.md ("Certain matching") has the full picture.

use gdx_automata::{PathInclusion, StepId, TargetId};
use gdx_common::{FxHashMap, FxHashSet, GdxError, Result, Symbol, Term, UnionFind};
use gdx_graph::Node;
use gdx_mapping::Egd;
use gdx_nre::{BinRel, Nre};
use gdx_obs::Obs;
use gdx_pattern::{GraphPattern, PNodeId};

/// Configuration of the egd-on-pattern chase.
#[derive(Debug, Clone, Copy)]
pub struct EgdChaseConfig {
    /// Maximum number of pattern edges a matching path may traverse.
    pub path_bound: usize,
    /// Allow traversing pattern edges backwards (with the reversed NRE).
    pub allow_reversed: bool,
    /// Merge every violation found in a round at once (via union-find)
    /// instead of one merge per re-evaluation. Same fixpoint, far fewer
    /// evaluation rounds on merge-heavy patterns. The one-at-a-time mode
    /// (`false`) is the reference that
    /// `crates/chase/tests/prop.rs::egd_chase_modes_agree` checks the
    /// batched mode against.
    pub batch_merges: bool,
    /// Hard cap on merge rounds (safety net; merges strictly shrink the
    /// pattern, so the chase terminates regardless).
    pub max_rounds: usize,
}

impl Default for EgdChaseConfig {
    fn default() -> EgdChaseConfig {
        EgdChaseConfig {
            path_bound: 2,
            allow_reversed: true,
            batch_merges: true,
            max_rounds: 10_000,
        }
    }
}

/// Result of the adapted chase.
#[derive(Debug, Clone)]
pub enum EgdChaseOutcome {
    /// The chase reached a fixpoint.
    Success {
        /// The chased pattern.
        pattern: GraphPattern,
        /// Number of node merges performed.
        merges: usize,
    },
    /// An egd forced two distinct constants equal — no solution exists.
    Failed {
        /// The two constants that were forced equal.
        constants: (Symbol, Symbol),
        /// Merges performed before the failure.
        merges: usize,
    },
}

impl EgdChaseOutcome {
    /// True for [`EgdChaseOutcome::Success`].
    pub fn succeeded(&self) -> bool {
        matches!(self, EgdChaseOutcome::Success { .. })
    }

    /// The pattern, when the chase succeeded.
    pub fn pattern(&self) -> Option<&GraphPattern> {
        match self {
            EgdChaseOutcome::Success { pattern, .. } => Some(pattern),
            EgdChaseOutcome::Failed { .. } => None,
        }
    }
}

/// Runs the adapted egd chase on `pattern` to fixpoint.
pub fn chase_egds_on_pattern(
    pattern: &GraphPattern,
    egds: &[Egd],
    cfg: EgdChaseConfig,
) -> Result<EgdChaseOutcome> {
    chase_egds_on_pattern_obs(pattern, egds, cfg, &Obs::disabled())
}

/// [`chase_egds_on_pattern`] with an observability sink: spans
/// `egd.run`, counts rounds and merges (`egd.rounds`, `egd.merges`) and
/// the target DFAs compiled (`egd.target_dfas`), and records per-round
/// merge batches into the `egd.merges_per_round` histogram. Recording
/// never changes the chase outcome.
pub fn chase_egds_on_pattern_obs(
    pattern: &GraphPattern,
    egds: &[Egd],
    cfg: EgdChaseConfig,
    obs: &Obs,
) -> Result<EgdChaseOutcome> {
    let _span = obs.span_fields("egd.run", &[("egds", egds.len() as u64)]);
    let mut index = EntailmentIndex::new(cfg);
    let result = chase_egds_inner(pattern, egds, cfg, &mut index, obs);
    obs.add("egd.target_dfas", index.compiled_targets() as u64);
    if let Ok(outcome) = &result {
        let merges = match outcome {
            EgdChaseOutcome::Success { merges, .. } | EgdChaseOutcome::Failed { merges, .. } => {
                *merges
            }
        };
        obs.add("egd.merges", merges as u64);
    }
    result
}

fn chase_egds_inner(
    pattern: &GraphPattern,
    egds: &[Egd],
    cfg: EgdChaseConfig,
    index: &mut EntailmentIndex,
    obs: &Obs,
) -> Result<EgdChaseOutcome> {
    let mut pattern = pattern.clone();
    let mut merges = 0usize;

    for _round in 0..cfg.max_rounds {
        obs.incr("egd.rounds");
        let merges_at_round_start = merges;
        // The step relations and entailment relations depend only on the
        // pattern (which is stable within a round), not on the egd under
        // consideration: rescan them once per round and share them across
        // every egd — and across duplicate NREs within one egd body. The
        // compiled automata persist across rounds.
        index.refresh(&pattern)?;
        if cfg.batch_merges {
            // Collect every violation in one pass, merge them all at once.
            let mut uf = UnionFind::new(pattern.node_count());
            let mut any = false;
            for egd in egds {
                let matches = certain_matches_indexed(&pattern, &egd.body, index)?;
                for m in matches {
                    let (n1, n2) = (m[&egd.lhs], m[&egd.rhs]);
                    let (r1, r2) = (uf.find(n1), uf.find(n2));
                    if r1 == r2 {
                        continue;
                    }
                    let c1 = pattern.node(r1).is_const();
                    let c2 = pattern.node(r2).is_const();
                    match (c1, c2) {
                        (true, true) => {
                            return Ok(EgdChaseOutcome::Failed {
                                constants: (pattern.node(r1).name(), pattern.node(r2).name()),
                                merges,
                            })
                        }
                        (true, false) => {
                            uf.union_into(r1, r2);
                        }
                        _ => {
                            uf.union_into(r2, r1);
                        }
                    }
                    merges += 1;
                    any = true;
                }
            }
            obs.observe(
                "egd.merges_per_round",
                (merges - merges_at_round_start) as u64,
            );
            if !any {
                return Ok(EgdChaseOutcome::Success { pattern, merges });
            }
            pattern = pattern.quotient(|id| uf.find_const(id));
        } else {
            let mut changed = false;
            'egd_loop: for egd in egds {
                let matches = certain_matches_indexed(&pattern, &egd.body, index)?;
                for m in matches {
                    let n1 = m[&egd.lhs];
                    let n2 = m[&egd.rhs];
                    if n1 == n2 {
                        continue;
                    }
                    let node1 = pattern.node(n1);
                    let node2 = pattern.node(n2);
                    match (node1.is_const(), node2.is_const()) {
                        (true, true) => {
                            return Ok(EgdChaseOutcome::Failed {
                                constants: (node1.name(), node2.name()),
                                merges,
                            })
                        }
                        (true, false) => {
                            pattern = pattern.quotient(|id| if id == n2 { n1 } else { id });
                        }
                        _ => {
                            pattern = pattern.quotient(|id| if id == n1 { n2 } else { id });
                        }
                    }
                    merges += 1;
                    changed = true;
                    // The pattern changed: node ids are stale. Recompute.
                    break 'egd_loop;
                }
            }
            obs.observe(
                "egd.merges_per_round",
                (merges - merges_at_round_start) as u64,
            );
            if !changed {
                return Ok(EgdChaseOutcome::Success { pattern, merges });
            }
        }
    }
    Err(GdxError::limit("egd chase exceeded max_rounds"))
}

/// Evaluation index for certain matching, owned by one chase. Per
/// pattern version ([`EntailmentIndex::refresh`], once per round) it holds
/// the sequence relations, which depend on the pattern only, and the
/// memoized per-target entailment relations, shared across every egd of
/// the round. For the whole chase it holds the compiled step and target
/// automata: targets are fixed and quotients never add step NREs, so the
/// kernel's reach images stay valid across rounds. [`certain_matches`]
/// builds a throwaway one for one-shot callers.
#[derive(Debug)]
pub struct EntailmentIndex {
    cfg: EgdChaseConfig,
    /// Inclusion kernel over every test-free step and target seen.
    kernel: PathInclusion,
    /// Every step NRE seen, with its kernel id (`None` with nesting tests).
    steps: Vec<(Nre, Option<StepId>)>,
    step_index: FxHashMap<Nre, u32>,
    /// Kernel id per target NRE (`None` with nesting tests).
    targets: FxHashMap<Nre, Option<TargetId>>,
    /// Every step sequence up to the path bound with a non-empty composed
    /// syntactic relation over the current pattern.
    sequences: Vec<Sequence>,
    /// Entailment relations of the current pattern per target NRE,
    /// memoized across egd bodies.
    by_target: FxHashMap<Nre, BinRel>,
}

/// One step sequence of the current pattern.
#[derive(Debug)]
struct Sequence {
    /// Indices into [`EntailmentIndex::steps`].
    steps: Vec<u32>,
    /// Kernel ids of the steps, `None` when one has nesting tests.
    kernel_path: Option<Vec<StepId>>,
    /// Pairs of pattern nodes the sequence connects.
    rel: BinRel,
}

impl EntailmentIndex {
    /// An empty index; [`EntailmentIndex::refresh`] loads a pattern.
    pub fn new(cfg: EgdChaseConfig) -> EntailmentIndex {
        EntailmentIndex {
            cfg,
            kernel: PathInclusion::new(),
            steps: Vec::new(),
            step_index: FxHashMap::default(),
            targets: FxHashMap::default(),
            sequences: Vec::new(),
            by_target: FxHashMap::default(),
        }
    }

    /// Number of target DFAs compiled over the index's lifetime.
    pub fn compiled_targets(&self) -> usize {
        self.kernel.target_count()
    }

    /// Scans `pattern`: distinct edge NREs (with optional reversed
    /// variants) become step relations, then sequences up to the path
    /// bound are composed. Entailment relations of the previous pattern
    /// are dropped; compiled automata are kept. Targets are *not*
    /// consulted here — the same index serves every egd of a round.
    pub fn refresh(&mut self, pattern: &GraphPattern) -> Result<()> {
        // Each "step kind" is (step index, its syntactic relation).
        let mut step_rels: Vec<(u32, BinRel)> = Vec::new();
        {
            let mut seen: FxHashSet<Nre> = FxHashSet::default();
            for (_, r, _) in pattern.edges() {
                if seen.insert(r.clone()) {
                    let mut fwd = BinRel::new();
                    for (s, r2, d) in pattern.edges() {
                        if r2 == r {
                            fwd.insert(*s, *d);
                        }
                    }
                    step_rels.push((self.intern_step(r)?, fwd));
                }
            }
            if self.cfg.allow_reversed {
                for k in 0..step_rels.len() {
                    let rev_nre = self.steps[step_rels[k].0 as usize].0.reversed();
                    if seen.insert(rev_nre.clone()) {
                        let mut rev = BinRel::new();
                        for (u, v) in step_rels[k].1.iter() {
                            rev.insert(v, u);
                        }
                        step_rels.push((self.intern_step(&rev_nre)?, rev));
                    }
                }
            }
        }

        // Enumerate sequences up to the path bound, composing as we go;
        // empty compositions cannot entail anything and are pruned.
        let mut sequences: Vec<Sequence> = Vec::new();
        let mut frontier: Vec<(Vec<u32>, Option<BinRel>)> = vec![(Vec::new(), None)];
        for _len in 1..=self.cfg.path_bound {
            let mut next: Vec<(Vec<u32>, Option<BinRel>)> = Vec::new();
            for (seq, seq_rel) in &frontier {
                for (step, step_rel) in &step_rels {
                    let mut seq2 = seq.clone();
                    seq2.push(*step);
                    let rel2 = match seq_rel {
                        None => step_rel.clone(),
                        Some(r) => r.compose(step_rel),
                    };
                    if rel2.is_empty() {
                        continue;
                    }
                    sequences.push(Sequence {
                        kernel_path: seq2.iter().map(|&i| self.steps[i as usize].1).collect(),
                        steps: seq2.clone(),
                        rel: rel2.clone(),
                    });
                    next.push((seq2, Some(rel2)));
                }
            }
            frontier = next;
        }
        self.sequences = sequences;
        self.by_target.clear();
        Ok(())
    }

    /// The index of step `r`, compiling it on first sight.
    fn intern_step(&mut self, r: &Nre) -> Result<u32> {
        if let Some(&i) = self.step_index.get(r) {
            return Ok(i);
        }
        let id = if r.is_test_free() {
            Some(self.kernel.add_step(r)?)
        } else {
            None
        };
        let i = self.steps.len() as u32;
        self.steps.push((r.clone(), id));
        self.step_index.insert(r.clone(), i);
        Ok(i)
    }

    /// The pairs of pattern nodes certainly related by `target` in every
    /// represented graph (sound, path-bounded). Memoized per target.
    fn entailment_relation(&mut self, pattern: &GraphPattern, target: &Nre) -> Result<&BinRel> {
        if !self.by_target.contains_key(target) {
            let target_id = match self.targets.get(target) {
                Some(&id) => id,
                None => {
                    let id = if target.is_test_free() {
                        Some(self.kernel.add_target(target)?)
                    } else {
                        None
                    };
                    self.targets.insert(target.clone(), id);
                    id
                }
            };
            let mut rel = BinRel::new();
            // Length 0: ε ∈ L(target) relates every node to itself.
            if target.nullable() {
                for id in pattern.node_ids() {
                    rel.insert(id, id);
                }
            }
            for seq in &self.sequences {
                // `L(r₁·…·r_m) ⊆ L(target)`: the kernel on test-free
                // sequences, single-step syntactic equality otherwise
                // (sound, incomplete).
                let ok = match (target_id, &seq.kernel_path) {
                    (Some(t), Some(path)) => self.kernel.included(path, t),
                    _ => seq.steps.len() == 1 && self.steps[seq.steps[0] as usize].0 == *target,
                };
                if ok {
                    for (u, v) in seq.rel.iter() {
                        rel.insert(u, v);
                    }
                }
            }
            self.by_target.insert(target.clone(), rel);
        }
        Ok(&self.by_target[target])
    }
}

/// All certain matches of a CNRE body against the pattern: assignments of
/// body variables to pattern nodes such that every atom is entailed.
/// One-shot wrapper around [`certain_matches_indexed`].
pub fn certain_matches(
    pattern: &GraphPattern,
    body: &gdx_query::Cnre,
    cfg: EgdChaseConfig,
) -> Result<Vec<FxHashMap<Symbol, PNodeId>>> {
    let mut index = EntailmentIndex::new(cfg);
    index.refresh(pattern)?;
    certain_matches_indexed(pattern, body, &mut index)
}

/// [`certain_matches`] against an [`EntailmentIndex`] loaded with
/// `pattern`.
pub fn certain_matches_indexed(
    pattern: &GraphPattern,
    body: &gdx_query::Cnre,
    index: &mut EntailmentIndex,
) -> Result<Vec<FxHashMap<Symbol, PNodeId>>> {
    // Entailment relation per atom (shared per target via the index).
    for atom in &body.atoms {
        index.entailment_relation(pattern, &atom.nre)?;
    }
    let rels: Vec<&BinRel> = body
        .atoms
        .iter()
        .map(|a| &index.by_target[&a.nre])
        .collect();
    // Join.
    let mut out = Vec::new();
    let mut binding: FxHashMap<Symbol, PNodeId> = FxHashMap::default();
    join(pattern, body, &rels, 0, &mut binding, &mut out)?;
    Ok(out)
}

fn join(
    pattern: &GraphPattern,
    body: &gdx_query::Cnre,
    rels: &[&BinRel],
    depth: usize,
    binding: &mut FxHashMap<Symbol, PNodeId>,
    out: &mut Vec<FxHashMap<Symbol, PNodeId>>,
) -> Result<()> {
    if depth == body.atoms.len() {
        out.push(binding.clone());
        return Ok(());
    }
    let atom = &body.atoms[depth];
    let rel = rels[depth];
    let resolve = |t: &Term, binding: &FxHashMap<Symbol, PNodeId>| -> Result<Slot> {
        match t {
            Term::Const(c) => match pattern.node_id(Node::Const(*c)) {
                Some(id) => Ok(Slot::Fixed(id)),
                None => Ok(Slot::Missing),
            },
            Term::Var(v) => Ok(match binding.get(v) {
                Some(&id) => Slot::Fixed(id),
                None => Slot::Free(*v),
            }),
        }
    };
    match (
        resolve(&atom.left, binding)?,
        resolve(&atom.right, binding)?,
    ) {
        (Slot::Missing, _) | (_, Slot::Missing) => Ok(()),
        (Slot::Fixed(u), Slot::Fixed(v)) => {
            if rel.contains(u, v) {
                join(pattern, body, rels, depth + 1, binding, out)?;
            }
            Ok(())
        }
        (Slot::Fixed(u), Slot::Free(rv)) => {
            for &v in rel.image(u) {
                binding.insert(rv, v);
                join(pattern, body, rels, depth + 1, binding, out)?;
            }
            binding.remove(&rv);
            Ok(())
        }
        (Slot::Free(lv), Slot::Fixed(v)) => {
            for &u in rel.preimage(v) {
                binding.insert(lv, u);
                join(pattern, body, rels, depth + 1, binding, out)?;
            }
            binding.remove(&lv);
            Ok(())
        }
        (Slot::Free(lv), Slot::Free(rv)) => {
            if lv == rv {
                for (u, v) in rel.iter() {
                    if u == v {
                        binding.insert(lv, u);
                        join(pattern, body, rels, depth + 1, binding, out)?;
                        binding.remove(&lv);
                    }
                }
            } else {
                for (u, v) in rel.iter() {
                    binding.insert(lv, u);
                    binding.insert(rv, v);
                    join(pattern, body, rels, depth + 1, binding, out)?;
                    binding.remove(&rv);
                    binding.remove(&lv);
                }
            }
            Ok(())
        }
    }
}

enum Slot {
    Fixed(PNodeId),
    Free(Symbol),
    /// A constant absent from the pattern: the atom cannot match.
    Missing,
}

/// Convenience: run the full adapted chase (s-t phase then egd phase) of a
/// setting on an instance.
pub fn adapted_chase(
    instance: &gdx_relational::Instance,
    setting: &gdx_mapping::Setting,
    cfg: EgdChaseConfig,
) -> Result<EgdChaseOutcome> {
    let st = crate::st::chase_st(instance, setting)?;
    let egds: Vec<Egd> = setting.egds().cloned().collect();
    chase_egds_on_pattern(&st.pattern, &egds, cfg)
}

/// Merge-closure helper shared with solvers: computes the quotient of a
/// pattern under an explicit set of node equalities, respecting the
/// constants-never-merge rule. Returns `None` when two distinct constants
/// would be identified.
pub fn quotient_with_equalities(
    pattern: &GraphPattern,
    equalities: &[(PNodeId, PNodeId)],
) -> Option<GraphPattern> {
    let mut uf = UnionFind::new(pattern.node_count());
    for &(a, b) in equalities {
        let (ra, rb) = (uf.find(a), uf.find(b));
        if ra == rb {
            continue;
        }
        let ca = pattern.node(ra).is_const();
        let cb = pattern.node(rb).is_const();
        match (ca, cb) {
            (true, true) => return None,
            (true, false) => {
                uf.union_into(ra, rb);
            }
            _ => {
                uf.union_into(rb, ra);
            }
        }
    }
    Some(pattern.quotient(|id| uf.find_const(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_mapping::Setting;
    use gdx_relational::Instance;

    fn fig3() -> GraphPattern {
        GraphPattern::parse(
            "(c1, f.f*, _N1); (_N1, f.f*, c2); (_N1, h, hy);
             (c1, f.f*, _N2); (_N2, f.f*, c2); (_N2, h, hx);
             (c3, f.f*, _N3); (_N3, f.f*, c2); (_N3, h, hx);",
        )
        .unwrap()
    }

    fn hotel_egd() -> Egd {
        Egd {
            body: gdx_query::Cnre::parse("(x1, h, x3), (x2, h, x3)").unwrap(),
            lhs: Symbol::new("x1"),
            rhs: Symbol::new("x2"),
        }
    }

    #[test]
    fn example_5_1_merges_hotel_nulls() {
        // Figure 5: N2 and N3 (both h-linked to hx) merge.
        let out =
            chase_egds_on_pattern(&fig3(), &[hotel_egd()], EgdChaseConfig::default()).unwrap();
        match out {
            EgdChaseOutcome::Success { pattern, merges } => {
                assert_eq!(merges, 1);
                assert_eq!(pattern.node_count(), 7);
                assert_eq!(pattern.edge_count(), 7);
                assert_eq!(pattern.null_count(), 2);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn full_adapted_chase_example_2_2() {
        let out = adapted_chase(
            &Instance::example_2_2(),
            &Setting::example_2_2_egd(),
            EgdChaseConfig::default(),
        )
        .unwrap();
        let p = out.pattern().expect("chase succeeds");
        assert_eq!(p.node_count(), 7, "Figure 5 shape");
        assert_eq!(p.null_count(), 2);
    }

    #[test]
    fn figure_2_from_example_3_1() {
        // Single-symbol fragment: after the egd step, the Figure 2 graph.
        let out = adapted_chase(
            &Instance::example_2_2(),
            &Setting::example_3_1(),
            EgdChaseConfig::default(),
        )
        .unwrap();
        let p = out.pattern().expect("chase succeeds");
        let g = p.to_graph().unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 7);
        let fig2 = gdx_graph::Graph::parse(
            "(c1, f, _N1); (_N1, h, hy); (_N1, f, c2);
             (c1, f, _N2); (_N2, h, hx); (_N2, f, c2);
             (c3, f, _N2);",
        )
        .unwrap();
        assert!(gdx_graph::is_isomorphic(&g, &fig2));
    }

    #[test]
    fn constant_constant_merge_fails() {
        // Two distinct constants sharing a hotel.
        let p = GraphPattern::parse("(u1, h, hx); (u2, h, hx);").unwrap();
        let out = chase_egds_on_pattern(&p, &[hotel_egd()], EgdChaseConfig::default()).unwrap();
        match out {
            EgdChaseOutcome::Failed { constants, .. } => {
                let names: FxHashSet<String> = [constants.0.to_string(), constants.1.to_string()]
                    .into_iter()
                    .collect();
                assert!(names.contains("u1") && names.contains("u2"));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn constant_null_substitutes_constant() {
        let p = GraphPattern::parse("(u1, h, hx); (_N, h, hx); (_N, f, z);").unwrap();
        let out = chase_egds_on_pattern(&p, &[hotel_egd()], EgdChaseConfig::default()).unwrap();
        let pattern = out.pattern().expect("success");
        assert!(pattern.node_id(Node::null("N")).is_none(), "null replaced");
        // The f-edge now hangs off u1.
        let u1 = pattern.node_id(Node::cst("u1")).unwrap();
        let z = pattern.node_id(Node::cst("z")).unwrap();
        assert!(pattern.has_edge(u1, &Nre::label("f"), z));
    }

    #[test]
    fn example_5_2_chase_succeeds() {
        // a·(b*+c*)·a vs egd (x, a+b+c, y) → x=y: the path language is not
        // included in a+b+c, so no certain match exists; chase succeeds
        // without merges.
        let p = GraphPattern::parse("(c1, a.(b*+c*).a, c2);").unwrap();
        let egd = Egd {
            body: gdx_query::Cnre::parse("(x, a+b+c, y)").unwrap(),
            lhs: Symbol::new("x"),
            rhs: Symbol::new("y"),
        };
        let out = chase_egds_on_pattern(&p, &[egd], EgdChaseConfig::default()).unwrap();
        match out {
            EgdChaseOutcome::Success { merges, .. } => assert_eq!(merges, 0),
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn entailment_through_two_edge_paths() {
        // (a, x1, _M); (_M, x2, b) with egd body (u, x1.x2, v): the length-2
        // path entails the SORE(·) concatenation.
        let p = GraphPattern::parse("(a, x1, _M); (_M, x2, b); (a2, x1.x2, b);").unwrap();
        let egd = Egd {
            body: gdx_query::Cnre::parse("(u, x1.x2, v)").unwrap(),
            lhs: Symbol::new("u"),
            rhs: Symbol::new("v"),
        };
        // u=a, v=b via the path; u=a2, v=b via the direct edge. Both a,a2
        // are constants matched with v=b… the egd equates u=v, i.e. a=b —
        // constants — failure.
        let out = chase_egds_on_pattern(&p, &[egd], EgdChaseConfig::default()).unwrap();
        assert!(!out.succeeded());
    }

    #[test]
    fn reversed_edges_can_match() {
        // Pattern edge (a, g, b); egd body (x, g-, y) should certainly
        // match (b, a) when reversal is on.
        let p = GraphPattern::parse("(a, g, _N);").unwrap();
        let egd = Egd {
            body: gdx_query::Cnre::parse("(x, g-, y)").unwrap(),
            lhs: Symbol::new("x"),
            rhs: Symbol::new("y"),
        };
        let on = chase_egds_on_pattern(&p, std::slice::from_ref(&egd), EgdChaseConfig::default())
            .unwrap();
        match on {
            EgdChaseOutcome::Success { pattern, merges } => {
                assert_eq!(merges, 1, "N merged into a");
                assert_eq!(pattern.node_count(), 1);
            }
            other => panic!("{other:?}"),
        }
        let off = chase_egds_on_pattern(
            &p,
            &[egd],
            EgdChaseConfig {
                allow_reversed: false,
                ..EgdChaseConfig::default()
            },
        )
        .unwrap();
        match off {
            EgdChaseOutcome::Success { merges, .. } => assert_eq!(merges, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quotient_with_equalities_respects_constants() {
        let p = GraphPattern::parse("(a, f, _N1); (b, f, _N2);").unwrap();
        let a = p.node_id(Node::cst("a")).unwrap();
        let b = p.node_id(Node::cst("b")).unwrap();
        let n1 = p.node_id(Node::null("N1")).unwrap();
        let n2 = p.node_id(Node::null("N2")).unwrap();
        assert!(quotient_with_equalities(&p, &[(a, b)]).is_none());
        let q = quotient_with_equalities(&p, &[(n1, n2)]).unwrap();
        assert_eq!(q.node_count(), 3);
        let q2 = quotient_with_equalities(&p, &[(n1, a), (n1, n2)]).unwrap();
        assert_eq!(q2.node_count(), 2, "both nulls fold into a");
        assert!(quotient_with_equalities(&p, &[(n1, a), (n1, b)]).is_none());
    }

    #[test]
    fn batched_and_sequential_modes_agree() {
        let seq_cfg = EgdChaseConfig {
            batch_merges: false,
            ..EgdChaseConfig::default()
        };
        for (pattern, egds) in [
            (fig3(), vec![hotel_egd()]),
            (
                GraphPattern::parse("(u1, h, hx); (_N, h, hx); (_N, f, z);").unwrap(),
                vec![hotel_egd()],
            ),
            (
                GraphPattern::parse("(u1, h, hx); (u2, h, hx);").unwrap(),
                vec![hotel_egd()],
            ),
        ] {
            let a = chase_egds_on_pattern(&pattern, &egds, EgdChaseConfig::default()).unwrap();
            let b = chase_egds_on_pattern(&pattern, &egds, seq_cfg).unwrap();
            assert_eq!(a.succeeded(), b.succeeded());
            if let (Some(pa), Some(pb)) = (a.pattern(), b.pattern()) {
                assert_eq!(pa.node_count(), pb.node_count());
                assert_eq!(pa.edge_count(), pb.edge_count());
            }
        }
    }

    #[test]
    fn nullable_target_matches_identity() {
        let p = GraphPattern::parse("(a, f, b);").unwrap();
        let egd = Egd {
            body: gdx_query::Cnre::parse("(x, f*, x)").unwrap(),
            lhs: Symbol::new("x"),
            rhs: Symbol::new("x"),
        };
        // Trivial egd x = x would be rejected by validation, but
        // certain_matches itself must handle identity entailment.
        let ms = certain_matches(&p, &egd.body, EgdChaseConfig::default()).unwrap();
        assert_eq!(ms.len(), 2, "every node matches (x, f*, x)");
    }
}
