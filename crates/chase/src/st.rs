//! The source-to-target chase: `I → π`.
//!
//! For every s-t tgd `φ_R(x̄) → ∃ȳ ψ_Σ(x̄, ȳ)` and every satisfying
//! assignment `μ` of `φ_R` over the instance (a *trigger*), the head is
//! instantiated into the pattern: frontier variables become the constants
//! `μ(x̄)`, existential variables become fresh labeled nulls (per trigger),
//! and each head atom `(t, r, t')` becomes a pattern edge with the NRE `r`.
//!
//! The chase is oblivious: every trigger fires, which is what \[5\]'s
//! universal representative construction does and what Example 3.2 shows.

use gdx_common::{FxHashMap, GdxError, Result, Symbol, Term};
use gdx_graph::{Node, NullFactory};
use gdx_mapping::{Setting, SourceToTargetTgd};
use gdx_pattern::{GraphPattern, PNodeId};
use gdx_relational::{evaluate, Instance};

/// Output of the s-t chase.
#[derive(Debug, Clone)]
pub struct StChaseResult {
    /// The chased pattern (the universal representative when `M_t = ∅`).
    pub pattern: GraphPattern,
    /// Number of triggers found (each one fired).
    pub triggers: usize,
}

/// Runs the s-t chase of `setting` on `instance`.
///
/// ```
/// use gdx_chase::chase_st;
/// use gdx_mapping::Setting;
/// use gdx_relational::Instance;
/// let setting = Setting::example_2_2_egd();
/// let out = chase_st(&Instance::example_2_2(), &setting).unwrap();
/// assert_eq!(out.pattern.null_count(), 3); // N1, N2, N3 of Figure 3
/// ```
pub fn chase_st(instance: &Instance, setting: &Setting) -> Result<StChaseResult> {
    // One null factory per chase run: null names are deterministic per
    // (instance, setting) regardless of what else ran in the process.
    chase_st_with_nulls(instance, setting, NullFactory::new())
}

/// [`chase_st`] with a caller-supplied null factory — sessions use this to
/// seed fresh-null names ([`NullFactory::starting_at`]) so several chases
/// in one namespace get disjoint, reproducible null ranges.
pub fn chase_st_with_nulls(
    instance: &Instance,
    setting: &Setting,
    mut nulls: NullFactory,
) -> Result<StChaseResult> {
    setting.validate()?;
    let mut pattern = GraphPattern::new();
    let mut triggers = 0;
    for tgd in &setting.st_tgds {
        let bindings = evaluate(instance, &tgd.body)?;
        for row in bindings.iter_maps() {
            triggers += 1;
            fire(&mut pattern, tgd, &row, &mut nulls)?;
        }
    }
    Ok(StChaseResult { pattern, triggers })
}

/// Instantiates the head of `tgd` under the body match `row`.
fn fire(
    pattern: &mut GraphPattern,
    tgd: &SourceToTargetTgd,
    row: &FxHashMap<Symbol, Symbol>,
    factory: &mut NullFactory,
) -> Result<()> {
    // Fresh null per existential variable, shared across the head's atoms
    // of this trigger.
    let mut nulls: FxHashMap<Symbol, PNodeId> = FxHashMap::default();
    for &y in &tgd.existential {
        let node = factory.fresh_where(|n| pattern.node_id(n).is_some());
        nulls.insert(y, pattern.add_node(node));
    }
    let resolve = |pattern: &mut GraphPattern, t: &Term| -> Result<PNodeId> {
        match t {
            Term::Const(c) => Ok(pattern.add_node(Node::Const(*c))),
            Term::Var(v) => {
                if let Some(&id) = nulls.get(v) {
                    Ok(id)
                } else if let Some(&c) = row.get(v) {
                    Ok(pattern.add_node(Node::Const(c)))
                } else {
                    Err(GdxError::schema(format!("unbound head variable {v}")))
                }
            }
        }
    };
    for atom in &tgd.head.atoms {
        let s = resolve(pattern, &atom.left)?;
        let d = resolve(pattern, &atom.right)?;
        pattern.add_edge(s, atom.nre.clone(), d);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_nre::parse::parse_nre;

    #[test]
    fn example_3_2_pattern_shape() {
        // Figure 3: 3 triggers, each firing 3 edges with a fresh null.
        let out = chase_st(&Instance::example_2_2(), &Setting::example_2_2_egd()).unwrap();
        let p = &out.pattern;
        assert_eq!(out.triggers, 3);
        assert_eq!(p.node_count(), 8, "c1,c2,c3,hx,hy + 3 nulls");
        assert_eq!(p.edge_count(), 9);
        assert_eq!(p.null_count(), 3);
        // Every f.f* edge; h edges to hx twice, hy once.
        let ffstar = parse_nre("f.f*").unwrap();
        let star_edges = p.edges().iter().filter(|(_, r, _)| r == &ffstar).count();
        assert_eq!(star_edges, 6);
        let hx = p.node_id(Node::cst("hx")).unwrap();
        let h = parse_nre("h").unwrap();
        let to_hx = p
            .edges()
            .iter()
            .filter(|(_, r, d)| r == &h && *d == hx)
            .count();
        assert_eq!(to_hx, 2);
    }

    #[test]
    fn relational_fragment_chase_pre_egd() {
        // Example 3.1: single-symbol heads — the pattern is a plain graph.
        // The s-t phase alone produces 3 nulls; Figure 2 (7 nodes) appears
        // after the egd step merges the two hx-hotel nulls — covered by
        // the egd_pattern tests.
        let out = chase_st(&Instance::example_2_2(), &Setting::example_3_1()).unwrap();
        let g = out.pattern.to_graph().unwrap();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 9);
    }

    #[test]
    fn oblivious_fires_satisfied_triggers() {
        // Two facts produce one trigger each for a tgd whose head does not
        // depend on the differing column; both fire, each with its own null.
        let schema = gdx_relational::Schema::from_relations([("R", 2)]).unwrap();
        let inst = Instance::parse(schema, "R(a, b); R(a, c);").unwrap();
        let setting = gdx_mapping::dsl::parse_setting(
            "source { R/2 }
             target { e }
             sttgd R(x, y) -> exists z : (x, e, z);",
        )
        .unwrap();
        let out = chase_st(&inst, &setting).unwrap();
        assert_eq!(out.triggers, 2);
        assert_eq!(out.pattern.null_count(), 2);
    }

    #[test]
    fn constants_in_head() {
        let schema = gdx_relational::Schema::from_relations([("R", 1)]).unwrap();
        let inst = Instance::parse(schema, "R(a);").unwrap();
        let setting = gdx_mapping::dsl::parse_setting(
            "source { R/1 }
             target { e }
             sttgd R(x) -> (x, e, \"sink\");",
        )
        .unwrap();
        let out = chase_st(&inst, &setting).unwrap();
        assert!(out.pattern.node_id(Node::cst("sink")).is_some());
        assert_eq!(out.pattern.edge_count(), 1);
    }

    #[test]
    fn empty_instance_empty_pattern() {
        let schema = gdx_relational::Schema::from_relations([("Flight", 3), ("Hotel", 2)]).unwrap();
        let inst = Instance::new(schema);
        let out = chase_st(&inst, &Setting::example_2_2_egd()).unwrap();
        assert_eq!(out.pattern.node_count(), 0);
        assert_eq!(out.triggers, 0);
    }

    #[test]
    fn theorem_4_1_chase_shape() {
        // The reduction's single trigger: (c1, a, c2) plus n self-loop
        // union edges on c1.
        let setting = gdx_mapping::dsl::parse_setting(
            "source { R1/1; R2/1 }
             target { a; t1; f1; t2; f2 }
             sttgd R1(x), R2(y) -> (x, a, y), (x, t1+f1, x), (x, t2+f2, x);",
        )
        .unwrap();
        let schema = setting.source.clone();
        let inst = Instance::parse(schema, "R1(c1); R2(c2);").unwrap();
        let out = chase_st(&inst, &setting).unwrap();
        assert_eq!(out.pattern.node_count(), 2);
        assert_eq!(out.pattern.edge_count(), 3);
        assert_eq!(out.pattern.null_count(), 0);
    }
}
