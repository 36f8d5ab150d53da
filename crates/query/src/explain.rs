//! Explainable planning: the cost-model narrative behind `plan_query`.
//!
//! [`explain_query`] replays the planner's greedy loop
//! (`plan_query_traced` in `plan.rs`) and records, for every atom in
//! placement order, the numbers the decision was made from: estimated
//! materialization size (`est_pairs`), estimated per-binding fanout,
//! the binding count flowing into the atom, and the resulting demand
//! cost. The decisions are *the* planner's decisions — both entry
//! points share one loop, so an explain can never drift from what
//! evaluation actually does.
//!
//! Renderings are deterministic: atom order is the join order, numbers
//! are formatted by a fixed rule (two decimals, trailing zeros
//! trimmed), and no wall-clock or pointer-derived state is involved.
//! `gdx explain` prints [`PlanExplain::render_text`];
//! `--format json` prints [`PlanExplain::render_json`].

use crate::cnre::Cnre;
use crate::plan::{plan_query_traced, AccessChoice, PlannerMode};
use gdx_common::{json, FxHashSet, Symbol};
use gdx_graph::Graph;

/// One placement decision from the planner's greedy loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomExplain {
    /// Atom index in the query text (not the placement position).
    pub atom: usize,
    /// The atom rendered back to query syntax, e.g. `(x, f.f*, y)`.
    pub pattern: String,
    /// Endpoints bound at placement time (constants always count).
    pub bound_endpoints: usize,
    /// Estimated size of the materialized relation `⟦r⟧_G`.
    pub est_pairs: f64,
    /// Estimated nodes reached per binding by one BFS step bundle.
    pub est_fanout: f64,
    /// Estimated bindings flowing into the atom from earlier placements.
    pub est_rows_in: f64,
    /// Estimated cost of answering via seeded product-BFS.
    pub demand_cost: f64,
    /// The access path the planner picked.
    pub choice: AccessChoice,
}

/// A full plan explanation: every atom's decision, in join order.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplain {
    /// The mode the plan was made under.
    pub mode: PlannerMode,
    /// Decisions in placement (join) order.
    pub atoms: Vec<AtomExplain>,
}

/// Plans `query` over `graph` exactly as evaluation would and returns
/// the per-atom decision log. `bound` is the set of variables fixed
/// before the join starts (empty for a free evaluation).
pub fn explain_query(
    graph: &Graph,
    query: &Cnre,
    bound: &FxHashSet<Symbol>,
    mode: PlannerMode,
) -> PlanExplain {
    let mut atoms = Vec::with_capacity(query.atoms.len());
    plan_query_traced(graph, query, bound, mode, Some(&mut atoms));
    PlanExplain { mode, atoms }
}

impl PlanExplain {
    fn mode_label(&self) -> &'static str {
        match self.mode {
            PlannerMode::Auto => "auto",
            PlannerMode::Materialize => "materialize",
        }
    }

    /// Human-readable table, one line per atom in join order.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "plan mode={} atoms={}\n",
            self.mode_label(),
            self.atoms.len()
        );
        for (step, a) in self.atoms.iter().enumerate() {
            out.push_str(&format!(
                "{:>3}. atom {} {}\n     bound={} est_pairs={} est_fanout={} rows_in={} \
                 demand_cost={} -> {}\n",
                step + 1,
                a.atom,
                a.pattern,
                a.bound_endpoints,
                fmt_est(a.est_pairs),
                fmt_est(a.est_fanout),
                fmt_est(a.est_rows_in),
                fmt_est(a.demand_cost),
                a.choice.label(),
            ));
        }
        out
    }

    /// Stable JSON rendering (atoms in join order, keys in fixed order).
    pub fn render_json(&self) -> String {
        let mut out = format!("{{\"mode\": \"{}\", \"atoms\": [", self.mode_label());
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"atom\": {}, \"pattern\": \"{}\", \"bound_endpoints\": {}, \
                 \"est_pairs\": {}, \"est_fanout\": {}, \"est_rows_in\": {}, \
                 \"demand_cost\": {}, \"choice\": \"{}\"}}",
                a.atom,
                json::escape(&a.pattern),
                a.bound_endpoints,
                fmt_est(a.est_pairs),
                fmt_est(a.est_fanout),
                fmt_est(a.est_rows_in),
                fmt_est(a.demand_cost),
                a.choice.label(),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Formats an estimate with two decimals, trimming trailing zeros (and
/// the dot) so whole numbers print as integers. Estimates are clamped
/// to `[1, 1e15]` by the cost model, so plain fixed-point is exact
/// enough and stays stable across platforms.
fn fmt_est(v: f64) -> String {
    let s = format!("{v:.2}");
    let trimmed = s.trim_end_matches('0').trim_end_matches('.');
    trimmed.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_graph::NodeId;

    fn chain_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|i| g.add_const(&format!("v{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge_labelled(w[0], "f", w[1]);
        }
        g
    }

    #[test]
    fn explain_mirrors_the_planner() {
        let g = chain_graph(200);
        let q = Cnre::parse("(\"v0\", f.f, \"v2\"), (x, f, y)").unwrap();
        let ex = explain_query(&g, &q, &FxHashSet::default(), PlannerMode::Auto);
        assert_eq!(ex.atoms.len(), 2);
        // The doubly-bound constant atom is placed first and takes demand.
        assert_eq!(ex.atoms[0].atom, 0);
        assert_eq!(ex.atoms[0].bound_endpoints, 2);
        assert_eq!(ex.atoms[0].choice, AccessChoice::Demand);
        // The free atom materializes.
        assert_eq!(ex.atoms[1].atom, 1);
        assert_eq!(ex.atoms[1].choice, AccessChoice::Materialize);
        // Forced materialization flips every choice.
        let forced = explain_query(&g, &q, &FxHashSet::default(), PlannerMode::Materialize);
        assert!(forced
            .atoms
            .iter()
            .all(|a| a.choice == AccessChoice::Materialize));
    }

    #[test]
    fn renderings_are_stable() {
        let g = chain_graph(200);
        let q = Cnre::parse("(\"v0\", f.f, \"v2\")").unwrap();
        let ex = explain_query(&g, &q, &FxHashSet::default(), PlannerMode::Auto);
        let text = ex.render_text();
        assert!(text.starts_with("plan mode=auto atoms=1\n"), "{text}");
        assert!(text.contains("-> demand"), "{text}");
        let json = ex.render_json();
        assert!(
            json.starts_with("{\"mode\": \"auto\", \"atoms\": ["),
            "{json}"
        );
        assert!(
            json.contains("\"pattern\": \"(\\\"v0\\\", f.f, \\\"v2\\\")\""),
            "{json}"
        );
        assert!(json.contains("\"choice\": \"demand\""), "{json}");
        // Byte-for-byte reproducible.
        assert_eq!(json, ex.render_json());
        assert_eq!(text, ex.render_text());
    }

    #[test]
    fn fmt_est_trims() {
        assert_eq!(fmt_est(1.0), "1");
        assert_eq!(fmt_est(2.5), "2.5");
        assert_eq!(fmt_est(7.389_06), "7.39");
        assert_eq!(fmt_est(199.0), "199");
    }
}
