//! Witness paths: how a pattern edge labeled with an NRE is *materialized*
//! into concrete graph edges.
//!
//! A witness is a navigation plan through the expression: a sequence of
//! forward/backward single-edge moves plus nested *branches* (for `[r]`
//! tests, which require an auxiliary path hanging off the current node but
//! do not advance the main path).
//!
//! Every NRE has at least one witness (there is no empty-language
//! constructor in the grammar). The chase instantiates the *shortest*
//! witness; the counterexample search of certain answering enumerates a
//! bounded family of witnesses (star unrolled `0..=k` times).

use crate::ast::Nre;
use gdx_common::{FxHashSet, GdxError, Result, Symbol};
use gdx_graph::{Graph, NodeId};

/// One step of a witness path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathStep {
    /// Traverse a forward `a`-edge.
    Fwd(Symbol),
    /// Traverse an `a`-edge backwards.
    Bwd(Symbol),
    /// A nesting-test branch: a witness path that must exist from the
    /// current node but does not advance the main path.
    Branch(Witness),
}

/// A witness path: the steps from source to destination.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Witness(pub Vec<PathStep>);

impl Witness {
    /// Number of main-path moves (branches do not count).
    pub fn main_len(&self) -> usize {
        self.0
            .iter()
            .filter(|s| !matches!(s, PathStep::Branch(_)))
            .count()
    }

    /// Total number of edges this witness will materialize, branches
    /// included.
    pub fn edge_count(&self) -> usize {
        self.0
            .iter()
            .map(|s| match s {
                PathStep::Fwd(_) | PathStep::Bwd(_) => 1,
                PathStep::Branch(w) => w.edge_count(),
            })
            .sum()
    }

    fn append(mut self, other: &Witness) -> Witness {
        self.0.extend(other.0.iter().cloned());
        self
    }
}

/// The shortest witness of `r` (minimal main-path length, branches as
/// short as possible). Stars take zero iterations, unions pick the shorter
/// side.
pub fn shortest(r: &Nre) -> Witness {
    match r {
        Nre::Epsilon => Witness::default(),
        Nre::Label(a) => Witness(vec![PathStep::Fwd(*a)]),
        Nre::Inverse(a) => Witness(vec![PathStep::Bwd(*a)]),
        Nre::Union(x, y) => {
            let (wx, wy) = (shortest(x), shortest(y));
            if wx.main_len() <= wy.main_len() {
                wx
            } else {
                wy
            }
        }
        Nre::Concat(x, y) => shortest(x).append(&shortest(y)),
        Nre::Star(_) => Witness::default(),
        Nre::Test(inner) => Witness(vec![PathStep::Branch(shortest(inner))]),
    }
}

/// The shortest witness with a *non-empty* main path, if one exists.
///
/// Needed when instantiating a pattern edge between two distinct nodes:
/// an empty main path would force the endpoints to be equal.
pub fn shortest_nonempty(r: &Nre) -> Option<Witness> {
    match r {
        Nre::Epsilon | Nre::Test(_) => None,
        Nre::Label(a) => Some(Witness(vec![PathStep::Fwd(*a)])),
        Nre::Inverse(a) => Some(Witness(vec![PathStep::Bwd(*a)])),
        Nre::Union(x, y) => match (shortest_nonempty(x), shortest_nonempty(y)) {
            (Some(a), Some(b)) => Some(if a.main_len() <= b.main_len() { a } else { b }),
            (a, b) => a.or(b),
        },
        Nre::Concat(x, y) => {
            // Either side supplies the non-empty part; the other is shortest.
            let via_x = shortest_nonempty(x).map(|w| w.append(&shortest(y)));
            let via_y = shortest_nonempty(y).map(|w| shortest(x).append(&w));
            match (via_x, via_y) {
                (Some(a), Some(b)) => Some(if a.main_len() <= b.main_len() { a } else { b }),
                (a, b) => a.or(b),
            }
        }
        Nre::Star(inner) => shortest_nonempty(inner),
    }
}

/// Bounds for witness enumeration.
#[derive(Debug, Clone, Copy)]
pub struct EnumConfig {
    /// Maximum star iterations per star occurrence.
    pub star_unroll: usize,
    /// Maximum main-path length of an enumerated witness.
    pub max_len: usize,
    /// Hard cap on the number of witnesses returned.
    pub max_witnesses: usize,
}

impl Default for EnumConfig {
    fn default() -> EnumConfig {
        EnumConfig {
            star_unroll: 2,
            max_len: 6,
            max_witnesses: 64,
        }
    }
}

/// Enumerates a bounded family of distinct witnesses of `r`, shortest
/// first. The family always contains [`shortest`]`(r)`.
pub fn enumerate(r: &Nre, cfg: EnumConfig) -> Vec<Witness> {
    let mut out = enum_rec(r, &cfg);
    out.sort_by_key(|w| (w.main_len(), w.edge_count(), w.clone()));
    let mut seen: FxHashSet<Witness> = FxHashSet::default();
    out.retain(|w| w.main_len() <= cfg.max_len && seen.insert(w.clone()));
    out.truncate(cfg.max_witnesses);
    out
}

fn enum_rec(r: &Nre, cfg: &EnumConfig) -> Vec<Witness> {
    match r {
        Nre::Epsilon => vec![Witness::default()],
        Nre::Label(a) => vec![Witness(vec![PathStep::Fwd(*a)])],
        Nre::Inverse(a) => vec![Witness(vec![PathStep::Bwd(*a)])],
        Nre::Union(x, y) => {
            let mut v = enum_rec(x, cfg);
            v.extend(enum_rec(y, cfg));
            v
        }
        Nre::Concat(x, y) => {
            let xs = enum_rec(x, cfg);
            let ys = enum_rec(y, cfg);
            let mut v = Vec::new();
            'outer: for wx in &xs {
                for wy in &ys {
                    if v.len() >= cfg.max_witnesses * 4 {
                        break 'outer;
                    }
                    if wx.main_len() + wy.main_len() <= cfg.max_len {
                        v.push(wx.clone().append(wy));
                    }
                }
            }
            v
        }
        Nre::Star(inner) => {
            let base = enum_rec(inner, cfg);
            let mut v = vec![Witness::default()];
            let mut layer = vec![Witness::default()];
            for _ in 0..cfg.star_unroll {
                let mut next = Vec::new();
                for w in &layer {
                    for b in &base {
                        if v.len() + next.len() >= cfg.max_witnesses * 4 {
                            break;
                        }
                        let cand = w.clone().append(b);
                        if cand.main_len() <= cfg.max_len {
                            next.push(cand);
                        }
                    }
                }
                v.extend(next.iter().cloned());
                layer = next;
                if layer.is_empty() {
                    break;
                }
            }
            v
        }
        Nre::Test(inner) => enum_rec(inner, cfg)
            .into_iter()
            .map(|w| Witness(vec![PathStep::Branch(w)]))
            .collect(),
    }
}

/// Materializes `witness` into `graph` as a path from `src` to `dst`,
/// inventing fresh nulls for intermediate nodes and for branch targets.
///
/// Fails with [`GdxError::Unsupported`] (without mutating the graph) when
/// the witness has an empty main path but `src ≠ dst` — such a witness can
/// only be realized by *merging* the endpoints, a decision that belongs to
/// the caller (the solution-existence search).
pub fn materialize(graph: &mut Graph, witness: &Witness, src: NodeId, dst: NodeId) -> Result<()> {
    if witness.main_len() == 0 && src != dst {
        return Err(GdxError::unsupported(
            "epsilon-shaped witness between distinct nodes requires a merge",
        ));
    }
    let mut cur = src;
    let mut remaining_moves = witness.main_len();
    for step in &witness.0 {
        match step {
            PathStep::Fwd(a) => {
                let next = if remaining_moves == 1 {
                    dst
                } else {
                    graph.add_fresh_null()
                };
                graph.add_edge(cur, *a, next);
                cur = next;
                remaining_moves -= 1;
            }
            PathStep::Bwd(a) => {
                let next = if remaining_moves == 1 {
                    dst
                } else {
                    graph.add_fresh_null()
                };
                graph.add_edge(next, *a, cur);
                cur = next;
                remaining_moves -= 1;
            }
            PathStep::Branch(w) => {
                if w.main_len() == 0 {
                    // The branch itself is epsilon-shaped: only its own
                    // nested branches need materializing, at `cur`.
                    materialize(graph, w, cur, cur)?;
                } else {
                    let sink = graph.add_fresh_null();
                    materialize(graph, w, cur, sink)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::holds;
    use crate::parse::parse_nre;
    use gdx_graph::Node;

    #[test]
    fn shortest_lengths() {
        assert_eq!(shortest(&parse_nre("a").unwrap()).main_len(), 1);
        assert_eq!(shortest(&parse_nre("a.b").unwrap()).main_len(), 2);
        assert_eq!(shortest(&parse_nre("a*").unwrap()).main_len(), 0);
        assert_eq!(shortest(&parse_nre("a.a*").unwrap()).main_len(), 1);
        assert_eq!(shortest(&parse_nre("a+b.c").unwrap()).main_len(), 1);
        assert_eq!(shortest(&parse_nre("[a.b]").unwrap()).main_len(), 0);
        assert_eq!(shortest(&parse_nre("[a.b]").unwrap()).edge_count(), 2);
    }

    #[test]
    fn shortest_nonempty_cases() {
        assert!(shortest_nonempty(&parse_nre("eps").unwrap()).is_none());
        assert!(shortest_nonempty(&parse_nre("[a]").unwrap()).is_none());
        assert_eq!(
            shortest_nonempty(&parse_nre("a*").unwrap())
                .unwrap()
                .main_len(),
            1
        );
        assert_eq!(
            shortest_nonempty(&parse_nre("eps+a.b").unwrap())
                .unwrap()
                .main_len(),
            2
        );
        // eps.eps has no nonempty witness.
        assert!(shortest_nonempty(&parse_nre("eps.eps").unwrap()).is_none());
    }

    #[test]
    fn materialized_witness_satisfies_nre() {
        for expr in [
            "a",
            "a.b",
            "a-",
            "a.(b*+c*).a",
            "f.f*",
            "a.[h].b",
            "[a.b]",
            "a+b",
            "(a-.b)*.c",
        ] {
            let r = parse_nre(expr).unwrap();
            for w in enumerate(&r, EnumConfig::default()).into_iter().take(8) {
                let mut g = Graph::new();
                let s = g.add_const("s");
                let d = if w.main_len() == 0 {
                    s
                } else {
                    g.add_const("d")
                };
                materialize(&mut g, &w, s, d).unwrap();
                assert!(
                    holds(&g, &r, s, d),
                    "witness {w:?} of {expr} does not satisfy it:\n{g}"
                );
            }
        }
    }

    #[test]
    fn epsilon_between_distinct_nodes_fails() {
        let mut g = Graph::new();
        let a = g.add_const("a");
        let b = g.add_const("b");
        let w = shortest(&parse_nre("eps").unwrap());
        assert!(materialize(&mut g, &w, a, b).is_err());
        assert_eq!(g.edge_count(), 0, "no partial mutation");
    }

    #[test]
    fn enumerate_contains_shortest_and_unrolls() {
        let r = parse_nre("f.f*").unwrap();
        let ws = enumerate(
            &r,
            EnumConfig {
                star_unroll: 3,
                max_len: 10,
                max_witnesses: 100,
            },
        );
        assert!(ws.contains(&shortest(&r)));
        let lens: FxHashSet<usize> = ws.iter().map(Witness::main_len).collect();
        assert!(lens.contains(&1) && lens.contains(&2) && lens.contains(&4));
    }

    #[test]
    fn enumerate_respects_caps() {
        let r = parse_nre("(a+b)*").unwrap();
        let ws = enumerate(
            &r,
            EnumConfig {
                star_unroll: 4,
                max_len: 4,
                max_witnesses: 10,
            },
        );
        assert!(ws.len() <= 10);
        assert!(ws.iter().all(|w| w.main_len() <= 4));
    }

    #[test]
    fn enumerate_dedups() {
        // a + a yields one distinct witness.
        let r = Nre::Union(Box::new(Nre::label("a")), Box::new(Nre::label("a")));
        let ws = enumerate(&r, EnumConfig::default());
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn branch_materialization_builds_tree() {
        let r = parse_nre("a.[h].b").unwrap();
        let w = shortest(&r);
        let mut g = Graph::new();
        let s = g.add_const("s");
        let d = g.add_const("d");
        materialize(&mut g, &w, s, d).unwrap();
        // Edges: s -a-> n, n -h-> sink, n -b-> d.
        assert_eq!(g.edge_count(), 3);
        assert!(holds(&g, &r, g.node_id(Node::cst("s")).unwrap(), d));
    }
}
