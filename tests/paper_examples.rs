//! Integration tests reproducing the paper's figures and worked examples
//! (experiments E1–E4, E8–E10) through the public API of
//! the `gdx` meta-crate.

use gdx::chase::egd_pattern::adapted_chase;
use gdx::chase::{chase_st, EgdChaseConfig, StChaseVariant};
use gdx::exchange::representative::RepresentativeOutcome;
use gdx::prelude::*;

fn g1() -> Graph {
    Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);").unwrap()
}

/// Figure 1(b) — yields the nine query answers the paper lists.
fn g2() -> Graph {
    Graph::parse(
        "(c1, f, _N1); (c3, f, _N1); (_N1, f, _N2);
         (_N2, f, c2); (_N2, h, hx); (_N2, h, hy);",
    )
    .unwrap()
}

fn g3() -> Graph {
    Graph::parse(
        "(c1, f, _N1); (_N1, f, _N2); (_N2, f, c2); (_N2, h, hy); (_N1, h, hy);
         (c3, f, _N3); (_N3, f, c2); (_N3, h, hx); (c1, f, _N3);
         (_N1, sameAs, _N2); (_N2, sameAs, _N1);
         (_N1, sameAs, _N1); (_N2, sameAs, _N2); (_N3, sameAs, _N3);",
    )
    .unwrap()
}

fn paper_query() -> PreparedQuery {
    PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap()
}

#[test]
fn e1_figure_1_solution_status() {
    let i = Instance::example_2_2();
    let egd = Setting::example_2_2_egd();
    let sameas = Setting::example_2_2_sameas();
    let mut ex_egd = ExchangeSession::new(egd, i.clone());
    let mut ex_sa = ExchangeSession::new(sameas, i);

    assert!(ex_egd.is_solution(&g1()).unwrap());
    assert!(ex_egd.is_solution(&g2()).unwrap());
    assert!(
        !ex_egd.is_solution(&g3()).unwrap(),
        "sameAs label + unmerged"
    );
    assert!(ex_sa.is_solution(&g3()).unwrap());
    assert!(!ex_sa.is_solution(&g1()).unwrap(), "missing sameAs edges");
}

#[test]
fn e2_query_answer_sets_match_paper() {
    let q = paper_query();
    // JQK_G1 — exactly the four constant pairs.
    let a1 = q.evaluate(&g1()).unwrap();
    assert_eq!(a1.len(), 4);
    assert_eq!(a1.constant_rows(&g1()).len(), 4);
    // JQK_G2 — nine pairs, four of them constant-only.
    let a2 = q.evaluate(&g2()).unwrap();
    assert_eq!(a2.len(), 9);
    assert_eq!(a2.constant_rows(&g2()).len(), 4);
}

#[test]
fn e2_certain_answers_under_both_settings() {
    let i = Instance::example_2_2();
    let q = paper_query();
    let (egd_rows, _) = ExchangeSession::new(Setting::example_2_2_egd(), i.clone())
        .certain_answers(&q)
        .unwrap();
    assert_eq!(egd_rows.len(), 4);
    let (sa_rows, _) = ExchangeSession::new(Setting::example_2_2_sameas(), i)
        .certain_answers(&q)
        .unwrap();
    let names: Vec<(String, String)> = sa_rows
        .iter()
        .map(|r| (r[0].to_string(), r[1].to_string()))
        .collect();
    assert_eq!(
        names,
        vec![
            ("c1".to_string(), "c1".to_string()),
            ("c3".to_string(), "c3".to_string())
        ]
    );
}

#[test]
fn e3_figure_2_relational_fragment() {
    let out = adapted_chase(
        &Instance::example_2_2(),
        &Setting::example_3_1(),
        EgdChaseConfig::default(),
    )
    .unwrap();
    let g = out.pattern().unwrap().to_graph().unwrap();
    let fig2 = Graph::parse(
        "(c1, f, _N1); (_N1, h, hy); (_N1, f, c2);
         (c1, f, _N2); (_N2, h, hx); (_N2, f, c2); (c3, f, _N2);",
    )
    .unwrap();
    assert!(gdx::graph::is_isomorphic(&g, &fig2));
}

#[test]
fn e4_figure_3_pattern_and_instantiations() {
    let st = chase_st(
        &Instance::example_2_2(),
        &Setting::example_2_2_egd(),
        StChaseVariant::Oblivious,
    )
    .unwrap();
    let fig3 = GraphPattern::parse(
        "(c1, f.f*, _A); (_A, f.f*, c2); (_A, h, hy);
         (c1, f.f*, _B); (_B, f.f*, c2); (_B, h, hx);
         (c3, f.f*, _C); (_C, f.f*, c2); (_C, h, hx);",
    )
    .unwrap();
    // Same shape up to null renaming: compare via mutual pattern stats and
    // canonical instantiation isomorphism.
    assert_eq!(st.pattern.node_count(), fig3.node_count());
    assert_eq!(st.pattern.edge_count(), fig3.edge_count());
    let a = gdx::pattern::instantiate_shortest(&st.pattern).unwrap();
    let b = gdx::pattern::instantiate_shortest(&fig3).unwrap();
    assert!(gdx::graph::is_isomorphic(&a, &b));
    // Every bounded instantiation of the chased pattern is a solution for
    // the constraint-free setting (Sol = Rep, Section 3.2).
    let free = gdx::mapping::dsl::parse_setting(
        "source { Flight/3; Hotel/2 }
         target { f; h }
         sttgd Flight(x1, x2, x3), Hotel(x1, x4)
               -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);",
    )
    .unwrap();
    let fam = gdx::pattern::instantiation_family(
        &st.pattern,
        gdx::pattern::InstantiationConfig::default(),
    )
    .unwrap();
    assert!(!fam.is_empty());
    for g in fam.iter().take(16) {
        assert!(gdx::exchange::is_solution(&Instance::example_2_2(), &free, g).unwrap());
    }
}

#[test]
fn e8_figure_5_adapted_chase() {
    let out = adapted_chase(
        &Instance::example_2_2(),
        &Setting::example_2_2_egd(),
        EgdChaseConfig::default(),
    )
    .unwrap();
    let p = out.pattern().unwrap();
    assert_eq!((p.node_count(), p.null_count(), p.edge_count()), (7, 2, 7));
}

#[test]
fn e9_example_5_2_chase_succeeds_but_no_solution() {
    let setting = Setting::example_5_2();
    let i = Instance::parse(setting.source.clone(), "R(c1); P(c2);").unwrap();
    let mut session = ExchangeSession::new(setting, i);
    assert!(matches!(
        session.representative().unwrap(),
        RepresentativeOutcome::Representative(_)
    ));
    let ex = session.solution_exists().unwrap();
    assert!(!ex.exists(), "Example 5.2 has no solution; got {ex:?}");
}

#[test]
fn e10_figure_7_breaks_pattern_universality() {
    let i = Instance::example_2_2();
    let mut ex = ExchangeSession::new(Setting::example_2_2_egd(), i);
    let RepresentativeOutcome::Representative(rep) = ex.representative().unwrap().clone() else {
        panic!("chase succeeds");
    };
    let fig7 = Graph::parse(
        "(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);
         (c1, h, hx); (c3, h, hy);",
    )
    .unwrap();
    assert!(rep.pattern_admits(&fig7));
    assert!(!rep.admits(&fig7).unwrap());
    assert!(!ex.is_solution(&fig7).unwrap());
    // And G1, a genuine solution, is admitted by both semantics.
    assert!(rep.pattern_admits(&g1()));
    assert!(rep.admits(&g1()).unwrap());
}
