//! End-to-end pipeline tests across crates: DSL → chase → instantiation →
//! constraint enforcement → solution checking, on settings exercising
//! every constraint kind, plus generated-workload smoke tests.

use gdx::chase::{chase_st, is_weakly_acyclic, StChaseVariant};
use gdx::datagen::{flights_hotels, rng, FlightsHotelsParams};
use gdx::exchange::exists::construct_solution_no_egds;
use gdx::prelude::*;

#[test]
fn dsl_to_solution_with_target_tgds() {
    // Flights propagate reachability; a target tgd demands every reached
    // city records a service edge.
    let setting = gdx::mapping::dsl::parse_setting(
        "source { Hop/2 }
         target { f; svc }
         sttgd Hop(x, y) -> (x, f, y);
         tgd (x, f, y) -> exists s : (y, svc, s);",
    )
    .unwrap();
    let tgds: Vec<_> = setting.target_tgds().cloned().collect();
    assert!(is_weakly_acyclic(&tgds).unwrap(), "chase terminates");

    let inst = Instance::parse(setting.source.clone(), "Hop(a, b); Hop(b, c);").unwrap();
    let mut ex = ExchangeSession::new(setting.clone(), inst.clone());
    let sol = ex.solution_exists().unwrap();
    let g = sol.witness().expect("weakly acyclic tgds: solution exists");
    assert!(ex.is_solution(g).unwrap());
    // b and c must both carry svc edges.
    let q = PreparedQuery::parse("(\"b\", svc, s)").unwrap();
    assert!(q.evaluate_exists(g).unwrap());
}

#[test]
fn non_weakly_acyclic_tgd_detected() {
    let setting = gdx::mapping::dsl::parse_setting(
        "source { R/2 }
         target { f }
         sttgd R(x, y) -> (x, f, y);
         tgd (x, f, y) -> exists z : (y, f, z);",
    )
    .unwrap();
    let tgds: Vec<_> = setting.target_tgds().cloned().collect();
    assert!(!is_weakly_acyclic(&tgds).unwrap());
}

#[test]
fn mixed_egd_and_sameas_setting() {
    // Both constraint kinds in one setting: egds merge hotel cities,
    // sameAs links cities with a common destination.
    let setting = gdx::mapping::dsl::parse_setting(
        "source { Flight/3; Hotel/2 }
         target { f; h }
         sttgd Flight(x1, x2, x3), Hotel(x1, x4)
               -> exists y : (x2, f, y), (y, h, x4), (y, f, x3);
         egd (x1, h, x3), (x2, h, x3) -> x1 = x2;
         sameas (x, f, z), (y, f, z) -> (x, y);",
    )
    .unwrap();
    let mut ex = ExchangeSession::new(setting, Instance::example_2_2());
    let sol = ex.solution_exists().unwrap();
    let g = sol.witness().expect("solution exists");
    assert!(ex.is_solution(g).unwrap());
    // Both hx-stays collapse to one city, linked to itself by sameAs.
    let q = PreparedQuery::parse("(x, sameAs, y)").unwrap();
    assert!(q.evaluate_exists(g).unwrap());
}

#[test]
fn generated_workload_end_to_end() {
    let setting = Setting::example_2_2_sameas();
    let inst = flights_hotels(
        FlightsHotelsParams {
            flights: 120,
            cities: 20,
            hotels: 15,
            stays_per_flight: 2,
        },
        &mut rng(5),
    );
    let g = construct_solution_no_egds(&inst, &setting, &Options::default()).unwrap();
    assert!(gdx::exchange::is_solution(&inst, &setting, &g).unwrap());
}

#[test]
fn generated_workload_egd_chase_then_verify() {
    let setting = Setting::example_2_2_egd();
    let inst = flights_hotels(
        FlightsHotelsParams {
            flights: 60,
            cities: 12,
            hotels: 8,
            stays_per_flight: 1,
        },
        &mut rng(9),
    );
    let mut ex = ExchangeSession::new(setting, inst);
    let sol = ex.solution_exists().unwrap();
    // Hotel/city collisions among *constants* can make solutions
    // impossible; whatever the verdict, an Exists witness must verify.
    if let Some(g) = sol.witness() {
        assert!(ex.is_solution(g).unwrap());
    }
}

#[test]
fn chase_variants_produce_equivalent_representatives() {
    // Restricted and oblivious chase patterns represent the same graphs
    // (restricted is a sub-pattern with satisfied triggers folded away).
    let inst = flights_hotels(
        FlightsHotelsParams {
            flights: 40,
            cities: 8,
            hotels: 6,
            stays_per_flight: 2,
        },
        &mut rng(21),
    );
    let setting = Setting::example_2_2_egd();
    let obl = chase_st(&inst, &setting, StChaseVariant::Oblivious).unwrap();
    let res = chase_st(&inst, &setting, StChaseVariant::Restricted).unwrap();
    assert!(res.fired <= obl.fired);
    // Canonical instantiations of both satisfy the s-t tgds.
    for pattern in [&obl.pattern, &res.pattern] {
        let g = gdx::pattern::instantiate_shortest(pattern).unwrap();
        assert!(gdx::exchange::solution::st_tgds_satisfied(&inst, &setting, &g).unwrap());
    }
}

#[test]
fn setting_display_roundtrips_through_dsl() {
    for setting in [
        Setting::example_2_2_egd(),
        Setting::example_2_2_sameas(),
        Setting::example_3_1(),
        Setting::example_5_2(),
    ] {
        let text = setting.to_string();
        let back = gdx::mapping::dsl::parse_setting(&text).unwrap();
        assert_eq!(setting, back, "roundtrip failed for:\n{text}");
    }
}

#[test]
fn graph_and_pattern_files_roundtrip() {
    let g = Graph::parse("(c1, f, _N); (_N, h, hx); node(lonely);").unwrap();
    let g2 = Graph::parse(&g.to_string()).unwrap();
    assert!(gdx::graph::is_isomorphic(&g, &g2));

    let p = GraphPattern::parse("(c1, f.f*, _N); (_N, h+g, hx);").unwrap();
    let p2 = GraphPattern::parse(&p.to_string()).unwrap();
    assert_eq!(p.edge_count(), p2.edge_count());
}

#[test]
fn chased_solutions_print_and_parse_back() {
    // Fresh nulls print as `_~N`; the edge-list parser must accept exactly
    // what `Display` prints.
    let setting = gdx::mapping::dsl::parse_setting(
        "source { Hop/2 }
         target { f; svc }
         sttgd Hop(x, y) -> exists m : (x, f, m), (m, f, y);
         tgd (x, f, y) -> exists s : (y, svc, s);",
    )
    .unwrap();
    let inst = Instance::parse(setting.source.clone(), "Hop(a, b); Hop(b, c);").unwrap();
    let mut ex = ExchangeSession::new(setting, inst);
    let sol = ex.solution_exists().unwrap();
    let g = sol.witness().expect("weakly acyclic tgds: solution exists");
    let text = g.to_string();
    assert!(text.contains("_~"), "fresh nulls in the solution: {text}");
    let back = Graph::parse(&text).unwrap();
    assert!(gdx::graph::is_isomorphic(g, &back), "{text}");
    assert_eq!(
        back.to_string(),
        text,
        "printing is stable across a round trip"
    );
    assert!(ex.is_solution(&back).unwrap());
}
