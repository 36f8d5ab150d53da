//! Semi-naive vs naive chase equivalence, and cache-survival regressions.
//!
//! The semi-naive worklist engine must be a pure optimization: on every
//! input where the naive round-robin chase terminates, it must terminate
//! with an *isomorphic* graph (identity on constants, nulls renamed), and
//! it must hit the step bound exactly when the naive chase does.

use gdx_chase::{chase_target_tgds, ChaseStats, TgdChaseConfig, TgdChaseEngine, TgdChaseMode};
use gdx_common::{GdxError, Symbol};
use gdx_graph::{is_isomorphic, Graph, NodeId};
use gdx_mapping::TargetTgd;
use gdx_query::Cnre;
use proptest::prelude::*;

fn tgd(body: &str, existential: &[&str], head: &str) -> TargetTgd {
    TargetTgd {
        body: Cnre::parse(body).unwrap(),
        existential: existential.iter().map(|s| Symbol::new(s)).collect(),
        head: Cnre::parse(head).unwrap(),
    }
}

/// Random small graphs over labels f/g/h.
fn arb_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0u32..5, 0u8..3, 0u32..5), 1..10).prop_map(|edges| {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..5)
            .map(|i| {
                if i % 2 == 0 {
                    g.add_const(&format!("k{i}"))
                } else {
                    g.add_node(gdx_graph::Node::null(&format!("n{i}")))
                }
            })
            .collect();
        for (s, l, d) in edges {
            let label = ["f", "g", "h"][l as usize];
            g.add_edge_labelled(nodes[s as usize], label, nodes[d as usize]);
        }
        g
    })
}

/// Random *stratified* target tgds: rule `i`'s body ranges over the base
/// labels f/g/h plus the head labels of earlier rules (`t0 … t{i-1}`, so
/// cascades across rules arise), while its head writes only its own fresh
/// label `t{i}`. Stratification makes the set weakly acyclic (both modes
/// terminate) and confluent up to isomorphism (no rule's firing can
/// witness another rule's head, and within one rule distinct matches
/// place independent demands) — exactly the contract under which the
/// semi-naive engine must be a pure optimization. Cyclic sets, where the
/// restricted chase's very termination depends on firing order, are
/// covered separately by `non_terminating_set_hits_bound` in the unit
/// tests.
fn arb_tgds() -> impl Strategy<Value = Vec<TargetTgd>> {
    let body_shape = prop_oneof![
        Just("(x, B0, y)"),
        Just("(x, B0.B1, y)"),
        Just("(x, B0.B0*, y)"),
        Just("(x, B0+B1, y)"),
        Just("(x, B0, y), (y, B1, w)"),
        Just("(x, [B1], x), (x, B0, y)"),
    ];
    // Every shape's demand is a function of the match's frontier values
    // alone, and a firing can witness exactly its own demand — so the
    // fired set is order-independent and both modes are confluent up to
    // null renaming. (A shape like `(y, H, z), (x, H, z)` would *not*
    // qualify: the diagonal match x = y collapses the pair into a single
    // edge that subsumes later demands differently per firing order.)
    let head_shape = prop_oneof![
        Just(("(y, H, z)", true)),
        Just(("(y, H, x)", false)),
        Just(("(x, H, y)", false)),
        Just(("(y, H, z), (z, H, x)", true)),
        Just(("(y, H.H, z)", true)),
    ];
    proptest::collection::vec((body_shape, head_shape, 0u8..3, 0u8..3), 1..=4).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (b, (h, existential), b0, b1))| {
                // Base labels plus earlier head labels, picked per rule.
                let mut pool = vec!["f".to_owned(), "g".to_owned(), "h".to_owned()];
                pool.extend((0..i).map(|j| format!("t{j}")));
                let pick = |sel: u8| pool[sel as usize % pool.len()].clone();
                let body = b.replace("B0", &pick(b0)).replace("B1", &pick(b1));
                let head = h.replace('H', &format!("t{i}"));
                tgd(&body, if existential { &["z"] } else { &[] }, &head)
            })
            .collect()
    })
}

fn run(g: &Graph, tgds: &[TargetTgd], mode: TgdChaseMode) -> Result<Graph, GdxError> {
    chase_target_tgds(
        g,
        tgds,
        TgdChaseConfig {
            max_steps: 300,
            mode,
            ..TgdChaseConfig::default()
        },
    )
    .map(|out| out.graph)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The tentpole equivalence property: on random settings, the
    /// semi-naive chase output is isomorphic (`gdx_graph::hom`) to the
    /// naive round-robin chase output.
    #[test]
    fn semi_naive_is_isomorphic_to_naive(g in arb_graph(), tgds in arb_tgds()) {
        let semi = run(&g, &tgds, TgdChaseMode::SemiNaive);
        let naive = run(&g, &tgds, TgdChaseMode::Naive);
        match (semi, naive) {
            (Ok(gs), Ok(gn)) => {
                prop_assert!(
                    is_isomorphic(&gs, &gn),
                    "chase outputs diverged:\nsemi-naive:\n{gs}\nnaive:\n{gn}"
                );
            }
            (Err(GdxError::LimitExceeded(_)), Err(GdxError::LimitExceeded(_))) => {}
            (semi, naive) => {
                return Err(TestCaseError::fail(format!(
                    "modes disagree on termination: semi-naive {semi:?} vs naive {naive:?}"
                )));
            }
        }
    }
}

/// Regression: the per-rule delta caches must survive ≥3 firing rounds.
/// The engine chases a growing graph across three restarts (the solver's
/// fixpoint loop does exactly this); every body evaluation after the
/// first sweep must be answered from the warm per-rule delta states —
/// `full_evals` must stay frozen at one prime per rule.
#[test]
fn per_rule_caches_survive_three_firing_rounds() {
    let tgds = gdx_datagen::chain_target_tgds(3);
    let mut g = Graph::new();
    g.add_edge_consts("n0", "h", "hx");
    let mut engine = TgdChaseEngine::new(&tgds, TgdChaseConfig::default());

    let mut steps_seen = Vec::new();
    for round in 1..=3u32 {
        engine.run(&mut g).unwrap();
        steps_seen.push(engine.stats().steps);
        assert_eq!(
            engine.stats().full_evals,
            tgds.len(),
            "round {round}: each rule primes its cache exactly once, ever"
        );
        // Feed the next round: a fresh h-edge with a *fresh* target
        // re-triggers the whole chain (re-using hx would find the chain
        // already materialized there — correctly firing nothing).
        g.add_edge_consts(&format!("n{round}"), "h", &format!("hx{round}"));
    }
    // Every restart fired the whole 3-level chain for the new h-edge.
    assert_eq!(steps_seen, vec![3, 6, 9]);
    let stats: ChaseStats = engine.stats();
    assert!(
        stats.delta_evals > 0,
        "restarted rounds must be answered from warm delta states"
    );
}

/// Acceptance gate for the scaling claim, on a datagen instance: the
/// semi-naive chase must examine at least 2× fewer body-match rows than
/// the naive round-robin chase.
#[test]
fn semi_naive_halves_body_match_work_on_datagen_instances() {
    // A Flight/Hotel instance, s-t chased and instantiated, then chased
    // with a depth-6 chain of target tgds.
    let inst = gdx_datagen::flights_hotels(
        gdx_datagen::FlightsHotelsParams {
            flights: 60,
            cities: 12,
            hotels: 12,
            stays_per_flight: 2,
        },
        &mut gdx_datagen::rng(42),
    );
    let st = gdx_chase::chase_st(&inst, &gdx_mapping::Setting::example_2_2_egd()).unwrap();
    let g = gdx_pattern::instantiate_shortest(&st.pattern).unwrap();
    let tgds = gdx_datagen::chain_target_tgds(6);

    let cfg_semi = TgdChaseConfig {
        max_steps: 100_000,
        mode: TgdChaseMode::SemiNaive,
        ..TgdChaseConfig::default()
    };
    let cfg_naive = TgdChaseConfig {
        max_steps: 100_000,
        mode: TgdChaseMode::Naive,
        ..TgdChaseConfig::default()
    };
    let semi = chase_target_tgds(&g, &tgds, cfg_semi).unwrap();
    let naive = chase_target_tgds(&g, &tgds, cfg_naive).unwrap();

    assert_eq!(semi.steps, naive.steps, "same firings either way");
    assert!(
        is_isomorphic(&semi.graph, &naive.graph),
        "modes must agree on the chased graph"
    );
    assert!(
        naive.stats.body_rows >= 2 * semi.stats.body_rows.max(1),
        "semi-naive must examine ≥2× fewer body rows: naive {} vs semi {}",
        naive.stats.body_rows,
        semi.stats.body_rows
    );
}
