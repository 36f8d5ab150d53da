//! The egd chase's inclusion kernel ([`gdx_automata::PathInclusion`])
//! against the pairwise reference [`gdx_automata::included`], and the
//! chase outcomes it must reproduce.
//!
//! * every (sequence, target) pair of the Cor 4.2 reductions at n = 6–8
//!   decides the same way under both;
//! * so do random test-free NREs with inverse letters, nullable targets
//!   and letters missing from the target's alphabet;
//! * the egd chase on those reductions (and on valuation patterns that
//!   make its egds fire) keeps the outcome, the failing constants, the
//!   merge count and the pattern size it had under pairwise inclusion;
//! * one chase compiles exactly one DFA per distinct test-free target.

use gdx_automata::{included, PathInclusion, StepId};
use gdx_chase::egd_pattern::{
    chase_egds_on_pattern, chase_egds_on_pattern_obs, EgdChaseConfig, EgdChaseOutcome,
};
use gdx_chase::st::{chase_st, StChaseVariant};
use gdx_exchange::reduction::{Reduction, ReductionFlavor};
use gdx_mapping::Egd;
use gdx_nre::Nre;
use gdx_obs::Obs;
use gdx_pattern::GraphPattern;
use proptest::prelude::*;

/// The Cor 4.2 reduction of a random 3-CNF at ratio 4.26: its s-t chased
/// pattern, its egds, a seeded valuation and the formula's first
/// satisfying valuation (by brute force), if any.
struct Case {
    pattern: GraphPattern,
    egds: Vec<Egd>,
    seeded: Vec<bool>,
    satisfying: Option<Vec<bool>>,
}

fn reduction(n: u32, seed: u64) -> Case {
    let clauses = (f64::from(n) * 4.26).round() as usize;
    let cnf = gdx_datagen::random_3cnf(n, clauses, &mut gdx_datagen::rng(seed));
    let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();
    let st = chase_st(&red.instance, &red.setting, StChaseVariant::Oblivious).unwrap();
    let valuation = |bits: u64| (0..n).map(|i| bits >> i & 1 == 1).collect::<Vec<bool>>();
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    Case {
        pattern: st.pattern,
        egds: red.setting.egds().cloned().collect(),
        seeded: valuation(x),
        satisfying: (0..1u64 << n).map(valuation).find(|v| cnf.eval(v)),
    }
}

/// The reduction's pattern with every variable loop `t_i+f_i` replaced by
/// the letter of `valuation` (`t_i` true, `f_i` false), and `c2` by the
/// null `_Y` when `null_end` is set: a clause the valuation falsifies
/// makes a certain 4-edge path for its egd.
fn valuation_pattern(valuation: &[bool], null_end: bool) -> GraphPattern {
    let end = if null_end { "_Y" } else { "c2" };
    let mut text = format!("(c1, a, {end});");
    for (i, &value) in valuation.iter().enumerate() {
        let letter = if value { "t" } else { "f" };
        text.push_str(&format!(" (c1, {letter}{}, c1);", i + 1));
    }
    GraphPattern::parse(&text).unwrap()
}

/// Four-edge paths, forward only: long enough for the clause egds.
const LONG: EgdChaseConfig = EgdChaseConfig {
    path_bound: 4,
    allow_reversed: false,
    batch_merges: true,
    max_rounds: 10_000,
};

/// Every pinned chase: (name, pattern, egds, config).
fn chase_cases() -> Vec<(String, GraphPattern, Vec<Egd>, EgdChaseConfig)> {
    let mut cases = Vec::new();
    for n in 6..=8u32 {
        for seed in 1..=3u64 {
            let case = reduction(n, seed);
            let name = format!("n{n}s{seed}");
            cases.push((
                name.clone(),
                case.pattern,
                case.egds.clone(),
                EgdChaseConfig::default(),
            ));
            let mut valuations = vec![("val", case.seeded)];
            valuations.extend(case.satisfying.map(|v| ("sat", v)));
            for (kind, valuation) in valuations {
                for null_end in [false, true] {
                    let tag = if null_end { "null" } else { "const" };
                    let p = valuation_pattern(&valuation, null_end);
                    cases.push((format!("{name}-{kind}-{tag}"), p, case.egds.clone(), LONG));
                }
            }
        }
    }
    cases
}

/// Outcome, failing constants, merges and pattern size of one chase.
fn summary(outcome: &EgdChaseOutcome) -> String {
    match outcome {
        EgdChaseOutcome::Success { pattern, merges } => format!(
            "ok merges={merges} nodes={} edges={}",
            pattern.node_count(),
            pattern.edge_count()
        ),
        EgdChaseOutcome::Failed { constants, merges } => {
            format!("fail {}={} merges={merges}", constants.0, constants.1)
        }
    }
}

/// Chase outcomes under pairwise `included`, recorded before the kernel
/// replaced it.
const PINS: &[(&str, &str)] = &[
    ("n6s1", "ok merges=0 nodes=2 edges=7"),
    ("n6s1-val-const", "fail c1=c2 merges=0"),
    ("n6s1-val-null", "ok merges=1 nodes=1 edges=7"),
    ("n6s1-sat-const", "ok merges=0 nodes=2 edges=7"),
    ("n6s1-sat-null", "ok merges=0 nodes=2 edges=7"),
    ("n6s2", "ok merges=0 nodes=2 edges=7"),
    ("n6s2-val-const", "fail c1=c2 merges=0"),
    ("n6s2-val-null", "ok merges=1 nodes=1 edges=7"),
    ("n6s2-sat-const", "ok merges=0 nodes=2 edges=7"),
    ("n6s2-sat-null", "ok merges=0 nodes=2 edges=7"),
    ("n6s3", "ok merges=0 nodes=2 edges=7"),
    ("n6s3-val-const", "fail c1=c2 merges=0"),
    ("n6s3-val-null", "ok merges=1 nodes=1 edges=7"),
    ("n7s1", "ok merges=0 nodes=2 edges=8"),
    ("n7s1-val-const", "fail c1=c2 merges=0"),
    ("n7s1-val-null", "ok merges=1 nodes=1 edges=8"),
    ("n7s1-sat-const", "ok merges=0 nodes=2 edges=8"),
    ("n7s1-sat-null", "ok merges=0 nodes=2 edges=8"),
    ("n7s2", "ok merges=0 nodes=2 edges=8"),
    ("n7s2-val-const", "fail c1=c2 merges=0"),
    ("n7s2-val-null", "ok merges=1 nodes=1 edges=8"),
    ("n7s2-sat-const", "ok merges=0 nodes=2 edges=8"),
    ("n7s2-sat-null", "ok merges=0 nodes=2 edges=8"),
    ("n7s3", "ok merges=0 nodes=2 edges=8"),
    ("n7s3-val-const", "fail c1=c2 merges=0"),
    ("n7s3-val-null", "ok merges=1 nodes=1 edges=8"),
    ("n7s3-sat-const", "ok merges=0 nodes=2 edges=8"),
    ("n7s3-sat-null", "ok merges=0 nodes=2 edges=8"),
    ("n8s1", "ok merges=0 nodes=2 edges=9"),
    ("n8s1-val-const", "fail c1=c2 merges=0"),
    ("n8s1-val-null", "ok merges=1 nodes=1 edges=9"),
    ("n8s2", "ok merges=0 nodes=2 edges=9"),
    ("n8s2-val-const", "fail c1=c2 merges=0"),
    ("n8s2-val-null", "ok merges=1 nodes=1 edges=9"),
    ("n8s2-sat-const", "ok merges=0 nodes=2 edges=9"),
    ("n8s2-sat-null", "ok merges=0 nodes=2 edges=9"),
    ("n8s3", "ok merges=0 nodes=2 edges=9"),
    ("n8s3-val-const", "fail c1=c2 merges=0"),
    ("n8s3-val-null", "ok merges=1 nodes=1 edges=9"),
    ("n8s3-sat-const", "ok merges=0 nodes=2 edges=9"),
    ("n8s3-sat-null", "ok merges=0 nodes=2 edges=9"),
];

#[test]
fn egd_chase_outcomes_are_unchanged() {
    let cases = chase_cases();
    assert_eq!(cases.len(), PINS.len());
    for ((name, pattern, egds, cfg), (pin_name, pin)) in cases.iter().zip(PINS) {
        assert_eq!(name, pin_name);
        let out = chase_egds_on_pattern(pattern, egds, *cfg).unwrap();
        assert_eq!(summary(&out), *pin, "{name}");
    }
}

/// Distinct edge NREs of a pattern plus their reversals: the steps the
/// chase's sequences are built from.
fn steps_of(pattern: &GraphPattern) -> Vec<Nre> {
    let mut steps: Vec<Nre> = Vec::new();
    for (_, r, _) in pattern.edges() {
        if !steps.contains(r) {
            steps.push(r.clone());
        }
    }
    for k in 0..steps.len() {
        let rev = steps[k].reversed();
        if !steps.contains(&rev) {
            steps.push(rev);
        }
    }
    steps
}

fn targets_of(egds: &[Egd]) -> Vec<Nre> {
    let mut targets: Vec<Nre> = Vec::new();
    for egd in egds {
        for atom in &egd.body.atoms {
            if !targets.contains(&atom.nre) {
                targets.push(atom.nre.clone());
            }
        }
    }
    targets
}

/// Kernel verdicts for every path of `paths` against every target, next
/// to the pairwise reference.
fn assert_kernel_agrees(steps: &[Nre], paths: &[Vec<usize>], targets: &[Nre]) -> usize {
    let mut kernel = PathInclusion::new();
    let step_ids: Vec<StepId> = steps.iter().map(|s| kernel.add_step(s).unwrap()).collect();
    let mut pairs = 0;
    for target in targets {
        let t = kernel.add_target(target).unwrap();
        for path in paths {
            let ids: Vec<StepId> = path.iter().map(|&i| step_ids[i]).collect();
            let concat = Nre::concat_all(path.iter().map(|&i| steps[i].clone()));
            assert_eq!(
                kernel.included(&ids, t),
                included(&concat, target).unwrap(),
                "{concat} ⊆ {target}"
            );
            pairs += 1;
        }
    }
    pairs
}

#[test]
fn kernel_agrees_with_pairwise_inclusion_on_reductions() {
    for n in 6..=8u32 {
        let case = reduction(n, 1);
        let steps = steps_of(&case.pattern);
        // Every sequence of at most the default path bound (2), whether
        // or not its relation over the pattern is empty: a superset of
        // the pairs one chase decides.
        let mut paths: Vec<Vec<usize>> = (0..steps.len()).map(|i| vec![i]).collect();
        for i in 0..steps.len() {
            for j in 0..steps.len() {
                paths.push(vec![i, j]);
            }
        }
        let targets = targets_of(&case.egds);
        let pairs = assert_kernel_agrees(&steps, &paths, &targets);
        assert_eq!(pairs, paths.len() * targets.len());
    }
}

#[test]
fn kernel_agrees_with_pairwise_inclusion_on_valuation_paths() {
    // Single-letter loops make the long clause targets reachable: these
    // pairs include positives, which the union loops of the reductions
    // never give.
    let case = reduction(6, 1);
    let pattern = valuation_pattern(&case.seeded, false);
    // Forward steps only: `a` and one letter per variable, all distinct.
    let steps: Vec<Nre> = pattern.edges().iter().map(|(_, r, _)| r.clone()).collect();
    let k = steps.len();
    let mut paths: Vec<Vec<usize>> = Vec::new();
    for code in 0..k * k * k {
        paths.push(vec![code % k, code / k % k, code / (k * k)]);
    }
    let a = steps.iter().position(|s| *s == Nre::label("a")).unwrap();
    for path in &mut paths {
        path.push(a);
    }
    assert_kernel_agrees(&steps, &paths, &targets_of(&case.egds));
}

#[test]
fn one_chase_compiles_one_dfa_per_distinct_target() {
    for n in 6..=8u32 {
        let case = reduction(n, 2);
        let distinct = targets_of(&case.egds)
            .iter()
            .filter(|t| t.is_test_free())
            .count();
        let obs = Obs::enabled();
        let out =
            chase_egds_on_pattern_obs(&case.pattern, &case.egds, EgdChaseConfig::default(), &obs)
                .unwrap();
        assert!(out.succeeded());
        let registry = obs.registry().unwrap();
        assert_eq!(registry.counter("egd.target_dfas"), distinct as u64);
        // A duplicated egd list adds no target and so no DFA.
        let doubled: Vec<Egd> = case.egds.iter().chain(&case.egds).cloned().collect();
        let obs = Obs::enabled();
        chase_egds_on_pattern_obs(&case.pattern, &doubled, EgdChaseConfig::default(), &obs)
            .unwrap();
        assert_eq!(
            obs.registry().unwrap().counter("egd.target_dfas"),
            distinct as u64
        );
    }
    // Several rounds reuse the first round's automata.
    let case = reduction(6, 1);
    let obs = Obs::enabled();
    let out = chase_egds_on_pattern_obs(
        &valuation_pattern(&case.seeded, true),
        &case.egds,
        LONG,
        &obs,
    )
    .unwrap();
    assert!(out.succeeded());
    let registry = obs.registry().unwrap();
    assert!(registry.counter("egd.rounds") >= 2);
    assert_eq!(
        registry.counter("egd.target_dfas"),
        targets_of(&case.egds).len() as u64
    );
}

/// Random test-free NREs built from `leaf` by union, concatenation and
/// star.
fn arb_nre_over(leaf: BoxedStrategy<Nre>) -> BoxedStrategy<Nre> {
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Nre::Union(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Nre::Concat(Box::new(x), Box::new(y))),
            inner.prop_map(|x| Nre::Star(Box::new(x))),
        ]
    })
}

/// Random test-free NREs over {a, b, c} with inverse letters.
fn arb_nre() -> BoxedStrategy<Nre> {
    arb_nre_over(
        prop_oneof![
            Just(Nre::Epsilon),
            prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Nre::label),
            prop_oneof![Just("a"), Just("b")].prop_map(Nre::inverse),
        ]
        .boxed(),
    )
}

/// Random targets over {a, b, a-} only: `c` and `b-` in a step are
/// letters missing from every such target's alphabet.
fn arb_target() -> BoxedStrategy<Nre> {
    arb_nre_over(
        prop_oneof![
            Just(Nre::Epsilon),
            prop_oneof![Just("a"), Just("b")].prop_map(Nre::label),
            Just(Nre::inverse("a")),
        ]
        .boxed(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One kernel, three steps, two targets, every path of length 0–3:
    /// the memoized reach images answer like the pairwise construction.
    #[test]
    fn kernel_agrees_with_pairwise_inclusion_on_random_nres(
        steps in proptest::collection::vec(arb_nre(), 3),
        t1 in arb_target(),
        t2 in arb_nre(),
    ) {
        let mut kernel = PathInclusion::new();
        let ids: Vec<StepId> = steps.iter().map(|s| kernel.add_step(s).unwrap()).collect();
        for target in [&t1, &t2] {
            let t = kernel.add_target(target).unwrap();
            for len in 0..=3u32 {
                for code in 0..3usize.pow(len) {
                    let path: Vec<usize> =
                        (0..len).map(|d| code / 3usize.pow(d) % 3).collect();
                    let concat = if path.is_empty() {
                        Nre::Epsilon
                    } else {
                        Nre::concat_all(path.iter().map(|&i| steps[i].clone()))
                    };
                    let path_ids: Vec<StepId> = path.iter().map(|&i| ids[i]).collect();
                    prop_assert_eq!(
                        kernel.included(&path_ids, t),
                        included(&concat, target).unwrap(),
                        "{} ⊆ {}", concat, target
                    );
                }
            }
        }
    }
}
