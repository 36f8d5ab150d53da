//! Integration tests for the Theorem 4.1 / Corollary 4.2 /
//! Proposition 4.3 reductions (experiments E5–E7), including randomized
//! cross-validation of all three existence backends against the SAT
//! oracle.

use gdx::datagen::{random_3cnf, rng};
use gdx::exchange::encode::solution_exists_sat;
use gdx::exchange::exists::construct_solution_no_egds;
use gdx::exchange::reduction::{Reduction, ReductionFlavor};
use gdx::exchange::{is_solution, CertainAnswer, ExchangeSession, Existence, Options};
use gdx::pattern::InstantiationConfig;
use gdx::sat::{brute_force, Cnf, Lit};

fn config_for(n: u32) -> Options {
    Options {
        instantiation: InstantiationConfig {
            max_graphs: (1usize << n) + 8,
            ..InstantiationConfig::default()
        },
        ..Options::default()
    }
}

fn session_for(red: &Reduction, n: u32) -> ExchangeSession {
    ExchangeSession::new(red.setting.clone(), red.instance.clone()).with_options(config_for(n))
}

/// ρ₀ = (x1 ∨ ¬x2 ∨ x3) ∧ (¬x1 ∨ x3 ∨ ¬x4), the running example of
/// Theorem 4.1 (satisfiable).
fn rho0() -> Cnf {
    let mut f = Cnf::new(4);
    f.add_clause(vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)]);
    f.add_clause(vec![Lit::neg(0), Lit::pos(2), Lit::neg(3)]);
    f
}

/// (x1)(¬x1 ∨ x2)(¬x2): unsatisfiable.
fn unsat3() -> Cnf {
    let mut f = Cnf::new(3);
    f.add_clause(vec![Lit::pos(0)]);
    f.add_clause(vec![Lit::neg(0), Lit::pos(1)]);
    f.add_clause(vec![Lit::neg(1)]);
    f
}

#[test]
fn e5_e7_paper_formula_and_unsatisfiable_formula() {
    let egd = |f: &Cnf| Reduction::from_cnf(f, ReductionFlavor::Egd).unwrap();
    let sameas = |f: &Cnf| Reduction::from_cnf(f, ReductionFlavor::SameAs).unwrap();

    // E5 (Theorem 4.1, Figure 4).
    let red = egd(&rho0());
    let fig4 = red.solution_from_valuation(&[true, true, false, false]);
    assert!(
        is_solution(&red.instance, &red.setting, &fig4).unwrap(),
        "the Figure 4 graph (t1, t2, f3, f4 loops) is a solution for Ω_ρ0"
    );
    let got = session_for(&red, 4).solution_exists().unwrap();
    let val = red.valuation_from_solution(got.witness().unwrap()).unwrap();
    assert!(rho0().eval(&val), "the witness decodes to a model of ρ0");
    let got = session_for(&egd(&unsat3()), 3).solution_exists().unwrap();
    assert!(matches!(got, Existence::NoSolution));

    // E6 (Corollary 4.2): (c1, c2) ∈ cert(a·a) iff unsatisfiable.
    let q = Reduction::certain_query_egd();
    let ans = session_for(&red, 4).certain_pair(&q, "c1", "c2").unwrap();
    assert!(matches!(ans, CertainAnswer::NotCertain(_)));
    let ans = session_for(&egd(&unsat3()), 3)
        .certain_pair(&q, "c1", "c2")
        .unwrap();
    assert!(ans.is_certain());

    // E7 (Proposition 4.3): solutions always exist, certainty of
    // sameAs(c1, c2) is hard.
    let red_u = sameas(&unsat3());
    let g =
        construct_solution_no_egds(&red_u.instance, &red_u.setting, &Options::default()).unwrap();
    assert!(is_solution(&red_u.instance, &red_u.setting, &g).unwrap());
    let q = Reduction::certain_query_sameas();
    let ans = session_for(&red_u, 3).certain_pair(&q, "c1", "c2").unwrap();
    assert!(ans.is_certain());
    let ans = session_for(&sameas(&rho0()), 4)
        .certain_pair(&q, "c1", "c2")
        .unwrap();
    assert!(matches!(ans, CertainAnswer::NotCertain(_)));
}

#[test]
fn e5_randomized_existence_agreement() {
    // 3 sizes × 3 ratios × 3 seeds, all three backends vs brute force.
    for n in [4u32, 5, 6] {
        for ratio in [2.0f64, 4.3, 6.0] {
            let m = ((n as f64) * ratio).round() as usize;
            for seed in 0..3u64 {
                let cnf = random_3cnf(n, m, &mut rng(seed * 31 + n as u64));
                let truth = brute_force(&cnf).is_some();
                let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();

                let search = session_for(&red, n).solution_exists().unwrap();
                assert_eq!(
                    search.exists(),
                    truth,
                    "search solver, n={n} m={m} s={seed}"
                );
                if let Existence::Exists(g) = &search {
                    assert!(is_solution(&red.instance, &red.setting, g).unwrap());
                    let val = red.valuation_from_solution(g).unwrap();
                    assert!(cnf.eval(&val), "witness decodes to a model");
                }

                let enc = solution_exists_sat(&red.instance, &red.setting).unwrap();
                assert_eq!(enc.exists(), truth, "SAT encoder, n={n} m={m} s={seed}");
                if let Existence::Exists(g) = &enc {
                    assert!(is_solution(&red.instance, &red.setting, g).unwrap());
                }
            }
        }
    }
}

#[test]
fn e6_randomized_certain_agreement() {
    for n in [4u32, 5] {
        for ratio in [3.0f64, 5.0] {
            let m = ((n as f64) * ratio).round() as usize;
            for seed in 0..3u64 {
                let cnf = random_3cnf(n, m, &mut rng(seed * 97 + n as u64));
                let unsat = brute_force(&cnf).is_none();
                let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();
                let ans = session_for(&red, n)
                    .certain_pair(&Reduction::certain_query_egd(), "c1", "c2")
                    .unwrap();
                assert_eq!(
                    ans.is_certain(),
                    unsat,
                    "Corollary 4.2, n={n} m={m} seed={seed}"
                );
                if let CertainAnswer::NotCertain(g) = &ans {
                    assert!(is_solution(&red.instance, &red.setting, g).unwrap());
                }
            }
        }
    }
}

#[test]
fn e7_randomized_sameas_agreement() {
    for seed in 0..4u64 {
        let n = 4u32;
        let cnf = random_3cnf(n, 18, &mut rng(seed * 13));
        let unsat = brute_force(&cnf).is_none();
        let red = Reduction::from_cnf(&cnf, ReductionFlavor::SameAs).unwrap();

        // Existence is trivial (Proposition 4.3).
        let g =
            construct_solution_no_egds(&red.instance, &red.setting, &Options::default()).unwrap();
        assert!(is_solution(&red.instance, &red.setting, &g).unwrap());

        // Certain answering of `sameAs` mirrors unsatisfiability.
        let ans = session_for(&red, n)
            .certain_pair(&Reduction::certain_query_sameas(), "c1", "c2")
            .unwrap();
        assert_eq!(ans.is_certain(), unsat, "Proposition 4.3, seed={seed}");
    }
}

#[test]
fn reduction_inverse_recovers_formula() {
    for seed in 0..5u64 {
        let cnf = random_3cnf(6, 20, &mut rng(seed));
        let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();
        let back = red.extract_cnf();
        let norm = |c: &Cnf| {
            let mut cl: Vec<Vec<Lit>> = c.clauses.clone();
            for c in &mut cl {
                c.sort();
            }
            cl.sort();
            cl
        };
        assert_eq!(norm(&cnf), norm(&back));
    }
}

#[test]
fn reduction_instance_is_fixed() {
    // The hardness is in *query* complexity: the source schema and
    // instance never change across formulas.
    let a = Reduction::from_cnf(&random_3cnf(4, 10, &mut rng(1)), ReductionFlavor::Egd).unwrap();
    let b = Reduction::from_cnf(&random_3cnf(9, 40, &mut rng(2)), ReductionFlavor::Egd).unwrap();
    assert_eq!(a.instance.to_string(), b.instance.to_string());
    assert_eq!(a.setting.source, b.setting.source);
    assert_ne!(a.setting.target.len(), b.setting.target.len());
}

#[test]
fn solution_count_equals_model_count() {
    // Minimal solutions of a reduction ↔ satisfying valuations.
    for seed in 0..3u64 {
        let n = 4u32;
        let cnf = random_3cnf(n, 12, &mut rng(seed * 7 + 100));
        let models = (0u64..(1 << n))
            .filter(|bits| {
                let v: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
                cnf.eval(&v)
            })
            .count();
        let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();
        let mut session = session_for(&red, n);
        let stream = session.solutions().unwrap();
        let sols: Vec<_> = stream.map(|g| g.unwrap()).collect();
        let mut replay = session.solutions().unwrap();
        assert_eq!(replay.by_ref().count(), sols.len());
        assert!(replay.exact());
        assert_eq!(sols.len(), models, "seed={seed}");
    }
}
