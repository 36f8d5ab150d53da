//! Property-based validation of the DPLL solver against the exhaustive
//! oracle, and of DIMACS round-trips.

use gdx_sat::{brute_force, solve, Cnf, Lit, SatResult, SolverConfig};
use proptest::prelude::*;

fn arb_cnf() -> impl Strategy<Value = Cnf> {
    // Up to 8 variables, up to 24 clauses, 1–3 literals each.
    proptest::collection::vec(
        proptest::collection::vec((0u32..8, any::<bool>()), 1..=3),
        0..24,
    )
    .prop_map(|clauses| {
        let mut f = Cnf::new(8);
        for c in clauses {
            f.add_clause(
                c.into_iter()
                    .map(|(v, pos)| Lit {
                        var: v,
                        positive: pos,
                    })
                    .collect(),
            );
        }
        f
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// DPLL agrees with brute force.
    #[test]
    fn dpll_matches_oracle(f in arb_cnf()) {
        let truth = brute_force(&f).is_some();
        let (res, _) = solve(&f, SolverConfig::default());
        prop_assert_eq!(res.is_sat(), truth, "{}", f);
        if let SatResult::Sat(model) = res {
            prop_assert!(f.eval(&model), "returned model must satisfy");
        }
    }

    /// DIMACS round-trips preserve the formula.
    #[test]
    fn dimacs_roundtrip(f in arb_cnf()) {
        let text = f.to_dimacs();
        let back = Cnf::from_dimacs(&text).unwrap();
        prop_assert_eq!(f.clauses.len(), back.clauses.len());
        let norm = |c: &Cnf| {
            let mut cl = c.clauses.clone();
            for cc in &mut cl { cc.sort(); }
            cl.sort();
            cl
        };
        prop_assert_eq!(norm(&f), norm(&back));
    }

    /// Adding a clause never turns UNSAT into SAT (monotone hardening).
    #[test]
    fn adding_clauses_is_monotone(f in arb_cnf(), extra in
        proptest::collection::vec((0u32..8, any::<bool>()), 1..=3))
    {
        let before = brute_force(&f).is_some();
        let mut g = f.clone();
        g.add_clause(
            extra
                .into_iter()
                .map(|(v, pos)| Lit { var: v, positive: pos })
                .collect(),
        );
        let after = brute_force(&g).is_some();
        prop_assert!(before || !after, "UNSAT must stay UNSAT");
    }

    /// Satisfying assignments survive variable-irrelevant extension.
    #[test]
    fn models_extend(f in arb_cnf()) {
        if let Some(mut model) = brute_force(&f) {
            model.push(true); // an extra, unmentioned variable
            let mut g = f.clone();
            g.num_vars = 9;
            prop_assert!(g.eval(&model));
        }
    }
}
