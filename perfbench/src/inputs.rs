//! Seeded inputs: the paper's fixed examples, Flight/Hotel instances in
//! the Example 2.2 setting, and Corollary 4.2 reductions of random 3-CNF.
//! gdx only ever receives the generated text.

use gdx_datagen::FlightsHotelsParams;
use gdx_exchange::reduction::ReductionFlavor;
use gdx_exchange::Reduction;
use gdx_sat::Cnf;
use rand::rngs::StdRng;
use rand::Rng;

/// Example 2.2's setting Ω (with the egd).
pub const EX22_SETTING: &str = "source { Flight/3; Hotel/2 }
target { f; h }
sttgd Flight(x1, x2, x3), Hotel(x1, x4)
      -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
egd (x1, h, x3), (x2, h, x3) -> x1 = x2;
";

/// Example 2.2's instance.
pub const EX22_INSTANCE: &str = "Flight(01, c1, c2); Flight(02, c3, c2);
Hotel(01, hx); Hotel(01, hy); Hotel(02, hx);
";

/// Example 5.2: the chase succeeds, yet no solution exists.
pub const EX52_SETTING: &str = "source { R/1; P/1 }
target { a; b; c }
sttgd R(x), P(y) -> (x, a.(b*+c*).a, y);
egd (x, a+b+c, y) -> x = y;
";

pub const EX52_INSTANCE: &str = "R(a); P(b);\n";

/// The paper's query: pairs of cities linked by flights through a common
/// hotel stop.
pub const PAPER_QUERY: &str = "(x, f.f*.[h].f-.(f-)*, y)";

/// Clause-to-variable ratio of the random 3-CNF, at the phase transition.
const SAT_RATIO: f64 = 4.26;

/// Generator seed of the instances and formulas. A run's `--seed` drives
/// the order of jobs and requests; the content it orders stays the same
/// across runs, because content alone moved throughput by up to a fifth
/// between seeds, more than any bound allows.
pub const CONTENT_SEED: u64 = 2015;

pub fn rng(seed: u64) -> StdRng {
    gdx_datagen::rng(seed)
}

/// Shuffles `items` in place (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A Flight/Hotel instance with `flights` flights over 20 cities and 30
/// hotels, two stays per flight.
pub fn flights(flights: usize, rng: &mut StdRng) -> String {
    gdx_datagen::flights_hotels(
        FlightsHotelsParams {
            flights,
            ..FlightsHotelsParams::default()
        },
        rng,
    )
    .to_string()
}

/// The first flight's endpoints, `(from, to)`: a pair certainly linked
/// by `f.f*` in every solution.
pub fn first_route(instance: &str) -> Option<(String, String)> {
    let fact = instance
        .split(';')
        .find(|f| f.trim().starts_with("Flight("))?;
    let args = fact.trim().strip_prefix("Flight(")?.strip_suffix(')')?;
    let parts: Vec<&str> = args.split(',').map(str::trim).collect();
    Some((parts.get(1)?.to_string(), parts.get(2)?.to_string()))
}

/// A Corollary 4.2 reduction of a random 3-CNF over `n` variables at the
/// phase-transition ratio: the formula, the setting text and the
/// instance text.
pub fn sat_reduction(n: u32, rng: &mut StdRng) -> Result<(Cnf, String, String), String> {
    let clauses = (f64::from(n) * SAT_RATIO).round() as usize;
    let cnf = gdx_datagen::random_3cnf(n, clauses, rng);
    let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).map_err(|e| e.to_string())?;
    Ok((cnf, red.setting.to_string(), red.instance.to_string()))
}

/// Is the formula satisfiable? Decided by DPLL, not by gdx's exchange
/// path.
pub fn satisfiable(cnf: &Cnf) -> Result<bool, String> {
    let (result, _) = gdx_sat::solve(cnf, gdx_sat::SolverConfig::default());
    match result {
        gdx_sat::SatResult::Sat(_) => Ok(true),
        gdx_sat::SatResult::Unsat => Ok(false),
        other => Err(format!("DPLL gave no verdict: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(flights(10, &mut rng(3)), flights(10, &mut rng(3)));
        assert_ne!(flights(10, &mut rng(3)), flights(10, &mut rng(4)));
        let a = sat_reduction(6, &mut rng(5)).unwrap();
        let b = sat_reduction(6, &mut rng(5)).unwrap();
        assert_eq!((a.1, a.2), (b.1, b.2));
    }

    #[test]
    fn generated_texts_parse() {
        let setting = gdx_mapping::dsl::parse_setting(EX22_SETTING).unwrap();
        gdx_relational::Instance::parse(setting.source.clone(), &flights(12, &mut rng(1))).unwrap();
        let (_, s, i) = sat_reduction(7, &mut rng(2)).unwrap();
        let setting = gdx_mapping::dsl::parse_setting(&s).unwrap();
        gdx_relational::Instance::parse(setting.source.clone(), &i).unwrap();
    }

    #[test]
    fn first_route_reads_the_first_flight() {
        assert_eq!(
            first_route(EX22_INSTANCE),
            Some(("c1".to_owned(), "c2".to_owned()))
        );
    }
}
