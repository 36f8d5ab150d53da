//! A DPLL solver with unit propagation, pure-literal elimination and a
//! dynamic-frequency branching heuristic.
//!
//! Deliberately simple — formulas arising from the paper's experiments are
//! phase-transition random 3-CNF with a few dozen variables, where plain
//! DPLL already exhibits the exponential/polynomial contrast the
//! reproduction needs.

use crate::cnf::{Cnf, Lit, Var};

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Abort after this many decisions (`u64::MAX` = unbounded).
    pub max_decisions: u64,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            max_decisions: u64::MAX,
        }
    }
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Branching decisions taken.
    pub decisions: u64,
    /// Literals assigned by unit propagation.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
}

/// Outcome of a solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable with the given total assignment (indexed by variable).
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// The decision budget was exhausted.
    Unknown,
}

impl SatResult {
    /// True for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

struct Dpll<'a> {
    cnf: &'a Cnf,
    cfg: SolverConfig,
    assignment: Vec<Option<bool>>,
    stats: SolverStats,
}

/// Solves `cnf` under `cfg`, returning the result and search statistics.
pub fn solve(cnf: &Cnf, cfg: SolverConfig) -> (SatResult, SolverStats) {
    let mut s = Dpll {
        cnf,
        cfg,
        assignment: vec![None; cnf.num_vars as usize],
        stats: SolverStats::default(),
    };
    let res = match s.search() {
        Some(true) => {
            let model: Vec<bool> = s.assignment.iter().map(|a| a.unwrap_or(false)).collect();
            debug_assert!(cnf.eval(&model));
            SatResult::Sat(model)
        }
        Some(false) => SatResult::Unsat,
        None => SatResult::Unknown,
    };
    (res, s.stats)
}

impl Dpll<'_> {
    /// Returns `Some(sat?)`, or `None` when the budget ran out.
    fn search(&mut self) -> Option<bool> {
        // Unit propagation to fixpoint; record trail for backtracking.
        let mut trail: Vec<Var> = Vec::new();
        loop {
            match self.propagate_once(&mut trail) {
                Propagation::Conflict => {
                    self.stats.conflicts += 1;
                    self.unwind(&trail);
                    return Some(false);
                }
                Propagation::Progress => continue,
                Propagation::Stable => break,
            }
        }

        self.assign_pure_literals(&mut trail);

        let Some(lit) = self.pick_branch() else {
            // All clauses satisfied (or all variables assigned and no
            // conflict): satisfiable.
            if self.all_satisfied() {
                return Some(true);
            }
            self.unwind(&trail);
            return Some(false);
        };

        if self.stats.decisions >= self.cfg.max_decisions {
            self.unwind(&trail);
            return None;
        }
        self.stats.decisions += 1;

        for phase in [lit.positive, !lit.positive] {
            self.assignment[lit.var as usize] = Some(phase);
            match self.search() {
                Some(true) => return Some(true),
                Some(false) => {
                    self.assignment[lit.var as usize] = None;
                }
                None => {
                    self.assignment[lit.var as usize] = None;
                    self.unwind(&trail);
                    return None;
                }
            }
        }
        self.unwind(&trail);
        Some(false)
    }

    fn unwind(&mut self, trail: &[Var]) {
        for &v in trail {
            self.assignment[v as usize] = None;
        }
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assignment[l.var as usize].map(|v| v == l.positive)
    }

    fn propagate_once(&mut self, trail: &mut Vec<Var>) -> Propagation {
        let mut progress = false;
        for clause in &self.cnf.clauses {
            let mut unassigned: Option<Lit> = None;
            let mut unassigned_count = 0;
            let mut satisfied = false;
            for &l in clause {
                match self.lit_value(l) {
                    Some(true) => {
                        satisfied = true;
                        break;
                    }
                    Some(false) => {}
                    None => {
                        unassigned_count += 1;
                        unassigned = Some(l);
                    }
                }
            }
            if satisfied {
                continue;
            }
            match (unassigned_count, unassigned) {
                (0, _) => return Propagation::Conflict,
                (1, Some(l)) => {
                    self.assignment[l.var as usize] = Some(l.positive);
                    trail.push(l.var);
                    self.stats.propagations += 1;
                    progress = true;
                }
                _ => {}
            }
        }
        if progress {
            Propagation::Progress
        } else {
            Propagation::Stable
        }
    }

    fn assign_pure_literals(&mut self, trail: &mut Vec<Var>) {
        // polarity[v]: (appears positive, appears negative) among
        // not-yet-satisfied clauses.
        let n = self.cnf.num_vars as usize;
        let mut pos = vec![false; n];
        let mut neg = vec![false; n];
        for clause in &self.cnf.clauses {
            if clause.iter().any(|&l| self.lit_value(l) == Some(true)) {
                continue;
            }
            for &l in clause {
                if self.lit_value(l).is_none() {
                    if l.positive {
                        pos[l.var as usize] = true;
                    } else {
                        neg[l.var as usize] = true;
                    }
                }
            }
        }
        for v in 0..n {
            if self.assignment[v].is_none() && (pos[v] ^ neg[v]) {
                self.assignment[v] = Some(pos[v]);
                trail.push(v as Var);
                self.stats.propagations += 1;
            }
        }
    }

    /// The most frequent unassigned literal among unsatisfied clauses.
    fn pick_branch(&self) -> Option<Lit> {
        let n = self.cnf.num_vars as usize;
        let mut count = vec![0u32; 2 * n];
        for clause in &self.cnf.clauses {
            if clause.iter().any(|&l| self.lit_value(l) == Some(true)) {
                continue;
            }
            for &l in clause {
                if self.lit_value(l).is_none() {
                    let idx = l.var as usize * 2 + usize::from(l.positive);
                    count[idx] += 1;
                }
            }
        }
        // A variable-free formula has no literal to branch on (`count` is
        // empty): fall through to the all-satisfied check in `search`.
        let (best, &c) = count.iter().enumerate().max_by_key(|&(_, &c)| c)?;
        if c == 0 {
            return None;
        }
        Some(Lit {
            var: (best / 2) as Var,
            positive: best % 2 == 1,
        })
    }

    fn all_satisfied(&self) -> bool {
        self.cnf
            .clauses
            .iter()
            .all(|c| c.iter().any(|&l| self.lit_value(l) == Some(true)))
    }
}

enum Propagation {
    Conflict,
    Progress,
    Stable,
}

/// Exhaustive satisfiability check — the cross-validation oracle for small
/// formulas (≤ 24 variables).
pub fn brute_force(cnf: &Cnf) -> Option<Vec<bool>> {
    let n = cnf.num_vars;
    assert!(n <= 24, "brute force limited to 24 variables");
    for bits in 0u64..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|v| bits & (1 << v) != 0).collect();
        if cnf.eval(&assignment) {
            return Some(assignment);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rho0() -> Cnf {
        let mut f = Cnf::new(4);
        f.add_clause(vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)]);
        f.add_clause(vec![Lit::neg(0), Lit::pos(2), Lit::neg(3)]);
        f
    }

    fn unsat_2var() -> Cnf {
        // (x0)(¬x0∨x1)(¬x1)(x0∨¬x1) forces a contradiction.
        let mut f = Cnf::new(2);
        f.add_clause(vec![Lit::pos(0)]);
        f.add_clause(vec![Lit::neg(0), Lit::pos(1)]);
        f.add_clause(vec![Lit::neg(1)]);
        f
    }

    #[test]
    fn solves_rho0() {
        let (res, stats) = solve(&rho0(), SolverConfig::default());
        match res {
            SatResult::Sat(m) => assert!(rho0().eval(&m)),
            other => panic!("expected SAT, got {other:?}"),
        }
        assert!(stats.decisions <= 4);
    }

    #[test]
    fn detects_unsat() {
        let (res, _) = solve(&unsat_2var(), SolverConfig::default());
        assert_eq!(res, SatResult::Unsat);
        assert!(brute_force(&unsat_2var()).is_none());
    }

    #[test]
    fn empty_formula_is_sat() {
        let (res, _) = solve(&Cnf::new(3), SolverConfig::default());
        assert!(res.is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut f = Cnf::new(1);
        f.clauses.push(vec![]);
        let (res, _) = solve(&f, SolverConfig::default());
        assert_eq!(res, SatResult::Unsat);
    }

    #[test]
    fn agrees_with_brute_force_exhaustively() {
        // All 3-CNF formulas over 3 variables with exactly 2 clauses drawn
        // from a fixed pool.
        let pool: Vec<Vec<Lit>> = {
            let mut p = Vec::new();
            for a in 0..3u32 {
                for b in 0..3u32 {
                    if a == b {
                        continue;
                    }
                    for (pa, pb) in [(true, true), (true, false), (false, true), (false, false)] {
                        p.push(vec![
                            Lit {
                                var: a,
                                positive: pa,
                            },
                            Lit {
                                var: b,
                                positive: pb,
                            },
                        ]);
                    }
                }
            }
            p
        };
        for i in 0..pool.len() {
            for j in 0..pool.len() {
                let mut f = Cnf::new(3);
                f.add_clause(pool[i].clone());
                f.add_clause(pool[j].clone());
                let (res, _) = solve(&f, SolverConfig::default());
                assert_eq!(res.is_sat(), brute_force(&f).is_some(), "mismatch on {f}");
            }
        }
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        // A formula needing at least one decision.
        let mut f = Cnf::new(8);
        for v in 0..4 {
            f.add_clause(vec![Lit::pos(2 * v), Lit::pos(2 * v + 1)]);
            f.add_clause(vec![Lit::neg(2 * v), Lit::neg(2 * v + 1)]);
        }
        let (res, _) = solve(&f, SolverConfig { max_decisions: 0 });
        assert_eq!(res, SatResult::Unknown);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): pigeon i in hole j = var 2i+j.
        let mut f = Cnf::new(6);
        for p in 0..3u32 {
            f.add_clause(vec![Lit::pos(2 * p), Lit::pos(2 * p + 1)]);
        }
        for h in 0..2u32 {
            for p1 in 0..3u32 {
                for p2 in (p1 + 1)..3u32 {
                    f.add_clause(vec![Lit::neg(2 * p1 + h), Lit::neg(2 * p2 + h)]);
                }
            }
        }
        let (res, _) = solve(&f, SolverConfig::default());
        assert_eq!(res, SatResult::Unsat);
    }

    #[test]
    fn model_is_total() {
        let (res, _) = solve(&rho0(), SolverConfig::default());
        if let SatResult::Sat(m) = res {
            assert_eq!(m.len(), 4);
        } else {
            panic!("expected SAT");
        }
    }
}
