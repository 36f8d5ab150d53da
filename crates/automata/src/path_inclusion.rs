//! Path inclusion against fixed targets: `L(r₁·…·r_m) ⊆ L(s)` for many
//! paths `r₁ … r_m` over a shared set of steps and a shared set of
//! targets `s`.
//!
//! [`crate::included`] answers one question at a time: two subset
//! constructions, a complement and a product per pair. The egd chase asks
//! the same question for every (path, target) pair of a pattern, and the
//! paths are all short sequences over the same few step NREs. This kernel
//! amortizes the work:
//!
//! * each target is compiled **once** into a complete DFA over its own
//!   letters; a letter outside the target's alphabet moves every state to
//!   a non-accepting sink, so the DFA reads any step word;
//! * each step is compiled once into its ε-free [`EvalNfa`];
//! * for a (step, DFA state) pair, the set of DFA states that words of
//!   `L(step)` can reach from that state — its *reach image* — is
//!   computed by one product BFS and memoized.
//!
//! Then `L(r₁·…·r_m) ⊆ L(s)` holds iff the image of the DFA's start state
//! through the reach images of `r₁, …, r_m` lies inside the accept set:
//! the image is exactly `{δ(start, w) | w ∈ L(r₁·…·r_m)}`.

use crate::dfa::Dfa;
use crate::eval_nfa::EvalNfa;
use crate::letter::{letters_of, Letter};
use crate::nfa::StateId;
use gdx_common::{FxHashMap, Result};
use gdx_nre::Nre;

/// Handle of a step added with [`PathInclusion::add_step`].
pub type StepId = u32;

/// Handle of a target added with [`PathInclusion::add_target`].
pub type TargetId = u32;

/// Compiled steps and targets plus the reach images memoized between
/// them. Ids are dense and never invalidated, so one kernel can serve a
/// whole chase.
///
/// ```
/// use gdx_automata::PathInclusion;
/// use gdx_nre::parse::parse_nre;
/// let mut k = PathInclusion::new();
/// let f = k.add_step(&parse_nre("f").unwrap()).unwrap();
/// let ff = k.add_target(&parse_nre("f.f*").unwrap()).unwrap();
/// assert!(k.included(&[f, f], ff));
/// assert!(!k.included(&[], ff));
/// ```
#[derive(Debug, Default)]
pub struct PathInclusion {
    steps: Vec<EvalNfa>,
    targets: Vec<TargetDfa>,
}

impl PathInclusion {
    /// An empty kernel.
    pub fn new() -> PathInclusion {
        PathInclusion::default()
    }

    /// Compiles a test-free step NRE. Fails on nesting tests. The caller
    /// dedups: every call compiles and returns a fresh id.
    pub fn add_step(&mut self, step: &Nre) -> Result<StepId> {
        self.steps.push(EvalNfa::from_nre(step)?);
        Ok((self.steps.len() - 1) as StepId)
    }

    /// Compiles a test-free target NRE into its DFA. Fails on nesting
    /// tests. The caller dedups: every call compiles and returns a fresh
    /// id.
    pub fn add_target(&mut self, target: &Nre) -> Result<TargetId> {
        self.targets.push(TargetDfa::compile(target)?);
        Ok((self.targets.len() - 1) as TargetId)
    }

    /// Number of target DFAs compiled so far.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// `L(path[0]·…·path[m-1]) ⊆ L(target)`; the empty path denotes `ε`.
    pub fn included(&mut self, path: &[StepId], target: TargetId) -> bool {
        let dfa = &mut self.targets[target as usize];
        let mut image = vec![dfa.start];
        let mut next = Vec::new();
        for &step in path {
            next.clear();
            for &q in &image {
                next.extend_from_slice(dfa.reach(step, &self.steps[step as usize], q));
            }
            next.sort_unstable();
            next.dedup();
            std::mem::swap(&mut image, &mut next);
        }
        image.iter().all(|&q| dfa.accept[q as usize])
    }
}

/// One target's complete DFA plus its memoized reach images.
#[derive(Debug)]
struct TargetDfa {
    /// Column of each of the target's letters in `trans`.
    columns: FxHashMap<Letter, usize>,
    /// `trans[state][column]` — the successor state.
    trans: Vec<Vec<u32>>,
    accept: Vec<bool>,
    start: u32,
    /// Non-accepting state with every transition to itself: the
    /// successor of every state on a letter outside `columns`.
    sink: u32,
    /// `reach[step][state]` — the sorted reach image, once computed.
    reach: Vec<Vec<Option<Box<[u32]>>>>,
}

impl TargetDfa {
    fn compile(target: &Nre) -> Result<TargetDfa> {
        let mut alphabet: Vec<Letter> = letters_of(target).into_iter().collect();
        alphabet.sort();
        let nfa = EvalNfa::from_nre(target)?;
        let Dfa {
            mut trans,
            start,
            mut accept,
            ..
        } = Dfa::determinize_eval(&nfa, &alphabet);
        // Any dead state serves as the sink; add one when the subset
        // construction never reached the empty subset.
        let dead =
            (0..trans.len()).find(|&q| !accept[q] && trans[q].iter().all(|&t| t as usize == q));
        let sink = match dead {
            Some(q) => q as u32,
            None => {
                let q = trans.len() as u32;
                trans.push(vec![q; alphabet.len()]);
                accept.push(false);
                q
            }
        };
        Ok(TargetDfa {
            columns: alphabet.iter().enumerate().map(|(i, &l)| (l, i)).collect(),
            trans,
            accept,
            start,
            sink,
            reach: Vec::new(),
        })
    }

    fn next(&self, state: u32, letter: Letter) -> u32 {
        match self.columns.get(&letter) {
            Some(&col) => self.trans[state as usize][col],
            None => self.sink,
        }
    }

    /// The DFA states words of `L(step)` reach from `state` (memoized).
    fn reach(&mut self, step: StepId, nfa: &EvalNfa, state: u32) -> &[u32] {
        let states = self.trans.len();
        if self.reach.len() <= step as usize {
            self.reach.resize(step as usize + 1, Vec::new());
        }
        if self.reach[step as usize].is_empty() {
            self.reach[step as usize] = vec![None; states];
        }
        if self.reach[step as usize][state as usize].is_none() {
            let image = self.product_bfs(nfa, state);
            self.reach[step as usize][state as usize] = Some(image);
        }
        self.reach[step as usize][state as usize]
            .as_deref()
            .unwrap_or_default()
    }

    /// BFS over (DFA state, step-NFA state) pairs from `state` × the
    /// NFA's start set; the image is every DFA state paired with an
    /// accepting NFA state.
    fn product_bfs(&self, nfa: &EvalNfa, state: u32) -> Box<[u32]> {
        let width = nfa.state_count();
        let mut seen = vec![false; self.trans.len() * width];
        let mut stack: Vec<(u32, StateId)> = Vec::new();
        let mut visit = |d: u32, s: StateId, stack: &mut Vec<(u32, StateId)>| {
            let key = d as usize * width + s as usize;
            if !seen[key] {
                seen[key] = true;
                stack.push((d, s));
            }
        };
        for &s in &nfa.start {
            visit(state, s, &mut stack);
        }
        let mut image = Vec::new();
        while let Some((d, s)) = stack.pop() {
            if nfa.accept[s as usize] {
                image.push(d);
            }
            for (&letter, targets) in &nfa.trans[s as usize] {
                let d2 = self.next(d, letter);
                for &t in targets {
                    visit(d2, t, &mut stack);
                }
            }
        }
        image.sort_unstable();
        image.dedup();
        image.into_boxed_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_nre::parse::parse_nre;

    /// Kernel verdict for a path of step expressions against a target.
    fn kernel(path: &[&str], target: &str) -> bool {
        let mut k = PathInclusion::new();
        let steps: Vec<StepId> = path
            .iter()
            .map(|s| k.add_step(&parse_nre(s).unwrap()).unwrap())
            .collect();
        let t = k.add_target(&parse_nre(target).unwrap()).unwrap();
        k.included(&steps, t)
    }

    #[test]
    fn agrees_with_pairwise_inclusion_on_examples() {
        for (path, target) in [
            (&["a"][..], "a"),
            (&["a"][..], "a+b"),
            (&["a+b"][..], "a"),
            (&["a", "a"][..], "a.a*"),
            (&["a", "b"][..], "a.b*"),
            (&["a", "b", "b"][..], "a.b"),
            (&["eps"][..], "a*"),
            (&["a-"][..], "a"),
            (&["a", "a-"][..], "a.(a-)*"),
            (&["a", "b*+c*", "a"][..], "a.a"),
            (&["a", "a"][..], "a.(b*+c*).a"),
            (&["t1+f1", "a"][..], "t1.f1.a"),
            (&["z"][..], "a*"),
            (&["z*"][..], "a*"),
        ] {
            let concat = Nre::concat_all(path.iter().map(|s| parse_nre(s).unwrap()));
            let expect = crate::included(&concat, &parse_nre(target).unwrap()).unwrap();
            assert_eq!(kernel(path, target), expect, "{path:?} ⊆ {target}");
        }
    }

    #[test]
    fn empty_path_is_epsilon() {
        assert!(kernel(&[], "a*"));
        assert!(!kernel(&[], "a"));
    }

    #[test]
    fn foreign_letters_reach_the_sink() {
        let mut k = PathInclusion::new();
        let z = k.add_step(&parse_nre("z").unwrap()).unwrap();
        let a = k.add_step(&parse_nre("a").unwrap()).unwrap();
        let t = k.add_target(&parse_nre("a+a.a").unwrap()).unwrap();
        assert!(k.included(&[a], t));
        assert!(!k.included(&[a, z], t));
        assert!(!k.included(&[z, a], t), "the sink absorbs later letters");
    }

    #[test]
    fn memos_are_reused_across_paths() {
        let mut k = PathInclusion::new();
        let f = k.add_step(&parse_nre("f").unwrap()).unwrap();
        let g = k.add_step(&parse_nre("g").unwrap()).unwrap();
        let t = k.add_target(&parse_nre("f*").unwrap()).unwrap();
        assert!(k.included(&[f, f, f], t));
        assert!(!k.included(&[f, g], t));
        assert!(k.included(&[f], t));
        assert_eq!(k.target_count(), 1);
    }

    #[test]
    fn nesting_tests_are_rejected() {
        let mut k = PathInclusion::new();
        assert!(k.add_step(&parse_nre("[a]").unwrap()).is_err());
        assert!(k.add_target(&parse_nre("a.[b]").unwrap()).is_err());
    }
}
