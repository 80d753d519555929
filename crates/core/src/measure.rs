//! The well-founded termination measure (paper §4.2–4.3).
//!
//! `meas(σ)` maps a machine state to a triple of naturals —
//! `(remaining tokens, stackScore, suffix stack height)` — ordered
//! lexicographically (`<₃`). Lemma 4.2 proves every machine step strictly
//! decreases this measure; in Coq that fact drives the `Acc`-based
//! definition of `multistep`, while here it is an *instrumentation
//! artifact*: [`crate::instrument::run_instrumented`] recomputes the measure
//! after every step and asserts the strict decrease, and the property
//! tests in this crate fuzz the same claim.

use crate::bignat::BigNat;
use crate::state::{MachineState, SuffixFrame};
use costar_grammar::{Grammar, NtSet};
use std::cmp::Ordering;
use std::fmt;

/// The measure triple, compared lexicographically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measure {
    /// Number of unconsumed tokens.
    pub tokens_remaining: usize,
    /// The `stackScore` of the suffix stack and visited set (§4.3).
    pub stack_score: BigNat,
    /// Height of the suffix stack.
    pub stack_height: usize,
}

impl PartialOrd for Measure {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Measure {
    fn cmp(&self, other: &Self) -> Ordering {
        self.tokens_remaining
            .cmp(&other.tokens_remaining)
            .then_with(|| self.stack_score.cmp(&other.stack_score))
            .then_with(|| self.stack_height.cmp(&other.stack_height))
    }
}

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {})",
            self.tokens_remaining, self.stack_score, self.stack_height
        )
    }
}

/// `frameScore(ψ, b, e) = bᵉ · (# unprocessed symbols in ψ)` (§4.3).
///
/// Public so the `costar-verify` harnesses (`H-MEASURE-ORD`) can exercise
/// the frame-level algebra of Lemmas 4.3/4.4 over nondeterministic frames
/// directly, not only through full machine states.
pub fn frame_score(g: &Grammar, frame: SuffixFrame, base: u64, exp: usize) -> BigNat {
    let mut score = BigNat::pow(base, exp);
    score.mul_u64_assign(frame.unprocessed(g).len() as u64);
    score
}

/// `stackScore′`: sums frame scores top-to-bottom, incrementing the
/// exponent for each lower frame (§4.3). `frames` is bottom-first (the
/// machine's storage order), so the iteration walks it in reverse.
///
/// Public for the `costar-verify` harnesses (see [`frame_score`]).
pub fn stack_score_prime(
    g: &Grammar,
    frames: &[SuffixFrame],
    base: u64,
    initial_exp: usize,
) -> BigNat {
    let mut total = BigNat::zero();
    for (depth_from_top, &frame) in frames.iter().rev().enumerate() {
        total.add_assign(&frame_score(g, frame, base, initial_exp + depth_from_top));
    }
    total
}

/// `stackScore(G, Ψ, V) = stackScore′(Ψ, 1 + maxRhsLen(G), |U \ V|)`
/// where `U` is the universe of grammar left-hand sides and `V` the
/// visited set (§4.3).
pub fn stack_score(g: &Grammar, frames: &[SuffixFrame], visited: &NtSet) -> BigNat {
    let base = 1 + g.max_rhs_len() as u64;
    // |U \ V|: visited is maintained as a subset of the nonterminals that
    // appear on the stack, all of which have productions, so the
    // difference is a plain subtraction.
    let universe = universe_size(g);
    let exp = universe.saturating_sub(visited.len());
    stack_score_prime(g, frames, base, exp)
}

/// `|U|`: the number of distinct grammar left-hand sides.
fn universe_size(g: &Grammar) -> usize {
    g.symbols()
        .nonterminals()
        .filter(|&x| !g.alternatives(x).is_empty())
        .count()
}

/// `meas(σ)`: the full measure triple for a machine state (§4.2).
pub fn meas(g: &Grammar, state: &MachineState, total_tokens: usize) -> Measure {
    Measure {
        tokens_remaining: total_tokens - state.cursor,
        stack_score: stack_score(g, &state.suffix, &state.visited),
        stack_height: state.stack_height(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costar_grammar::GrammarBuilder;

    fn fig2_grammar() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    #[test]
    fn lexicographic_order() {
        let a = Measure {
            tokens_remaining: 1,
            stack_score: BigNat::from(100u64),
            stack_height: 1,
        };
        let b = Measure {
            tokens_remaining: 2,
            stack_score: BigNat::zero(),
            stack_height: 0,
        };
        assert!(a < b, "first component dominates");
        let c = Measure {
            tokens_remaining: 1,
            stack_score: BigNat::from(99u64),
            stack_height: 50,
        };
        assert!(c < a, "second component breaks first-component ties");
        let d = Measure {
            tokens_remaining: 1,
            stack_score: BigNat::from(99u64),
            stack_height: 49,
        };
        assert!(d < c, "third component breaks remaining ties");
    }

    #[test]
    fn frame_score_counts_unprocessed_only() {
        let g = fig2_grammar();
        let a_nt = g.symbols().lookup_nonterminal("A").unwrap();
        // A -> a . A; base 3 (maxRhsLen 2), exponent 2: 9 * 1 unprocessed = 9.
        let f = SuffixFrame::new(g.alternatives(a_nt)[0]).advanced();
        assert_eq!(frame_score(&g, f, 3, 2).to_string(), "9");
        // Both symbols unprocessed: 9 * 2 = 18.
        assert_eq!(
            frame_score(&g, SuffixFrame::new(f.prod.unwrap()), 3, 2).to_string(),
            "18"
        );
    }

    #[test]
    fn lower_frames_weigh_more() {
        let g = fig2_grammar();
        let one = SuffixFrame::bottom();
        // Two identical frames: top gets b^e, bottom b^(e+1).
        let score = stack_score_prime(&g, &[one, one], 3, 1);
        assert_eq!(score.to_string(), "12"); // 3^2 (bottom) + 3^1 (top)
    }

    #[test]
    fn push_strictly_decreases_score() {
        // Mirrors Lemma 4.3 on a concrete configuration: machine at
        // bottom frame [S] with dot 0, pushes S -> A d.
        let g = fig2_grammar();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let mut visited = NtSet::with_capacity(2);
        let before_frames = vec![SuffixFrame::bottom()];
        let before = stack_score(&g, &before_frames, &visited);

        let pid = g.alternatives(s)[1]; // S -> A d
        let after_frames = vec![
            SuffixFrame::bottom().advanced(), // caller dot advanced past S
            SuffixFrame::new(pid),
        ];
        visited.insert(s);
        let after = stack_score(&g, &after_frames, &visited);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn return_keeps_score_constant_when_nt_visited() {
        // Mirrors Lemma 4.4: popping an exhausted frame while removing its
        // caller from the visited set leaves the score unchanged.
        let g = fig2_grammar();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let a_nt = g.symbols().lookup_nonterminal("A").unwrap();
        let mut visited = NtSet::with_capacity(2);
        visited.insert(s);
        visited.insert(a_nt);
        // A -> b .
        let exhausted = SuffixFrame::new(g.alternatives(a_nt)[1]).advanced();
        // S -> A . c: the caller keeps one unprocessed symbol so the
        // comparison is not 0 = 0.
        let caller = SuffixFrame::new(g.alternatives(s)[0]).advanced();
        let before = stack_score(&g, &[caller, exhausted], &visited);
        visited.remove(a_nt);
        let after = stack_score(&g, &[caller], &visited);
        assert!(!before.is_zero());
        assert_eq!(before, after);
    }

    #[test]
    fn meas_uses_cursor_for_tokens() {
        let g = fig2_grammar();
        let mut st = MachineState::initial(g.num_nonterminals());
        st.cursor = 2;
        let m = meas(&g, &st, 5);
        assert_eq!(m.tokens_remaining, 3);
        assert_eq!(m.stack_height, 1);
    }

    #[test]
    fn universe_counts_only_defined_nonterminals() {
        let g = fig2_grammar();
        assert_eq!(universe_size(&g), 2);
    }
}
