//! Static "stable return frame" analysis for SLL prediction.
//!
//! Original ALL(*) lets an SLL subparser with an empty simulated stack
//! return to *all possible caller frames*. CoStar (paper §3.5) instead
//! precomputes, for each nonterminal `X`, the *stable* grammar positions
//! that are closure-reachable (via push and return operations that consume
//! no input) from every possible caller of `X`. When an SLL subparser
//! finishes simulating `X` with an empty local stack, it resumes from each
//! of those positions. Computing them statically is what keeps CoStar's SLL
//! termination proof tractable — and here, what keeps the SLL simulation a
//! simple bounded loop.
//!
//! A *stable position* is a grammar position `(production, dot)` whose dot
//! sits immediately before a terminal: a position where the subparser must
//! consume input to make further progress. Additionally, "end of parse" is
//! a stable destination when some caller chain is nullable all the way to
//! the completion of the start symbol.

use crate::analysis::nullable::NullableSet;
use crate::grammar::{Grammar, ProdId};
use crate::symbol::{NonTerminal, Symbol};

/// A grammar position: the dot sits before `rhs(production)[dot]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// The production the dot is inside.
    pub production: ProdId,
    /// Index into the production's right-hand side (0 ≤ dot < len).
    pub dot: u32,
}

/// The stable destinations of one nonterminal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StableDests {
    /// Stable positions (dot before a terminal), deduplicated and ordered.
    pub positions: Vec<Position>,
    /// `true` if end-of-input is an acceptable continuation after the
    /// nonterminal completes (some caller chain reaches the end of the
    /// start production through nullable material only).
    pub can_end: bool,
}

/// Per-nonterminal stable return destinations (paper §3.5).
///
/// # Examples
///
/// ```
/// use costar_grammar::{GrammarBuilder, analysis::{NullableSet, StableFrames}};
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["A", "d"]);
/// gb.rule("A", &["b"]);
/// let g = gb.start("S").build()?;
/// let nullable = NullableSet::compute(&g);
/// let sf = StableFrames::compute(&g, &nullable);
/// let a = g.symbols().lookup_nonterminal("A").unwrap();
/// // After A completes, the only stable continuation is "S -> A . d".
/// assert_eq!(sf.dests(a).positions.len(), 1);
/// assert!(!sf.dests(a).can_end);
/// # Ok::<(), costar_grammar::GrammarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StableFrames {
    dests: Vec<StableDests>,
}

impl StableFrames {
    /// Computes stable destinations for every nonterminal by a monotone
    /// fixpoint over three mutually recursive set families:
    ///
    /// * `SD[X]` — stable destinations of `X` (the result);
    /// * `SF[p, j]` — stable positions closure-reachable from position
    ///   `(p, j)` without consuming input;
    /// * `FS[Z]` — stable positions reachable from the start of any of
    ///   `Z`'s right-hand sides (the push case of closure).
    ///
    /// Every set is a fixed-width bitset in one arena: bit 0 is
    /// `can_end`, bit `1 + i` the `i`-th stable position in `(production,
    /// dot)` order, so reading the bits in order yields sorted positions.
    pub fn compute(g: &Grammar, nullable: &NullableSet) -> Self {
        let num_nts = g.num_nonterminals();
        let num_prods = g.num_productions();

        // Flatten SF variables: sf_index(p, j) for 0 <= j <= len(rhs(p)).
        let mut sf_base = vec![0usize; num_prods + 1];
        for (i, p) in g.productions().iter().enumerate() {
            sf_base[i + 1] = sf_base[i] + p.rhs().len() + 1;
        }
        let num_sf = sf_base[num_prods];
        let sf_index = |p: ProdId, j: usize| sf_base[p.index()] + j;

        let mut positions: Vec<Position> = Vec::new();
        for (pid, p) in g.iter() {
            for (j, &s) in p.rhs().iter().enumerate() {
                if s.is_terminal() {
                    positions.push(Position {
                        production: pid,
                        dot: j as u32,
                    });
                }
            }
        }
        // Arena layout: SD[X] at X, FS[Z] at num_nts + Z, SF[p, j] at
        // 2 * num_nts + sf_index(p, j).
        let mut sets = BitSets::new(2 * num_nts + num_sf, positions.len() + 1);
        let sd = |x: NonTerminal| x.index();
        let fs = |z: NonTerminal| num_nts + z.index();
        let sf = |p: ProdId, j: usize| 2 * num_nts + sf_index(p, j);

        // Seed: completing the start symbol may be followed by EOF, and the
        // base case of SF at a terminal position is that position itself.
        sets.insert(sd(g.start()), 0);
        for (bit, pos) in positions.iter().enumerate() {
            sets.insert(sf(pos.production, pos.dot as usize), bit + 1);
        }

        // Fixpoint iteration. Each constraint is monotone over finite sets,
        // so iteration terminates.
        let mut changed = true;
        while changed {
            changed = false;
            for (pid, p) in g.iter() {
                let rhs = p.rhs();
                // SF[p, len] ⊇ SD[lhs(p)] — returning out of p.
                changed |= sets.union(sf(pid, rhs.len()), sd(p.lhs()));
                for (j, &s) in rhs.iter().enumerate().rev() {
                    // A terminal's base case is already seeded; nothing
                    // flows in.
                    if let Symbol::Nt(z) = s {
                        // Push case: SF[p, j] ⊇ FS[Z].
                        changed |= sets.union(sf(pid, j), fs(z));
                        // Nullable skip: SF[p, j] ⊇ SF[p, j+1].
                        if nullable.contains(z) {
                            changed |= sets.union(sf(pid, j), sf(pid, j + 1));
                        }
                    }
                }
                // FS[lhs(p)] ⊇ SF[p, 0].
                changed |= sets.union(fs(p.lhs()), sf(pid, 0));
                // Caller constraint: for each Nt(X) at (p, i),
                // SD[X] ⊇ SF[p, i+1].
                for (i, &s) in rhs.iter().enumerate() {
                    if let Symbol::Nt(x) = s {
                        changed |= sets.union(sd(x), sf(pid, i + 1));
                    }
                }
            }
        }

        StableFrames {
            dests: g
                .symbols()
                .nonterminals()
                .map(|x| StableDests {
                    positions: sets
                        .bits(sd(x))
                        .filter_map(|bit| bit.checked_sub(1))
                        .map(|i| positions[i])
                        .collect(),
                    can_end: sets.bits(sd(x)).next() == Some(0),
                })
                .collect(),
        }
    }

    /// The stable destinations of nonterminal `x`.
    pub fn dests(&self, x: NonTerminal) -> &StableDests {
        &self.dests[x.index()]
    }

    /// All destinations in nonterminal index order (grammar-cache
    /// serialization).
    pub(crate) fn all_dests(&self) -> &[StableDests] {
        &self.dests
    }

    /// Rebuilds from raw parts (grammar-cache deserialization).
    pub(crate) fn from_parts(dests: Vec<StableDests>) -> Self {
        StableFrames { dests }
    }
}

/// Equal-width bitsets in one arena, addressed by set index.
struct BitSets {
    words: Vec<u64>,
    width: usize,
}

impl BitSets {
    fn new(sets: usize, bits: usize) -> Self {
        let width = bits.div_ceil(64);
        BitSets {
            words: vec![0; sets * width],
            width,
        }
    }

    fn insert(&mut self, set: usize, bit: usize) {
        self.words[set * self.width + bit / 64] |= 1 << (bit % 64);
    }

    /// `dst ∪= src`; reports whether `dst` grew.
    fn union(&mut self, dst: usize, src: usize) -> bool {
        let mut grew = false;
        for w in 0..self.width {
            let s = self.words[src * self.width + w];
            let d = &mut self.words[dst * self.width + w];
            grew |= *d | s != *d;
            *d |= s;
        }
        grew
    }

    /// The set bits of `set`, ascending.
    fn bits(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        let words = &self.words[set * self.width..(set + 1) * self.width];
        words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(w * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    fn nt(g: &Grammar, name: &str) -> NonTerminal {
        g.symbols().lookup_nonterminal(name).unwrap()
    }

    fn compute(build: impl FnOnce(&mut GrammarBuilder)) -> (Grammar, StableFrames) {
        let mut gb = GrammarBuilder::new();
        build(&mut gb);
        let g = gb.build().unwrap();
        let n = NullableSet::compute(&g);
        let sf = StableFrames::compute(&g, &n);
        (g, sf)
    }

    #[test]
    fn start_symbol_can_end() {
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["a"]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "S"));
        assert!(d.can_end);
        assert!(d.positions.is_empty());
    }

    #[test]
    fn single_caller_terminal_continuation() {
        // Fig. 2 grammar: after A completes, continuations are "S -> A . c"
        // and "S -> A . d" and, recursively, nothing else (c/d are
        // terminals). A also occurs in "A -> a A ." whose completion
        // returns to A's own callers (already covered).
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["A", "c"]);
            gb.rule("S", &["A", "d"]);
            gb.rule("A", &["a", "A"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "A"));
        assert_eq!(d.positions.len(), 2);
        assert!(!d.can_end);
        for pos in &d.positions {
            let p = g.production(pos.production);
            assert_eq!(g.symbols().nonterminal_name(p.lhs()), "S");
            assert_eq!(pos.dot, 1);
        }
    }

    #[test]
    fn nullable_tail_reaches_eof() {
        // S -> A B, B nullable: after A, both "inside B" positions and EOF
        // are stable destinations.
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["A", "B"]);
            gb.rule("A", &["a"]);
            gb.rule("B", &["b"]);
            gb.rule("B", &[]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "A"));
        assert!(d.can_end, "nullable B then end of S");
        // Position "B -> . b" is reachable by pushing B.
        assert_eq!(d.positions.len(), 1);
        let pos = d.positions[0];
        assert_eq!(
            g.symbols()
                .nonterminal_name(g.production(pos.production).lhs()),
            "B"
        );
        assert_eq!(pos.dot, 0);
    }

    #[test]
    fn transitive_return_through_caller() {
        // C completes inside B which completes inside S: C's stable
        // destinations include the terminal after B in S.
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["B", "x"]);
            gb.rule("B", &["C"]);
            gb.rule("C", &["c"]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "C"));
        assert!(!d.can_end);
        assert_eq!(d.positions.len(), 1);
        let p = g.production(d.positions[0].production);
        assert_eq!(g.symbols().nonterminal_name(p.lhs()), "S");
        assert_eq!(d.positions[0].dot, 1);
    }

    #[test]
    fn multiple_callers_union() {
        // X called from two places with different continuations.
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["X", "a"]);
            gb.rule("S", &["X", "b"]);
            gb.rule("X", &["x"]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "X"));
        assert_eq!(d.positions.len(), 2);
    }

    #[test]
    fn unreachable_nonterminal_has_no_dests() {
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["a"]);
            gb.rule("U", &["u"]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "U"));
        assert!(d.positions.is_empty());
        assert!(!d.can_end);
    }
}
