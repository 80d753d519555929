//! Machine states (paper §3.2).
//!
//! A machine state `σ ∈ Φ × Ψ × Δ × w × S(N) × B` bundles the prefix
//! stack, suffix stack, prediction cache, remaining tokens, visited
//! nonterminal set, and uniqueness flag. The cache `Δ` is threaded
//! separately in this implementation (see [`crate::SllCache`]) so that it
//! can optionally persist across inputs; everything else lives in
//! [`MachineState`].
//!
//! ## Frame representation
//!
//! The paper draws a suffix frame as its list of unprocessed symbols, with
//! the caller's nonterminal still at the head of the caller frame (Fig. 4's
//! `[Xβ₁]`). Like the Coq development, we instead advance the caller's dot
//! *at push time*; the pushed nonterminal is the left-hand side of the
//! production the new frame names — the same information, arranged so
//! that a frame's unprocessed count is exactly what the `stackScore`
//! measure needs (§4.3): with this arrangement a push trades the caller's
//! head symbol (weight `bᵉ`) for a new top frame worth at most
//! `bᵉ⁻¹·(b-1) < bᵉ`, which is why pushes strictly decrease the score
//! (Lemma 4.3).
//!
//! A frame is a grammar location, `(production, dot)`, not a copy of (or
//! a shared handle on) the symbols: [`SuffixFrame`] is `Copy`, and its
//! symbols are read through the `&Grammar` every caller already holds.

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
use costar_grammar::{Grammar, NonTerminal, ProdId, Symbol, Tree};

/// A suffix-stack frame: a grammar location — the production the frame
/// processes plus a dot marking how far the machine has progressed
/// (paper §3.2–3.3). `prod` is `None` for the bottom frame, which
/// processes the one-symbol start form `[S]`.
///
/// The frame holds no symbols of its own: it resolves them through the
/// grammar the machine already borrows ([`Grammar::frame_rhs`]), the way
/// the Coq development's lists are shared for free. So frames are plain
/// `Copy` values, and pushing or returning never touches a refcount on the
/// grammar that concurrent parses share. Prediction's simulated stacks
/// (`prediction::sim`) are built from the same frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SuffixFrame {
    /// The production this frame instantiates; `None` for the bottom
    /// frame.
    pub prod: Option<ProdId>,
    /// Symbols before `dot` are processed; `rhs[dot..]` are unprocessed.
    pub dot: usize,
}

// A `Copy` type cannot hold an `Arc`, and the frame stays two words wide.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<SuffixFrame>();
    assert!(std::mem::size_of::<SuffixFrame>() <= 16);
};

impl SuffixFrame {
    /// The bottom frame `[S]`, nothing processed.
    pub fn bottom() -> Self {
        SuffixFrame { prod: None, dot: 0 }
    }

    /// A freshly pushed frame for production `prod`, nothing processed.
    pub fn new(prod: ProdId) -> Self {
        SuffixFrame {
            prod: Some(prod),
            dot: 0,
        }
    }

    /// The same frame with its dot one symbol further.
    pub fn advanced(self) -> Self {
        SuffixFrame {
            dot: self.dot + 1,
            ..self
        }
    }

    /// The sentential form this frame processes (a production right-hand
    /// side, or `[S]` for the bottom frame).
    pub fn rhs(self, g: &Grammar) -> &[Symbol] {
        g.frame_rhs(self.prod)
    }

    /// The nonterminal whose prediction created this frame; the "open
    /// nonterminal" a return operation reduces (paper §3.3). `None` for
    /// the bottom frame.
    pub fn caller(self, g: &Grammar) -> Option<NonTerminal> {
        g.frame_lhs(self.prod)
    }

    /// The unprocessed symbols of this frame.
    pub fn unprocessed(self, g: &Grammar) -> &[Symbol] {
        self.rhs(g).get(self.dot..).unwrap_or_default()
    }

    /// The symbol at the dot, if the frame is not exhausted.
    pub fn head(self, g: &Grammar) -> Option<Symbol> {
        self.rhs(g).get(self.dot).copied()
    }

    /// `true` when every symbol has been processed.
    pub fn is_exhausted(self, g: &Grammar) -> bool {
        self.dot >= self.rhs(g).len()
    }
}

/// A prefix-stack frame: the partial derivation (forest) for the processed
/// symbols of the corresponding suffix frame.
#[derive(Debug, Clone, Default)]
pub struct PrefixFrame {
    /// One tree per processed symbol, in order. The roots of these trees
    /// spell the processed symbols (`rhs[..dot]` of the matching suffix
    /// frame) — the stack well-formedness invariant of paper Fig. 4.
    pub trees: Vec<Tree>,
}

/// The mutable machine state threaded through [`crate::Machine::step`].
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Prefix stack `Φ`, bottom at index 0, top at the end.
    pub prefix: Vec<PrefixFrame>,
    /// Suffix stack `Ψ`, bottom at index 0, top at the end.
    pub suffix: Vec<SuffixFrame>,
    /// Index of the next token to consume in the input word.
    pub cursor: usize,
    /// Visited nonterminals: opened but not fully processed since the last
    /// consume (paper §4.1). Grows on push, shrinks on return, clears on
    /// consume.
    pub visited: costar_grammar::NtSet,
    /// `false` once prediction has detected that the input is ambiguous.
    pub unique: bool,
}

impl MachineState {
    /// The initial state: one empty prefix frame and the bottom suffix
    /// frame holding the grammar's start symbol (the paper's `WfInit`
    /// configuration, Fig. 4).
    pub fn initial(num_nonterminals: usize) -> Self {
        MachineState {
            prefix: vec![PrefixFrame::default()],
            suffix: vec![SuffixFrame::bottom()],
            cursor: 0,
            visited: costar_grammar::NtSet::with_capacity(num_nonterminals),
            unique: true,
        }
    }

    /// Height of the suffix stack (third component of the termination
    /// measure, §4.2).
    pub fn stack_height(&self) -> usize {
        self.suffix.len()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use costar_grammar::GrammarBuilder;

    fn fig2() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    #[test]
    fn initial_state_shape() {
        let g = fig2();
        let s = MachineState::initial(4);
        assert_eq!(s.prefix.len(), 1);
        assert_eq!(s.suffix.len(), 1);
        assert!(s.prefix[0].trees.is_empty());
        assert_eq!(s.suffix[0], SuffixFrame::bottom());
        assert_eq!(s.suffix[0].rhs(&g), &[Symbol::Nt(g.start())]);
        assert!(s.suffix[0].caller(&g).is_none());
        assert!(s.unique);
        assert_eq!(s.cursor, 0);
        assert!(s.visited.is_empty());
    }

    #[test]
    fn frame_head_and_exhaustion() {
        let g = fig2();
        let mut f = SuffixFrame::bottom();
        assert_eq!(f.head(&g), Some(Symbol::Nt(g.start())));
        assert!(!f.is_exhausted(&g));
        assert_eq!(f.unprocessed(&g).len(), 1);
        f = f.advanced();
        assert!(f.head(&g).is_none());
        assert!(f.is_exhausted(&g));
        assert!(f.unprocessed(&g).is_empty());
    }

    #[test]
    fn frames_name_their_production() {
        let g = fig2();
        let a = g.symbols().lookup_nonterminal("A").unwrap();
        let pid = g.alternatives(a)[0]; // A -> a A
        let f = SuffixFrame::new(pid);
        assert_eq!(f.caller(&g), Some(a));
        assert_eq!(f.rhs(&g), g.production(pid).rhs());
        assert_eq!(f.advanced().head(&g), Some(Symbol::Nt(a)));
        // Past the end is exhausted, never a panic.
        let past = SuffixFrame {
            prod: Some(pid),
            dot: 5,
        };
        assert!(past.is_exhausted(&g));
        assert!(past.unprocessed(&g).is_empty());
    }
}
