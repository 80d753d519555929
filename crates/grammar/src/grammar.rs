//! BNF grammars: productions, indexed lookup, and the builder.
//!
//! A grammar `G ::= • | X → γ, G` (paper Fig. 1) is a list of productions.
//! CoStar is parameterized over a grammar that it interprets at parse time,
//! so [`Grammar`] is a first-class runtime value, not generated code.

use crate::symbol::{NonTerminal, Symbol, SymbolTable, Terminal};
use std::fmt;

/// Identifier of a production within its [`Grammar`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProdId(pub(crate) u32);

impl ProdId {
    /// Dense index of the production in [`Grammar::productions`] order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a production id from a dense index previously obtained
    /// from [`ProdId::index`]. The caller is responsible for the index
    /// having come from the same grammar.
    pub fn from_index(index: usize) -> Self {
        ProdId(index as u32)
    }
}

/// A single production `X → γ`.
#[derive(Debug, Clone)]
pub struct Production {
    lhs: NonTerminal,
    rhs: Box<[Symbol]>,
}

impl Production {
    /// The left-hand side nonterminal `X`.
    pub fn lhs(&self) -> NonTerminal {
        self.lhs
    }

    /// The right-hand side sentential form `γ`.
    pub fn rhs(&self) -> &[Symbol] {
        &self.rhs
    }
}

/// Errors detected while validating a grammar.
///
/// CoStar's top-level theorems assume a well-formedness condition on the
/// grammar; [`GrammarBuilder::build`] enforces the structural parts of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// The grammar has no productions at all.
    Empty,
    /// A nonterminal is reachable (or used on a right-hand side) but has no
    /// productions, so no finite derivation can complete through it.
    UndefinedNonterminal(NonTerminal),
    /// The declared start symbol has no productions.
    UndefinedStart(NonTerminal),
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::Empty => write!(f, "grammar has no productions"),
            GrammarError::UndefinedNonterminal(x) => {
                write!(f, "nonterminal {x} is used but has no productions")
            }
            GrammarError::UndefinedStart(x) => {
                write!(f, "start symbol {x} has no productions")
            }
        }
    }
}

impl std::error::Error for GrammarError {}

/// An immutable, indexed BNF grammar together with its symbol table and
/// start symbol.
///
/// Construct one with a [`GrammarBuilder`]. All lookups the parser needs on
/// its hot path — the alternatives of a nonterminal, a production's
/// right-hand side — are O(1) array indexing.
///
/// # Examples
///
/// ```
/// use costar_grammar::GrammarBuilder;
/// // Paper Fig. 2 grammar: S → A d | A c ;  A → a A | b
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["A", "c"]);
/// gb.rule("S", &["A", "d"]);
/// gb.rule("A", &["a", "A"]);
/// gb.rule("A", &["b"]);
/// let g = gb.start("S").build()?;
/// assert_eq!(g.num_productions(), 4);
/// # Ok::<(), costar_grammar::GrammarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Grammar {
    symbols: SymbolTable,
    start: NonTerminal,
    /// `[S]`: what the bottom parse-stack frame processes.
    start_form: [Symbol; 1],
    productions: Vec<Production>,
    /// Productions grouped by left-hand side, indexed by `NonTerminal::index`.
    by_lhs: Vec<Vec<ProdId>>,
    max_rhs_len: usize,
}

impl Grammar {
    /// The start symbol `S`.
    pub fn start(&self) -> NonTerminal {
        self.start
    }

    /// The symbol table the grammar's symbols were interned in.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// All productions, in insertion order.
    pub fn productions(&self) -> &[Production] {
        &self.productions
    }

    /// The production with the given id.
    pub fn production(&self, id: ProdId) -> &Production {
        &self.productions[id.index()]
    }

    /// The alternatives (production ids) for nonterminal `x`, in grammar
    /// order. ALL(*) prediction launches one subparser per element.
    pub fn alternatives(&self, x: NonTerminal) -> &[ProdId] {
        &self.by_lhs[x.index()]
    }

    /// The sentential form a parse-stack frame naming `prod` processes:
    /// that production's right-hand side, or the one-symbol start form
    /// `[S]` for the bottom frame (`None`). Stack frames are `(prod, dot)`
    /// pairs that resolve their symbols here, so they stay `Copy` and
    /// never touch a shared refcount.
    pub fn frame_rhs(&self, prod: Option<ProdId>) -> &[Symbol] {
        match prod {
            Some(p) => &self.productions[p.index()].rhs,
            None => &self.start_form,
        }
    }

    /// The nonterminal a parse-stack frame naming `prod` reduces when it
    /// returns: the production's left-hand side, `None` for the bottom
    /// frame.
    pub fn frame_lhs(&self, prod: Option<ProdId>) -> Option<NonTerminal> {
        prod.map(|p| self.productions[p.index()].lhs)
    }

    /// Number of productions (`|P|` in Fig. 8).
    pub fn num_productions(&self) -> usize {
        self.productions.len()
    }

    /// Number of nonterminals (`|N|` in Fig. 8).
    pub fn num_nonterminals(&self) -> usize {
        self.symbols.num_nonterminals()
    }

    /// Number of terminals (`|T|` in Fig. 8).
    pub fn num_terminals(&self) -> usize {
        self.symbols.num_terminals()
    }

    /// The maximum right-hand-side length, used as `maxRhsLen(G)` in the
    /// `stackScore` termination measure (paper §4.3).
    pub fn max_rhs_len(&self) -> usize {
        self.max_rhs_len
    }

    /// Iterates over `(ProdId, &Production)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProdId, &Production)> {
        self.productions
            .iter()
            .enumerate()
            .map(|(i, p)| (ProdId(i as u32), p))
    }

    /// Renders a production as `X -> a B c` using the grammar's symbol names.
    pub fn render_production(&self, id: ProdId) -> String {
        let p = self.production(id);
        let mut out = String::from(self.symbols.nonterminal_name(p.lhs()));
        out.push_str(" ->");
        if p.rhs().is_empty() {
            out.push_str(" ε");
        }
        for &s in p.rhs() {
            out.push(' ');
            out.push_str(self.symbols.symbol_name(s));
        }
        out
    }
}

/// Incrementally assembles a [`Grammar`] from named rules.
///
/// Rule references use a naming convention borrowed from ANTLR: a symbol
/// name starting with an uppercase letter (or any non-lowercase character)
/// denotes a terminal; a name starting with a lowercase letter denotes a
/// nonterminal — unless it appears as some rule's left-hand side, in which
/// case it is always a nonterminal. For full control, use
/// [`GrammarBuilder::rule_syms`] with explicit [`Symbol`]s.
#[derive(Debug, Default)]
pub struct GrammarBuilder {
    symbols: SymbolTable,
    /// (lhs, rhs names) collected until `build`, when name resolution runs.
    named_rules: Vec<(String, Vec<String>)>,
    /// Rules added with explicit symbols.
    sym_rules: Vec<(NonTerminal, Vec<Symbol>)>,
    start: Option<String>,
    start_sym: Option<NonTerminal>,
}

impl GrammarBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule `lhs -> rhs`, with right-hand-side symbols given by
    /// name. Name resolution (terminal vs. nonterminal) happens at
    /// [`build`](GrammarBuilder::build) time: any name that appears as a
    /// left-hand side is a nonterminal; every other name is a terminal.
    pub fn rule(&mut self, lhs: &str, rhs: &[&str]) -> &mut Self {
        self.named_rules.push((
            lhs.to_owned(),
            rhs.iter().map(|s| (*s).to_owned()).collect(),
        ));
        self
    }

    /// Adds a rule with pre-interned symbols from
    /// [`symbols_mut`](GrammarBuilder::symbols_mut).
    pub fn rule_syms(&mut self, lhs: NonTerminal, rhs: Vec<Symbol>) -> &mut Self {
        self.sym_rules.push((lhs, rhs));
        self
    }

    /// Declares the start symbol by name.
    pub fn start(&mut self, name: &str) -> &mut Self {
        self.start = Some(name.to_owned());
        self
    }

    /// Declares the start symbol with a pre-interned nonterminal.
    pub fn start_sym(&mut self, x: NonTerminal) -> &mut Self {
        self.start_sym = Some(x);
        self
    }

    /// Mutable access to the symbol table, for interning symbols used with
    /// [`rule_syms`](GrammarBuilder::rule_syms).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Interns a terminal by name (convenience passthrough).
    pub fn terminal(&mut self, name: &str) -> Terminal {
        self.symbols.terminal(name)
    }

    /// Interns a nonterminal by name (convenience passthrough).
    pub fn nonterminal(&mut self, name: &str) -> NonTerminal {
        self.symbols.nonterminal(name)
    }

    /// Resolves names, validates the grammar, and produces it.
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError`] if the grammar is empty, the start symbol is
    /// undefined, or some right-hand side mentions a nonterminal with no
    /// productions.
    pub fn build(&mut self) -> Result<Grammar, GrammarError> {
        if self.named_rules.is_empty() && self.sym_rules.is_empty() {
            return Err(GrammarError::Empty);
        }

        // Pass 1: every named LHS becomes a nonterminal.
        for (lhs, _) in &self.named_rules {
            self.symbols.nonterminal(lhs);
        }
        // The named start symbol is a nonterminal even if it has no rules
        // (that is then reported as UndefinedStart).
        if let Some(start) = self.start.clone() {
            self.symbols.nonterminal(&start);
        }

        // Pass 2: resolve RHS names. A name that is a known nonterminal
        // resolves to it; otherwise it is interned as a terminal.
        let mut productions: Vec<Production> = Vec::new();
        let named = std::mem::take(&mut self.named_rules);
        for (lhs, rhs_names) in &named {
            let lhs = self.symbols.nonterminal(lhs);
            let rhs: Vec<Symbol> = rhs_names
                .iter()
                .map(|name| match self.symbols.lookup_nonterminal(name) {
                    Some(x) => Symbol::Nt(x),
                    None => Symbol::T(self.symbols.terminal(name)),
                })
                .collect();
            productions.push(Production {
                lhs,
                rhs: rhs.into(),
            });
        }
        for (lhs, rhs) in std::mem::take(&mut self.sym_rules) {
            productions.push(Production {
                lhs,
                rhs: rhs.into(),
            });
        }

        let start = match (&self.start, self.start_sym) {
            (Some(name), _) => self.symbols.nonterminal(name),
            (None, Some(x)) => x,
            // Default: the LHS of the first production.
            (None, None) => productions[0].lhs(),
        };

        let num_nts = self.symbols.num_nonterminals();
        let mut by_lhs: Vec<Vec<ProdId>> = vec![Vec::new(); num_nts];
        let mut max_rhs_len = 0usize;
        for (i, p) in productions.iter().enumerate() {
            by_lhs[p.lhs().index()].push(ProdId(i as u32));
            max_rhs_len = max_rhs_len.max(p.rhs().len());
        }

        if by_lhs[start.index()].is_empty() {
            return Err(GrammarError::UndefinedStart(start));
        }
        // Every nonterminal used on an RHS must have productions, otherwise
        // the parser could push a symbol it can never expand.
        for p in &productions {
            for &s in p.rhs() {
                if let Symbol::Nt(x) = s {
                    if by_lhs[x.index()].is_empty() {
                        return Err(GrammarError::UndefinedNonterminal(x));
                    }
                }
            }
        }

        Ok(Grammar {
            symbols: std::mem::take(&mut self.symbols),
            start,
            start_form: [Symbol::Nt(start)],
            productions,
            by_lhs,
            max_rhs_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_grammar() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    #[test]
    fn builds_fig2_grammar() {
        let g = fig2_grammar();
        assert_eq!(g.num_productions(), 4);
        assert_eq!(g.num_nonterminals(), 2);
        assert_eq!(g.num_terminals(), 4);
        assert_eq!(g.max_rhs_len(), 2);
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        assert_eq!(g.start(), s);
        assert_eq!(g.alternatives(s).len(), 2);
    }

    #[test]
    fn lhs_names_resolve_as_nonterminals_in_rhs() {
        let g = fig2_grammar();
        let a = g.symbols().lookup_nonterminal("A").unwrap();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let first = g.production(g.alternatives(s)[0]);
        assert_eq!(first.rhs()[0], Symbol::Nt(a));
        assert!(first.rhs()[1].is_terminal());
    }

    #[test]
    fn empty_grammar_rejected() {
        let mut gb = GrammarBuilder::new();
        assert_eq!(gb.build().unwrap_err(), GrammarError::Empty);
    }

    #[test]
    fn undefined_start_rejected() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a"]);
        let err = gb.start("T").build().unwrap_err();
        assert!(matches!(err, GrammarError::UndefinedStart(_)));
    }

    #[test]
    fn undefined_rhs_nonterminal_rejected() {
        let mut gb = GrammarBuilder::new();
        // "b" appears as an LHS nowhere, but we force it to be a
        // nonterminal via rule_syms.
        let b = gb.nonterminal("B");
        let s = gb.nonterminal("S");
        gb.rule_syms(s, vec![Symbol::Nt(b)]);
        gb.start_sym(s);
        let err = gb.build().unwrap_err();
        assert!(matches!(err, GrammarError::UndefinedNonterminal(_)));
    }

    #[test]
    fn default_start_is_first_lhs() {
        let mut gb = GrammarBuilder::new();
        gb.rule("expr", &["Int"]);
        gb.rule("other", &["expr"]);
        let g = gb.build().unwrap();
        assert_eq!(g.start(), g.symbols().lookup_nonterminal("expr").unwrap());
    }

    #[test]
    fn epsilon_rhs_allowed() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &[]);
        let g = gb.start("S").build().unwrap();
        assert_eq!(g.production(ProdId(0)).rhs().len(), 0);
        assert_eq!(g.max_rhs_len(), 0);
        assert!(g.render_production(ProdId(0)).contains('ε'));
    }

    #[test]
    fn render_production_uses_names() {
        let g = fig2_grammar();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let rendered = g.render_production(g.alternatives(s)[0]);
        assert_eq!(rendered, "S -> A c");
    }

    #[test]
    fn iter_visits_all_productions() {
        let g = fig2_grammar();
        assert_eq!(g.iter().count(), 4);
        for (id, p) in g.iter() {
            assert_eq!(g.production(id).lhs(), p.lhs());
        }
    }

    #[test]
    fn frames_resolve_through_the_grammar() {
        let g = fig2_grammar();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let a = g.symbols().lookup_nonterminal("A").unwrap();
        assert_eq!(g.frame_rhs(None), &[Symbol::Nt(s)]);
        assert_eq!(g.frame_lhs(None), None);
        let id = g.alternatives(a)[1];
        assert_eq!(g.frame_rhs(Some(id)), g.production(id).rhs());
        assert_eq!(g.frame_lhs(Some(id)), Some(a));
    }
}
