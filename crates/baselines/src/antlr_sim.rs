//! `AntlrSim`: an imperative, optimized ALL(*) interpreter.
//!
//! The paper's Fig. 10/11 measure CoStar against ANTLR 4's generated Java
//! parsers. We cannot run the JVM here, so this module is the substitute
//! comparator: the same ALL(*) algorithm, implemented the way an
//! unverified production parser would be —
//!
//! * mutable array-based stacks instead of persistent structures;
//! * a precomputed one-token *quick decision* row per nonterminal
//!   (standing in for ANTLR's compiled DFA decisions) used whenever the
//!   decision is one-token unambiguous;
//! * an SLL DFA cache that persists across inputs *by default* — the
//!   ANTLR policy whose warm-up effect the paper's Fig. 11 studies —
//!   with an opt-out per-input mode for the cold-cache arm of that
//!   experiment;
//! * no termination measure, no invariant checking, no purity.
//!
//! Its outcomes must agree with CoStar's on every input (checked by the
//! integration suites): same acceptance, same ambiguity labels.

use costar_grammar::analysis::{ll1_selects, GrammarAnalysis};
use costar_grammar::{Grammar, NonTerminal, NtSet, ProdId, Symbol, Terminal, Token, Tree};
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of an `AntlrSim` parse, mirroring CoStar's result type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOutcome {
    /// Accepted with a unique parse tree.
    Unique(Tree),
    /// Accepted; the input is ambiguous.
    Ambig(Tree),
    /// Not in the language.
    Reject,
    /// Left recursion detected (the only error an ALL(*) interpreter can
    /// hit on a well-formed grammar).
    LeftRecursive(NonTerminal),
}

impl SimOutcome {
    /// The parse tree, if accepted.
    pub fn tree(&self) -> Option<&Tree> {
        match self {
            SimOutcome::Unique(t) | SimOutcome::Ambig(t) => Some(t),
            _ => None,
        }
    }

    /// `true` for accepted outcomes.
    pub fn is_accept(&self) -> bool {
        self.tree().is_some()
    }
}

/// One-token decision row for a nonterminal whose alternatives have
/// pairwise-disjoint LL(1) select sets.
#[derive(Debug, Clone, Default)]
struct QuickRow {
    by_term: HashMap<Terminal, ProdId>,
    at_eof: Option<ProdId>,
}

/// A simulated-stack frame: `(production, dot)`, the production `None`
/// for the machine's bottom frame `[S]` — the same grammar location as a
/// machine [`Frame`], resolved through the grammar.
type SimFrame = (Option<ProdId>, u32);

/// A subparser configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum SpState {
    AcceptEof,
    Stack(Vec<SimFrame>),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Config {
    alt: u32,
    state: SpState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Ll,
    Sll,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Pred {
    Unique(ProdId),
    Ambig(ProdId),
    Reject,
    LeftRec(NonTerminal),
}

/// An interned DFA state: configs plus precomputed resolutions, so the
/// hot loop never re-derives them (ANTLR's accept-state marking).
#[derive(Debug)]
struct DfaState {
    configs: Arc<[Config]>,
    /// `Some` when the state already decides the prediction.
    resolution: Option<Pred>,
    /// What the state decides if input ends here.
    at_eof: Pred,
}

/// The persistent SLL DFA (ANTLR's cross-input cache).
#[derive(Debug, Default)]
struct SllDfa {
    states: Vec<DfaState>,
    intern: HashMap<Arc<[Config]>, u32>,
    starts: HashMap<NonTerminal, u32>,
    trans: HashMap<(u32, Terminal), u32>,
}

impl SllDfa {
    fn intern(&mut self, mut configs: Vec<Config>) -> u32 {
        configs.sort_unstable();
        configs.dedup();
        let key: Arc<[Config]> = configs.into();
        if let Some(&id) = self.intern.get(&key) {
            return id;
        }
        let id = self.states.len() as u32;
        self.states.push(DfaState {
            resolution: resolution(&key),
            at_eof: eof_resolution(&key),
            configs: Arc::clone(&key),
        });
        self.intern.insert(key, id);
        id
    }
}

/// Statistics for the Fig. 11 cache-warm-up experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCacheStats {
    /// Interned DFA states.
    pub states: usize,
    /// Recorded transitions.
    pub transitions: usize,
}

/// A machine-stack frame of the imperative parser: the production it
/// processes (`None` for the bottom frame `[S]`), a dot, and the trees of
/// the processed symbols. The symbols are read through the grammar, as
/// CoStar's own frames read theirs.
#[derive(Debug)]
struct Frame {
    prod: Option<ProdId>,
    dot: usize,
    trees: Vec<Tree>,
}

/// The imperative ALL(*) parser.
///
/// # Examples
///
/// ```
/// use costar_baselines::{AntlrSim, SimOutcome};
/// use costar_grammar::{GrammarBuilder, Token};
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["A", "c"]);
/// gb.rule("S", &["A", "d"]);
/// gb.rule("A", &["a", "A"]);
/// gb.rule("A", &["b"]);
/// let g = gb.start("S").build()?;
/// let mut sim = AntlrSim::new(g);
/// let t = |n: &str| Token::new(sim.grammar().symbols().lookup_terminal(n).unwrap(), n);
/// assert!(matches!(sim.parse(&[t("a"), t("b"), t("d")]), SimOutcome::Unique(_)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AntlrSim {
    grammar: Grammar,
    analysis: GrammarAnalysis,
    quick: Vec<Option<QuickRow>>,
    dfa: SllDfa,
    persistent_cache: bool,
}

impl AntlrSim {
    /// Builds the simulator with ANTLR's default policy: the prediction
    /// cache persists across inputs.
    pub fn new(grammar: Grammar) -> Self {
        let analysis = GrammarAnalysis::compute(&grammar);
        let quick = build_quick_rows(&grammar, &analysis);
        AntlrSim {
            grammar,
            analysis,
            quick,
            dfa: SllDfa::default(),
            persistent_cache: true,
        }
    }

    /// Builds a simulator that clears its cache before every parse — the
    /// cold-cache arm of the paper's Fig. 11 experiment.
    pub fn with_cold_cache(grammar: Grammar) -> Self {
        let mut sim = AntlrSim::new(grammar);
        sim.persistent_cache = false;
        sim
    }

    /// The grammar being interpreted.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Cache size counters.
    pub fn cache_stats(&self) -> SimCacheStats {
        SimCacheStats {
            states: self.dfa.states.len(),
            transitions: self.dfa.trans.len(),
        }
    }

    /// Pre-warms the prediction cache by parsing the given inputs (used
    /// by the Fig. 11 "after cache warm-up" arm).
    pub fn warm_up(&mut self, words: &[Vec<Token>]) {
        let persistent = self.persistent_cache;
        self.persistent_cache = true;
        for w in words {
            let _ = self.parse(w);
        }
        self.persistent_cache = persistent;
    }

    /// Parses `word` from the grammar's start symbol.
    pub fn parse(&mut self, word: &[Token]) -> SimOutcome {
        if !self.persistent_cache {
            self.dfa = SllDfa::default();
        }
        let mut stack = vec![Frame {
            prod: None,
            dot: 0,
            trees: Vec::new(),
        }];
        let mut cursor = 0usize;
        let mut visited = NtSet::with_capacity(self.grammar.num_nonterminals());
        let mut unique = true;

        loop {
            let top = stack.last_mut().expect("stack never empties");
            let Some(head) = self.grammar.frame_rhs(top.prod).get(top.dot).copied() else {
                let done = stack.pop().expect("nonempty");
                match self.grammar.frame_lhs(done.prod) {
                    None => {
                        return if cursor == word.len() {
                            let tree = done.trees.into_iter().next().expect("one tree");
                            if unique {
                                SimOutcome::Unique(tree)
                            } else {
                                SimOutcome::Ambig(tree)
                            }
                        } else {
                            SimOutcome::Reject
                        };
                    }
                    Some(x) => {
                        stack
                            .last_mut()
                            .expect("caller present")
                            .trees
                            .push(Tree::Node(x, done.trees));
                        visited.remove(x);
                        continue;
                    }
                }
            };
            match head {
                Symbol::T(a) => match word.get(cursor) {
                    Some(t) if t.terminal() == a => {
                        top.trees.push(Tree::Leaf(t.clone()));
                        top.dot += 1;
                        cursor += 1;
                        visited.clear();
                    }
                    _ => return SimOutcome::Reject,
                },
                Symbol::Nt(x) => {
                    if visited.contains(x) {
                        return SimOutcome::LeftRecursive(x);
                    }
                    let pred = self.predict(x, &stack, &word[cursor..]);
                    let (alt, ambig) = match pred {
                        Pred::Unique(alt) => (alt, false),
                        Pred::Ambig(alt) => (alt, true),
                        Pred::Reject => return SimOutcome::Reject,
                        Pred::LeftRec(y) => return SimOutcome::LeftRecursive(y),
                    };
                    if ambig {
                        unique = false;
                    }
                    let top = stack.last_mut().expect("nonempty");
                    top.dot += 1;
                    // Reserve one tree slot per rhs symbol, as CoStar's
                    // machine does, so the two differ only in prediction.
                    stack.push(Frame {
                        prod: Some(alt),
                        dot: 0,
                        trees: Vec::with_capacity(self.grammar.production(alt).rhs().len()),
                    });
                    visited.insert(x);
                }
            }
        }
    }

    /// `adaptivePredict`: quick one-token row, then cached SLL, then LL.
    /// The machine stack is only snapshotted if the LL failover runs —
    /// the common quick-row and SLL paths never touch it.
    fn predict(&mut self, x: NonTerminal, stack: &[Frame], rest: &[Token]) -> Pred {
        let alts = self.grammar.alternatives(x);
        match alts {
            [] => return Pred::Reject,
            [only] => return Pred::Unique(*only),
            _ => {}
        }
        if let Some(row) = &self.quick[x.index()] {
            return match rest.first() {
                Some(t) => match row.by_term.get(&t.terminal()) {
                    Some(&alt) => Pred::Unique(alt),
                    None => Pred::Reject,
                },
                None => match row.at_eof {
                    Some(alt) => Pred::Unique(alt),
                    None => Pred::Reject,
                },
            };
        }
        match self.sll_predict(x, rest) {
            Pred::Ambig(_) => {
                // SLL conflict: snapshot the machine stack (top dot
                // advanced past the decision nonterminal, matching push
                // semantics) and re-run with full context.
                let machine_stack: Vec<SimFrame> = stack
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        let dot = if i + 1 == stack.len() {
                            f.dot + 1
                        } else {
                            f.dot
                        } as u32;
                        (f.prod, dot)
                    })
                    .collect();
                self.ll_predict(x, &machine_stack, rest)
            }
            committed => committed,
        }
    }

    fn sll_predict(&mut self, x: NonTerminal, rest: &[Token]) -> Pred {
        let mut sid = match self.dfa.starts.get(&x) {
            Some(&id) => id,
            None => {
                let init = self.initial_configs(x, &[]);
                let configs = match self.closure(Mode::Sll, init) {
                    Ok(c) => c,
                    Err(y) => return Pred::LeftRec(y),
                };
                let id = self.dfa.intern(configs);
                self.dfa.starts.insert(x, id);
                id
            }
        };
        let mut input = rest.iter();
        loop {
            let state = &self.dfa.states[sid as usize];
            if let Some(p) = &state.resolution {
                return p.clone();
            }
            let Some(t) = input.next() else {
                return state.at_eof.clone();
            };
            let term = t.terminal();
            sid = match self.dfa.trans.get(&(sid, term)) {
                Some(&next) => next,
                None => {
                    let configs = Arc::clone(&state.configs);
                    let moved = self.move_configs(&configs, term);
                    let next_configs = match self.closure(Mode::Sll, moved) {
                        Ok(c) => c,
                        Err(y) => return Pred::LeftRec(y),
                    };
                    let next = self.dfa.intern(next_configs);
                    self.dfa.trans.insert((sid, term), next);
                    next
                }
            };
        }
    }

    fn ll_predict(&mut self, x: NonTerminal, machine_stack: &[SimFrame], rest: &[Token]) -> Pred {
        let init = self.initial_configs(x, machine_stack);
        let mut configs = match self.closure(Mode::Ll, init) {
            Ok(c) => c,
            Err(y) => return Pred::LeftRec(y),
        };
        let mut input = rest.iter();
        loop {
            if let Some(p) = resolution(&configs) {
                return p;
            }
            let Some(t) = input.next() else {
                return eof_resolution(&configs);
            };
            let moved = self.move_configs(&configs, t.terminal());
            configs = match self.closure(Mode::Ll, moved) {
                Ok(c) => c,
                Err(y) => return Pred::LeftRec(y),
            };
        }
    }

    fn initial_configs(&self, x: NonTerminal, base: &[SimFrame]) -> Vec<Config> {
        self.grammar
            .alternatives(x)
            .iter()
            .map(|&q| {
                let mut stack = base.to_vec();
                stack.push((Some(q), 0));
                Config {
                    alt: q.index() as u32,
                    state: SpState::Stack(stack),
                }
            })
            .collect()
    }

    fn move_configs(&self, configs: &[Config], t: Terminal) -> Vec<Config> {
        let mut out = Vec::new();
        for c in configs {
            if let SpState::Stack(stack) = &c.state {
                let &(prod, dot) = stack.last().expect("stable configs nonempty");
                if self.grammar.frame_rhs(prod).get(dot as usize) == Some(&Symbol::T(t)) {
                    let mut next = stack.clone();
                    next.last_mut().expect("nonempty").1 += 1;
                    out.push(Config {
                        alt: c.alt,
                        state: SpState::Stack(next),
                    });
                }
            }
        }
        out
    }

    fn closure(&self, mode: Mode, configs: Vec<Config>) -> Result<Vec<Config>, NonTerminal> {
        use std::collections::HashSet;
        let mut out = Vec::new();
        let mut emitted: HashSet<Config> = HashSet::new();
        let mut explored: HashSet<Config> = HashSet::new();
        let mut work: Vec<(u32, Vec<SimFrame>, NtSet)> = Vec::new();
        for c in configs {
            match c.state {
                SpState::AcceptEof => {
                    if emitted.insert(c.clone()) {
                        out.push(c);
                    }
                }
                SpState::Stack(stack) => work.push((
                    c.alt,
                    stack,
                    NtSet::with_capacity(self.grammar.num_nonterminals()),
                )),
            }
        }
        while let Some((alt, mut stack, mut visited)) = work.pop() {
            let key = Config {
                alt,
                state: SpState::Stack(stack.clone()),
            };
            if !explored.insert(key) {
                continue;
            }
            let &(prod, dot) = stack.last().expect("worklist stacks nonempty");
            match self.grammar.frame_rhs(prod).get(dot as usize) {
                Some(Symbol::T(_)) => {
                    let c = Config {
                        alt,
                        state: SpState::Stack(stack),
                    };
                    if emitted.insert(c.clone()) {
                        out.push(c);
                    }
                }
                Some(Symbol::Nt(y)) => {
                    let y = *y;
                    if visited.contains(y) {
                        return Err(y);
                    }
                    visited.insert(y);
                    // Advance the caller's dot past y (push semantics).
                    stack.last_mut().expect("nonempty").1 += 1;
                    for &q in self.grammar.alternatives(y) {
                        let mut pushed = stack.clone();
                        pushed.push((Some(q), 0));
                        work.push((alt, pushed, visited.clone()));
                    }
                }
                None => {
                    // Exhausted frame: simulated return.
                    stack.pop();
                    let lhs = self.grammar.frame_lhs(prod);
                    if let Some(x) = lhs {
                        visited.remove(x);
                    }
                    if !stack.is_empty() {
                        work.push((alt, stack, visited));
                    } else {
                        match mode {
                            Mode::Ll => {
                                let c = Config {
                                    alt,
                                    state: SpState::AcceptEof,
                                };
                                if emitted.insert(c.clone()) {
                                    out.push(c);
                                }
                            }
                            Mode::Sll => {
                                let x = lhs.expect("SLL stacks hold production frames");
                                let dests = self.analysis.stable_frames.dests(x);
                                for pos in &dests.positions {
                                    let c = Config {
                                        alt,
                                        state: SpState::Stack(vec![(
                                            Some(pos.production),
                                            pos.dot,
                                        )]),
                                    };
                                    if emitted.insert(c.clone()) {
                                        out.push(c);
                                    }
                                }
                                if dests.can_end {
                                    let c = Config {
                                        alt,
                                        state: SpState::AcceptEof,
                                    };
                                    if emitted.insert(c.clone()) {
                                        out.push(c);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

fn distinct_alts(configs: &[Config]) -> Vec<u32> {
    let mut alts: Vec<u32> = configs.iter().map(|c| c.alt).collect();
    alts.sort_unstable();
    alts.dedup();
    alts
}

fn resolution(configs: &[Config]) -> Option<Pred> {
    match distinct_alts(configs).as_slice() {
        [] => Some(Pred::Reject),
        [only] => Some(Pred::Unique(ProdId::from_index(*only as usize))),
        _ => None,
    }
}

fn eof_resolution(configs: &[Config]) -> Pred {
    let eof: Vec<u32> = {
        let mut v: Vec<u32> = configs
            .iter()
            .filter(|c| matches!(c.state, SpState::AcceptEof))
            .map(|c| c.alt)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    match eof.as_slice() {
        [] => Pred::Reject,
        [only] => Pred::Unique(ProdId::from_index(*only as usize)),
        [first, ..] => Pred::Ambig(ProdId::from_index(*first as usize)),
    }
}

/// Builds the one-token quick-decision rows: a row exists for `x` iff its
/// alternatives' LL(1) select sets (FIRST plus FOLLOW-if-nullable) are
/// pairwise disjoint.
fn build_quick_rows(g: &Grammar, an: &GrammarAnalysis) -> Vec<Option<QuickRow>> {
    let mut rows: Vec<Option<QuickRow>> = Vec::with_capacity(g.num_nonterminals());
    for x in g.symbols().nonterminals() {
        let alts = g.alternatives(x);
        if alts.len() < 2 {
            rows.push(None);
            continue;
        }
        let mut row = QuickRow::default();
        let mut ok = true;
        'build: for &pid in alts {
            let rhs = g.production(pid).rhs();
            for t in g.symbols().terminals() {
                if ll1_selects(rhs, t, &an.nullable, &an.first, an.follow.follow(x))
                    && row.by_term.insert(t, pid).is_some()
                {
                    ok = false;
                    break 'build;
                }
            }
            if an.nullable.form_nullable(rhs)
                && an.follow.eof_follows(x)
                && row.at_eof.replace(pid).is_some()
            {
                ok = false;
                break 'build;
            }
        }
        rows.push(if ok { Some(row) } else { None });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use costar_grammar::{check_tree, tokens, GrammarBuilder};

    fn fig2() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    #[test]
    fn parses_fig2() {
        let g = fig2();
        let mut sim = AntlrSim::new(g);
        let mut tab = sim.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let SimOutcome::Unique(tree) = sim.parse(&w) else {
            panic!("expected unique accept")
        };
        assert!(check_tree(sim.grammar(), sim.grammar().start(), &w, &tree).is_ok());
        let bad = tokens(&mut tab, &[("a", "a"), ("c", "c")]);
        assert_eq!(sim.parse(&bad), SimOutcome::Reject);
    }

    #[test]
    fn quick_rows_cover_ll1_decisions() {
        // A is LL(1)-decidable (a vs b); S is not (needs full lookahead).
        let g = fig2();
        let an = GrammarAnalysis::compute(&g);
        let rows = build_quick_rows(&g, &an);
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let a = g.symbols().lookup_nonterminal("A").unwrap();
        assert!(rows[s.index()].is_none());
        assert!(rows[a.index()].is_some());
    }

    #[test]
    fn ambiguity_detected() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["X"]);
        gb.rule("S", &["Y"]);
        gb.rule("X", &["a"]);
        gb.rule("Y", &["a"]);
        let g = gb.start("S").build().unwrap();
        let mut sim = AntlrSim::new(g);
        let mut tab = sim.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a")]);
        assert!(matches!(sim.parse(&w), SimOutcome::Ambig(_)));
    }

    #[test]
    fn left_recursion_detected() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["E"]);
        gb.rule("E", &["E", "x"]);
        let g = gb.start("E").build().unwrap();
        let mut sim = AntlrSim::new(g);
        let mut tab = sim.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("x", "x")]);
        assert!(matches!(sim.parse(&w), SimOutcome::LeftRecursive(_)));
    }

    #[test]
    fn persistent_cache_grows_once() {
        let g = fig2();
        let mut sim = AntlrSim::new(g);
        let mut tab = sim.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("a", "a"), ("b", "b"), ("c", "c")]);
        sim.parse(&w);
        let first = sim.cache_stats();
        sim.parse(&w);
        assert_eq!(sim.cache_stats(), first, "warm cache stays fixed");
        let mut cold = AntlrSim::with_cold_cache(fig2());
        let mut tab = cold.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        cold.parse(&w);
        assert!(cold.cache_stats().states > 0);
        cold.parse(&[]);
        // Cold mode rebuilt from scratch; the empty parse needs fewer
        // states than the previous one had.
        assert!(cold.cache_stats().states <= 2);
    }

    #[test]
    fn sll_conflict_failover_matches_costar_semantics() {
        // The same grammar as the costar-core failover test.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["p", "C1"]);
        gb.rule("S", &["q", "C2"]);
        gb.rule("C1", &["X", "b"]);
        gb.rule("C2", &["X", "a", "b"]);
        gb.rule("X", &["a", "a"]);
        gb.rule("X", &["a"]);
        let g = gb.start("S").build().unwrap();
        let mut sim = AntlrSim::new(g);
        let mut tab = sim.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("q", "q"), ("a", "a"), ("a", "a"), ("b", "b")]);
        let SimOutcome::Unique(tree) = sim.parse(&w) else {
            panic!("expected unique accept")
        };
        assert!(check_tree(sim.grammar(), sim.grammar().start(), &w, &tree).is_ok());
    }

    #[test]
    fn warm_up_prepopulates_cache() {
        let g = fig2();
        let mut sim = AntlrSim::new(g);
        let mut tab = sim.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        sim.warm_up(std::slice::from_ref(&w));
        let warmed = sim.cache_stats();
        assert!(warmed.states > 0);
        sim.parse(&w);
        assert_eq!(sim.cache_stats(), warmed);
    }
}
