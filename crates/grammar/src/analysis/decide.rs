//! Static decision-point analysis: classify every prediction decision at
//! grammar-compile time.
//!
//! CoStar resolves each multi-alternative decision at parse time by SLL
//! subparser simulation with LL failover (paper §4) — even when the
//! grammar makes the decision trivially resolvable with one token of
//! lookahead. This module precomputes, per decision nonterminal, how much
//! of that machinery is actually needed:
//!
//! * [`DecisionClass::Ll1`] — the alternatives' LL(1) select sets are
//!   pairwise disjoint, so a single lookahead terminal (or end of input)
//!   picks the production. The parse-time engine dispatches these through
//!   the precompiled [`LookaheadMap`] and skips simulation and cache
//!   traffic entirely.
//! * [`DecisionClass::SllSafe`] — not LL(1), but exploring the static SLL
//!   closure graph (see `sll_graph`) proves SLL simulation can never
//!   report a conflict, so the LL failover path is provably dead weight.
//! * [`DecisionClass::NeedsFullAllStar`] — neither property could be
//!   established (including when exploration hit its caps); the complete
//!   adaptive machinery stays in place.
//!
//! For every conflicting pair of alternatives the table also records a
//! shortest distinguishing-prefix witness (under the SLL abstraction)
//! and, when a bounded search finds one, a common derivable word — exact
//! proof that the pair is ambiguous, surfaced as lint L007.
//!
//! ## Fast-path soundness
//!
//! Committing to the [`LookaheadMap`] entry at an `Ll1` decision agrees
//! with full prediction on outcome and tree: any alternative that
//! survives full prediction on lookahead `t` is selected by `t` (its
//! closure either starts with `t` or derives ε into a context whose
//! FOLLOW contains `t`), and select sets are disjoint, so full prediction
//! can only return the map's entry or reject — and an ambiguity verdict
//! would require two alternatives deriving a common word, which forces a
//! select-set overlap. A map miss means no alternative is viable, which
//! full prediction also rejects. This is checked dynamically by the
//! verify crate's `H-DECIDE-SOUND` harness.

use crate::analysis::first_follow::{ll1_selects, FirstSets, FollowSets};
use crate::analysis::nullable::NullableSet;
use crate::analysis::sll_graph::{self, GraphOutcome};
use crate::analysis::stable_frames::StableFrames;
use crate::grammar::{Grammar, ProdId};
use crate::json::{self, JsonWriter};
use crate::symbol::{NonTerminal, Symbol, Terminal};
use std::collections::{BTreeSet, VecDeque};

/// How much parse-time prediction machinery a decision point needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionClass {
    /// One lookahead terminal selects the production; dispatch through
    /// the precompiled [`LookaheadMap`].
    Ll1,
    /// SLL simulation provably cannot conflict; LL failover is dead
    /// weight for this decision.
    SllSafe,
    /// Keep the complete adaptive (SLL + LL failover) machinery.
    NeedsFullAllStar,
}

impl DecisionClass {
    /// Stable lower-case name, used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionClass::Ll1 => "ll1",
            DecisionClass::SllSafe => "sll-safe",
            DecisionClass::NeedsFullAllStar => "needs-full-allstar",
        }
    }
}

/// Precompiled lookahead dispatch for an [`DecisionClass::Ll1`] decision:
/// maps the next terminal (or end of input) directly to the unique
/// alternative it selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookaheadMap {
    /// Indexed by terminal index; `None` means no alternative is viable
    /// on that lookahead.
    by_terminal: Vec<Option<ProdId>>,
    /// The unique nullable alternative, selected at end of input.
    eof: Option<ProdId>,
}

impl LookaheadMap {
    /// The alternative selected by lookahead terminal `t`, if any.
    pub fn for_terminal(&self, t: Terminal) -> Option<ProdId> {
        self.by_terminal.get(t.index()).copied().flatten()
    }

    /// The alternative selected at end of input, if any.
    pub fn for_eof(&self) -> Option<ProdId> {
        self.eof
    }

    /// Number of populated entries (terminal entries plus the EOF entry).
    pub fn entries(&self) -> usize {
        self.by_terminal.iter().flatten().count() + usize::from(self.eof.is_some())
    }

    /// The raw per-terminal table (grammar-cache serialization).
    pub(crate) fn terminal_entries(&self) -> &[Option<ProdId>] {
        &self.by_terminal
    }

    /// Rebuilds from raw parts (grammar-cache deserialization).
    pub(crate) fn from_parts(by_terminal: Vec<Option<ProdId>>, eof: Option<ProdId>) -> Self {
        LookaheadMap { by_terminal, eof }
    }
}

/// A pair of alternatives whose LL(1) select sets overlap, with the
/// witnesses the static analysis could extract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictPair {
    /// First alternative of the pair (lower production id).
    pub a: ProdId,
    /// Second alternative of the pair.
    pub b: ProdId,
    /// A terminal selecting both alternatives, or `None` when they
    /// conflict on end-of-input alone (both nullable).
    pub lookahead: Option<Terminal>,
    /// Shortest terminal word (under the SLL abstraction, BFS order)
    /// after which at most one of the two alternatives survives; `None`
    /// when exploration hit its caps before resolving.
    pub distinguishing_prefix: Option<Vec<Terminal>>,
    /// A word derivable from both alternatives — exact proof the pair is
    /// ambiguous (lint L007). May be empty (two nullable alternatives
    /// both derive ε). `None` when the bounded search found none.
    pub ambiguous_word: Option<Vec<Terminal>>,
}

/// Everything the analysis established about one decision nonterminal
/// (a nonterminal with at least two alternatives).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionInfo {
    /// The decision nonterminal.
    pub nonterminal: NonTerminal,
    /// Its classification.
    pub class: DecisionClass,
    /// Number of alternatives.
    pub alternatives: usize,
    /// The precompiled dispatch map; `Some` exactly when `class` is
    /// [`DecisionClass::Ll1`].
    pub lookahead: Option<LookaheadMap>,
    /// All pairwise LL(1) conflicts, in (a, b) production-id order.
    pub conflicts: Vec<ConflictPair>,
    /// Subset states explored in the SLL closure graph (0 for `Ll1`
    /// decisions, which skip graph exploration).
    pub graph_states: usize,
}

/// Aggregate table statistics, reported by `costar analyze` and the
/// bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecisionStats {
    /// Number of decision points (multi-alternative nonterminals).
    pub decision_points: usize,
    /// Decisions classified [`DecisionClass::Ll1`].
    pub ll1: usize,
    /// Decisions classified [`DecisionClass::SllSafe`].
    pub sll_safe: usize,
    /// Decisions classified [`DecisionClass::NeedsFullAllStar`].
    pub needs_full: usize,
    /// Decisions with at least one proven-ambiguous pair (lint L007).
    pub ambiguous: usize,
    /// Total populated lookahead-map entries across all `Ll1` decisions.
    pub lookahead_entries: usize,
}

/// The serializable per-grammar decision table: one [`DecisionInfo`] per
/// multi-alternative nonterminal, indexed by nonterminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTable {
    by_nt: Vec<Option<DecisionInfo>>,
}

impl DecisionTable {
    /// Classifies every decision point of `g`. The inputs are the
    /// analyses the classification is built from; callers normally reach
    /// this through `GrammarAnalysis::compute`.
    pub fn compute(
        g: &Grammar,
        nullable: &NullableSet,
        first: &FirstSets,
        follow: &FollowSets,
        stable_frames: &StableFrames,
    ) -> Self {
        let by_nt = g
            .symbols()
            .nonterminals()
            .map(|x| classify(g, nullable, first, follow, stable_frames, x))
            .collect();
        DecisionTable { by_nt }
    }

    /// The decision info for `x`, or `None` when `x` has fewer than two
    /// alternatives (no decision to make).
    pub fn decision(&self, x: NonTerminal) -> Option<&DecisionInfo> {
        self.by_nt.get(x.index()).and_then(|d| d.as_ref())
    }

    /// The precompiled lookahead map for `x`: `Some` exactly when `x` is
    /// a decision point classified [`DecisionClass::Ll1`].
    pub fn ll1_map(&self, x: NonTerminal) -> Option<&LookaheadMap> {
        self.decision(x).and_then(|d| d.lookahead.as_ref())
    }

    /// All decision points, in nonterminal-index order.
    pub fn iter(&self) -> impl Iterator<Item = &DecisionInfo> {
        self.by_nt.iter().flatten()
    }

    /// The raw per-nonterminal rows (grammar-cache serialization).
    pub(crate) fn rows(&self) -> &[Option<DecisionInfo>] {
        &self.by_nt
    }

    /// Rebuilds from raw rows (grammar-cache deserialization).
    pub(crate) fn from_parts(by_nt: Vec<Option<DecisionInfo>>) -> Self {
        DecisionTable { by_nt }
    }

    /// Aggregate statistics over the table.
    pub fn stats(&self) -> DecisionStats {
        let mut s = DecisionStats::default();
        for d in self.iter() {
            s.decision_points += 1;
            match d.class {
                DecisionClass::Ll1 => s.ll1 += 1,
                DecisionClass::SllSafe => s.sll_safe += 1,
                DecisionClass::NeedsFullAllStar => s.needs_full += 1,
            }
            if d.conflicts.iter().any(|c| c.ambiguous_word.is_some()) {
                s.ambiguous += 1;
            }
            if let Some(map) = &d.lookahead {
                s.lookahead_entries += map.entries();
            }
        }
        s
    }

    /// Renders the table as a deterministic JSON object (the body of the
    /// `costar analyze --format=json` report).
    pub fn to_json(&self, g: &Grammar) -> String {
        let stats = self.stats();
        let names = g.symbols();
        let push_word = |w: &mut JsonWriter, word: Option<&[Terminal]>| {
            match word {
                None => w.value(None::<u8>),
                Some(ts) => w.values(ts.iter().map(|&t| names.terminal_name(t))),
            };
        };
        json::object(|w| {
            w.field("schema", "costar-analyze-v1");
            w.key("stats").object(|w| {
                w.field("decision_points", stats.decision_points)
                    .field("ll1", stats.ll1)
                    .field("sll_safe", stats.sll_safe)
                    .field("needs_full_allstar", stats.needs_full)
                    .field("ambiguous", stats.ambiguous)
                    .field("lookahead_entries", stats.lookahead_entries);
            });
            w.key("decisions").array(|w| {
                for d in self.iter() {
                    w.object(|w| {
                        w.field("nonterminal", names.nonterminal_name(d.nonterminal))
                            .field("class", d.class.as_str())
                            .field("alternatives", d.alternatives)
                            .field("graph_states", d.graph_states)
                            .field(
                                "lookahead_entries",
                                d.lookahead.as_ref().map_or(0, LookaheadMap::entries),
                            );
                        w.key("conflicts").array(|w| {
                            for c in &d.conflicts {
                                w.object(|w| {
                                    w.field("a", g.render_production(c.a).as_str())
                                        .field("b", g.render_production(c.b).as_str())
                                        .field(
                                            "lookahead",
                                            c.lookahead.map(|t| names.terminal_name(t)),
                                        );
                                    push_word(
                                        w.key("distinguishing_prefix"),
                                        c.distinguishing_prefix.as_deref(),
                                    );
                                    push_word(w.key("ambiguous_word"), c.ambiguous_word.as_deref());
                                });
                            }
                        });
                    });
                }
            });
        })
    }
}

/// A terminal selecting both `p` and `q` (or `Some(None)` when both are
/// nullable and conflict on end-of-input alone); `None` when the pair's
/// select sets are disjoint. Identical to the LL(1) condition behind lint
/// L006 — the linter now consumes this table, so the two stay one
/// definition.
fn select_conflict(
    g: &Grammar,
    nullable: &NullableSet,
    first: &FirstSets,
    follow: &FollowSets,
    p: ProdId,
    q: ProdId,
) -> Option<Option<Terminal>> {
    let lhs = g.production(p).lhs();
    let follow_lhs = follow.follow(lhs);
    let rhs_p = g.production(p).rhs();
    let rhs_q = g.production(q).rhs();
    for t in g.symbols().terminals() {
        if ll1_selects(rhs_p, t, nullable, first, follow_lhs)
            && ll1_selects(rhs_q, t, nullable, first, follow_lhs)
        {
            return Some(Some(t));
        }
    }
    if nullable.form_nullable(rhs_p) && nullable.form_nullable(rhs_q) {
        return Some(None);
    }
    None
}

/// Bounded search caps for the common-word (ambiguity) search.
const AMBIG_MAX_WORD: usize = 8;
const AMBIG_MAX_FORM: usize = 12;
const AMBIG_MAX_QUEUE: usize = 4_000;

/// Bounded BFS for a terminal word derivable from both `p`'s and `q`'s
/// right-hand sides. Finding one is exact proof the decision pair is
/// ambiguous (two distinct parse trees of the shared left-hand side);
/// exhausting the bounds proves nothing.
fn common_word(g: &Grammar, p: ProdId, q: ProdId) -> Option<Vec<Terminal>> {
    type Form = Vec<Symbol>;
    let mut queue: VecDeque<(Form, Form, Vec<Terminal>)> = VecDeque::new();
    let mut seen: BTreeSet<(Form, Form)> = BTreeSet::new();
    let start_p: Form = g.production(p).rhs().to_vec();
    let start_q: Form = g.production(q).rhs().to_vec();
    seen.insert((start_p.clone(), start_q.clone()));
    queue.push_back((start_p, start_q, Vec::new()));
    let mut processed = 0usize;

    while let Some((fp, fq, w)) = queue.pop_front() {
        processed += 1;
        if processed > AMBIG_MAX_QUEUE {
            return None;
        }
        if fp.is_empty() && fq.is_empty() {
            return Some(w);
        }
        let mut push = |fp: Form, fq: Form, w: Vec<Terminal>, queue: &mut VecDeque<_>| {
            if fp.len() > AMBIG_MAX_FORM || fq.len() > AMBIG_MAX_FORM {
                return;
            }
            if seen.insert((fp.clone(), fq.clone())) {
                queue.push_back((fp, fq, w));
            }
        };
        match (fp.first().copied(), fq.first().copied()) {
            // Expand the leftmost nonterminal (of the first form that has
            // one) so both forms eventually ground out in terminals.
            (Some(Symbol::Nt(y)), _) => {
                for &r in g.alternatives(y) {
                    let mut nf: Form = g.production(r).rhs().to_vec();
                    nf.extend_from_slice(&fp[1..]);
                    push(nf, fq.clone(), w.clone(), &mut queue);
                }
            }
            (_, Some(Symbol::Nt(y))) => {
                for &r in g.alternatives(y) {
                    let mut nf: Form = g.production(r).rhs().to_vec();
                    nf.extend_from_slice(&fq[1..]);
                    push(fp.clone(), nf, w.clone(), &mut queue);
                }
            }
            // Both forms start with a terminal: they must agree, and the
            // matched terminal extends the common word.
            (Some(Symbol::T(a)), Some(Symbol::T(b))) if a == b => {
                if w.len() >= AMBIG_MAX_WORD {
                    continue;
                }
                let mut nw = w;
                nw.push(a);
                push(fp[1..].to_vec(), fq[1..].to_vec(), nw, &mut queue);
            }
            // Terminal mismatch, or one form exhausted while the other
            // still needs a terminal: dead branch.
            _ => {}
        }
    }
    None
}

/// Classifies one nonterminal; `None` when it has fewer than two
/// alternatives.
fn classify(
    g: &Grammar,
    nullable: &NullableSet,
    first: &FirstSets,
    follow: &FollowSets,
    stable_frames: &StableFrames,
    x: NonTerminal,
) -> Option<DecisionInfo> {
    let alts = g.alternatives(x);
    if alts.len() < 2 {
        return None;
    }

    // Pairwise LL(1) select-set conflicts.
    let mut conflicts = Vec::new();
    for (i, &p) in alts.iter().enumerate() {
        for &q in &alts[i + 1..] {
            if let Some(lookahead) = select_conflict(g, nullable, first, follow, p, q) {
                let pair = sll_graph::explore(g, stable_frames, &[p, q]);
                conflicts.push(ConflictPair {
                    a: p,
                    b: q,
                    lookahead,
                    distinguishing_prefix: pair.distinguishing_prefix,
                    ambiguous_word: common_word(g, p, q),
                });
            }
        }
    }

    if conflicts.is_empty() {
        // Disjoint select sets: build the direct dispatch map.
        let mut by_terminal = vec![None; g.num_terminals()];
        let mut eof = None;
        let follow_lhs = follow.follow(x);
        for &p in alts {
            let rhs = g.production(p).rhs();
            for t in g.symbols().terminals() {
                if ll1_selects(rhs, t, nullable, first, follow_lhs) {
                    by_terminal[t.index()] = Some(p);
                }
            }
            if nullable.form_nullable(rhs) {
                eof = Some(p);
            }
        }
        let map = LookaheadMap { by_terminal, eof };
        return Some(DecisionInfo {
            nonterminal: x,
            class: DecisionClass::Ll1,
            alternatives: alts.len(),
            lookahead: Some(map),
            conflicts,
            graph_states: 0,
        });
    }

    // Not LL(1): ask the closure graph whether SLL can ever conflict.
    let report = sll_graph::explore(g, stable_frames, alts);
    let class = match report.outcome {
        GraphOutcome::ConflictFree => DecisionClass::SllSafe,
        GraphOutcome::Conflict | GraphOutcome::Bounded => DecisionClass::NeedsFullAllStar,
    };
    Some(DecisionInfo {
        nonterminal: x,
        class,
        alternatives: alts.len(),
        lookahead: None,
        conflicts,
        graph_states: report.states,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    fn table(build: impl FnOnce(&mut GrammarBuilder)) -> (Grammar, DecisionTable) {
        let mut gb = GrammarBuilder::new();
        build(&mut gb);
        let g = gb.build().unwrap();
        let n = NullableSet::compute(&g);
        let f = FirstSets::compute(&g, &n);
        let fo = FollowSets::compute(&g, &n, &f);
        let sf = StableFrames::compute(&g, &n);
        let t = DecisionTable::compute(&g, &n, &f, &fo, &sf);
        (g, t)
    }

    fn nt(g: &Grammar, name: &str) -> NonTerminal {
        g.symbols().lookup_nonterminal(name).unwrap()
    }

    fn fig2(gb: &mut GrammarBuilder) {
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S");
    }

    #[test]
    fn fig2_classifies_a_ll1_and_s_sll_safe() {
        let (g, t) = table(fig2);
        let a = t.decision(nt(&g, "A")).unwrap();
        assert_eq!(a.class, DecisionClass::Ll1);
        assert!(a.conflicts.is_empty());
        let map = t.ll1_map(nt(&g, "A")).unwrap();
        let ta = g.symbols().lookup_terminal("a").unwrap();
        let tb = g.symbols().lookup_terminal("b").unwrap();
        let tc = g.symbols().lookup_terminal("c").unwrap();
        assert!(map.for_terminal(ta).is_some());
        assert!(map.for_terminal(tb).is_some());
        assert_ne!(map.for_terminal(ta), map.for_terminal(tb));
        assert_eq!(map.for_terminal(tc), None);
        assert_eq!(map.for_eof(), None);

        // S is not LL(1) (shared left factor A) but SLL provably never
        // conflicts: the c/d suffix always separates the alternatives.
        let s = t.decision(nt(&g, "S")).unwrap();
        assert_eq!(s.class, DecisionClass::SllSafe);
        assert!(t.ll1_map(nt(&g, "S")).is_none());
        assert_eq!(s.conflicts.len(), 1);
        let c = &s.conflicts[0];
        assert!(c.lookahead.is_some());
        assert!(c.ambiguous_word.is_none(), "fig2 is unambiguous");
        assert!(c.distinguishing_prefix.is_some());
        assert!(s.graph_states > 0);
    }

    #[test]
    fn ambiguous_pair_gets_a_word_witness() {
        // Paper Fig. 6 shape: both alternatives derive "a".
        let (g, t) = table(|gb| {
            gb.rule("S", &["X"]);
            gb.rule("S", &["Y"]);
            gb.rule("X", &["a"]);
            gb.rule("Y", &["a"]);
            gb.start("S");
        });
        let s = t.decision(nt(&g, "S")).unwrap();
        assert_eq!(s.class, DecisionClass::NeedsFullAllStar);
        let word = s.conflicts[0].ambiguous_word.as_ref().unwrap();
        let names: Vec<_> = word.iter().map(|&t| g.symbols().terminal_name(t)).collect();
        assert_eq!(names, ["a"]);
    }

    #[test]
    fn nullable_ambiguity_witnessed_by_empty_word() {
        // A -> ε | B with B -> ε: both alternatives derive the empty
        // word, so the witness is the empty word.
        let (g, t) = table(|gb| {
            gb.rule("S", &["A"]);
            gb.rule("A", &[]);
            gb.rule("A", &["B"]);
            gb.rule("B", &[]);
            gb.start("S");
        });
        let a = t.decision(nt(&g, "A")).unwrap();
        let word = a.conflicts[0].ambiguous_word.as_ref().unwrap();
        assert!(word.is_empty());
    }

    #[test]
    fn sll_conflict_grammar_needs_full_allstar_at_x_only() {
        let (g, t) = table(|gb| {
            gb.rule("S", &["p", "C1"]);
            gb.rule("S", &["q", "C2"]);
            gb.rule("C1", &["X", "b"]);
            gb.rule("C2", &["X", "a", "b"]);
            gb.rule("X", &["a", "a"]);
            gb.rule("X", &["a"]);
            gb.start("S");
        });
        // S: p vs q — disjoint select sets, pure LL(1) dispatch.
        assert_eq!(t.decision(nt(&g, "S")).unwrap().class, DecisionClass::Ll1);
        // X: merged SLL contexts can conflict.
        let x = t.decision(nt(&g, "X")).unwrap();
        assert_eq!(x.class, DecisionClass::NeedsFullAllStar);
        // "a a b" parses via both X -> a a (in C1) and X -> a (in C2),
        // but X itself derives no common word — ambiguity is contextual,
        // not intrinsic to the pair.
        assert!(x.conflicts[0].ambiguous_word.is_none());
        // Single-production nonterminals are not decision points.
        assert!(t.decision(nt(&g, "C1")).is_none());
    }

    #[test]
    fn left_recursive_decision_needs_full_allstar() {
        let (g, t) = table(|gb| {
            gb.rule("E", &["E", "plus", "int"]);
            gb.rule("E", &["int"]);
            gb.start("E");
        });
        let e = t.decision(nt(&g, "E")).unwrap();
        assert_eq!(e.class, DecisionClass::NeedsFullAllStar);
        assert!(e.conflicts[0].ambiguous_word.is_none());
    }

    #[test]
    fn stats_count_classes_and_entries() {
        let (_, t) = table(fig2);
        let s = t.stats();
        assert_eq!(s.decision_points, 2);
        assert_eq!(s.ll1, 1);
        assert_eq!(s.sll_safe, 1);
        assert_eq!(s.needs_full, 0);
        assert_eq!(s.ambiguous, 0);
        // A's map: a and b populated, no EOF entry.
        assert_eq!(s.lookahead_entries, 2);
    }

    #[test]
    fn json_report_is_deterministic_and_structured() {
        let (g, t) = table(fig2);
        let j1 = t.to_json(&g);
        let j2 = t.to_json(&g);
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"schema\":\"costar-analyze-v1\""));
        assert!(j1.contains("\"class\":\"ll1\""));
        assert!(j1.contains("\"class\":\"sll-safe\""));
        assert!(j1.contains("\"decision_points\":2"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j1.matches('{').count(), j1.matches('}').count(),);
        assert_eq!(j1.matches('[').count(), j1.matches(']').count(),);
    }
}
