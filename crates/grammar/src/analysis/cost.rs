//! Static cost certification: sound per-grammar fuel bounds derived from
//! the termination measure (the `costar-cost-v1` certificate).
//!
//! CoStar's termination argument (paper §4) bounds every parse by the
//! lexicographic measure `(tokens, stackScore, height)`, but that bound is
//! only *dynamic*: `Budget` fuel is a number the operator guesses, and an
//! abort cannot distinguish "budget too small" from "pathological input".
//! This module computes the measure's constants *statically*, per grammar,
//! and certifies:
//!
//! > any accepting or rejecting parse of `n` tokens consumes at most
//! > `bound_for(n)` units of metered fuel (machine steps **plus**
//! > prediction lookahead, exactly the quantity `Meter::steps_taken`
//! > reports).
//!
//! The derivation, kept deliberately elementary so the replay validator
//! can recompute it from scratch:
//!
//! 1. **Machine steps.** Every fuel unit charged by `Machine::step` is a
//!    consume, a push, a return, or the single final (accept/reject)
//!    step. Consumes ≤ `n`, returns = pushes, so machine fuel is at most
//!    `n + 2·pushes + 1`.
//! 2. **Pushes.** Each push creates one tree node. A *token-bearing*
//!    node (its subtree consumes ≥ 1 token) is charged to the first token
//!    it consumes; the nodes charged to one token are exactly the frames
//!    opened since the previous consume — all live in the machine's
//!    `visited` set, hence pairwise-distinct nonterminals, hence at most
//!    `P = |N|` per token. The remaining nodes form ε-subtrees hanging
//!    off token-bearing frames: at most `m` roots per frame (`m` = the
//!    most nonterminal symbols on any right-hand side) of at most
//!    `epsilon_max` nodes each (see below). Altogether
//!    `pushes ≤ (n + 1) · C` with `C = P·(1 + m·epsilon_max)`.
//! 3. **ε-subtrees.** An ε-subtree contains only nullable nonterminals,
//!    each chosen alternative fully nullable. If the *nullable-closure
//!    graph* (edges `X → Y` for `Y` on a fully-nullable alternative of
//!    `X`) is acyclic, a longest-path DP gives the exact worst tree size
//!    `epsilon_max`. A cycle is a **nullable-cycle hazard**: the
//!    `visited` guard still caps any root-to-leaf chain at `Q` distinct
//!    nullable nonterminals, so `(W + 1)^Q` (branching `W`, saturating)
//!    remains a sound — if astronomically loose — bound.
//! 4. **Prediction.** Each of the ≤ `pushes + 1` prediction calls
//!    charges one unit per lookahead token examined (plus one if it runs
//!    off the end of the input). When every decision point has a finite
//!    certified bound in the [`AuditTable`], SLL resolves within
//!    `k_max` tokens and never fails over to LL, so each call charges at
//!    most `k_max + 1` and the total is **linear**:
//!    `a·n + b` with `a = 1 + C·(k_max + 3)` and
//!    `b = C·(k_max + 3) + k_max + 2`. With any unbounded decision a
//!    single call may scan the remaining input (twice, counting LL
//!    failover), and [`CostModel::bound_for`] falls back to the
//!    quadratic envelope `n + 2·pushes + 1 + (pushes + 1)·2·(n + 1)`.
//!
//! All arithmetic saturates: a bound that overflows `u64` degrades to
//! `u64::MAX`, which is still sound (nothing meters that far).
//!
//! Like the audit pass, the result is serialized as a fingerprint-pinned
//! certificate (schema [`COST_SCHEMA`]) embedded in the grammar cache and
//! **replayed, never trusted**, on load: [`replay`] recomputes the model
//! from the live analyses and demands equality. A deflated certificate
//! that somehow survives replay is still caught dynamically by the
//! `on_cost_check` observer hook, which compares every finished parse's
//! metered fuel against `bound_for(n)`.

use crate::analysis::audit::AuditTable;
use crate::analysis::cache::grammar_fingerprint;
use crate::analysis::left_recursion::LeftRecursion;
use crate::analysis::nullable::NullableSet;
use crate::grammar::Grammar;
use crate::json::{self, JsonValue};
use crate::sets::NtSet;
use crate::symbol::{NonTerminal, Symbol};

/// Schema identifier for the serialized cost certificate.
pub const COST_SCHEMA: &str = "costar-cost-v1";

/// The statically certified cost model for one grammar.
///
/// Constructed by [`CostModel::compute`]; consumed by `--max-steps auto`
/// (per-input fuel derivation), the `costar cost` subcommand, lint codes
/// L012/L013, and the parse-time `on_cost_check` soundness probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// `P`: the number of nonterminals.
    pub nonterminals: u64,
    /// `m`: the most nonterminal symbols on any right-hand side (at
    /// least 1, so the push bound stays a simple product).
    pub max_rhs_nts: u64,
    /// Worst-case node count of any ε-subtree (0 when nothing is
    /// nullable).
    pub epsilon_max: u64,
    /// `true` when the nullable-closure graph is cyclic and
    /// `epsilon_max` is the saturating hazard fallback rather than the
    /// exact longest-path value.
    pub nullable_hazard: bool,
    /// `C = P·(1 + m·epsilon_max)`: certified maximum pushes per input
    /// position ("epoch").
    pub pushes_per_epoch: u64,
    /// Largest finite certified lookahead over all decision points (0
    /// when there are none).
    pub k_max: u64,
    /// Decision points the audit could not bound (`k = None`), in
    /// ascending index order. Non-empty ⟹ the bound is not linear.
    pub unbounded: Vec<NonTerminal>,
    /// L012 set: unbounded decision points reachable from a token-free
    /// cycle (left recursion or a nullable-closure cycle) along
    /// left-corner edges — prediction there can rescan input that is not
    /// being consumed. Ascending index order; always ⊆ `unbounded`.
    pub superlinear: Vec<NonTerminal>,
    /// Steps-per-token coefficient of the linear bound; 0 when the
    /// grammar is not linear (see [`CostModel::is_linear`]).
    pub a: u64,
    /// Constant term of the linear bound; 0 when not linear.
    pub b: u64,
}

impl CostModel {
    /// Derives the cost model from the grammar and its prior analyses.
    pub fn compute(
        g: &Grammar,
        nullable: &NullableSet,
        left_recursion: &LeftRecursion,
        audit: &AuditTable,
    ) -> Self {
        let p = (g.num_nonterminals() as u64).max(1);
        let m = g
            .productions()
            .iter()
            .map(|pr| {
                pr.rhs()
                    .iter()
                    .filter(|s| matches!(s, Symbol::Nt(_)))
                    .count() as u64
            })
            .max()
            .unwrap_or(0)
            .max(1);

        let (epsilon_max, nullable_hazard, nullable_cycle) = epsilon_analysis(g, nullable);

        let c = p.saturating_mul(1u64.saturating_add(m.saturating_mul(epsilon_max)));

        let mut k_max = 0u64;
        let mut unbounded: Vec<NonTerminal> = Vec::new();
        for info in audit.iter() {
            match info.k {
                Some(k) => k_max = k_max.max(k as u64),
                None => unbounded.push(info.nonterminal),
            }
        }
        unbounded.sort_by_key(|x| x.index());

        let superlinear = superlinear_set(g, left_recursion, &nullable_cycle, &unbounded);

        let (a, b) = if unbounded.is_empty() {
            let per_push = c.saturating_mul(k_max.saturating_add(3));
            (
                1u64.saturating_add(per_push),
                per_push.saturating_add(k_max).saturating_add(2),
            )
        } else {
            (0, 0)
        };

        CostModel {
            nonterminals: p,
            max_rhs_nts: m,
            epsilon_max,
            nullable_hazard,
            pushes_per_epoch: c,
            k_max,
            unbounded,
            superlinear,
            a,
            b,
        }
    }

    /// `true` when every decision point has a finite certified lookahead
    /// and the bound is the linear form `a·n + b`.
    pub fn is_linear(&self) -> bool {
        self.unbounded.is_empty()
    }

    /// The certified steps-per-token coefficient, when linear.
    pub fn steps_per_token(&self) -> Option<u64> {
        if self.is_linear() {
            Some(self.a)
        } else {
            None
        }
    }

    /// The certified fuel bound for an input of `n` tokens: `a·n + b`
    /// when linear, otherwise the quadratic unbounded-lookahead envelope.
    /// Saturating; a saturated bound is sound but useless for budgeting.
    pub fn bound_for(&self, n: u64) -> u64 {
        if self.is_linear() {
            return self.a.saturating_mul(n).saturating_add(self.b);
        }
        let pushes = n.saturating_add(1).saturating_mul(self.pushes_per_epoch);
        let machine = n.saturating_add(pushes.saturating_mul(2)).saturating_add(1);
        let prediction = pushes
            .saturating_add(1)
            .saturating_mul(2)
            .saturating_mul(n.saturating_add(1));
        machine.saturating_add(prediction)
    }
}

/// Worst-case ε-subtree size, hazard flag, and the set of nonterminals on
/// a nullable-closure cycle.
fn epsilon_analysis(g: &Grammar, nullable: &NullableSet) -> (u64, bool, NtSet) {
    let n = g.num_nonterminals();
    // Fully-nullable alternatives: edges x → y per nonterminal occurrence.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut has_nullable_alt = vec![false; n];
    let mut max_width = 0u64;
    for pr in g.productions() {
        if !nullable.form_nullable(pr.rhs()) {
            continue;
        }
        let x = pr.lhs().index();
        has_nullable_alt[x] = true;
        let mut width = 0u64;
        for s in pr.rhs() {
            if let Symbol::Nt(y) = s {
                edges[x].push(y.index());
                width += 1;
            }
        }
        max_width = max_width.max(width);
    }

    // Kahn's algorithm on the nullable-closure graph: nodes left with
    // positive in-degree afterwards lie on a cycle or are reachable from
    // one — a conservative superset of the true cycle set, which is all
    // the hazard flag and the L012 seed need.
    let mut indegree = vec![0usize; n];
    for targets in &edges {
        for &y in targets {
            indegree[y] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(x) = queue.pop() {
        order.push(x);
        for &y in &edges[x] {
            indegree[y] -= 1;
            if indegree[y] == 0 {
                queue.push(y);
            }
        }
    }

    let mut cycle = NtSet::with_capacity(n);
    if order.len() < n {
        for (i, &d) in indegree.iter().enumerate() {
            if d > 0 {
                cycle.insert(NonTerminal::from_index(i));
            }
        }
        let q = nullable.as_set().len() as u32;
        let e = max_width.saturating_add(1).saturating_pow(q);
        return (e, true, cycle);
    }

    // Acyclic: longest-tree DP in reverse topological order.
    // e(x) = max over fully-nullable alternatives of 1 + Σ e(y).
    let mut e = vec![0u64; n];
    for &x in order.iter().rev() {
        if !has_nullable_alt[x] {
            continue;
        }
        let mut best = 0u64;
        for pr_id in g.alternatives(NonTerminal::from_index(x)) {
            let pr = g.production(*pr_id);
            if !nullable.form_nullable(pr.rhs()) {
                continue;
            }
            let mut total = 1u64;
            for s in pr.rhs() {
                if let Symbol::Nt(y) = s {
                    total = total.saturating_add(e[y.index()]);
                }
            }
            best = best.max(total);
        }
        e[x] = best;
    }
    (e.iter().copied().max().unwrap_or(0), false, cycle)
}

/// The L012 set: unbounded decision points reachable from a token-free
/// cycle along left-corner edges. Left recursion and nullable-closure
/// cycles are the two ways the machine can re-enter a decision point
/// without consuming; an unbounded decision downstream of one can rescan
/// input that is not shrinking.
fn superlinear_set(
    g: &Grammar,
    left_recursion: &LeftRecursion,
    nullable_cycle: &NtSet,
    unbounded: &[NonTerminal],
) -> Vec<NonTerminal> {
    let n = g.num_nonterminals();
    let edges = left_recursion.edge_lists();
    let mut reach = NtSet::with_capacity(n);
    let mut queue: Vec<usize> = Vec::new();
    for x in left_recursion
        .left_recursive_set()
        .iter()
        .chain(nullable_cycle.iter())
    {
        if reach.insert(x) {
            queue.push(x.index());
        }
    }
    while let Some(x) = queue.pop() {
        for &y in edges.get(x).map(Vec::as_slice).unwrap_or(&[]) {
            if reach.insert(NonTerminal::from_index(y)) {
                queue.push(y);
            }
        }
    }
    unbounded
        .iter()
        .copied()
        .filter(|x| reach.contains(*x))
        .collect()
}

/// Serializes the cost model as the fingerprint-pinned `costar-cost-v1`
/// certificate — the exact form embedded under the grammar cache's
/// `"cost"` key and emitted by `costar cost --json`.
pub fn to_cost_json(g: &Grammar, c: &CostModel) -> String {
    json::object(|w| {
        w.header(COST_SCHEMA, grammar_fingerprint(g))
            .field("nonterminals", c.nonterminals)
            .field("max_rhs_nts", c.max_rhs_nts)
            .field("epsilon_max", c.epsilon_max)
            .field("nullable_hazard", c.nullable_hazard)
            .field("pushes_per_epoch", c.pushes_per_epoch)
            .field("k_max", c.k_max);
        w.key("unbounded")
            .values(c.unbounded.iter().map(|x| x.index()));
        w.key("superlinear")
            .values(c.superlinear.iter().map(|x| x.index()));
        w.field("linear", c.is_linear())
            .field("a", c.a)
            .field("b", c.b);
    })
}

fn read_nt_list(g: &Grammar, v: &JsonValue) -> Option<Vec<NonTerminal>> {
    let ids = v.as_indices(g.num_nonterminals())?;
    // Ascending and duplicate-free, as the writer emits.
    ids.windows(2)
        .all(|pair| pair[0] < pair[1])
        .then(|| ids.into_iter().map(NonTerminal::from_index).collect())
}

/// Structural parse of a cost certificate value: schema and fingerprint
/// must match, indices must be in range, lists ascending. Semantic
/// validity is established separately by [`replay`].
pub(crate) fn cost_from_json(g: &Grammar, v: &JsonValue) -> Option<CostModel> {
    json::check_header(v, COST_SCHEMA, grammar_fingerprint(g))?;
    let model = CostModel {
        nonterminals: v.get("nonterminals")?.as_u64()?,
        max_rhs_nts: v.get("max_rhs_nts")?.as_u64()?,
        epsilon_max: v.get("epsilon_max")?.as_u64()?,
        nullable_hazard: v.get("nullable_hazard")?.as_bool()?,
        pushes_per_epoch: v.get("pushes_per_epoch")?.as_u64()?,
        k_max: v.get("k_max")?.as_u64()?,
        unbounded: read_nt_list(g, v.get("unbounded")?)?,
        superlinear: read_nt_list(g, v.get("superlinear")?)?,
        a: v.get("a")?.as_u64()?,
        b: v.get("b")?.as_u64()?,
    };
    // The "linear" field is presentational but must agree.
    if v.get("linear")?.as_bool()? != model.is_linear() {
        return None;
    }
    Some(model)
}

/// Parses a standalone `costar-cost-v1` document (as emitted by
/// [`to_cost_json`] or `costar cost --json`) against `g`.
pub fn parse_cost_json(g: &Grammar, text: &str) -> Option<CostModel> {
    cost_from_json(g, &json::parse(text).ok()?)
}

/// Replays a cost certificate instead of trusting it: recomputes the
/// model from the live analyses and demands field-for-field equality.
/// The derivation is cheap (linear-ish in grammar size), so unlike the
/// audit replay there is no sampling — the whole thing is recomputed.
pub fn replay(
    g: &Grammar,
    nullable: &NullableSet,
    left_recursion: &LeftRecursion,
    audit: &AuditTable,
    claimed: &CostModel,
) -> bool {
    CostModel::compute(g, nullable, left_recursion, audit) == *claimed
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::analysis::GrammarAnalysis;
    use crate::grammar::GrammarBuilder;

    fn model(g: &Grammar) -> (GrammarAnalysis, CostModel) {
        let a = GrammarAnalysis::compute(g);
        let c = CostModel::compute(g, &a.nullable, &a.left_recursion, &a.audit);
        (a, c)
    }

    fn fig2() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    #[test]
    fn ll1_grammar_is_linear_with_closed_form() {
        // S -> a S | b: single decision point, k = 1, nothing nullable.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a", "S"]);
        gb.rule("S", &["b"]);
        let g = gb.start("S").build().unwrap();
        let (_, c) = model(&g);
        assert!(c.is_linear());
        assert!(c.unbounded.is_empty() && c.superlinear.is_empty());
        assert_eq!(c.nonterminals, 1);
        assert_eq!(c.epsilon_max, 0);
        assert!(!c.nullable_hazard);
        assert_eq!(c.pushes_per_epoch, 1);
        assert_eq!(c.k_max, 1);
        // a = 1 + C(k+3) = 5, b = C(k+3) + k + 2 = 7.
        assert_eq!((c.a, c.b), (5, 7));
        assert_eq!(c.steps_per_token(), Some(5));
        assert_eq!(c.bound_for(10), 57);
        // Saturating, monotone.
        assert_eq!(c.bound_for(u64::MAX), u64::MAX);
        assert!(c.bound_for(3) <= c.bound_for(4));
    }

    #[test]
    fn unbounded_decision_forces_quadratic_fallback() {
        // Paper Fig. 2: S's decision (A c | A d) is unbounded under SLL
        // because A pumps `a`s — the audit certifies k = None for S.
        let g = fig2();
        let (a, c) = model(&g);
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        assert_eq!(a.audit.k_bound(s), None);
        assert!(!c.is_linear());
        assert_eq!(c.unbounded, vec![s]);
        assert_eq!(c.steps_per_token(), None);
        assert_eq!((c.a, c.b), (0, 0));
        // Quadratic envelope: C = P = 2 (nothing nullable), n = 3 ⟹
        // pushes = 8, machine = 3 + 16 + 1 = 20, prediction = 9·2·4 = 72.
        assert_eq!(c.pushes_per_epoch, 2);
        assert_eq!(c.bound_for(3), 92);
        // Fig. 2 is not left-recursive and has no nullable cycle, so the
        // unbounded decision is not flagged superlinear (no L012).
        assert!(c.superlinear.is_empty());
    }

    #[test]
    fn epsilon_dp_counts_worst_nullable_subtree() {
        // S -> A A, A -> B B | ε, B -> ε:
        // e(B) = 1, e(A) = max(1 + 2·e(B), 1) = 3, e(S) = 1 + 2·e(A) = 7.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "A"]);
        gb.rule("A", &["B", "B"]);
        gb.rule("A", &[]);
        gb.rule("B", &[]);
        let g = gb.start("S").build().unwrap();
        let (_, c) = model(&g);
        assert!(!c.nullable_hazard);
        assert_eq!(c.epsilon_max, 7);
        // C = P(1 + m·e) = 3·(1 + 2·7) = 45.
        assert_eq!(c.pushes_per_epoch, 45);
    }

    #[test]
    fn nullable_cycle_is_flagged_as_hazard() {
        // A -> B | ε, B -> A | ε: the nullable-closure graph has the
        // cycle A → B → A.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "x"]);
        gb.rule("A", &["B"]);
        gb.rule("A", &[]);
        gb.rule("B", &["A"]);
        gb.rule("B", &[]);
        let g = gb.start("S").build().unwrap();
        let (_, c) = model(&g);
        assert!(c.nullable_hazard);
        // Q = 2 nullable NTs, W = 1 ⟹ hazard bound (W+1)^Q = 4.
        assert_eq!(c.epsilon_max, 4);
        // Still sound and still produces a finite bound.
        assert!(c.bound_for(5) > 0);
    }

    #[test]
    fn left_recursive_unbounded_decision_is_superlinear() {
        // E -> E plus T | T, T -> a | b: E is left-recursive and its
        // decision is unbounded ⟹ the L012 set contains E.
        let mut gb = GrammarBuilder::new();
        gb.rule("E", &["E", "plus", "T"]);
        gb.rule("E", &["T"]);
        gb.rule("T", &["a"]);
        gb.rule("T", &["b"]);
        let g = gb.start("E").build().unwrap();
        let (a, c) = model(&g);
        let e = g.symbols().lookup_nonterminal("E").unwrap();
        assert!(a.left_recursion.is_left_recursive(e));
        if a.audit.k_bound(e).is_none() {
            assert!(c.superlinear.contains(&e));
            assert!(c.unbounded.contains(&e));
        }
        assert!(!c.is_linear() || c.superlinear.is_empty());
    }

    #[test]
    fn certificate_round_trips_and_replays() {
        for g in [fig2(), {
            let mut gb = GrammarBuilder::new();
            gb.rule("S", &["a", "S"]);
            gb.rule("S", &[]);
            gb.start("S").build().unwrap()
        }] {
            let (a, c) = model(&g);
            let json = to_cost_json(&g, &c);
            let parsed = parse_cost_json(&g, &json).expect("round trip");
            assert_eq!(parsed, c);
            assert!(replay(
                &g,
                &a.nullable,
                &a.left_recursion,
                &a.audit,
                &parsed
            ));
        }
    }

    #[test]
    fn corrupted_certificates_are_rejected() {
        let g = fig2();
        let (a, c) = model(&g);
        let json = to_cost_json(&g, &c);
        // Wrong schema.
        assert!(parse_cost_json(&g, &json.replace("cost-v1", "cost-v9")).is_none());
        // Wrong fingerprint: parse against a different grammar.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a"]);
        let other = gb.start("S").build().unwrap();
        assert!(parse_cost_json(&other, &json).is_none());
        // Out-of-range nonterminal index in a list.
        let bad = json.replace("\"unbounded\":[0]", "\"unbounded\":[7]");
        assert!(parse_cost_json(&g, &bad).is_none());
        // Inconsistent "linear" flag.
        let bad = json.replace("\"linear\":false", "\"linear\":true");
        assert!(parse_cost_json(&g, &bad).is_none());
        // Structurally valid but semantically deflated: replay refuses.
        let mut deflated = c.clone();
        deflated.pushes_per_epoch = 1;
        assert!(!replay(
            &g,
            &a.nullable,
            &a.left_recursion,
            &a.audit,
            &deflated
        ));
    }

    #[test]
    fn bound_is_monotone_in_input_length() {
        for g in [fig2(), {
            let mut gb = GrammarBuilder::new();
            gb.rule("S", &["a", "S"]);
            gb.rule("S", &["b"]);
            gb.start("S").build().unwrap()
        }] {
            let (_, c) = model(&g);
            let mut prev = 0;
            for n in 0..64u64 {
                let now = c.bound_for(n);
                assert!(now >= prev, "bound must be monotone");
                prev = now;
            }
        }
    }
}
