//! Static grammar analyses used by the parser and the baselines.
//!
//! CoStar computes some grammar information statically (paper §3.5 notes
//! that the SLL stable-return frames are "computed statically from the
//! grammar"); the LL(1) baseline and the left-recursion decision procedure
//! are entirely static. This module bundles:
//!
//! * [`NullableSet`] — which nonterminals derive ε;
//! * [`FirstSets`] / [`FollowSets`] — classic predictive-parsing sets;
//! * [`LeftRecursion`] — the decision procedure for the paper's
//!   "non-left-recursive" precondition (its §8 future work);
//! * [`Reachability`] / [`Productivity`] — which nonterminals can occur in
//!   a derivation from the start symbol, and which can complete one; the
//!   [`crate::lint`] linter turns their complements into diagnostics;
//! * [`StableFrames`] — SLL stable return destinations (§3.5);
//! * [`DecisionTable`] — static per-decision classification (LL(1) /
//!   SLL-safe / needs-full-ALL(*)) with a precompiled lookahead fast
//!   path for the parse-time engine;
//! * [`AuditTable`] — exact per-decision lookahead bounds with collide
//!   and resolve witnesses, dead/shadowed alternatives, serialized as
//!   the machine-checkable `costar-cert-v1` certificate that the cache
//!   loader replays instead of trusting;
//! * [`CostModel`] — static cost certification: sound per-grammar fuel
//!   constants (`steps(n) ≤ a·n + b` for fully lookahead-bounded
//!   grammars) derived from the termination measure, serialized as the
//!   `costar-cost-v1` certificate and likewise replayed on load.

// Analysis code feeds the prediction hot path, so it is held to the same
// panic-freedom discipline as the machine itself (see clippy.toml at the
// crate root): no `unwrap`/`expect`/`panic!` outside tests; audited
// exceptions carry a targeted `#[allow]` with a justification.
#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]

mod audit;
mod cache;
mod cost;
mod decide;
mod first_follow;
mod left_recursion;
mod nullable;
mod productivity;
mod reachability;
#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod reference;
mod sll_graph;
mod stable_frames;
mod sync;

pub use audit::{
    parse_cert_json, replay as replay_certificate, simulate_survivors, to_cert_json, AuditInfo,
    AuditStats, AuditTable, PairAudit, CERT_SCHEMA,
};
pub use cache::{
    from_cache_json, grammar_fingerprint, to_cache_json, write_cache_atomic, CACHE_SCHEMA,
};
pub use cost::{
    parse_cost_json, replay as replay_cost_certificate, to_cost_json, CostModel, COST_SCHEMA,
};
pub use decide::{
    ConflictPair, DecisionClass, DecisionInfo, DecisionStats, DecisionTable, LookaheadMap,
};
pub use first_follow::{ll1_selects, FirstSets, FollowSets};
pub use left_recursion::LeftRecursion;
pub use nullable::NullableSet;
pub use productivity::Productivity;
pub use reachability::Reachability;
pub use stable_frames::{Position, StableDests, StableFrames};
pub use sync::SyncSets;

use crate::grammar::Grammar;
use sll_graph::Automata;

/// All analyses bundled, computed once per grammar.
///
/// The CoStar machine consults [`StableFrames`] during SLL prediction and
/// [`LeftRecursion`] when validating the theorem precondition; baselines use
/// the rest.
///
/// # Examples
///
/// ```
/// use costar_grammar::{analysis::GrammarAnalysis, GrammarBuilder};
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["a"]);
/// let g = gb.start("S").build()?;
/// let a = GrammarAnalysis::compute(&g);
/// assert!(a.left_recursion.is_grammar_safe());
/// # Ok::<(), costar_grammar::GrammarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GrammarAnalysis {
    /// Nullable nonterminals.
    pub nullable: NullableSet,
    /// FIRST sets.
    pub first: FirstSets,
    /// FOLLOW sets.
    pub follow: FollowSets,
    /// Left-recursion decision.
    pub left_recursion: LeftRecursion,
    /// Reachability from the start symbol.
    pub reachability: Reachability,
    /// Productivity (can each nonterminal finish a derivation?).
    pub productivity: Productivity,
    /// SLL stable return frames.
    pub stable_frames: StableFrames,
    /// Static decision-point classification and lookahead fast path.
    pub decisions: DecisionTable,
    /// Panic-mode recovery synchronization sets (FIRST ∪ FOLLOW).
    pub sync: SyncSets,
    /// Audit pass: exact per-decision lookahead bounds with witnesses,
    /// dead and shadowed alternatives (the `costar-cert-v1` certificate).
    pub audit: AuditTable,
    /// Static cost certification: sound per-grammar fuel constants with
    /// the claim `steps(n) ≤ bound_for(n)` for accepting/rejecting parses
    /// (the `costar-cost-v1` certificate).
    pub cost: CostModel,
}

impl GrammarAnalysis {
    /// Runs every analysis on `g`.
    pub fn compute(g: &Grammar) -> Self {
        let nullable = NullableSet::compute(g);
        let first = FirstSets::compute(g, &nullable);
        let follow = FollowSets::compute(g, &nullable, &first);
        let left_recursion = LeftRecursion::compute(g, &nullable);
        let reachability = Reachability::compute(g);
        let productivity = Productivity::compute(g);
        let stable_frames = StableFrames::compute(g, &nullable);
        // One closure engine for both tables: the audit's pair graphs
        // reuse the closures the decision table memoized.
        let mut auto = Automata::new(g, &stable_frames);
        let decisions = DecisionTable::compute_with(g, &nullable, &first, &follow, &mut auto);
        let audit = AuditTable::compute_with(g, &productivity, &mut auto);
        let sync = SyncSets::compute(g, &first, &follow);
        let cost = CostModel::compute(g, &nullable, &left_recursion, &audit);
        GrammarAnalysis {
            nullable,
            first,
            follow,
            left_recursion,
            reachability,
            productivity,
            stable_frames,
            decisions,
            sync,
            audit,
            cost,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    #[test]
    fn bundle_computes_consistently() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &[]);
        let g = gb.start("S").build().unwrap();
        let a = GrammarAnalysis::compute(&g);
        let a_nt = g.symbols().lookup_nonterminal("A").unwrap();
        assert!(a.nullable.contains(a_nt));
        assert!(a.left_recursion.is_grammar_safe());
        assert!(a.reachability.is_reachable(a_nt));
        assert!(a.productivity.is_productive(a_nt));
        assert!(!a.stable_frames.dests(a_nt).positions.is_empty());
        // A -> a A | ε is a decision point; the bundle must classify it.
        assert!(a.decisions.decision(a_nt).is_some());
    }
}
