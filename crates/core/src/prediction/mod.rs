//! The `adaptivePredict` mechanism (paper §3.4).
//!
//! ALL(*)'s distinguishing feature: at each decision point (a nonterminal
//! at the top of the suffix stack), prediction launches one subparser per
//! alternative and advances them in lockstep over the remaining input
//! until a single alternative survives, none does, or ambiguity is
//! detected at end of input.
//!
//! Two strategies cooperate:
//!
//! * **SLL** ([`sll_predict`]) is fast and imprecise: subparsers carry
//!   only the stack frames created during the simulation, returning
//!   through statically computed stable frames when their local stack
//!   empties, and every analysis step is cached in a DFA
//!   ([`SllCache`](crate::SllCache)).
//! * **LL** ([`ll_predict`]) is slow and precise: subparsers carry the
//!   machine's actual suffix stack, so a completed decision nonterminal
//!   returns to its true context.
//!
//! SLL overapproximates LL: every LL-viable alternative is SLL-viable.
//! `adaptivePredict` therefore commits to an SLL `Unique` result (LL would
//! have agreed — paper Lemma 5.4), propagates an SLL `Reject` (LL could
//! not have found more alternatives), and *fails over to LL* when SLL
//! reports ambiguity, because the extra SLL alternatives might be
//! artifacts of the lost context.

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
pub(crate) mod cache;
pub(crate) mod sim;

use crate::budget::{AbortReason, Meter};
use crate::error::ParseError;
use crate::observe::{DecisionPath, Event, ParseObserver, PredictOutcome, PredictPhase};
use crate::prediction::cache::{EofResolution, Resolution, SllCache, StateId};
use crate::prediction::sim::{
    closure, distinct_alts, move_configs, ClosureStop, Config, SimMode, SimStack, SpState,
};
use crate::state::SuffixFrame;
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, NonTerminal, ProdId, Token};

/// The result of a prediction (`p` in paper Fig. 1, extended with the
/// budget-abort outcome).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Prediction {
    /// `UniqueP(γ)`: the sole alternative that may lead to a successful
    /// parse.
    Unique(ProdId),
    /// `AmbigP(γ)`: this alternative succeeds, and so does at least one
    /// other — the input is ambiguous.
    Ambig(ProdId),
    /// `RejectP`: no alternative can succeed.
    Reject,
    /// `ErrorP(e)`: prediction reached an inconsistent state or detected
    /// left recursion.
    Error(ParseError),
    /// The resource budget ran out mid-prediction; the decision is
    /// unresolved and the machine must abort.
    Abort(AbortReason),
}

impl From<ClosureStop> for Prediction {
    fn from(stop: ClosureStop) -> Self {
        match stop {
            ClosureStop::Error(e) => Prediction::Error(e),
            ClosureStop::Abort(r) => Prediction::Abort(r),
        }
    }
}

impl Prediction {
    /// The observer-facing classification of this prediction result.
    fn outcome(&self) -> PredictOutcome {
        match self {
            Prediction::Unique(_) => PredictOutcome::Unique,
            Prediction::Ambig(_) => PredictOutcome::Ambig,
            Prediction::Reject => PredictOutcome::Reject,
            Prediction::Error(_) => PredictOutcome::Error,
            Prediction::Abort(_) => PredictOutcome::Abort,
        }
    }
}

/// Builds the LL simulation base stack from the machine's suffix stack:
/// the machine frames, with the top frame's dot advanced past the decision
/// nonterminal (mirroring what the machine's own push operation does).
fn machine_base_stack(suffix: &[SuffixFrame]) -> SimStack {
    let mut stack = SimStack::empty();
    for (i, &frame) in suffix.iter().enumerate() {
        let is_top = i + 1 == suffix.len();
        stack = stack.push(if is_top { frame.advanced() } else { frame });
    }
    stack
}

/// Initial subparser configurations for decision nonterminal `x`: one per
/// alternative, each with the alternative's frame pushed on `base`.
fn initial_configs(g: &Grammar, x: NonTerminal, base: &SimStack) -> Vec<Config> {
    g.alternatives(x)
        .iter()
        .map(|&q| Config {
            alt: q,
            state: SpState::Stack(base.push(SuffixFrame::new(q))),
        })
        .collect()
}

/// LL prediction: precise, uncached lockstep simulation over the machine's
/// real suffix stack. Charges one unit of fuel per lookahead token
/// examined.
pub(crate) fn ll_predict<O: ParseObserver>(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    x: NonTerminal,
    suffix: &[SuffixFrame],
    remaining: &[Token],
    meter: &mut Meter,
    obs: &mut O,
) -> Prediction {
    let phase = PredictPhase::Ll;
    obs.on_event(Event::PredictStart { x, phase });
    let p = ll_predict_inner(g, analysis, x, suffix, remaining, meter, obs);
    obs.on_event(Event::PredictEnd {
        x,
        phase,
        outcome: p.outcome(),
    });
    p
}

fn ll_predict_inner<O: ParseObserver>(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    x: NonTerminal,
    suffix: &[SuffixFrame],
    remaining: &[Token],
    meter: &mut Meter,
    obs: &mut O,
) -> Prediction {
    let base = machine_base_stack(suffix);
    let mut configs = match closure(
        g,
        analysis,
        SimMode::Ll,
        initial_configs(g, x, &base),
        meter,
        obs,
    ) {
        Ok(c) => c,
        Err(stop) => return stop.into(),
    };
    let mut input = remaining.iter();
    loop {
        let alts = distinct_alts(&configs);
        match alts.as_slice() {
            [] => return Prediction::Reject,
            [only] => return Prediction::Unique(*only),
            _ => {}
        }
        if let Err(reason) = meter.charge(1) {
            obs.on_event(Event::Abort { reason });
            return Prediction::Abort(reason);
        }
        obs.on_event(Event::Lookahead {
            phase: PredictPhase::Ll,
        });
        let Some(t) = input.next() else {
            // End of input with several alternatives still alive: the
            // survivors that accept EOF each derive the whole remaining
            // word — ambiguity (paper §3.5: CoStar reports ambiguity only
            // when subparsers for different alternatives reach the end of
            // the input).
            let mut eof_alts: Vec<ProdId> = configs
                .iter()
                .filter(|c| matches!(c.state, SpState::AcceptEof))
                .map(|c| c.alt)
                .collect();
            eof_alts.sort_unstable();
            eof_alts.dedup();
            return match eof_alts.as_slice() {
                [] => Prediction::Reject,
                [only] => Prediction::Unique(*only),
                [first, ..] => Prediction::Ambig(*first),
            };
        };
        let moved = match move_configs(g, &configs, t.terminal()) {
            Ok(m) => m,
            Err(e) => return Prediction::Error(e),
        };
        configs = match closure(g, analysis, SimMode::Ll, moved, meter, obs) {
            Ok(c) => c,
            Err(stop) => return stop.into(),
        };
    }
}

/// SLL prediction: context-insensitive lockstep simulation with every step
/// cached as a DFA transition in `cache`. Charges one unit of fuel per
/// lookahead token examined.
///
/// An `Ambig` result here means "SLL conflict": several alternatives
/// survived to end of input *under the overapproximated context*, so the
/// caller must fail over to LL prediction.
///
/// The in-flight state id is passed to the cache as a protection set on
/// every intern, so capacity-driven eviction can never invalidate the
/// state this simulation is standing on.
pub(crate) fn sll_predict<O: ParseObserver>(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    x: NonTerminal,
    remaining: &[Token],
    cache: &mut SllCache,
    meter: &mut Meter,
    obs: &mut O,
) -> Prediction {
    let phase = PredictPhase::Sll;
    obs.on_event(Event::PredictStart { x, phase });
    let p = sll_predict_inner(g, analysis, x, remaining, cache, meter, obs);
    obs.on_event(Event::PredictEnd {
        x,
        phase,
        outcome: p.outcome(),
    });
    p
}

/// Interns `configs`, reporting any capacity-driven evictions that the
/// intern provoked to the observer.
fn intern_observed<O: ParseObserver>(
    cache: &mut SllCache,
    configs: Vec<Config>,
    protect: &[StateId],
    obs: &mut O,
) -> StateId {
    let before = cache.evictions_total();
    let id = cache.intern_protected(configs, protect);
    let evicted = cache.evictions_total() - before;
    if evicted > 0 {
        obs.on_event(Event::CacheEvictions { evicted });
    }
    id
}

fn sll_predict_inner<O: ParseObserver>(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    x: NonTerminal,
    remaining: &[Token],
    cache: &mut SllCache,
    meter: &mut Meter,
    obs: &mut O,
) -> Prediction {
    let mut sid: StateId = match cache.start_state(x) {
        Some(id) => id,
        None => {
            let configs = match closure(
                g,
                analysis,
                SimMode::Sll,
                initial_configs(g, x, &SimStack::empty()),
                meter,
                obs,
            ) {
                Ok(c) => c,
                Err(stop) => return stop.into(),
            };
            let id = intern_observed(cache, configs, &[], obs);
            cache.set_start_state(x, id);
            id
        }
    };

    let mut input = remaining.iter();
    let mut lookahead = 0usize;
    loop {
        match cache.state(sid).resolution {
            Resolution::Unique(alt) => {
                check_certificate(analysis, x, lookahead, obs);
                return Prediction::Unique(alt);
            }
            Resolution::Reject => {
                check_certificate(analysis, x, lookahead, obs);
                return Prediction::Reject;
            }
            Resolution::Pending => {}
        }
        if let Err(reason) = meter.charge(1) {
            obs.on_event(Event::Abort { reason });
            return Prediction::Abort(reason);
        }
        obs.on_event(Event::Lookahead {
            phase: PredictPhase::Sll,
        });
        let Some(t) = input.next() else {
            return match cache.eof_resolution(sid) {
                EofResolution::Unique(alt) => {
                    check_certificate(analysis, x, lookahead, obs);
                    Prediction::Unique(alt)
                }
                EofResolution::Reject => {
                    check_certificate(analysis, x, lookahead, obs);
                    Prediction::Reject
                }
                EofResolution::Conflict(alt) => Prediction::Ambig(alt),
            };
        };
        lookahead += 1;
        let term = t.terminal();
        obs.on_event(Event::CacheLookup);
        sid = match cache.transition(sid, term) {
            Some(next) => {
                obs.on_event(Event::CacheHit);
                next
            }
            None => {
                obs.on_event(Event::CacheMiss);
                let moved = match move_configs(g, &cache.state(sid).configs, term) {
                    Ok(m) => m,
                    Err(e) => return Prediction::Error(e),
                };
                let next_configs = match closure(g, analysis, SimMode::Sll, moved, meter, obs) {
                    Ok(c) => c,
                    Err(stop) => return stop.into(),
                };
                let next = intern_observed(cache, next_configs, &[sid], obs);
                cache.set_transition(sid, term, next);
                next
            }
        };
    }
}

/// LL-only prediction: the precise simulation at every decision, with no
/// SLL phase and no cache. Semantically equivalent to
/// [`adaptive_predict`]; exists for the cache ablation experiments.
pub(crate) fn ll_only_predict<O: ParseObserver>(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    x: NonTerminal,
    suffix: &[SuffixFrame],
    remaining: &[Token],
    meter: &mut Meter,
    obs: &mut O,
) -> Prediction {
    match g.alternatives(x) {
        [] => return Prediction::Reject,
        [only] => return Prediction::Unique(*only),
        _ => {}
    }
    ll_predict(g, analysis, x, suffix, remaining, meter, obs)
}

/// Validates a committed SLL resolution against the audit certificate's
/// finite lookahead bound, if decision `x` carries one. Static replay
/// (`costar_grammar::analysis::replay_certificate`) refutes *inflated*
/// bounds via their collide witnesses, but a *deflated* bound — claiming
/// fewer tokens suffice than actually do — is a universal statement no
/// single witness can refute, so it is checked here, on the live decision:
/// a correct certificate guarantees every committed SLL resolution uses at
/// most `k` lookahead tokens. Unbounded decisions (`k_bound` `None`) and
/// conflicts (which fail over to LL) carry no claim and are skipped.
fn check_certificate<O: ParseObserver>(
    analysis: &GrammarAnalysis,
    x: NonTerminal,
    lookahead: usize,
    obs: &mut O,
) {
    if let Some(k) = analysis.audit.k_bound(x) {
        obs.on_event(Event::CertificateCheck {
            x,
            ok: lookahead <= k,
        });
    }
}

/// `adaptivePredict` (paper §3.4): try SLL, commit to its unique and
/// reject answers, and fail over to LL when SLL detects a conflict.
///
/// A decision nonterminal with a single alternative short-circuits to
/// `Unique` without simulation — there is nothing to decide, and with no
/// competing alternative the `Unique` label is trivially correct.
///
/// When `use_static` is set and the static decision table classified `x`
/// as LL(1), the decision dispatches through the precompiled lookahead
/// map instead: no subparser simulation, no cache traffic, no fuel. This
/// is sound for non-left-recursive grammars — any alternative surviving
/// full prediction on lookahead `t` is selected by `t`, select sets are
/// disjoint, and an ambiguity verdict would force a select-set overlap —
/// so the fast path returns exactly what full prediction would (a map
/// miss coincides with full prediction's `Reject`). The verify crate's
/// `H-DECIDE-SOUND` harness checks the agreement dynamically.
#[allow(clippy::too_many_arguments)] // the paper's full decision context, plus the observer
pub(crate) fn adaptive_predict<O: ParseObserver>(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    x: NonTerminal,
    suffix: &[SuffixFrame],
    remaining: &[Token],
    cache: &mut SllCache,
    meter: &mut Meter,
    obs: &mut O,
    use_static: bool,
) -> Prediction {
    match g.alternatives(x) {
        [] => return Prediction::Reject,
        [only] => {
            obs.on_event(Event::Decision {
                x,
                path: DecisionPath::SingleAlternative,
            });
            return Prediction::Unique(*only);
        }
        _ => {}
    }
    let ll1 = if use_static {
        analysis.decisions.ll1_map(x)
    } else {
        None
    };
    if let Some(map) = ll1 {
        obs.on_event(Event::Decision {
            x,
            path: DecisionPath::Static,
        });
        let chosen = match remaining.first() {
            Some(t) => map.for_terminal(t.terminal()),
            None => map.for_eof(),
        };
        return match chosen {
            Some(alt) => Prediction::Unique(alt),
            // No alternative's select set contains the lookahead: full
            // prediction's first move (or EOF resolution) would kill
            // every subparser and reject too.
            None => Prediction::Reject,
        };
    }
    obs.on_event(Event::Decision {
        x,
        path: DecisionPath::Simulated,
    });
    // Every SLL answer but a conflict is final: `Unique`, `Reject` and
    // `Error` are SLL's commitments (observers count them from the SLL
    // phase's end event), and an abort propagates.
    match sll_predict(g, analysis, x, remaining, cache, meter, obs) {
        Prediction::Ambig(_) => {
            obs.on_event(Event::Failover { x });
            ll_predict(g, analysis, x, suffix, remaining, meter, obs)
        }
        committed => committed,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::observe::NullObserver;
    use costar_grammar::{tokens, GrammarBuilder};

    fn fig2() -> (Grammar, GrammarAnalysis) {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        (g, an)
    }

    fn start_suffix() -> Vec<SuffixFrame> {
        vec![SuffixFrame::bottom()]
    }

    fn nt(g: &Grammar, name: &str) -> NonTerminal {
        g.symbols().lookup_nonterminal(name).unwrap()
    }

    #[test]
    fn ll_decides_fig2_prediction() {
        // Paper Fig. 2: predicting S on "abd" must pick S -> A d, the
        // grammar's second alternative, and requires scanning to the last
        // token — the grammar is not LL(k) for k < 3 on this input family.
        let (g, an) = fig2();
        let mut tab = g.symbols().clone();
        let word = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let suffix = start_suffix();
        let s = nt(&g, "S");
        let p = ll_predict(
            &g,
            &an,
            s,
            &suffix,
            &word,
            &mut Meter::unlimited(),
            &mut NullObserver,
        );
        let Prediction::Unique(alt) = p else {
            panic!("expected unique prediction, got {p:?}")
        };
        assert_eq!(g.render_production(alt), "S -> A d");
    }

    #[test]
    fn sll_agrees_with_ll_on_fig2() {
        let (g, an) = fig2();
        let mut tab = g.symbols().clone();
        let word = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("c", "c")]);
        let s = nt(&g, "S");
        let suffix = start_suffix();
        let mut cache = SllCache::new();
        let sll = sll_predict(
            &g,
            &an,
            s,
            &word,
            &mut cache,
            &mut Meter::unlimited(),
            &mut NullObserver,
        );
        let ll = ll_predict(
            &g,
            &an,
            s,
            &suffix,
            &word,
            &mut Meter::unlimited(),
            &mut NullObserver,
        );
        assert_eq!(sll, ll);
        let Prediction::Unique(alt) = sll else {
            panic!("expected unique")
        };
        assert_eq!(g.render_production(alt), "S -> A c");
    }

    #[test]
    fn sll_caches_transitions_across_calls() {
        let (g, an) = fig2();
        let mut tab = g.symbols().clone();
        let word = tokens(&mut tab, &[("a", "a"), ("a", "a"), ("b", "b"), ("d", "d")]);
        let s = nt(&g, "S");
        let mut cache = SllCache::new();
        let p1 = sll_predict(
            &g,
            &an,
            s,
            &word,
            &mut cache,
            &mut Meter::unlimited(),
            &mut NullObserver,
        );
        let misses_after_first = cache.stats().misses;
        assert!(misses_after_first > 0);
        let p2 = sll_predict(
            &g,
            &an,
            s,
            &word,
            &mut cache,
            &mut Meter::unlimited(),
            &mut NullObserver,
        );
        assert_eq!(p1, p2);
        let stats = cache.stats();
        assert_eq!(
            stats.misses, misses_after_first,
            "second identical prediction must be answered from the cache"
        );
        assert!(stats.hits > 0);
    }

    #[test]
    fn prediction_rejects_unviable_input() {
        let (g, an) = fig2();
        let mut tab = g.symbols().clone();
        // "ac" cannot be derived: A never ends with a.
        let word = tokens(&mut tab, &[("a", "a"), ("c", "c")]);
        let s = nt(&g, "S");
        let suffix = start_suffix();
        let mut cache = SllCache::new();
        assert_eq!(
            adaptive_predict(
                &g,
                &an,
                s,
                &suffix,
                &word,
                &mut cache,
                &mut Meter::unlimited(),
                &mut NullObserver,
                true,
            ),
            Prediction::Reject
        );
    }

    #[test]
    fn ambiguous_grammar_detected() {
        // Fig. 6 of the paper: S -> X | Y; X -> a; Y -> a.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["X"]);
        gb.rule("S", &["Y"]);
        gb.rule("X", &["a"]);
        gb.rule("Y", &["a"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let mut tab = g.symbols().clone();
        let word = tokens(&mut tab, &[("a", "a")]);
        let suffix = start_suffix();
        let mut cache = SllCache::new();
        let p = adaptive_predict(
            &g,
            &an,
            nt(&g, "S"),
            &suffix,
            &word,
            &mut cache,
            &mut Meter::unlimited(),
            &mut NullObserver,
            true,
        );
        let Prediction::Ambig(alt) = p else {
            panic!("expected ambiguity, got {p:?}")
        };
        // CoStar picks one of the ambiguous alternatives; ours picks the
        // first in grammar order.
        assert_eq!(g.render_production(alt), "S -> X");
    }

    #[test]
    fn single_alternative_short_circuits() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a", "b"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let suffix = start_suffix();
        let mut cache = SllCache::new();
        // Even with empty input (which cannot parse), prediction commits
        // to the sole alternative; the machine will reject at consume.
        let p = adaptive_predict(
            &g,
            &an,
            g.start(),
            &suffix,
            &[],
            &mut cache,
            &mut Meter::unlimited(),
            &mut NullObserver,
            true,
        );
        assert!(matches!(p, Prediction::Unique(_)));
        assert_eq!(cache.stats().states, 0, "no simulation should run");
    }

    #[test]
    fn lockstep_scans_past_shared_prefixes() {
        // S -> A x | B y ; A -> a ; B -> a : deciding S requires looking
        // beyond the shared prefix "a" to the distinguishing x/y.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "x"]);
        gb.rule("S", &["B", "y"]);
        gb.rule("A", &["a"]);
        gb.rule("B", &["a"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let mut tab = g.symbols().clone();
        let word = tokens(&mut tab, &[("a", "a"), ("y", "y")]);
        let suffix = start_suffix();
        let mut cache = SllCache::new();
        let p = adaptive_predict(
            &g,
            &an,
            g.start(),
            &suffix,
            &word,
            &mut cache,
            &mut Meter::unlimited(),
            &mut NullObserver,
            true,
        );
        let Prediction::Unique(alt) = p else {
            panic!("expected unique, got {p:?}")
        };
        assert_eq!(g.render_production(alt), "S -> B y");
    }

    /// A grammar where SLL's merged contexts produce a genuine conflict
    /// that LL's precise context resolves:
    ///
    /// ```text
    /// S  -> p C1 | q C2 ;  C1 -> X b ;  C2 -> X a b ;  X -> a a | a
    /// ```
    ///
    /// Deciding X inside C2 on remaining input "a a b": under SLL, the
    /// alternative `X -> a a` survives to end of input through C1's
    /// continuation ".b" (a context that is impossible here), while
    /// `X -> a` survives through the true continuation ".a b" — an SLL
    /// conflict whose minimum alternative (`X -> a a`, listed first) is
    /// the *wrong* choice. LL failover restores the unique correct answer.
    fn sll_conflict_grammar() -> (Grammar, GrammarAnalysis) {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["p", "C1"]);
        gb.rule("S", &["q", "C2"]);
        gb.rule("C1", &["X", "b"]);
        gb.rule("C2", &["X", "a", "b"]);
        gb.rule("X", &["a", "a"]);
        gb.rule("X", &["a"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        (g, an)
    }

    #[test]
    fn sll_conflict_fails_over_to_ll() {
        let (g, an) = sll_conflict_grammar();
        let mut tab = g.symbols().clone();
        let word = tokens(&mut tab, &[("a", "a"), ("a", "a"), ("b", "b")]);
        let x = nt(&g, "X");
        // The machine context when X is decided inside C2: bottom frame
        // [S] (exhausted past S... simplified: S frame dot 1), the C2
        // frame with the dot at X.
        let s_alt2 = g.alternatives(g.start())[1];
        let c2 = nt(&g, "C2");
        let c2_alt = g.alternatives(c2)[0];
        let suffix = vec![
            SuffixFrame::bottom().advanced(),
            SuffixFrame {
                prod: Some(s_alt2),
                dot: 2, // past q and C2
            },
            SuffixFrame::new(c2_alt), // at X
        ];
        let mut cache = SllCache::new();
        // SLL alone conflicts and (wrongly) prefers X -> a a.
        let sll = sll_predict(
            &g,
            &an,
            x,
            &word,
            &mut cache,
            &mut Meter::unlimited(),
            &mut NullObserver,
        );
        let Prediction::Ambig(sll_alt) = sll else {
            panic!("expected an SLL conflict, got {sll:?}")
        };
        assert_eq!(g.render_production(sll_alt), "X -> a a");
        // LL failover picks the correct unique alternative.
        let p = adaptive_predict(
            &g,
            &an,
            x,
            &suffix,
            &word,
            &mut cache,
            &mut Meter::unlimited(),
            &mut NullObserver,
            true,
        );
        let Prediction::Unique(alt) = p else {
            panic!("expected LL failover to produce Unique, got {p:?}")
        };
        assert_eq!(g.render_production(alt), "X -> a");
    }

    #[test]
    fn canonical_sll_state_order_depends_only_on_the_grammar() {
        // Two separately compiled copies of the DOT grammar share no
        // allocation, so any address in a frame's identity would make
        // their interned start states differ.
        let start_configs = || {
            let lang = costar_langs::dot::language();
            let (g, an) = (lang.grammar(), lang.analysis());
            let stmt = nt(g, "stmt");
            let mut cache = SllCache::new();
            let _ = sll_predict(
                g,
                &an,
                stmt,
                &[],
                &mut cache,
                &mut Meter::unlimited(),
                &mut NullObserver,
            );
            let sid = cache.start_state(stmt).unwrap();
            cache.state(sid).configs.to_vec()
        };
        let (first, second) = (start_configs(), start_configs());
        assert!(first.len() > 1, "stmt's start state holds several configs");
        assert_eq!(first, second);
    }

    #[derive(Default)]
    struct CertCounter {
        checks: u64,
        failures: u64,
    }
    impl ParseObserver for CertCounter {
        fn on_event(&mut self, e: Event) {
            if let Event::CertificateCheck { ok, .. } = e {
                self.checks += 1;
                if !ok {
                    self.failures += 1;
                }
            }
        }
    }

    #[test]
    fn certificate_check_fires_only_for_bounded_decisions() {
        let (g, an) = fig2();
        let mut tab = g.symbols().clone();
        // A -> a A | b has certified bound k = 1: one token resolves it.
        let a_nt = nt(&g, "A");
        assert_eq!(an.audit.k_bound(a_nt), Some(1));
        let word = tokens(&mut tab, &[("b", "b"), ("d", "d")]);
        let mut cache = SllCache::new();
        let mut obs = CertCounter::default();
        let p = sll_predict(
            &g,
            &an,
            a_nt,
            &word,
            &mut cache,
            &mut Meter::unlimited(),
            &mut obs,
        );
        assert!(matches!(p, Prediction::Unique(_)));
        assert_eq!((obs.checks, obs.failures), (1, 0));
        // S's decision is unbounded under SLL (no finite k): it carries no
        // certificate claim, so committed resolutions fire no check.
        let s = nt(&g, "S");
        assert_eq!(an.audit.k_bound(s), None);
        let word = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let mut obs = CertCounter::default();
        let p = sll_predict(
            &g,
            &an,
            s,
            &word,
            &mut cache,
            &mut Meter::unlimited(),
            &mut obs,
        );
        assert!(matches!(p, Prediction::Unique(_)));
        assert_eq!(obs.checks, 0);
    }

    #[test]
    fn deflated_certificate_bound_fails_the_dynamic_check() {
        // Static replay cannot refute an understated bound (sufficiency is
        // universal over inputs); the runtime check is what catches it. A
        // resolution observed at lookahead 2 against certified k = 1 must
        // report a failed check.
        let (g, an) = fig2();
        let a_nt = nt(&g, "A");
        let mut obs = CertCounter::default();
        check_certificate(&an, a_nt, 2, &mut obs);
        assert_eq!((obs.checks, obs.failures), (1, 1));
        // Within the bound: counted as a validation, not a failure.
        check_certificate(&an, a_nt, 1, &mut obs);
        assert_eq!((obs.checks, obs.failures), (2, 1));
    }

    #[test]
    fn left_recursion_inside_prediction_errors() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["E", "x"]);
        gb.rule("S", &["E", "y"]);
        gb.rule("E", &["E", "p"]);
        gb.rule("E", &["i"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let mut tab = g.symbols().clone();
        let word = tokens(&mut tab, &[("i", "i"), ("x", "x")]);
        let suffix = start_suffix();
        let mut cache = SllCache::new();
        let p = adaptive_predict(
            &g,
            &an,
            g.start(),
            &suffix,
            &word,
            &mut cache,
            &mut Meter::unlimited(),
            &mut NullObserver,
            true,
        );
        assert!(matches!(p, Prediction::Error(ParseError::LeftRecursive(_))));
    }
}
