//! The CoStar stack machine: `step` and `multistep` (paper §3.1–3.3).
//!
//! The machine examines its state and performs one of three operations —
//! **consume**, **push**, or **return** — or recognizes a final
//! configuration. `multistep` simply iterates `step`. In Coq, `multistep`
//! carries an accessibility proof of the termination measure as its
//! structurally decreasing argument (§4.2); in Rust the loop needs no such
//! ceremony, and the measure instead powers the instrumented runner in
//! [`crate::instrument`], which asserts that every step strictly decreases
//! it.

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
use crate::budget::{AbortReason, Budget, Meter};
use crate::error::{ParseError, RejectReason};
use crate::observe::{Event, MachineOp, NullObserver, ParseObserver};
use crate::prediction::cache::SllCache;
use crate::prediction::{adaptive_predict, ll_only_predict, Prediction};
use crate::recover::{self, Diagnostic, RecoveredParse};
use crate::state::{MachineState, PrefixFrame, SuffixFrame};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, Symbol, Token, Tree};

/// The outcome of a single machine step (`r` in paper Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult {
    /// `AcceptS(v)`: the machine reached a final configuration; the tree's
    /// uniqueness is reported separately by the machine's `unique` flag.
    Accept(Tree),
    /// `RejectS`: the input word is not in the language.
    Reject(RejectReason),
    /// `ErrorS(e)`: the machine state is inconsistent or the grammar is
    /// left-recursive (never happens for well-formed, non-left-recursive
    /// grammars — paper Theorem 5.8).
    Error(ParseError),
    /// `ContS(σ)`: one operation was performed; parsing continues.
    Cont,
    /// The configured [`Budget`] ran out (fuel, deadline, or stack depth).
    /// Not a paper result: the machine state is still consistent, the
    /// input is neither accepted nor rejected, and rerunning with a larger
    /// budget may resolve it either way.
    Abort(AbortReason),
}

/// The final result of a parse (`R` in paper Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// The word has exactly this parse tree.
    Unique(Tree),
    /// The word is ambiguous; this is one of its parse trees.
    Ambig(Tree),
    /// The word is not in the grammar's language.
    Reject(RejectReason),
    /// The parser reached an inconsistent state (impossible for
    /// non-left-recursive grammars).
    Error(ParseError),
    /// The configured [`Budget`] was exhausted before the parse resolved.
    /// Unlike `Reject` this says nothing about language membership, and
    /// unlike `Error` it is not a bug: the caller asked for bounded
    /// resources and the bound was reached. Degradation is ordered —
    /// cache pressure first evicts, SLL conflicts fail over to LL, and
    /// only a spent budget aborts.
    Aborted(AbortReason),
}

impl ParseOutcome {
    /// The parse tree, if the word was accepted (unique or ambiguous).
    pub fn tree(&self) -> Option<&Tree> {
        match self {
            ParseOutcome::Unique(t) | ParseOutcome::Ambig(t) => Some(t),
            _ => None,
        }
    }

    /// Consumes the outcome, returning the tree if the word was accepted.
    pub fn into_tree(self) -> Option<Tree> {
        match self {
            ParseOutcome::Unique(t) | ParseOutcome::Ambig(t) => Some(t),
            _ => None,
        }
    }

    /// `true` for `Unique` and `Ambig` outcomes.
    pub fn is_accept(&self) -> bool {
        matches!(self, ParseOutcome::Unique(_) | ParseOutcome::Ambig(_))
    }
}

/// Which prediction strategy the machine uses at decision points.
///
/// `Adaptive` is the paper's `adaptivePredict` (§3.4): cached SLL with LL
/// failover, plus the static LL(1) fast path from the grammar's decision
/// table. `AdaptiveNoStatic` disables only the fast path (the ablation
/// baseline). `LlOnly` disables SLL and its DFA cache entirely, running
/// the precise LL simulation at every decision — the "no memoization"
/// arm of the `ablation_sll_cache` benchmark, quantifying §2's claim that
/// the cache is what makes ALL(*) fast in practice. For non-left-recursive
/// grammars all modes produce identical outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictionMode {
    /// SLL with DFA cache, failing over to LL (the paper's algorithm),
    /// with decisions the static analysis classified LL(1) dispatched
    /// through the precompiled lookahead map (no simulation, no cache
    /// traffic).
    #[default]
    Adaptive,
    /// As `Adaptive`, but with the static LL(1) fast path disabled: every
    /// decision runs the full SLL simulation. The baseline arm of the
    /// `ablation_static_fast_path` benchmark and the `H-DECIDE-SOUND`
    /// agreement harness.
    AdaptiveNoStatic,
    /// Precise LL simulation at every decision, no caching.
    LlOnly,
}

/// The stack machine, borrowing the grammar, its analyses, and the input
/// word. Step it manually (for traces and instrumentation) or drive it to
/// completion with [`Machine::run`].
#[derive(Debug)]
pub struct Machine<'a> {
    grammar: &'a Grammar,
    analysis: &'a GrammarAnalysis,
    tokens: &'a [Token],
    state: MachineState,
    mode: PredictionMode,
    meter: Meter,
}

impl<'a> Machine<'a> {
    /// Creates a machine in the initial configuration for the grammar's
    /// start symbol.
    pub fn new(grammar: &'a Grammar, analysis: &'a GrammarAnalysis, tokens: &'a [Token]) -> Self {
        Machine::with_mode(grammar, analysis, tokens, PredictionMode::Adaptive)
    }

    /// Creates a machine with an explicit [`PredictionMode`].
    pub fn with_mode(
        grammar: &'a Grammar,
        analysis: &'a GrammarAnalysis,
        tokens: &'a [Token],
        mode: PredictionMode,
    ) -> Self {
        Machine::with_budget(grammar, analysis, tokens, mode, &Budget::unlimited())
    }

    /// Creates a machine governed by a [`Budget`]. Machine steps and
    /// prediction lookahead draw from one shared fuel pool — under
    /// [`Budget::with_auto_steps`], the cost certificate's bound for this
    /// word's length; the deadline and stack-depth limits are checked as
    /// the machine runs. Cache capacity limits are applied by the caller
    /// to the [`SllCache`] it supplies (see [`SllCache::set_capacity`]).
    pub fn with_budget(
        grammar: &'a Grammar,
        analysis: &'a GrammarAnalysis,
        tokens: &'a [Token],
        mode: PredictionMode,
        budget: &Budget,
    ) -> Self {
        Machine {
            grammar,
            analysis,
            tokens,
            state: MachineState::initial(grammar.num_nonterminals()),
            mode,
            meter: Meter::new(
                &budget.resolve_auto_steps(|| analysis.cost.bound_for(tokens.len() as u64)),
            ),
        }
    }

    /// Read access to the current machine state.
    pub fn state(&self) -> &MachineState {
        &self.state
    }

    /// Mutable access to the machine state — for instrumentation and for
    /// tests that need to construct the invariant-violating states
    /// ordinary execution can never reach (see Theorem 5.8).
    pub fn state_mut(&mut self) -> &mut MachineState {
        &mut self.state
    }

    /// The input word being parsed.
    pub fn tokens(&self) -> &'a [Token] {
        self.tokens
    }

    /// The grammar being interpreted.
    pub fn grammar(&self) -> &'a Grammar {
        self.grammar
    }

    /// The grammar analyses prediction and recovery consult.
    pub(crate) fn analysis(&self) -> &'a GrammarAnalysis {
        self.analysis
    }

    /// Checks the budget's recovery cap before recovery number `done + 1`.
    pub(crate) fn check_recoveries(&self, done: usize) -> Result<(), AbortReason> {
        self.meter.check_recoveries(done)
    }

    /// Units of fuel spent so far: machine operations plus prediction
    /// lookahead tokens, the quantity [`Budget::with_max_steps`] bounds.
    pub fn steps_taken(&self) -> u64 {
        self.meter.steps_taken()
    }

    /// Performs one machine operation (paper §3.3), mutating the state.
    ///
    /// Charges one unit of budget fuel per call; prediction charges more
    /// for its lookahead. Returns [`StepResult::Abort`] the moment the
    /// budget is exhausted — the machine state is left consistent but the
    /// parse is unresolved.
    pub fn step(&mut self, cache: &mut SllCache) -> StepResult {
        self.step_observed(cache, &mut NullObserver)
    }

    /// [`step`](Machine::step) with a [`ParseObserver`] receiving the
    /// step's events. Monomorphized per observer type; with
    /// [`NullObserver`] this compiles to the unobserved step.
    ///
    /// [`Event::MachineStep`] fires immediately after the
    /// successful fuel charge, so observer step counts reconcile exactly
    /// with [`Machine::steps_taken`].
    pub fn step_observed<O: ParseObserver>(
        &mut self,
        cache: &mut SllCache,
        obs: &mut O,
    ) -> StepResult {
        if let Err(reason) = self.meter.charge(1) {
            obs.on_event(Event::Abort { reason });
            return StepResult::Abort(reason);
        }
        obs.on_event(Event::MachineStep {
            cursor: self.state.cursor,
            stack_height: self.state.suffix.len(),
        });
        // Audited: the fault-injection harness exists precisely to throw
        // panics at the panic-safety wrapper; it is compiled out of
        // default builds.
        #[cfg(feature = "faults")]
        #[allow(clippy::disallowed_macros)]
        {
            let step_index = self.meter.steps_taken() - 1;
            if cache.fault_panic_due(step_index) {
                panic!("injected fault: panic at machine step {step_index}");
            }
        }
        let st = &mut self.state;
        if st.prefix.len() != st.suffix.len() {
            return StepResult::Error(ParseError::invalid_state(
                "prefix and suffix stacks have different heights",
            ));
        }
        let Some(top) = st.suffix.len().checked_sub(1) else {
            return StepResult::Error(ParseError::invalid_state("machine has no suffix frames"));
        };

        let Some(head) = st.suffix[top].head(self.grammar) else {
            if top == 0 {
                // Bottom frame exhausted: final configuration, or trailing
                // input.
                if st.cursor < self.tokens.len() {
                    return StepResult::Reject(RejectReason::TrailingInput {
                        at: st.cursor,
                        span: self
                            .tokens
                            .get(st.cursor)
                            .map(|t| t.span())
                            .unwrap_or_default(),
                    });
                }
                let frame = &mut st.prefix[0];
                if frame.trees.len() != 1 {
                    return StepResult::Error(ParseError::invalid_state(
                        "final prefix frame does not hold exactly one tree",
                    ));
                }
                let Some(tree) = frame.trees.pop() else {
                    return StepResult::Error(ParseError::invalid_state(
                        "final prefix frame emptied between check and pop",
                    ));
                };
                return StepResult::Accept(tree);
            }
            // Return operation.
            let Some(done) = st.suffix.pop() else {
                return StepResult::Error(ParseError::invalid_state(
                    "suffix stack emptied during a return operation",
                ));
            };
            let Some(x) = done.caller(self.grammar) else {
                return StepResult::Error(ParseError::invalid_state(
                    "return with no open nonterminal in the caller frame",
                ));
            };
            let Some(popped) = st.prefix.pop() else {
                return StepResult::Error(ParseError::invalid_state(
                    "prefix stack emptied during a return operation",
                ));
            };
            let Some(caller_frame) = st.prefix.last_mut() else {
                return StepResult::Error(ParseError::invalid_state(
                    "return left the machine with no caller frame",
                ));
            };
            caller_frame.trees.push(Tree::Node(x, popped.trees));
            st.visited.remove(x);
            obs.on_event(Event::Op {
                op: MachineOp::Return,
                cursor: st.cursor,
                stack_height: st.suffix.len(),
            });
            return StepResult::Cont;
        };
        match head {
            Symbol::T(a) => {
                // Consume operation.
                match self.tokens.get(st.cursor) {
                    None => StepResult::Reject(RejectReason::UnexpectedEnd {
                        at: self.tokens.len(),
                        // Point at the last token: "the input stopped here".
                        span: self.tokens.last().map(|t| t.span()).unwrap_or_default(),
                        expected: a,
                    }),
                    Some(t) if t.terminal() == a => {
                        st.suffix[top].dot += 1;
                        // Token lexemes are `Arc<str>`, so this clone is a
                        // refcount bump — no allocation in the hot consume
                        // path.
                        st.prefix[top].trees.push(Tree::Leaf(t.clone()));
                        obs.on_event(Event::Op {
                            op: MachineOp::Consume,
                            cursor: st.cursor,
                            stack_height: st.suffix.len(),
                        });
                        st.cursor += 1;
                        st.visited.clear();
                        StepResult::Cont
                    }
                    Some(t) => StepResult::Reject(RejectReason::TokenMismatch {
                        at: st.cursor,
                        span: t.span(),
                        expected: a,
                        found: t.terminal(),
                    }),
                }
            }
            Symbol::Nt(x) => {
                // Push operation, guarded by dynamic left-recursion
                // detection (paper §4.1).
                if st.visited.contains(x) {
                    return StepResult::Error(ParseError::LeftRecursive(x));
                }
                if let Err(reason) = self.meter.check_depth(st.suffix.len() + 1) {
                    obs.on_event(Event::Abort { reason });
                    return StepResult::Abort(reason);
                }
                let prediction = match self.mode {
                    PredictionMode::Adaptive | PredictionMode::AdaptiveNoStatic => {
                        adaptive_predict(
                            self.grammar,
                            self.analysis,
                            x,
                            &st.suffix,
                            &self.tokens[st.cursor..],
                            cache,
                            &mut self.meter,
                            obs,
                            self.mode == PredictionMode::Adaptive,
                        )
                    }
                    PredictionMode::LlOnly => ll_only_predict(
                        self.grammar,
                        self.analysis,
                        x,
                        &st.suffix,
                        &self.tokens[st.cursor..],
                        &mut self.meter,
                        obs,
                    ),
                };
                let (alt, ambig) = match prediction {
                    Prediction::Unique(alt) => (alt, false),
                    Prediction::Ambig(alt) => (alt, true),
                    Prediction::Reject => {
                        return StepResult::Reject(RejectReason::NoViableAlternative {
                            at: st.cursor,
                            span: self
                                .tokens
                                .get(st.cursor)
                                .map(|t| t.span())
                                .unwrap_or_default(),
                            nonterminal: x,
                        })
                    }
                    Prediction::Error(e) => return StepResult::Error(e),
                    Prediction::Abort(r) => return StepResult::Abort(r),
                };
                if ambig {
                    st.unique = false;
                }
                st.suffix[top].dot += 1; // the caller's dot passes X now

                // A clean parse pushes exactly one tree per rhs symbol, so
                // the forest never regrows and the `Tree::Node` it becomes
                // on return carries no spare capacity.
                st.prefix.push(PrefixFrame {
                    trees: Vec::with_capacity(self.grammar.production(alt).rhs().len()),
                });
                st.suffix.push(SuffixFrame::new(alt));
                st.visited.insert(x);
                obs.on_event(Event::Op {
                    op: MachineOp::Push,
                    cursor: st.cursor,
                    stack_height: st.suffix.len(),
                });
                StepResult::Cont
            }
        }
    }

    /// `multistep`: iterates [`step`](Machine::step) to a final result.
    ///
    /// Termination is guaranteed for well-formed grammars by the measure
    /// argument of paper §4 (every `Cont` step strictly decreases
    /// `meas(σ)` in the lexicographic order) — see
    /// [`crate::instrument::run_instrumented`], which checks exactly that.
    pub fn run(self, cache: &mut SllCache) -> ParseOutcome {
        self.run_observed(cache, &mut NullObserver)
    }

    /// [`run`](Machine::run) with a [`ParseObserver`] receiving every
    /// event, including a final [`Event::Finish`] carrying the
    /// meter's total fuel count.
    pub fn run_observed<O: ParseObserver>(self, cache: &mut SllCache, obs: &mut O) -> ParseOutcome {
        self.multistep(cache, obs, false).outcome
    }

    /// The one step loop behind every parse. With `recover`, a `Reject`
    /// step hands the machine to panic-mode resynchronization
    /// ([`crate::recover`]) and the loop keeps going; without it, the
    /// first `Reject` ends the parse. On a word the grammar accepts no
    /// step rejects, so both modes take the identical step sequence.
    pub(crate) fn multistep<O: ParseObserver>(
        mut self,
        cache: &mut SllCache,
        obs: &mut O,
        recover: bool,
    ) -> RecoveredParse {
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        let mut last_recovery_cursor: Option<usize> = None;
        let (error_tree, outcome) = loop {
            if !diagnostics.is_empty() {
                recover::normalize_final_forest(&mut self);
            }
            match self.step_observed(cache, obs) {
                StepResult::Cont => continue,
                StepResult::Accept(tree) => {
                    // Clean parses hand the tree to the outcome (no
                    // clone); recovered parses keep the error tree
                    // alongside the first rejection.
                    break match diagnostics.first() {
                        Some(d) => (Some(tree), ParseOutcome::Reject(d.reason.clone())),
                        None if self.state.unique => (None, ParseOutcome::Unique(tree)),
                        None => (None, ParseOutcome::Ambig(tree)),
                    };
                }
                StepResult::Reject(reason) if recover => {
                    if let Err(abort) = recover::recover(
                        &mut self,
                        obs,
                        reason,
                        &mut diagnostics,
                        &mut last_recovery_cursor,
                    ) {
                        break (None, ParseOutcome::Aborted(abort));
                    }
                }
                StepResult::Reject(r) => break (None, ParseOutcome::Reject(r)),
                StepResult::Error(e) => break (None, ParseOutcome::Error(e)),
                StepResult::Abort(r) => break (None, ParseOutcome::Aborted(r)),
            }
        };
        // The cost certificate's claim covers accepting and rejecting
        // parses: check those against the certified bound, so a deflated
        // certificate surfaces dynamically (mirroring the lookahead
        // certificate check in prediction). Errors and aborts are outside
        // the claim — an abort in particular stops *because* fuel ran
        // out — and so is resync work after a recovery.
        if diagnostics.is_empty()
            && matches!(
                outcome,
                ParseOutcome::Unique(_) | ParseOutcome::Ambig(_) | ParseOutcome::Reject(_)
            )
        {
            let bound = self.analysis.cost.bound_for(self.tokens.len() as u64);
            obs.on_event(Event::CostCheck {
                predicted_steps: bound,
                within_bound: self.meter.steps_taken() <= bound,
            });
        }
        obs.on_event(Event::Finish {
            meter_steps: self.meter.steps_taken(),
        });
        RecoveredParse {
            error_tree,
            diagnostics,
            outcome,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use costar_grammar::{check_tree, tokens, GrammarBuilder};

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

    fn run(g: &Grammar, an: &GrammarAnalysis, word: &[(&str, &str)]) -> ParseOutcome {
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, word);
        let mut cache = SllCache::new();
        Machine::new(g, an, &w).run(&mut cache)
    }

    #[test]
    fn fig2_trace_accepts_abd() {
        let (g, an) = fig2();
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let mut cache = SllCache::new();
        let mut machine = Machine::new(&g, &an, &w);
        // Count steps: per Fig. 2, the machine takes 7 operations
        // (push, push, consume, push, consume, return, consume) and then
        // two more returns before the final configuration.
        let mut steps = 0;
        let tree = loop {
            match machine.step(&mut cache) {
                StepResult::Cont => steps += 1,
                StepResult::Accept(t) => break t,
                other => panic!("unexpected result {other:?}"),
            }
        };
        assert_eq!(steps, 9);
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        assert!(check_tree(&g, s, &w, &tree).is_ok());
        assert!(machine.state().unique);
    }

    #[test]
    fn rejects_with_positions() {
        let (g, an) = fig2();
        // Wrong final terminal.
        let ParseOutcome::Reject(r) = run(&g, &an, &[("a", "a"), ("b", "b"), ("b", "b")]) else {
            panic!("expected reject")
        };
        assert!(matches!(
            r,
            RejectReason::TokenMismatch { at: 2, .. }
                | RejectReason::NoViableAlternative { at: 0, .. }
        ));
        // Early end of input.
        let ParseOutcome::Reject(_) = run(&g, &an, &[("a", "a")]) else {
            panic!("expected reject")
        };
        // Trailing input.
        let ParseOutcome::Reject(_) = run(&g, &an, &[("b", "b"), ("c", "c"), ("c", "c")]) else {
            panic!("expected reject")
        };
    }

    #[test]
    fn ambiguous_input_flagged() {
        // Paper Fig. 6: S -> X | Y ; X -> a ; Y -> a.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["X"]);
        gb.rule("S", &["Y"]);
        gb.rule("X", &["a"]);
        gb.rule("Y", &["a"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let ParseOutcome::Ambig(tree) = run(&g, &an, &[("a", "a")]) else {
            panic!("expected ambiguous accept")
        };
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, &[("a", "a")]);
        assert!(check_tree(&g, s, &w, &tree).is_ok());
    }

    #[test]
    fn left_recursive_grammar_detected_at_push() {
        // Single-alternative chains bypass prediction, exercising the
        // machine-level visited check: E has one alternative E -> E x.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["E"]);
        gb.rule("E", &["E", "x"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let ParseOutcome::Error(ParseError::LeftRecursive(x)) = run(&g, &an, &[("x", "x")]) else {
            panic!("expected left-recursion error")
        };
        assert_eq!(g.symbols().nonterminal_name(x), "E");
    }

    #[test]
    fn sll_conflict_failover_parses_correctly() {
        // See `prediction::tests::sll_conflict_fails_over_to_ll` for the
        // full analysis of this grammar; end-to-end, the word belongs to
        // the language and must parse uniquely despite the SLL conflict.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["p", "C1"]);
        gb.rule("S", &["q", "C2"]);
        gb.rule("C1", &["X", "b"]);
        gb.rule("C2", &["X", "a", "b"]);
        gb.rule("X", &["a", "a"]);
        gb.rule("X", &["a"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let outcome = run(&g, &an, &[("q", "q"), ("a", "a"), ("a", "a"), ("b", "b")]);
        let ParseOutcome::Unique(tree) = outcome else {
            panic!("expected unique accept, got {outcome:?}")
        };
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, &[("q", "q"), ("a", "a"), ("a", "a"), ("b", "b")]);
        assert!(check_tree(&g, g.start(), &w, &tree).is_ok());
    }

    #[test]
    fn empty_word_parses_nullable_grammar() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "B"]);
        gb.rule("A", &[]);
        gb.rule("B", &[]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let ParseOutcome::Unique(tree) = run(&g, &an, &[]) else {
            panic!("expected unique accept of the empty word")
        };
        assert_eq!(tree.leaf_count(), 0);
        assert!(check_tree(&g, g.start(), &[], &tree).is_ok());
    }

    #[test]
    fn outcome_accessors() {
        let (g, an) = fig2();
        let o = run(&g, &an, &[("b", "b"), ("c", "c")]);
        assert!(o.is_accept());
        assert!(o.tree().is_some());
        assert!(o.into_tree().is_some());
        let o = run(&g, &an, &[("c", "c")]);
        assert!(!o.is_accept());
        assert!(o.tree().is_none());
        assert!(o.into_tree().is_none());
    }
}
