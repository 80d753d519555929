//! Syntax-error recovery: panic-mode resynchronization of the stack machine.
//!
//! The paper's parser is a *decision procedure*: the first failed consume
//! or failed prediction rejects the input and the machine halts. Tooling
//! built on a parser (formatters, language servers, batch validators)
//! wants the opposite contract — parse as much as possible, report *every*
//! error, and return a tree that covers the whole input. This module adds
//! that contract as a layer on top of [`Machine`], without touching the
//! verified-core step function:
//!
//! * the machine runs exactly as in a plain parse — the same step loop,
//!   [`Machine::run`]'s — until a step would produce
//!   [`StepResult::Reject`](crate::StepResult::Reject);
//! * when the parse was asked to recover, the loop then records a structured [`Diagnostic`] and performs
//!   **panic-mode resynchronization**: using the sync sets precomputed by
//!   the grammar analysis ([`costar_grammar::analysis::SyncSets`]:
//!   FIRST ∪ FOLLOW per nonterminal)
//!   as a fast candidate filter, it searches for the nearest input token
//!   that can be consumed after skipping input tokens, popping unfinished
//!   stack frames, and/or advancing past expected-but-missing grammar
//!   symbols;
//! * the abandoned material is recorded in the tree as a
//!   [`Tree::Error`] node carrying the skipped tokens, so the recovered
//!   tree still yields the entire input;
//! * parsing resumes, repeating on later errors, bounded by
//!   [`Budget::with_max_recoveries`](crate::Budget::with_max_recoveries).
//!
//! ## Soundness on valid input
//!
//! On a word the grammar accepts, the machine never produces `Reject`, so
//! recovery never intervenes: [`Parser::parse_recovering`] takes the
//! byte-identical step sequence as [`Parser::parse`] and returns the
//! identical tree with zero diagnostics. The `H-RECOVER-SOUND` harness in
//! `crates/verify` checks exactly this (proptest + bounded kani).
//!
//! ## Termination
//!
//! Between recoveries the machine terminates by the paper's §4 measure.
//! Each recovery either consumes input (skipped tokens) or strictly
//! shrinks the stack/advances a dot; a stall guard forces any second
//! recovery at the same input position to skip at least one token (or
//! close out the parse at end of input). Recoveries are therefore bounded
//! by `2·|input| + 2` even without a configured cap.
//!
//! [`Parser::parse_recovering`]: crate::Parser::parse_recovering
//! [`Parser::parse`]: crate::Parser::parse

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
use crate::budget::AbortReason;
use crate::error::RejectReason;
use crate::machine::{Machine, ParseOutcome};
use crate::observe::{Event, ParseObserver};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{ErrorNode, Grammar, NonTerminal, Span, Symbol, Terminal, Token, Tree};
use std::fmt;

/// One recovered syntax error: where it happened, what the parser wanted,
/// and what the recovery did about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Token index the error was detected at (input length for
    /// end-of-input errors).
    pub at: usize,
    /// Source span of the error (the offending token's span, or the last
    /// token's for end-of-input errors; `Span::default()` when the input
    /// carries no positions).
    pub span: Span,
    /// The machine's rejection, verbatim.
    pub reason: RejectReason,
    /// Terminals that would have been acceptable at the error point
    /// (singleton for consume failures; the decision nonterminal's FIRST
    /// set for prediction failures; empty when only end of input was
    /// acceptable).
    pub expected: Vec<Terminal>,
    /// Input tokens panic-mode skipped to resynchronize.
    pub skipped: usize,
    /// Unfinished stack frames popped to resynchronize.
    pub popped: usize,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)?;
        if self.skipped > 0 {
            write!(f, " (skipped {} token(s))", self.skipped)?;
        }
        Ok(())
    }
}

/// The result of [`Parser::parse_recovering`](crate::Parser::parse_recovering).
///
/// The tree is stored exactly once: for clean parses it lives inside
/// [`RecoveredParse::outcome`] (`Unique`/`Ambig`, mirroring the plain
/// parse), and for recovered parses — where `outcome` is `Reject` — the
/// error-annotated tree is held separately. [`RecoveredParse::tree`]
/// unifies the two, so clean input never pays for a tree clone.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredParse {
    /// The error-annotated tree, populated only when `outcome` does not
    /// carry the tree itself (i.e. after at least one recovery).
    pub(crate) error_tree: Option<Tree>,
    /// One entry per recovered syntax error, in input order. Empty iff
    /// the input is in the grammar's language (or the parse aborted
    /// before the first error).
    pub diagnostics: Vec<Diagnostic>,
    /// What a plain parse of this word would have reported: `Unique` /
    /// `Ambig` when there were no errors, `Reject` with the *first*
    /// error's reason when there were, `Error` / `Aborted` verbatim.
    pub outcome: ParseOutcome,
}

/// The process exit code of one parse, shared by every `costar` command
/// that reports a parse: 0 accepted (ambiguity included), 1 rejected or
/// internal error, 3 budget abort, 4 parsed with recovered errors. A
/// rejection carrying `diagnostics` is one a recovering parse got past:
/// a recovering parse reports `Reject` only after at least one recovery,
/// and a plain parse records no diagnostics.
pub fn exit_code(outcome: &ParseOutcome, diagnostics: &[Diagnostic]) -> u8 {
    match outcome {
        ParseOutcome::Unique(_) | ParseOutcome::Ambig(_) => 0,
        ParseOutcome::Reject(_) if !diagnostics.is_empty() => 4,
        ParseOutcome::Reject(_) | ParseOutcome::Error(_) => 1,
        ParseOutcome::Aborted(_) => 3,
    }
}

impl RecoveredParse {
    /// `true` when the input parsed cleanly — no diagnostics, accepted.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.outcome.is_accept()
    }

    /// The parse tree. On valid input, identical to the plain parse's
    /// tree. After recoveries, a tree containing [`Tree::Error`] nodes
    /// whose yield (including skipped tokens) still spells the entire
    /// input. `None` when the parse ended in an internal error or abort.
    pub fn tree(&self) -> Option<&Tree> {
        match &self.outcome {
            ParseOutcome::Unique(t) | ParseOutcome::Ambig(t) => Some(t),
            _ => self.error_tree.as_ref(),
        }
    }

    /// Consumes the result, yielding the tree (see [`RecoveredParse::tree`]).
    pub fn into_tree(self) -> Option<Tree> {
        match self.outcome {
            ParseOutcome::Unique(t) | ParseOutcome::Ambig(t) => Some(t),
            _ => self.error_tree,
        }
    }
}

/// A resynchronization plan: skip `skip` input tokens, pop stack frames
/// until `target_frame` is on top, then advance that frame's dot to
/// `target_dot` (whose symbol can accept the next input token).
struct Plan {
    skip: usize,
    target_frame: usize,
    target_dot: usize,
}

/// One recovery inside the machine's step loop
/// ([`Machine::run`]'s `multistep`): enforces the budget's recovery cap,
/// fires [`Event::Recovery`], applies the stall guard — a
/// second recovery at the same input position must skip at least one
/// token — and records the diagnostic. Cold: valid input never gets here.
#[cold]
pub(crate) fn recover<O: ParseObserver>(
    machine: &mut Machine<'_>,
    obs: &mut O,
    reason: RejectReason,
    diagnostics: &mut Vec<Diagnostic>,
    last_cursor: &mut Option<usize>,
) -> Result<(), AbortReason> {
    if let Err(abort) = machine.check_recoveries(diagnostics.len()) {
        obs.on_event(Event::Abort { reason: abort });
        return Err(abort);
    }
    let cursor = machine.state().cursor;
    obs.on_event(Event::Recovery { cursor });
    let force_skip = *last_cursor == Some(cursor);
    *last_cursor = Some(cursor);
    diagnostics.push(recover_once(machine, obs, reason, force_skip));
    Ok(())
}

/// If the machine has reached its final configuration (one exhausted
/// frame, all input consumed) but recovery left several trees in the
/// bottom frame — error nodes alongside the root — wraps them all under
/// one start-symbol node so the machine's accept step can fire.
pub(crate) fn normalize_final_forest(machine: &mut Machine<'_>) {
    let input_len = machine.tokens().len();
    let g = machine.grammar();
    let st = machine.state_mut();
    if st.cursor < input_len || st.suffix.len() != 1 {
        return;
    }
    let exhausted = st.suffix.first().is_some_and(|f| f.is_exhausted(g));
    if !exhausted {
        return;
    }
    if let Some(bottom) = st.prefix.first_mut() {
        if bottom.trees.len() > 1 {
            let forest = std::mem::take(&mut bottom.trees);
            bottom.trees.push(Tree::Node(g.start(), forest));
        }
    }
}

/// Performs one panic-mode recovery for `reason`, mutating the machine
/// state so the next step can make progress. Returns the diagnostic.
fn recover_once<O: ParseObserver>(
    machine: &mut Machine<'_>,
    obs: &mut O,
    reason: RejectReason,
    force_skip: bool,
) -> Diagnostic {
    let analysis = machine.analysis();
    let tokens = machine.tokens();
    let expected = expected_terminals(analysis, &reason);
    let (skipped, popped) = match reason {
        RejectReason::TrailingInput { .. } => {
            // The parse is complete but input remains: absorb the tail
            // into an error node spliced into the root.
            let n = absorb_trailing(machine, tokens, obs, &reason);
            (n, 0)
        }
        RejectReason::UnexpectedEnd { .. } => {
            // Input ended mid-production: close every open frame.
            let popped = close_all_frames(machine, Vec::new(), &reason);
            (0, popped)
        }
        RejectReason::TokenMismatch { .. } | RejectReason::NoViableAlternative { .. } => {
            match find_plan(analysis, machine, tokens, &reason, force_skip) {
                Some(plan) => execute_plan(machine, tokens, obs, &reason, plan),
                None => {
                    // No resynchronization point anywhere in the remaining
                    // input: skip it all and close out the parse.
                    let mut skipped_tokens = Vec::new();
                    skip_tokens(machine, tokens, obs, tokens.len(), &mut skipped_tokens);
                    let n = skipped_tokens.len();
                    let popped = close_all_frames(machine, skipped_tokens, &reason);
                    (n, popped)
                }
            }
        }
    };
    Diagnostic {
        at: reason.position().unwrap_or(tokens.len()),
        span: reason.span(),
        reason,
        expected,
        skipped,
        popped,
    }
}

/// The terminals acceptable at the error point, for diagnostics.
fn expected_terminals(analysis: &GrammarAnalysis, reason: &RejectReason) -> Vec<Terminal> {
    match reason {
        RejectReason::TokenMismatch { expected, .. }
        | RejectReason::UnexpectedEnd { expected, .. } => vec![*expected],
        RejectReason::TrailingInput { .. } => Vec::new(),
        RejectReason::NoViableAlternative { nonterminal, .. } => {
            analysis.first.first(*nonterminal).iter().collect()
        }
    }
}

/// Searches the remaining input for the nearest resynchronization point:
/// the first token (starting `force_skip as usize` tokens ahead) that some
/// open frame could consume after popping the frames above it and/or
/// advancing its dot past missing symbols. The grammar's precomputed sync
/// sets serve as a cheap candidate filter before the exact per-frame scan.
fn find_plan(
    analysis: &GrammarAnalysis,
    machine: &Machine<'_>,
    tokens: &[Token],
    reason: &RejectReason,
    force_skip: bool,
) -> Option<Plan> {
    let st = machine.state();
    let cursor = st.cursor;

    // Candidate filter: FIRST of every unprocessed symbol, plus the sync
    // set (FIRST ∪ FOLLOW) of every open nonterminal.
    let mut candidates = costar_grammar::TermSet::with_capacity(0);
    let g = machine.grammar();
    for frame in &st.suffix {
        for &sym in frame.unprocessed(g) {
            match sym {
                Symbol::T(a) => {
                    candidates.insert(a);
                }
                Symbol::Nt(x) => {
                    candidates.union_with(analysis.first.first(x));
                }
            }
        }
        if let Some(x) = frame.caller(g) {
            candidates.union_with(analysis.sync.sync(x));
        }
    }

    // The exact stuck decision must not be offered as a "resync" target,
    // or a failed prediction would retry itself forever.
    let stuck_nt = match reason {
        RejectReason::NoViableAlternative { nonterminal, .. } => Some(*nonterminal),
        _ => None,
    };

    let top = st.suffix.len().checked_sub(1)?;
    for k in usize::from(force_skip)..tokens.len().saturating_sub(cursor) {
        let t = tokens.get(cursor + k)?;
        let term = t.terminal();
        if !candidates.contains(term) {
            continue;
        }
        // Innermost frame first: prefer finishing the current production.
        for i in (0..st.suffix.len()).rev() {
            let frame = st.suffix.get(i)?;
            let rhs = frame.rhs(g);
            for dot in frame.dot..rhs.len() {
                let accepts = match rhs.get(dot) {
                    Some(Symbol::T(a)) => *a == term,
                    Some(Symbol::Nt(x)) => {
                        // Skip the decision that just failed at this exact
                        // position (k == 0, top frame, current dot), and —
                        // unless the plan skips input — any nonterminal
                        // that would still be open after the plan's pops:
                        // re-pushing it at the same position would trip
                        // the machine's dynamic left-recursion detector.
                        let stuck_here = k == 0
                            && ((i == top && dot == frame.dot && Some(*x) == stuck_nt)
                                || open_after_pops(g, st, i, *x));
                        !stuck_here && analysis.first.first(*x).contains(term)
                    }
                    None => false,
                };
                if accepts {
                    return Some(Plan {
                        skip: k,
                        target_frame: i,
                        target_dot: dot,
                    });
                }
            }
        }
    }
    None
}

/// Would `x` remain in the machine's same-position `visited` set after a
/// plan targeting frame `target` pops every frame above it? The pops
/// remove the popped frames' callers from `visited`, so `x` stays open
/// only if it is visited now and is not one of those callers.
fn open_after_pops(
    g: &Grammar,
    st: &crate::state::MachineState,
    target: usize,
    x: NonTerminal,
) -> bool {
    st.visited.contains(x)
        && !st
            .suffix
            .iter()
            .skip(target.saturating_add(1))
            .any(|f| f.caller(g) == Some(x))
}

/// Applies a [`Plan`]: skips input, pops frames (preserving their partial
/// trees), advances the target dot, and splices one error node carrying
/// the skipped tokens. Returns `(tokens_skipped, frames_popped)`.
fn execute_plan<O: ParseObserver>(
    machine: &mut Machine<'_>,
    tokens: &[Token],
    obs: &mut O,
    reason: &RejectReason,
    plan: Plan,
) -> (usize, usize) {
    let mut skipped_tokens = Vec::new();
    let end = machine.state().cursor.saturating_add(plan.skip);
    skip_tokens(machine, tokens, obs, end, &mut skipped_tokens);
    let g = machine.grammar();
    let st = machine.state_mut();
    let mut popped = 0usize;
    while st.suffix.len() > plan.target_frame.saturating_add(1) {
        let (Some(done), Some(partial)) = (st.suffix.pop(), st.prefix.pop()) else {
            break;
        };
        if let (Some(x), Some(below)) = (done.caller(g), st.prefix.last_mut()) {
            // Preserve the abandoned frame's partial derivation as an
            // (incomplete) node — its consumed tokens stay in the tree.
            below.trees.push(Tree::Node(x, partial.trees));
            st.visited.remove(x);
        }
        popped += 1;
    }
    if let Some(frame) = st.suffix.last_mut() {
        frame.dot = plan.target_dot;
    }
    let n = skipped_tokens.len();
    let node = error_node(reason, skipped_tokens);
    if let Some(frame) = st.prefix.last_mut() {
        frame.trees.push(Tree::Error(node));
    }
    (n, popped)
}

/// Skips tokens up to (not including) input position `end`, firing
/// [`Event::ResyncSkip`] per token.
fn skip_tokens<O: ParseObserver>(
    machine: &mut Machine<'_>,
    tokens: &[Token],
    obs: &mut O,
    end: usize,
    out: &mut Vec<Token>,
) {
    let st = machine.state_mut();
    let before = st.cursor;
    while st.cursor < end {
        if let Some(t) = tokens.get(st.cursor) {
            obs.on_event(Event::ResyncSkip { cursor: st.cursor });
            out.push(t.clone());
        }
        st.cursor += 1;
    }
    if st.cursor > before {
        // The cursor moved, so the machine's same-position left-recursion
        // guard resets — exactly what its own consume step does.
        st.visited.clear();
    }
}

/// Trailing-input recovery: the bottom frame is exhausted but tokens
/// remain. Skips them all into one error node spliced into the root
/// node's children (keeping the final frame's single-tree shape, so the
/// machine's own accept step still fires). Returns the skip count.
fn absorb_trailing<O: ParseObserver>(
    machine: &mut Machine<'_>,
    tokens: &[Token],
    obs: &mut O,
    reason: &RejectReason,
) -> usize {
    let mut skipped_tokens = Vec::new();
    skip_tokens(machine, tokens, obs, tokens.len(), &mut skipped_tokens);
    let n = skipped_tokens.len();
    let node = error_node(reason, skipped_tokens);
    let st = machine.state_mut();
    match st.prefix.first_mut().and_then(|f| f.trees.last_mut()) {
        Some(Tree::Node(_, children)) => children.push(Tree::Error(node)),
        _ => {
            if let Some(f) = st.prefix.first_mut() {
                f.trees.push(Tree::Error(node));
            }
        }
    }
    n
}

/// End-of-input recovery: splices one error node (carrying any
/// already-skipped tokens) at the deepest open position, then closes
/// every open frame so the machine's next step accepts. Returns the
/// number of frames popped.
fn close_all_frames(
    machine: &mut Machine<'_>,
    skipped_tokens: Vec<Token>,
    reason: &RejectReason,
) -> usize {
    let g = machine.grammar();
    let st = machine.state_mut();
    let node = error_node(reason, skipped_tokens);
    if let Some(frame) = st.prefix.last_mut() {
        frame.trees.push(Tree::Error(node));
    }
    let mut popped = 0usize;
    while st.suffix.len() > 1 {
        let (Some(done), Some(partial)) = (st.suffix.pop(), st.prefix.pop()) else {
            break;
        };
        if let (Some(x), Some(below)) = (done.caller(g), st.prefix.last_mut()) {
            below.trees.push(Tree::Node(x, partial.trees));
            st.visited.remove(x);
        }
        popped += 1;
    }
    if let Some(bottom) = st.suffix.first_mut() {
        bottom.dot = bottom.rhs(g).len();
    }
    popped
}

/// Builds the error node for one recovery: span from the first skipped
/// token when there is one, else from the rejection itself. Boxed, as
/// [`Tree::Error`] holds it.
fn error_node(reason: &RejectReason, skipped: Vec<Token>) -> Box<ErrorNode> {
    let span = skipped
        .first()
        .map(|t| t.span())
        .filter(|s| s.has_position() || s.offset != 0)
        .unwrap_or_else(|| reason.span());
    Box::new(ErrorNode {
        span,
        skipped,
        reason: reason.to_string(),
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::machine::ParseOutcome;
    use crate::observe::MetricsObserver;
    use crate::parser::Parser;
    use costar_grammar::{tokens, GrammarBuilder, Token};

    fn fig2() -> Parser {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        Parser::new(gb.start("S").build().unwrap())
    }

    fn word(p: &Parser, names: &[&str]) -> Vec<Token> {
        let mut tab = p.grammar().symbols().clone();
        let pairs: Vec<(&str, &str)> = names.iter().map(|&n| (n, n)).collect();
        tokens(&mut tab, &pairs)
    }

    #[test]
    fn valid_input_is_untouched() {
        let mut p = fig2();
        let w = word(&p, &["a", "a", "b", "d"]);
        let plain = p.parse(&w);
        let recovered = p.parse_recovering(&w);
        assert!(recovered.is_clean());
        assert!(recovered.diagnostics.is_empty());
        assert_eq!(recovered.tree(), plain.tree());
        assert_eq!(recovered.outcome, plain);
        assert!(!recovered.into_tree().unwrap().has_errors());
    }

    #[test]
    fn corrupt_token_recovers_with_full_yield() {
        let mut p = fig2();
        // "a b x d": ALL(*) prediction scans the whole input, so the
        // corrupt token kills both S alternatives at the first decision —
        // the rejection surfaces as NoViableAlternative at position 0.
        let w = word(&p, &["a", "b", "x", "d"]);
        let r = p.parse_recovering(&w);
        assert!(!r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        // The outcome still reports the word as rejected.
        assert!(matches!(r.outcome, ParseOutcome::Reject(_)));
        assert!(!r.is_clean());
        let tree = r.tree().expect("recovery must yield a tree");
        assert!(tree.has_errors());
        // Every input token survives in the yield (leaves + skipped).
        assert_eq!(tree.yield_tokens().len(), w.len());
    }

    #[test]
    fn token_mismatch_after_committed_prediction_recovers() {
        // stmt has a single alternative, so the machine pushes it without
        // prediction and the corrupt token surfaces as a real consume
        // failure (TokenMismatch) mid-production.
        let mut gb = GrammarBuilder::new();
        gb.rule("stmt", &["id", "=", "num"]);
        let mut p = Parser::new(gb.start("stmt").build().unwrap());
        let w = word(&p, &["id", "?", "num"]);
        let r = p.parse_recovering(&w);
        assert!(matches!(
            r.diagnostics.first().map(|d| &d.reason),
            Some(RejectReason::TokenMismatch { at: 1, .. })
        ));
        let tree = r.tree().expect("tree");
        assert!(tree.has_errors());
        assert_eq!(tree.yield_tokens().len(), 3);
    }

    #[test]
    fn trailing_input_absorbed_into_root() {
        let mut p = fig2();
        let w = word(&p, &["b", "d", "b", "d"]);
        let r = p.parse_recovering(&w);
        assert_eq!(r.diagnostics.len(), 1);
        assert!(matches!(
            r.diagnostics[0].reason,
            RejectReason::TrailingInput { at: 2, .. }
        ));
        assert_eq!(r.diagnostics[0].skipped, 2);
        let tree = r.tree().expect("tree");
        assert_eq!(tree.yield_tokens().len(), 4);
        assert!(tree.root_symbol().is_some(), "root stays the start symbol");
    }

    #[test]
    fn unexpected_end_closes_open_frames() {
        // pair is LL(1): '(' commits the recursive alternative through the
        // static fast path, so truncated input surfaces as UnexpectedEnd
        // with the frames for both open parens still on the stack.
        let mut gb = GrammarBuilder::new();
        gb.rule("pair", &["(", "pair", ")"]);
        gb.rule("pair", &["x"]);
        let mut p = Parser::new(gb.start("pair").build().unwrap());
        let w = word(&p, &["(", "(", "x"]);
        let r = p.parse_recovering(&w);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert!(matches!(
            r.diagnostics[0].reason,
            RejectReason::UnexpectedEnd { .. }
        ));
        assert!(r.diagnostics[0].popped > 0, "open frames were closed");
        let tree = r.tree().expect("tree");
        assert!(tree.has_errors());
        assert_eq!(tree.yield_tokens().len(), 3);
    }

    #[test]
    fn empty_input_recovers_to_error_root() {
        let mut p = fig2();
        let r = p.parse_recovering(&[]);
        assert_eq!(r.diagnostics.len(), 1);
        let tree = r.tree().expect("tree");
        assert!(tree.has_errors());
        assert!(tree.yield_tokens().is_empty());
    }

    #[test]
    fn multiple_errors_yield_multiple_diagnostics() {
        // A statement-list grammar where recovery can resynchronize on the
        // next statement after a bad one.
        let mut gb = GrammarBuilder::new();
        gb.rule("list", &["stmt", ";", "list"]);
        gb.rule("list", &["stmt", ";"]);
        gb.rule("stmt", &["id", "=", "num"]);
        let mut p = Parser::new(gb.start("list").build().unwrap());
        // Two corrupted statements (bad token in place of `=`), one good.
        let w = word(
            &p,
            &[
                "id", "?", "num", ";", "id", "=", "num", ";", "id", "?", "num", ";",
            ],
        );
        let r = p.parse_recovering(&w);
        assert!(
            r.diagnostics.len() >= 2,
            "both corrupted statements must be reported: {:?}",
            r.diagnostics
        );
        let tree = r.tree().expect("tree");
        assert_eq!(tree.yield_tokens().len(), w.len());
        // The first diagnostic's reason is the outcome's reject reason.
        match (&r.outcome, &r.diagnostics[0].reason) {
            (ParseOutcome::Reject(a), b) => assert_eq!(a, b),
            other => panic!("expected Reject outcome: {other:?}"),
        }
    }

    #[test]
    fn garbage_input_terminates() {
        let mut p = fig2();
        let w = word(&p, &["x", "x", "x", "x", "x", "x"]);
        let r = p.parse_recovering(&w);
        assert!(!r.diagnostics.is_empty());
        let tree = r.tree().expect("even pure garbage produces a tree");
        assert_eq!(tree.yield_tokens().len(), w.len());
    }

    #[test]
    fn recovery_limit_aborts() {
        let mut gb = GrammarBuilder::new();
        gb.rule("list", &["stmt", ";", "list"]);
        gb.rule("list", &["stmt", ";"]);
        gb.rule("stmt", &["id", "=", "num"]);
        let g = gb.start("list").build().unwrap();
        let mut p = Parser::new(g);
        p.set_budget(Budget::unlimited().with_max_recoveries(1));
        let w = word(
            &p,
            &[
                "id", "?", "num", ";", "id", "?", "num", ";", "id", "?", "num", ";",
            ],
        );
        let r = p.parse_recovering(&w);
        assert!(
            matches!(
                r.outcome,
                ParseOutcome::Aborted(AbortReason::RecoveryLimit { limit: 1 })
            ),
            "{:?}",
            r.outcome
        );
        assert_eq!(r.diagnostics.len(), 1, "the first recovery still ran");
        assert!(r.tree().is_none());

        // Zero cap: the very first rejection aborts.
        p.set_budget(Budget::unlimited().with_max_recoveries(0));
        let r = p.parse_recovering(&w);
        assert!(matches!(
            r.outcome,
            ParseOutcome::Aborted(AbortReason::RecoveryLimit { limit: 0 })
        ));
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn observer_counts_recoveries_and_skips() {
        let mut p = fig2();
        let w = word(&p, &["a", "b", "x", "d"]);
        let mut obs = MetricsObserver::new();
        let r = p.run(&w, true, &mut obs);
        let m = obs.into_metrics();
        assert_eq!(m.recoveries, r.diagnostics.len() as u64);
        assert_eq!(
            m.tokens_skipped,
            r.diagnostics.iter().map(|d| d.skipped as u64).sum::<u64>()
        );
        assert!(m.reconciles(), "recovery must not break reconciliation");
    }

    #[test]
    fn diagnostics_carry_expected_sets_and_positions() {
        let mut gb = GrammarBuilder::new();
        gb.rule("stmt", &["id", "=", "num"]);
        let mut p = Parser::new(gb.start("stmt").build().unwrap());
        let w = word(&p, &["id", "?", "num"]);
        let r = p.parse_recovering(&w);
        let d = &r.diagnostics[0];
        assert_eq!(d.at, 1);
        let eq = p.grammar().symbols().lookup_terminal("=").unwrap();
        assert_eq!(d.expected, vec![eq], "the failed consume names its want");
        assert!(d.skipped >= 1);
        assert!(d.to_string().contains("skipped"), "{d}");
    }

    #[test]
    fn recovered_tree_yield_spells_the_input() {
        let mut p = fig2();
        let w = word(&p, &["a", "b", "x", "d"]);
        let r = p.parse_recovering(&w);
        let tree = r.tree().expect("tree");
        let got: Vec<_> = tree.yield_tokens().iter().map(Token::terminal).collect();
        let want: Vec<_> = w.iter().map(Token::terminal).collect();
        assert_eq!(got, want, "the recovered yield must spell the input");
    }
}
