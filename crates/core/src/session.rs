//! Edit sessions: incremental lexing threaded through the parser.
//!
//! A [`ParseSession`] pairs a [`costar_lexer::EditSession`] (source text,
//! token vector, and the per-token DFA restart states that make splicing
//! possible) with the parser's most recent outcome for that token vector.
//! [`Parser::reparse_after_edit`] applies an [`Edit`], re-lexes only the
//! damaged region, and then exploits the one fact the incremental lexer
//! certifies (`H-INCR-LEX-SOUND`): the spliced token vector is
//! byte-identical — kind, lexeme, span — to a from-scratch lex of the
//! edited source. When the splice additionally reports
//! [`SpliceReport::unchanged`] (the token vector is byte-identical to the
//! *pre-edit* vector, e.g. an edit confined to skipped trivia of equal
//! width), the cached outcome is returned without running the parser at
//! all: a parse is a pure function of its token word (for a fixed
//! grammar, budget, and prediction mode), so identical words yield
//! identical outcomes. Otherwise the spliced word is re-parsed through
//! the parser's one driver, [`Parser::run`] — the same budget, cache
//! policy, panic boundary and step loop as any other parse — and the
//! cache is refreshed.
//!
//! Sessions come in the two flavors the parser itself has: plain
//! ([`Parser::parse_session`]) and recovering
//! ([`Parser::parse_session_recovering`], whose cached result keeps its
//! diagnostics). A session created one way stays that way — each reparse
//! runs with the same `recover` flag.

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
use crate::machine::ParseOutcome;
use crate::observe::{Event, NullObserver, ParseMetrics, ParseObserver};
use crate::parser::{measured, Parser};
use crate::recover::RecoveredParse;
use costar_grammar::Token;
use costar_lexer::{Edit, EditError, EditSession, LexError, Lexer, SpliceReport};

/// A live edit session: the current source text, its token vector with
/// incremental-relex metadata, and the cached result of parsing that
/// token vector. Create one with [`Parser::parse_session`] or
/// [`Parser::parse_session_recovering`]; advance it with
/// [`Parser::reparse_after_edit`].
#[derive(Debug)]
pub struct ParseSession {
    lex: EditSession,
    recover: bool,
    cached: RecoveredParse,
}

impl ParseSession {
    /// The current source text (all applied edits folded in).
    pub fn source(&self) -> &str {
        self.lex.source()
    }

    /// The current token vector — always byte-identical to what
    /// [`Lexer::tokenize`] would produce from [`ParseSession::source`].
    pub fn tokens(&self) -> &[Token] {
        self.lex.tokens()
    }

    /// The cached parse outcome for the current token vector. For a
    /// recovering session this is the embedded
    /// [`RecoveredParse::outcome`].
    pub fn outcome(&self) -> &ParseOutcome {
        &self.cached.outcome
    }

    /// The cached recovering result — diagnostics and all — when this
    /// session was created with [`Parser::parse_session_recovering`];
    /// `None` for plain sessions.
    pub fn recovered(&self) -> Option<&RecoveredParse> {
        self.recover.then_some(&self.cached)
    }
}

/// What one [`Parser::reparse_after_edit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReparse {
    /// `true` when the spliced token vector was byte-identical to the
    /// pre-edit vector and the cached outcome was returned without
    /// running the parser.
    pub reused: bool,
    /// The incremental lexer's own account of the splice: damage window,
    /// tokens re-lexed vs. carried over, and re-lex latency.
    pub splice: SpliceReport,
}

impl Parser {
    /// Lexes `source` with `lexer` (which must have been compiled against
    /// this grammar's symbol table) into an edit session, parses the
    /// resulting word, and returns the session with the outcome cached.
    ///
    /// Fails only if `source` does not lex; parse-level failures are
    /// values of the cached [`ParseOutcome`], not errors.
    pub fn parse_session(&mut self, lexer: &Lexer, source: &str) -> Result<ParseSession, LexError> {
        self.start_session(lexer, source, false)
    }

    /// [`Parser::parse_session`] with syntax-error recovery: the cached
    /// result is a full [`RecoveredParse`], and every reparse runs
    /// [`Parser::parse_recovering`] instead of [`Parser::parse`].
    pub fn parse_session_recovering(
        &mut self,
        lexer: &Lexer,
        source: &str,
    ) -> Result<ParseSession, LexError> {
        self.start_session(lexer, source, true)
    }

    fn start_session(
        &mut self,
        lexer: &Lexer,
        source: &str,
        recover: bool,
    ) -> Result<ParseSession, LexError> {
        let lex = EditSession::new(lexer, source)?;
        let cached = self.run(lex.tokens(), recover, &mut NullObserver);
        Ok(ParseSession {
            lex,
            recover,
            cached,
        })
    }

    /// Applies `edit` to the session's source, incrementally re-lexing
    /// only the damaged region, and refreshes the cached parse: when the
    /// spliced token vector is byte-identical to the pre-edit vector the
    /// cached outcome is reused outright (`reused == true`, no parse
    /// work); otherwise the new word is re-parsed and the cache replaced.
    ///
    /// On error — an out-of-range or char-splitting edit, or an edit
    /// whose result does not lex — the session is left exactly as it was:
    /// source, tokens, and cached outcome all still describe the
    /// pre-edit state, and further edits may be applied.
    pub fn reparse_after_edit(
        &mut self,
        session: &mut ParseSession,
        edit: &Edit,
    ) -> Result<SessionReparse, EditError> {
        self.reparse_after_edit_observed(session, edit, &mut NullObserver)
    }

    /// [`Parser::reparse_after_edit`] with a [`ParseObserver`]: fires
    /// [`Event::IncrementalRelex`] once for the splice, then
    /// (unless the cached outcome is reused) the usual parse events.
    pub fn reparse_after_edit_observed<O: ParseObserver>(
        &mut self,
        session: &mut ParseSession,
        edit: &Edit,
        obs: &mut O,
    ) -> Result<SessionReparse, EditError> {
        let splice = session.lex.apply(edit)?;
        obs.on_event(Event::IncrementalRelex {
            tokens_relexed: splice.tokens_relexed as u64,
            tokens_reused: splice.tokens_reused as u64,
            micros: splice.relex_micros,
        });
        let reused = splice.unchanged;
        if !reused {
            session.cached = self.run(session.lex.tokens(), session.recover, obs);
        }
        Ok(SessionReparse { reused, splice })
    }

    /// [`Parser::reparse_after_edit`] with a
    /// [`MetricsObserver`](crate::MetricsObserver) attached: returns the
    /// reparse summary together with the full
    /// [`ParseMetrics`], including the incremental counters
    /// (`tokens_relexed`, `tokens_reused`, `incremental_lex_micros`). A
    /// reused reparse reports zero machine steps — only the re-lex ran.
    pub fn reparse_after_edit_with_metrics(
        &mut self,
        session: &mut ParseSession,
        edit: &Edit,
    ) -> Result<(SessionReparse, ParseMetrics), EditError> {
        let (reparse, metrics, _) = measured(NullObserver, |obs| {
            let reparse = self.reparse_after_edit_observed(session, edit, obs);
            (reparse, session.tokens().len())
        });
        Ok((reparse?, metrics))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use costar_grammar::GrammarBuilder;
    use costar_lexer::LexerSpec;

    /// `S -> Ident = E ; E -> Int | Ident`, lexer compiled against the
    /// grammar's own symbol table so terminal identities line up.
    fn setup() -> (Parser, Lexer) {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["Ident", "Eq", "E"]);
        gb.rule("E", &["Int"]);
        gb.rule("E", &["Ident"]);
        let grammar = gb.start("S").build().unwrap();
        let mut tab = grammar.symbols().clone();
        let mut spec = LexerSpec::new();
        spec.token_literal("Eq", "=");
        spec.token("Ident", "[a-z]+");
        spec.token("Int", "[0-9]+");
        spec.skip("ws", "[ \\t\\r\\n]+");
        let lexer = Lexer::compile(&spec, &mut tab).unwrap();
        (Parser::new(grammar), lexer)
    }

    #[test]
    fn parse_session_caches_the_initial_outcome() {
        let (mut p, lexer) = setup();
        let session = p.parse_session(&lexer, "x = 1\n").unwrap();
        assert!(session.outcome().is_accept());
        assert_eq!(session.tokens().len(), 3);
        assert_eq!(session.source(), "x = 1\n");
        assert!(session.recovered().is_none());
    }

    #[test]
    fn changed_token_reparses_and_refreshes_the_cache() {
        let (mut p, lexer) = setup();
        let mut session = p.parse_session(&lexer, "x = 1\n").unwrap();
        // `1` -> `22`: the word changes, so the parse must rerun.
        let reparse = p
            .reparse_after_edit(&mut session, &Edit::new(4..5, "22"))
            .unwrap();
        assert!(!reparse.reused);
        assert_eq!(session.source(), "x = 22\n");
        assert!(session.outcome().is_accept());
        assert_eq!(session.tokens(), &lexer.tokenize("x = 22\n").unwrap()[..]);
        // `22` -> `yy`: still in the language via `E -> Ident`.
        let reparse = p
            .reparse_after_edit(&mut session, &Edit::new(4..6, "yy"))
            .unwrap();
        assert!(!reparse.reused);
        assert!(session.outcome().is_accept());
        // Break it: `yy` -> `=` rejects, and the cache must say so.
        let reparse = p
            .reparse_after_edit(&mut session, &Edit::new(4..6, "="))
            .unwrap();
        assert!(!reparse.reused);
        assert!(!session.outcome().is_accept());
    }

    #[test]
    fn same_width_trivia_edit_skips_the_parse() {
        let (mut p, lexer) = setup();
        let mut session = p.parse_session(&lexer, "x = 1\n").unwrap();
        // Space -> tab inside skipped trivia: same byte width, so every
        // token (spans included) survives verbatim.
        let (reparse, metrics) = p
            .reparse_after_edit_with_metrics(&mut session, &Edit::new(1..2, "\t"))
            .unwrap();
        assert!(reparse.reused);
        assert!(reparse.splice.unchanged);
        assert_eq!(metrics.machine_steps, 0, "the parse must be skipped");
        assert_eq!(
            metrics.tokens_relexed + metrics.tokens_reused,
            session.tokens().len() as u64
        );
        assert!(session.outcome().is_accept());
        assert_eq!(session.tokens(), &lexer.tokenize("x\t= 1\n").unwrap()[..]);
    }

    #[test]
    fn metrics_carry_the_incremental_counters() {
        let (mut p, lexer) = setup();
        let mut session = p.parse_session(&lexer, "x = 1\n").unwrap();
        let (reparse, metrics) = p
            .reparse_after_edit_with_metrics(&mut session, &Edit::new(4..5, "9"))
            .unwrap();
        assert!(!reparse.reused);
        assert!(metrics.machine_steps > 0);
        assert_eq!(metrics.tokens_relexed, reparse.splice.tokens_relexed as u64);
        assert_eq!(metrics.tokens_reused, reparse.splice.tokens_reused as u64);
        assert_eq!(metrics.tokens, session.tokens().len());
        assert!(metrics.reconciles());
        assert!(metrics.splice_reuse_fraction() > 0.0);
    }

    #[test]
    fn recovering_session_refreshes_diagnostics() {
        let (mut p, lexer) = setup();
        // `x = =` rejects at the second `=`.
        let mut session = p.parse_session_recovering(&lexer, "x = =\n").unwrap();
        let recovered = session.recovered().expect("recovering session");
        assert!(!recovered.diagnostics.is_empty());
        assert!(!session.outcome().is_accept());
        // Fix the error; the refreshed cache must be clean.
        let reparse = p
            .reparse_after_edit(&mut session, &Edit::new(4..5, "y"))
            .unwrap();
        assert!(!reparse.reused);
        let recovered = session.recovered().expect("still a recovering session");
        assert!(recovered.diagnostics.is_empty());
        assert!(session.outcome().is_accept());
    }

    #[test]
    fn failed_edits_leave_the_session_intact() {
        let (mut p, lexer) = setup();
        let mut session = p.parse_session(&lexer, "x = 1\n").unwrap();
        // Past EOF: typed error, nothing moved.
        let err = p
            .reparse_after_edit(&mut session, &Edit::new(10..12, "y"))
            .unwrap_err();
        assert!(matches!(err, EditError::OutOfBounds { .. }));
        assert_eq!(session.source(), "x = 1\n");
        assert!(session.outcome().is_accept());
        // Unlexable result: typed error, session still on the old source.
        let err = p
            .reparse_after_edit(&mut session, &Edit::new(4..5, "%"))
            .unwrap_err();
        assert!(matches!(err, EditError::Lex(_)));
        assert_eq!(session.source(), "x = 1\n");
        assert_eq!(session.tokens(), &lexer.tokenize("x = 1\n").unwrap()[..]);
        assert!(session.outcome().is_accept());
        // And the session still accepts further (valid) edits.
        let reparse = p
            .reparse_after_edit(&mut session, &Edit::new(4..5, "7"))
            .unwrap();
        assert!(!reparse.reused);
        assert!(session.outcome().is_accept());
    }
}
