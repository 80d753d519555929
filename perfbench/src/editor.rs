//! `editor`: one operation is one edit to a large document, applied to
//! a recovering parse session.
//!
//! There is one document per language; operations visit them in turn.
//! Each document replays the same ten-edit pattern with seeded positions:
//!
//! * token edits append a digit to a NUMBER/NAME/ID token or put one
//!   before a STRING's closing quote — the token keeps its kind, so the
//!   terminal word and its verdict (valid) do not change;
//! * trivia edits swap a blank between tokens for a tab or back — same
//!   width, so the token vector is unchanged and the session reuses its
//!   cached parse;
//! * a break inserts an extra opening bracket before a token in the
//!   document's last tenth (invalid, by the bracket argument of
//!   [`crate::lang::Lang::brackets`]); the next edit, its fix, deletes it
//!   again (valid).
//!
//! JSON, XML and DOT go through `Parser::reparse_after_edit`, which
//! splices with the incremental lexer. Python re-tokenizes the whole text
//! and re-parses, as `costar edit` does, because its layout tokens are
//! line-global.

use crate::lang::{yield_matches, Lang};
use crate::rng::{digest, mix, Rng};
use crate::{build_langs, ns_since, repeat_setup, Config, Ctx, Op, Workload};
use costar::{Edit, ParseOutcome, ParseSession, Parser, RecoveredParse};
use costar_grammar::Token;
use costar_langs::Language;
use std::time::Instant;

/// Generator size knob of each language's document (index of
/// [`Lang::ALL`]), for documents of several thousand tokens.
pub const DOC_SIZE: [usize; 4] = [6000, 6000, 3000, 3000];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Token,
    Trivia,
    Break,
    Fix,
}

/// The edit pattern every document cycles through.
const PATTERN: [Kind; 10] = [
    Kind::Token,
    Kind::Token,
    Kind::Trivia,
    Kind::Token,
    Kind::Break,
    Kind::Fix,
    Kind::Token,
    Kind::Trivia,
    Kind::Token,
    Kind::Trivia,
];

// One value per document, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum State {
    /// Incremental lexing through the library's session.
    Session(ParseSession),
    /// Whole-text re-tokenize and recovering re-parse (Python).
    Full {
        src: String,
        tokens: Vec<Token>,
        parsed: RecoveredParse,
    },
}

impl State {
    fn source(&self) -> &str {
        match self {
            State::Session(s) => s.source(),
            State::Full { src, .. } => src,
        }
    }

    fn tokens(&self) -> &[Token] {
        match self {
            State::Session(s) => s.tokens(),
            State::Full { tokens, .. } => tokens,
        }
    }

    fn parsed(&self) -> Option<&RecoveredParse> {
        match self {
            State::Session(s) => s.recovered(),
            State::Full { parsed, .. } => Some(parsed),
        }
    }
}

struct Doc {
    lang: Lang,
    language: Language,
    parser: Parser,
    state: Option<State>,
    step: usize,
    pending_fix: Option<usize>,
    rng: Rng,
}

/// The `editor` workload.
pub struct Editor {
    docs: Vec<Doc>,
}

/// JSON's generator emits no blanks at all; give the document some, so
/// trivia edits exist. The token word is unchanged by construction.
fn respace(language: &Language, src: &str) -> Result<String, String> {
    let tokens = language.tokenize(src).map_err(|e| e.to_string())?;
    let mut out = String::with_capacity(src.len() * 2);
    for (k, t) in tokens.iter().enumerate() {
        if k > 0 {
            out.push(if k % 8 == 0 { '\n' } else { ' ' });
        }
        out.push_str(t.lexeme());
    }
    Ok(out)
}

/// The document text of `lang` for `seed`.
pub fn document(lang: Lang, language: &Language, seed: u64) -> Result<String, String> {
    let s = mix(seed ^ (0xED17 + lang.index() as u64));
    let text = (lang.generator())(s, DOC_SIZE[lang.index()]);
    if lang == Lang::Json {
        respace(language, &text)
    } else {
        Ok(text)
    }
}

impl Editor {
    /// Set-up (timed, repeated), then documents and initial sessions
    /// (untimed).
    pub fn new(cfg: &Config, ctx: &mut Ctx) -> Result<(Self, Vec<f64>, u64), String> {
        let (built, setup) = repeat_setup(cfg.setup_reps, ctx, |ctx| {
            build_langs(&Lang::ALL, ctx)
                .into_iter()
                .map(|b| {
                    let parser = Parser::with_analysis(b.language.grammar().clone(), b.analysis);
                    (b.lang, b.language, parser)
                })
                .collect::<Vec<_>>()
        });
        let mut docs = Vec::new();
        let mut d = 0u64;
        for (lang, language, mut parser) in built {
            let (open, close) = lang.brackets();
            if !crate::lang::brackets_balance(language.grammar(), open, close) {
                return Err(format!("{}: `{open}`/`{close}` do not balance", lang.key()));
            }
            let text = document(lang, &language, cfg.seed)?;
            d = digest(d, text.as_bytes());
            let state = if language.incremental_lexing() {
                let s = parser
                    .parse_session_recovering(language.lexer(), &text)
                    .map_err(|e| format!("{}: {e}", lang.key()))?;
                State::Session(s)
            } else {
                let tokens = language
                    .tokenize(&text)
                    .map_err(|e| format!("{}: {e}", lang.key()))?;
                let parsed = parser.parse_recovering(&tokens);
                State::Full {
                    src: text,
                    tokens,
                    parsed,
                }
            };
            if !state.parsed().is_some_and(RecoveredParse::is_clean) {
                return Err(format!("{}: generated document does not parse", lang.key()));
            }
            docs.push(Doc {
                lang,
                language,
                parser,
                state: Some(state),
                step: 0,
                pending_fix: None,
                rng: Rng::new(mix(cfg.seed ^ (0xED00 + lang.index() as u64))),
            });
        }
        Ok((Editor { docs }, setup, d))
    }
}

/// Terminals whose lexemes a token edit may lengthen by one digit.
fn editable(language: &Language, t: &Token) -> Option<bool> {
    let name = language.grammar().symbols().terminal_name(t.terminal());
    match name {
        "NUMBER" | "NAME" | "ID" => Some(false),
        "STRING" => Some(true),
        _ => None,
    }
}

impl Doc {
    /// The next edit of the pattern, and whether its result is valid.
    fn next_edit(&mut self) -> (Edit, Kind) {
        let mut kind = PATTERN[self.step % PATTERN.len()];
        self.step += 1;
        let state = self.state.as_ref().expect("state present between ops");
        let src = state.source();
        let tokens = state.tokens();
        if kind == Kind::Fix {
            if let Some(at) = self.pending_fix.take() {
                return (Edit::new(at..at + 2, ""), Kind::Fix);
            }
            kind = Kind::Token;
        }
        if kind == Kind::Trivia {
            let bytes = src.as_bytes();
            for _ in 0..64 {
                let k = self.rng.below(tokens.len().max(2) - 1);
                let from = tokens[k].span().offset + tokens[k].span().len;
                // Python's closing DEDENTs sit one past the end of the text.
                let to = tokens
                    .get(k + 1)
                    .map_or(bytes.len(), |t| t.span().offset)
                    .min(bytes.len());
                if let Some(p) = (from..to).find(|&p| bytes[p] == b' ' || bytes[p] == b'\t') {
                    let swap = if bytes[p] == b' ' { "\t" } else { " " };
                    return (Edit::new(p..p + 1, swap), Kind::Trivia);
                }
            }
            kind = Kind::Token;
        }
        if kind == Kind::Break {
            // The last tenth of the document: a stray bracket's recovery
            // cascade then stays bounded (see README.md).
            let starts = crate::lang::token_starts(tokens);
            let at = starts[starts.len() - 1 - self.rng.below(starts.len() / 10 + 1)];
            self.pending_fix = Some(at);
            let text = format!("{} ", self.lang.brackets().0);
            return (Edit::new(at..at, text), Kind::Break);
        }
        let candidates: Vec<(usize, bool)> = tokens
            .iter()
            .enumerate()
            .filter_map(|(k, t)| editable(&self.language, t).map(|s| (k, s)))
            .collect();
        let (k, string) = candidates[self.rng.below(candidates.len())];
        let span = tokens[k].span();
        let at = span.offset + span.len - usize::from(string);
        let digit = (b'0' + self.rng.below(10) as u8) as char;
        (Edit::new(at..at, digit.to_string()), Kind::Token)
    }
}

impl Workload for Editor {
    fn op(&mut self, i: u64, ctx: &mut Ctx) -> Op {
        let n = self.docs.len() as u64;
        let doc = &mut self.docs[(i % n) as usize];
        let (edit, kind) = doc.next_edit();
        let mut state = doc.state.take().expect("state present between ops");

        let t0 = Instant::now();
        let mut applied = true;
        match &mut state {
            State::Session(session) => {
                let span = ctx.begin("session.reparse");
                let res = if ctx.traced() {
                    doc.parser
                        .reparse_after_edit_with_metrics(session, &edit)
                        .map(|(r, m)| (r, Some(m)))
                } else {
                    doc.parser
                        .reparse_after_edit(session, &edit)
                        .map(|r| (r, None))
                };
                ctx.end();
                match res {
                    Ok((r, Some(m))) => {
                        let relex_ns = r.splice.relex_micros * 1000;
                        ctx.tracer.child(span, "lexer.splice", 0, relex_ns);
                        ctx.counts.splices += 1;
                        ctx.counts.tokens_relexed += m.tokens_relexed;
                        ctx.counts.tokens_reused += m.tokens_reused;
                        ctx.counts.session_reparses += 1;
                        if r.reused {
                            ctx.counts.session_reused += 1;
                        } else {
                            let parse_ns = m.total_nanos.saturating_sub(relex_ns);
                            ctx.tracer.child(span, "recover.parse", relex_ns, parse_ns);
                            ctx.counts.recovering_parses += 1;
                            let mut pm = m.clone();
                            pm.total_nanos = parse_ns;
                            ctx.parse_done(doc.lang, &pm);
                        }
                    }
                    Ok((_, None)) => {}
                    Err(_) => applied = false,
                }
            }
            State::Full {
                src,
                tokens,
                parsed,
            } => match edit.apply_to(src) {
                Ok(next) => {
                    ctx.begin("lexer.tokenize");
                    let lexed = doc.language.tokenize(&next);
                    ctx.end();
                    match lexed {
                        Ok(new_tokens) => {
                            ctx.begin("recover.parse");
                            let (p, m) = if ctx.traced() {
                                let (p, m) = doc.parser.parse_recovering_with_metrics(&new_tokens);
                                (p, Some(m))
                            } else {
                                (doc.parser.parse_recovering(&new_tokens), None)
                            };
                            ctx.end();
                            ctx.begin("tree.drop");
                            *parsed = p;
                            ctx.end();
                            *src = next;
                            *tokens = new_tokens;
                            if let Some(m) = m {
                                ctx.counts.tokens_lexed += tokens.len() as u64;
                                ctx.counts.recovering_parses += 1;
                                ctx.parse_done(doc.lang, &m);
                            }
                        }
                        Err(_) => applied = false,
                    }
                }
                Err(_) => applied = false,
            },
        }
        let wall_ns = ns_since(t0);

        // Known answers, outside the timed region.
        let expect_valid = kind != Kind::Break;
        let tokens = state.tokens();
        let fresh = match &state {
            State::Session(s) => doc.language.tokenize(s.source()).ok().as_deref() == Some(tokens),
            State::Full { .. } => true,
        };
        let verdict = state.parsed().is_some_and(|p| {
            let tree_ok = p.tree().is_some_and(|t| yield_matches(t, tokens));
            if expect_valid {
                p.is_clean()
                    && matches!(p.outcome, ParseOutcome::Unique(_))
                    && tree_ok
                    && (!ctx.sampled(16)
                        || p.tree().is_some_and(|t| {
                            let g = doc.parser.grammar();
                            costar_grammar::check_tree(g, g.start(), tokens, t).is_ok()
                        }))
            } else {
                matches!(p.outcome, ParseOutcome::Reject(_)) && !p.diagnostics.is_empty() && tree_ok
            }
        });
        let n_tokens = tokens.len() as u64;
        doc.state = Some(state);
        Op {
            wall_ns,
            tokens: n_tokens,
            ok: applied && fresh && verdict,
        }
    }
}
