//! # costar-langs — the four benchmark languages of the CoStar evaluation
//!
//! The paper evaluates CoStar on JSON, XML, DOT, and Python 3 (§6.1,
//! Fig. 8). This crate reproduces that setup end to end, with one module
//! per language providing:
//!
//! * an EBNF grammar (compiled through `costar-ebnf`, mirroring the
//!   paper's ANTLR-grammar conversion pipeline; the XML grammar keeps the
//!   non-LL(k) element rule quoted in §6.1, and DOT follows the Graphviz
//!   grammar the original ANTLR evaluation used);
//! * a lexer built with `costar-lexer` (standing in for the ANTLR lexers
//!   the paper used to pre-tokenize input) — Python additionally layers
//!   the INDENT/DEDENT/NEWLINE logical-line discipline on top of the DFA
//!   scanner, like CPython's tokenizer;
//! * the grammar's analysis (`GrammarAnalysis`), computed ahead of time
//!   and shipped as its cache document in `analysis/`, so a process that
//!   parses with a bundled language does no grammar analysis at start-up
//!   (the paper likewise computes its grammar facts, such as the stable
//!   return frames of §3.5, once and before parsing);
//! * a seeded synthetic source generator. The paper's corpora (Open
//!   American National Corpus XML, the ANTLR evaluation's DOT files, the
//!   Python 3.6 standard library) are not redistributable here, so each
//!   generator produces realistically nested documents across a spread of
//!   sizes — Fig. 9/10/11 depend only on token-count scaling behavior,
//!   which the generators preserve.

#![warn(missing_docs)]

pub mod dot;
pub mod json;
pub mod python;
pub mod xml;

use costar_grammar::analysis::{from_cache_json, GrammarAnalysis};
use costar_grammar::{Grammar, SymbolTable, Token};
use costar_lexer::{LexError, Lexer, LexerSpec};

/// How a language turns source text into the token word CoStar consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenizerKind {
    /// Run the DFA lexer over the whole input.
    Plain,
    /// Logical-line tokenization with INDENT/DEDENT/NEWLINE synthesis
    /// (Python).
    PythonIndent,
}

/// A benchmark language: its grammar, lexer, and synthetic generator.
#[derive(Debug)]
pub struct Language {
    /// Display name ("JSON", "XML", "DOT", "Python").
    pub name: &'static str,
    grammar: Grammar,
    analysis: &'static str,
    lexer: Lexer,
    tokenizer: TokenizerKind,
    /// Nonterminals the EBNF desugaring introduced (for Fig. 8 notes).
    pub fresh_nonterminals: usize,
}

impl Language {
    fn build(
        name: &'static str,
        ebnf_src: &str,
        analysis: &'static str,
        spec: &LexerSpec,
        tokenizer: TokenizerKind,
    ) -> Language {
        let (grammar, stats) =
            costar_ebnf::compile(ebnf_src).unwrap_or_else(|e| panic!("{name} grammar: {e}"));
        // Compile the lexer against a copy of the grammar's symbol table
        // so token terminals share the grammar's interned identities.
        let mut tab: SymbolTable = grammar.symbols().clone();
        let before = tab.num_terminals();
        let lexer = Lexer::compile(spec, &mut tab).unwrap_or_else(|e| panic!("{name} lexer: {e}"));
        assert_eq!(
            tab.num_terminals(),
            before,
            "{name}: lexer emits a terminal the grammar does not mention"
        );
        Language {
            name,
            grammar,
            analysis,
            lexer,
            tokenizer,
            fresh_nonterminals: stats.fresh_nonterminals,
        }
    }

    /// The language's (desugared BNF) grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The grammar's analysis, loaded from the document shipped with the
    /// language. Loading goes through the validating
    /// [`from_cache_json`], so the certificates are replayed against the
    /// grammar; a document that no longer matches the grammar is
    /// recomputed instead (`tests/analysis_pins.rs` keeps the shipped
    /// documents current, so that fallback never runs in a tested tree).
    pub fn analysis(&self) -> GrammarAnalysis {
        from_cache_json(&self.grammar, self.analysis)
            .unwrap_or_else(|| GrammarAnalysis::compute(&self.grammar))
    }

    /// The shipped analysis document (`to_cache_json` of the grammar's
    /// analysis) that [`Language::analysis`] loads.
    pub fn analysis_document(&self) -> &'static str {
        self.analysis
    }

    /// The language's compiled lexer.
    pub fn lexer(&self) -> &Lexer {
        &self.lexer
    }

    /// Tokenizes source text into the word the parser consumes.
    ///
    /// # Errors
    ///
    /// Returns [`LexError`] on unmatchable input (or, for Python,
    /// inconsistent indentation).
    pub fn tokenize(&self, source: &str) -> Result<Vec<Token>, LexError> {
        match self.tokenizer {
            TokenizerKind::Plain => self.lexer.tokenize(source),
            TokenizerKind::PythonIndent => python::tokenize_indented(self, source),
        }
    }

    /// Whether [`Language::tokenize`] is exactly the DFA lexer over the
    /// whole input — the precondition for incremental lexing
    /// (`costar::Parser::parse_session` splices at DFA token boundaries).
    /// `false` for Python, whose INDENT/DEDENT/NEWLINE synthesis is a
    /// line-global pass over the raw token stream; editors of Python
    /// sources must re-tokenize from scratch.
    pub fn incremental_lexing(&self) -> bool {
        self.tokenizer == TokenizerKind::Plain
    }

    /// Grammar-size statistics for the Fig. 8 table: `(|T|, |N|, |P|)` of
    /// the desugared BNF grammar.
    pub fn grammar_stats(&self) -> (usize, usize, usize) {
        (
            self.grammar.num_terminals(),
            self.grammar.num_nonterminals(),
            self.grammar.num_productions(),
        )
    }
}

/// A synthetic source generator: `(seed, approximate size knob) → source`.
/// Larger knob values produce longer documents, roughly linearly.
pub type Generator = fn(u64, usize) -> String;

/// Builds one benchmark language (its `language()` function).
pub type Constructor = fn() -> Language;

/// The four benchmark languages by lowercase name, each with its
/// constructor and generator, in the paper's Fig. 8 order. Calling one
/// constructor builds only that language.
pub const LANGUAGES: [(&str, Constructor, Generator); 4] = [
    ("json", json::language, json::generate),
    ("xml", xml::language, xml::generate),
    ("dot", dot::language, dot::generate),
    ("python", python::language, python::generate),
];

/// All four benchmark languages with their generators, in the paper's
/// Fig. 8 order.
pub fn all_languages() -> Vec<(Language, Generator)> {
    LANGUAGES
        .iter()
        .map(|&(_, build, generate)| (build(), generate))
        .collect()
}

/// Generates a corpus of files across a spread of sizes, mirroring the
/// paper's many-files-of-varying-size data sets (§6.1, footnote 6:
/// "Testing CoStar on many files of varying size gave us a clearer
/// picture of the tool's asymptotic behavior").
pub fn corpus(generate: Generator, seed: u64, num_files: usize, max_size: usize) -> Vec<String> {
    (0..num_files)
        .map(|i| {
            // Sizes spread linearly from ~max/num_files up to ~max.
            let size = (max_size * (i + 1)).div_ceil(num_files).max(1);
            generate(seed.wrapping_add(i as u64), size)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_languages_build() {
        let langs = all_languages();
        assert_eq!(langs.len(), 4);
        let names: Vec<&str> = langs.iter().map(|(l, _)| l.name).collect();
        assert_eq!(names, vec!["JSON", "XML", "DOT", "Python"]);
        for ((key, _, _), name) in LANGUAGES.iter().zip(names) {
            assert_eq!(*key, name.to_lowercase());
        }
    }

    #[test]
    fn corpora_scale_with_the_size_knob() {
        for (lang, generate) in all_languages() {
            let files = corpus(generate, 1, 5, 200);
            let sizes: Vec<usize> = files
                .iter()
                .map(|f| lang.tokenize(f).expect("generated files lex").len())
                .collect();
            assert!(sizes.iter().all(|&s| s > 0), "{}: empty file", lang.name);
            let smallest = *sizes.iter().min().unwrap();
            let largest = *sizes.iter().max().unwrap();
            assert!(
                largest >= smallest * 2,
                "{}: sizes do not spread: {sizes:?}",
                lang.name
            );
        }
    }

    #[test]
    fn audit_classifies_every_decision_point_exactly_once() {
        // The audit pass must hand every multi-alternative nonterminal of
        // every bundled grammar exactly one verdict out of {dead,
        // shadowed, LL(1), bounded SLL, unbounded regular lookahead} —
        // and none of the shipped grammars may carry a dead or shadowed
        // alternative (those are grammar bugs, not language features).
        use costar_grammar::analysis::{DecisionClass, GrammarAnalysis};
        for (lang, _) in all_languages() {
            let g = lang.grammar();
            let analysis = GrammarAnalysis::compute(g);
            let mut ll1 = 0usize;
            let mut bounded = 0usize;
            let mut unbounded = 0usize;
            for x in g.symbols().nonterminals() {
                let name = g.symbols().nonterminal_name(x);
                if g.alternatives(x).len() < 2 {
                    assert!(
                        analysis.audit.audit(x).is_none(),
                        "{}: `{name}` is not a decision point but was audited",
                        lang.name
                    );
                    continue;
                }
                let a = analysis.audit.audit(x).unwrap_or_else(|| {
                    panic!("{}: decision point `{name}` was not audited", lang.name)
                });
                let is_ll1 = analysis
                    .decisions
                    .decision(x)
                    .is_some_and(|d| d.class == DecisionClass::Ll1);
                let verdicts = [
                    !a.dead.is_empty(),
                    a.dead.is_empty() && !a.shadowed.is_empty(),
                    a.dead.is_empty() && a.shadowed.is_empty() && is_ll1,
                    a.dead.is_empty() && a.shadowed.is_empty() && !is_ll1 && a.k.is_some(),
                    a.dead.is_empty() && a.shadowed.is_empty() && !is_ll1 && a.k.is_none(),
                ];
                assert_eq!(
                    verdicts.iter().filter(|&&v| v).count(),
                    1,
                    "{}: `{name}` verdicts {verdicts:?}",
                    lang.name
                );
                assert!(
                    a.dead.is_empty() && a.shadowed.is_empty(),
                    "{}: bundled grammar has a dead/shadowed alternative at `{name}`",
                    lang.name
                );
                // An LL(1)-classified decision is single-token decidable,
                // so the audit must certify exactly k = 1 for it.
                if is_ll1 {
                    assert_eq!(
                        a.k,
                        Some(1),
                        "{}: LL(1) `{name}` certified {:?}",
                        lang.name,
                        a.k
                    );
                    ll1 += 1;
                } else if a.k.is_some() {
                    bounded += 1;
                } else {
                    unbounded += 1;
                }
            }
            let stats = analysis.audit.stats();
            assert_eq!(
                stats.decision_points,
                ll1 + bounded + unbounded,
                "{}: verdict counts do not partition the decision points",
                lang.name
            );
            assert_eq!(stats.dead_alternatives, 0, "{}", lang.name);
            assert_eq!(stats.shadowed_alternatives, 0, "{}", lang.name);
            assert!(ll1 > 0, "{}: no LL(1) decision at all", lang.name);
            // The §6.1 contrast: JSON is fully bounded (every decision
            // certifies a finite k), while XML keeps the paper's
            // non-LL(k) element rule — genuinely unbounded lookahead.
            match lang.name {
                "JSON" => assert_eq!(unbounded, 0, "JSON decision lost its bound"),
                "XML" => assert!(unbounded > 0, "XML element rule became bounded"),
                _ => {}
            }
        }
    }

    #[test]
    fn grammar_stats_are_nontrivial() {
        for (lang, _) in all_languages() {
            let (t, n, p) = lang.grammar_stats();
            assert!(t >= 10, "{}: |T| = {t}", lang.name);
            assert!(n >= 7, "{}: |N| = {n}", lang.name);
            assert!(p >= 17, "{}: |P| = {p}", lang.name);
        }
    }
}
