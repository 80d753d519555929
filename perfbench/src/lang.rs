//! The four bundled languages, their generators, and the grammar facts
//! the benchmark's known answers rest on.

use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, Symbol, Token, Tree};
use costar_langs::Language;

/// One of the four languages of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    /// JSON.
    Json,
    /// XML (keeps the non-LL(k) element rule).
    Xml,
    /// Graphviz DOT.
    Dot,
    /// The Python 3 subset (INDENT/DEDENT layout).
    Python,
}

impl Lang {
    /// All four, in the paper's Fig. 8 order.
    pub const ALL: [Lang; 4] = [Lang::Json, Lang::Xml, Lang::Dot, Lang::Python];

    /// Position in [`Lang::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The name `costar parse --lang` takes, also used in metric names.
    pub fn key(self) -> &'static str {
        ["json", "xml", "dot", "python"][self.index()]
    }

    /// Builds the language: EBNF compile plus lexer compile.
    pub fn build(self) -> Language {
        match self {
            Lang::Json => costar_langs::json::language(),
            Lang::Xml => costar_langs::xml::language(),
            Lang::Dot => costar_langs::dot::language(),
            Lang::Python => costar_langs::python::language(),
        }
    }

    /// The language's seeded generator.
    pub fn generator(self) -> costar_langs::Generator {
        match self {
            Lang::Json => costar_langs::json::generate,
            Lang::Xml => costar_langs::xml::generate,
            Lang::Dot => costar_langs::dot::generate,
            Lang::Python => costar_langs::python::generate,
        }
    }

    /// An opening bracket terminal together with its closing partner.
    /// Every production of the grammar holds as many of one as of the
    /// other (checked by [`brackets_balance`]), so inserting one extra
    /// opener makes any valid input invalid — a known answer that does
    /// not come from the parser under test. For Python the extra `(` also
    /// keeps the layout tokenizer from ever failing: the rest of the file
    /// becomes one bracketed continuation.
    pub fn brackets(self) -> (&'static str, &'static str) {
        match self {
            Lang::Json => ("[", "]"),
            Lang::Xml => ("<", ">"),
            Lang::Dot => ("{", "}"),
            Lang::Python => ("(", ")"),
        }
    }

    /// The per-operation parse span name for this language.
    pub fn parse_span(self) -> &'static str {
        [
            "parser.parse.json",
            "parser.parse.xml",
            "parser.parse.dot",
            "parser.parse.python",
        ][self.index()]
    }
}

/// A language built at set-up: the compiled language and its analysis.
pub struct Built {
    /// Which language.
    pub lang: Lang,
    /// Grammar, lexer, tokenizer.
    pub language: Language,
    /// The grammar analysis every parser of this language shares.
    pub analysis: GrammarAnalysis,
}

/// Whether every production of `g` holds as many `open` as `close`
/// terminals — the premise of the bracket known answer.
pub fn brackets_balance(g: &Grammar, open: &str, close: &str) -> bool {
    let (Some(o), Some(c)) = (
        g.symbols().lookup_terminal(open),
        g.symbols().lookup_terminal(close),
    ) else {
        return false;
    };
    g.symbols().nonterminals().all(|x| {
        g.alternatives(x).iter().all(|&pid| {
            let rhs = g.production(pid).rhs();
            let count = |t| rhs.iter().filter(|&&s| s == Symbol::T(t)).count();
            count(o) == count(c)
        })
    })
}

/// Byte offsets at which a token starts, skipping the zero-width layout
/// tokens Python synthesizes.
pub fn token_starts(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .filter(|t| t.span().len > 0)
        .map(|t| t.span().offset)
        .collect()
}

/// Makes an input invalid by the bracket argument: inserts the opener
/// and a space at the start of a token chosen by `pick`. Returns the
/// edited text and the insertion offset.
pub fn break_at(lang: Lang, source: &str, tokens: &[Token], pick: usize) -> (String, usize) {
    let starts = token_starts(tokens);
    let at = starts[pick % starts.len()];
    let mut out = String::with_capacity(source.len() + 2);
    out.push_str(&source[..at]);
    out.push_str(lang.brackets().0);
    out.push(' ');
    out.push_str(&source[at..]);
    (out, at)
}

/// The known-answer check for an accepted tree: its yield spells the
/// token word exactly.
pub fn yield_matches(tree: &Tree, tokens: &[Token]) -> bool {
    tree.yield_tokens() == tokens
}
