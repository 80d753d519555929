//! The XML benchmark language (paper Fig. 8: |T|=16, |N|=22, |P|=40).
//!
//! The grammar keeps the rule the paper highlights as evidence that the
//! benchmark exercises ALL(*)'s expressive power (§6.1):
//!
//! ```text
//! elt : '<' Name attribute* '>' content '<' '/' Name '>'
//!     | '<' Name attribute* '/>' ;
//! ```
//!
//! "Because of this rule, the grammar is not LL(k) for any k; prediction
//! must advance through an arbitrary number of XML attributes before
//! determining which of the two productions matches the remaining
//! input." The `xml_not_ll1` integration test checks exactly that via
//! the LL(1) baseline.

use crate::{Language, TokenizerKind};
use costar_lexer::LexerSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// The XML grammar in the EBNF notation of `costar-ebnf`.
pub const GRAMMAR: &str = r#"
document  : misc* element misc* ;
misc      : COMMENT | PI ;
element   : '<' NAME attribute* '>' content '<' '/' NAME '>'
          | '<' NAME attribute* '/' '>' ;
attribute : NAME '=' STRING ;
content   : chunk* ;
chunk     : element | chardata | reference | COMMENT | PI ;
chardata  : NAME | NUMBER | ',' | '.' ;
reference : '&' NAME ';' ;
"#;

fn lexer_spec() -> LexerSpec {
    let mut spec = LexerSpec::new();
    spec.token("COMMENT", r"<!\-\-([^\-]|\-[^\-])*\-\->")
        .token("PI", r"<\?[^?]*\?>")
        .token_literal("<", "<")
        .token_literal(">", ">")
        .token_literal("/", "/")
        .token_literal("=", "=")
        .token_literal("&", "&")
        .token_literal(";", ";")
        .token_literal(",", ",")
        .token_literal(".", ".")
        .token("STRING", r#""[^"]*""#)
        .token("NAME", "[a-zA-Z_][a-zA-Z0-9_\\-]*")
        .token("NUMBER", "[0-9]+")
        .skip("ws", "[ \\t\\r\\n]+");
    spec
}

/// The grammar's analysis, computed ahead of time (see
/// [`Language::analysis`]).
const ANALYSIS: &str = include_str!("../analysis/xml.cache.json");

/// Builds the XML [`Language`].
pub fn language() -> Language {
    Language::build(
        "XML",
        GRAMMAR,
        ANALYSIS,
        &lexer_spec(),
        TokenizerKind::Plain,
    )
}

/// Generates a random XML document whose token count grows roughly
/// linearly with `size`. Elements carry a varying number of attributes,
/// exercising the non-LL(k) decision the paper calls out.
pub fn generate(seed: u64, size: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::new();
    if rng.random_bool(0.3) {
        out.push_str("<!-- generated corpus file -->\n");
    }
    // One root element that keeps acquiring children until the token
    // budget is spent, so document size tracks `size` linearly.
    let mut budget = size as i64;
    out.push_str("<doc>");
    while budget > 0 {
        gen_element(&mut rng, &mut out, 4, &mut budget);
        out.push('\n');
    }
    out.push_str("</doc>");
    out
}

const TAGS: [&str; 6] = ["doc", "section", "p", "span", "item", "data"];
const WORDS: [&str; 8] = [
    "lorem",
    "ipsum",
    "dolor",
    "sit",
    "amet",
    "consectetur",
    "adipiscing",
    "elit",
];

fn gen_element(rng: &mut SmallRng, out: &mut String, depth: usize, budget: &mut i64) {
    let tag = TAGS[rng.random_range(0..TAGS.len())];
    *budget -= 4;
    out.push('<');
    out.push_str(tag);
    // Attribute count varies widely so prediction scans varying spans.
    let attrs = rng.random_range(0..5usize);
    for i in 0..attrs {
        let _ = write!(out, " a{i}=\"v{}\"", rng.random_range(0..100));
        *budget -= 3;
    }
    if depth == 0 || *budget <= 0 || rng.random_bool(0.2) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    let children = rng.random_range(1..=3 + (*budget / 10).clamp(0, 6) as usize);
    for _ in 0..children {
        if *budget <= 0 {
            break;
        }
        match rng.random_range(0..10) {
            0..=4 => gen_element(rng, out, depth - 1, budget),
            5..=7 => {
                // Character data.
                let n = rng.random_range(1..=5);
                for k in 0..n {
                    if k > 0 {
                        out.push(' ');
                    }
                    out.push_str(WORDS[rng.random_range(0..WORDS.len())]);
                    *budget -= 1;
                }
            }
            8 => {
                let _ = write!(out, "&{};", WORDS[rng.random_range(0..WORDS.len())]);
                *budget -= 3;
            }
            _ => {
                out.push_str("<!-- note -->");
                *budget -= 1;
            }
        }
    }
    let _ = write!(out, "</{tag}>");
}

#[cfg(test)]
mod tests {
    use super::*;
    use costar::{ParseOutcome, Parser};

    #[test]
    fn grammar_size_matches_fig8_scale() {
        let lang = language();
        let (t, n, p) = lang.grammar_stats();
        assert_eq!(t, 13, "|T|");
        assert!((9..=24).contains(&n), "|N| = {n}");
        assert!((20..=45).contains(&p), "|P| = {p}");
    }

    #[test]
    fn parses_handwritten_document() {
        let lang = language();
        let src = r#"<!-- head --><doc version="1"><p a="x" b="y">hello world</p><br/><p>text &amp; more, punctuated.</p></doc>"#;
        let tokens = lang.tokenize(src).unwrap();
        let mut parser = Parser::new(lang.grammar().clone());
        assert!(
            matches!(parser.parse(&tokens), ParseOutcome::Unique(_)),
            "document should parse uniquely"
        );
    }

    #[test]
    fn self_closing_vs_open_needs_unbounded_lookahead() {
        // Both forms share the prefix '<' NAME attribute* — the decision
        // point the paper quotes. Parse one of each with many attributes.
        let lang = language();
        let mut parser = Parser::new(lang.grammar().clone());
        let mut open = String::from("<doc");
        let mut selfc = String::from("<doc");
        for i in 0..20 {
            let a = format!(" a{i}=\"v\"");
            open.push_str(&a);
            selfc.push_str(&a);
        }
        open.push_str(">x</doc>");
        selfc.push_str("/>");
        for src in [open, selfc] {
            let tokens = lang.tokenize(&src).unwrap();
            assert!(
                matches!(parser.parse(&tokens), ParseOutcome::Unique(_)),
                "{src}"
            );
        }
    }

    #[test]
    fn rejects_mismatched_and_malformed() {
        let lang = language();
        let mut parser = Parser::new(lang.grammar().clone());
        // Note: tag-name matching (<a></b>) is context-sensitive and NOT
        // enforced by the CFG (same as the paper's grammar); structural
        // errors are.
        for bad in ["<doc>", "</doc>", "<doc a=>x</doc>", "<doc><p></doc>"] {
            if let Ok(tokens) = lang.tokenize(bad) {
                assert!(!parser.parse(&tokens).is_accept(), "accepted {bad:?}");
            }
        }
    }

    #[test]
    fn generated_documents_parse_uniquely() {
        let lang = language();
        let mut parser = Parser::new(lang.grammar().clone());
        for seed in 0..10 {
            let src = generate(seed, 150);
            let tokens = lang.tokenize(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
            assert!(
                matches!(parser.parse(&tokens), ParseOutcome::Unique(_)),
                "seed {seed}: {src}"
            );
        }
    }

    #[test]
    fn comments_and_pis_lex_as_single_tokens() {
        let lang = language();
        let tokens = lang.tokenize("<!-- c --><?target data?>").unwrap();
        assert_eq!(tokens.len(), 2);
        let names: Vec<&str> = tokens
            .iter()
            .map(|t| lang.grammar().symbols().terminal_name(t.terminal()))
            .collect();
        assert_eq!(names, vec!["COMMENT", "PI"]);
    }
}
