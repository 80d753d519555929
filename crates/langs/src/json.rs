//! The JSON benchmark language (paper Fig. 8: |T|=11, |N|=7, |P|=17).
//!
//! The grammar follows the ANTLR JSON grammar the paper reused from the
//! original ALL(*) evaluation; after desugaring it is close to the
//! paper's counts (the exact numbers depend on how the conversion tool
//! introduces fresh nonterminals). JSON is LL(1)-friendly, making it the
//! paper's fastest benchmark per token.

use crate::{Language, TokenizerKind};
use costar_lexer::LexerSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// The JSON grammar in the EBNF notation of `costar-ebnf`.
pub const GRAMMAR: &str = r#"
json  : value ;
value : obj | arr | STRING | NUMBER | 'true' | 'false' | 'null' ;
obj   : '{' (pair (',' pair)*)? '}' ;
pair  : STRING ':' value ;
arr   : '[' (value (',' value)*)? ']' ;
"#;

fn lexer_spec() -> LexerSpec {
    let mut spec = LexerSpec::new();
    spec.token_literal("true", "true")
        .token_literal("false", "false")
        .token_literal("null", "null")
        .token_literal("{", "{")
        .token_literal("}", "}")
        .token_literal("[", "[")
        .token_literal("]", "]")
        .token_literal(",", ",")
        .token_literal(":", ":")
        .token("STRING", r#""([^"\\]|\\.)*""#)
        .token("NUMBER", r"-?[0-9]+(\.[0-9]+)?([eE][+\-]?[0-9]+)?")
        .skip("ws", "[ \\t\\r\\n]+");
    spec
}

/// The grammar's analysis, computed ahead of time (see
/// [`Language::analysis`]).
const ANALYSIS: &str = include_str!("../analysis/json.cache.json");

/// Builds the JSON [`Language`].
pub fn language() -> Language {
    Language::build(
        "JSON",
        GRAMMAR,
        ANALYSIS,
        &lexer_spec(),
        TokenizerKind::Plain,
    )
}

/// Generates a random JSON document whose token count grows roughly
/// linearly with `size`.
pub fn generate(seed: u64, size: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::new();
    // A top-level object that keeps acquiring entries until the token
    // budget is spent, so document size tracks `size` linearly.
    let mut budget = size as i64;
    out.push('{');
    let mut i = 0usize;
    while budget > 0 {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"key{i}\":");
        budget -= 3;
        gen_value(&mut rng, &mut out, 3, &mut budget);
        i += 1;
    }
    out.push('}');
    out
}

fn gen_value(rng: &mut SmallRng, out: &mut String, depth: usize, budget: &mut i64) {
    *budget -= 1;
    let choice = if depth == 0 || *budget <= 0 {
        rng.random_range(0..5) + 2 // scalars only
    } else {
        rng.random_range(0..7)
    };
    match choice {
        0 => {
            // Object.
            out.push('{');
            let n = rng.random_range(1..=4 + (*budget / 8).clamp(0, 8) as usize);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"k{}\":", rng.random_range(0..100));
                gen_value(rng, out, depth - 1, budget);
            }
            out.push('}');
        }
        1 => {
            // Array.
            out.push('[');
            let n = rng.random_range(1..=4 + (*budget / 8).clamp(0, 8) as usize);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                gen_value(rng, out, depth - 1, budget);
            }
            out.push(']');
        }
        2 => {
            let _ = write!(out, "\"s{}\"", rng.random_range(0..1000));
        }
        3 => {
            let _ = write!(out, "{}", rng.random_range(-1000..1000));
        }
        4 => {
            let _ = write!(
                out,
                "{}.{}",
                rng.random_range(0..100),
                rng.random_range(0..100)
            );
        }
        5 => out.push_str("true"),
        _ => out.push_str(if rng.random_bool(0.5) {
            "false"
        } else {
            "null"
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costar::{ParseOutcome, Parser};

    #[test]
    fn grammar_size_matches_fig8_scale() {
        let lang = language();
        let (t, n, p) = lang.grammar_stats();
        assert_eq!(t, 11, "|T|");
        // Desugaring details shift |N| and |P| slightly vs. the paper's
        // 7 and 17; stay in the same ballpark.
        assert!((7..=12).contains(&n), "|N| = {n}");
        assert!((15..=22).contains(&p), "|P| = {p}");
    }

    #[test]
    fn lexes_and_parses_handwritten_json() {
        let lang = language();
        let src = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x"}"#;
        let tokens = lang.tokenize(src).unwrap();
        let mut parser = Parser::new(lang.grammar().clone());
        let ParseOutcome::Unique(tree) = parser.parse(&tokens) else {
            panic!("expected unique parse")
        };
        assert_eq!(tree.leaf_count(), tokens.len());
    }

    #[test]
    fn rejects_malformed_json() {
        let lang = language();
        let mut parser = Parser::new(lang.grammar().clone());
        for bad in ["{", "[1,]", "{\"a\" 1}", "1 2", ""] {
            if let Ok(tokens) = lang.tokenize(bad) {
                assert!(
                    !parser.parse(&tokens).is_accept(),
                    "accepted malformed {bad:?}"
                );
            }
        }
    }

    #[test]
    fn generated_documents_parse_uniquely() {
        let lang = language();
        let mut parser = Parser::new(lang.grammar().clone());
        for seed in 0..10 {
            let src = generate(seed, 120);
            let tokens = lang.tokenize(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert!(
                matches!(parser.parse(&tokens), ParseOutcome::Unique(_)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(42, 100), generate(42, 100));
        assert_ne!(generate(42, 100), generate(43, 100));
    }

    #[test]
    fn string_escapes_lex() {
        let lang = language();
        let tokens = lang.tokenize(r#""a\"b\\c""#).unwrap();
        assert_eq!(tokens.len(), 1);
        assert_eq!(
            lang.grammar().symbols().terminal_name(tokens[0].terminal()),
            "STRING"
        );
    }
}
