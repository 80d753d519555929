//! The DOT (Graphviz) benchmark language (paper Fig. 8: |T|=20, |N|=44,
//! |P|=73).
//!
//! The grammar transliterates the Graphviz DOT grammar used by the
//! original ALL(*) evaluation (whose data the paper reused). DOT's
//! statement syntax is not LL(1): a statement starting with an identifier
//! can be a node statement, an edge statement, or an attribute
//! assignment, and the decision may require scanning past a port
//! specification to an edge operator.

use crate::{Language, TokenizerKind};
use costar_lexer::LexerSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// The DOT grammar in the EBNF notation of `costar-ebnf`.
pub const GRAMMAR: &str = r#"
graph      : 'strict'? ('graph' | 'digraph') id? '{' stmt_list '}' ;
stmt_list  : (stmt ';'?)* ;
stmt       : id '=' id
           | edge_stmt
           | node_stmt
           | attr_stmt
           | subgraph ;
attr_stmt  : ('graph' | 'node' | 'edge') attr_list ;
attr_list  : ('[' a_list? ']')+ ;
a_list     : (id ('=' id)? ','?)+ ;
edge_stmt  : (node_id | subgraph) edge_rhs attr_list? ;
edge_rhs   : (edgeop (node_id | subgraph))+ ;
edgeop     : '->' | '--' ;
node_stmt  : node_id attr_list? ;
node_id    : id port? ;
port       : ':' id (':' id)? ;
subgraph   : ('subgraph' id?)? '{' stmt_list '}' ;
id         : ID | STRING | NUMBER ;
"#;

fn lexer_spec() -> LexerSpec {
    let mut spec = LexerSpec::new();
    spec.token_literal("strict", "strict")
        .token_literal("graph", "graph")
        .token_literal("digraph", "digraph")
        .token_literal("node", "node")
        .token_literal("edge", "edge")
        .token_literal("subgraph", "subgraph")
        .token_literal("{", "{")
        .token_literal("}", "}")
        .token_literal("[", "[")
        .token_literal("]", "]")
        .token_literal(";", ";")
        .token_literal(",", ",")
        .token_literal("=", "=")
        .token_literal(":", ":")
        .token_literal("->", "->")
        .token_literal("--", "--")
        .token("ID", "[a-zA-Z_][a-zA-Z0-9_]*")
        .token("STRING", r#""[^"]*""#)
        .token("NUMBER", r"\-?(\.[0-9]+|[0-9]+(\.[0-9]*)?)")
        .skip("ws", "[ \\t\\r\\n]+")
        .skip("line_comment", "//[^\\n]*")
        .skip("block_comment", r"/\*([^*]|\*[^/])*\*/");
    spec
}

/// The grammar's analysis, computed ahead of time (see
/// [`Language::analysis`]).
const ANALYSIS: &str = include_str!("../analysis/dot.cache.json");

/// Builds the DOT [`Language`].
pub fn language() -> Language {
    Language::build(
        "DOT",
        GRAMMAR,
        ANALYSIS,
        &lexer_spec(),
        TokenizerKind::Plain,
    )
}

/// Generates a random DOT graph whose token count grows roughly linearly
/// with `size`.
pub fn generate(seed: u64, size: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::new();
    let directed = rng.random_bool(0.5);
    if rng.random_bool(0.2) {
        out.push_str("strict ");
    }
    out.push_str(if directed { "digraph" } else { "graph" });
    let _ = writeln!(out, " g{} {{", rng.random_range(0..100));
    let op = if directed { "->" } else { "--" };
    let mut budget = size as i64;
    // Global attribute statements.
    out.push_str("  graph [rankdir=LR];\n  node [shape=box, style=filled];\n");
    budget -= 14;
    while budget > 0 {
        match rng.random_range(0..10) {
            0..=3 => {
                // Edge chain.
                let len = rng.random_range(1..=4);
                out.push_str("  ");
                let _ = write!(out, "n{}", rng.random_range(0..50));
                for _ in 0..len {
                    let _ = write!(out, " {op} n{}", rng.random_range(0..50));
                    budget -= 2;
                }
                if rng.random_bool(0.4) {
                    let _ = write!(
                        out,
                        " [label=\"e{}\", weight={}]",
                        rng.random_range(0..20),
                        rng.random_range(1..10)
                    );
                    budget -= 9;
                }
                out.push_str(";\n");
                budget -= 2;
            }
            4..=6 => {
                // Node statement with a port or attributes.
                out.push_str("  ");
                let _ = write!(out, "n{}", rng.random_range(0..50));
                if rng.random_bool(0.3) {
                    let _ = write!(out, ":p{}", rng.random_range(0..4));
                    budget -= 2;
                }
                if rng.random_bool(0.7) {
                    let _ = write!(out, " [label=\"v{}\" color=red]", rng.random_range(0..100));
                    budget -= 8;
                }
                out.push_str(";\n");
                budget -= 2;
            }
            7 => {
                // Graph-level assignment.
                let _ = writeln!(out, "  fontsize = {};", rng.random_range(8..20));
                budget -= 4;
            }
            _ => {
                // Subgraph.
                let _ = write!(out, "  subgraph cluster{} {{ ", rng.random_range(0..10));
                let n = rng.random_range(1..=3);
                for _ in 0..n {
                    let _ = write!(
                        out,
                        "n{} {op} n{}; ",
                        rng.random_range(0..50),
                        rng.random_range(0..50)
                    );
                    budget -= 4;
                }
                out.push_str("}\n");
                budget -= 4;
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use costar::{ParseOutcome, Parser};

    #[test]
    fn grammar_size_matches_fig8_scale() {
        let lang = language();
        let (t, n, p) = lang.grammar_stats();
        assert_eq!(t, 19, "|T|");
        assert!((15..=50).contains(&n), "|N| = {n}");
        assert!((35..=80).contains(&p), "|P| = {p}");
    }

    #[test]
    fn parses_handwritten_graph() {
        let lang = language();
        let src = r#"
// a small graph
digraph g {
  graph [rankdir=LR];
  a -> b -> c [weight=2];
  b:port1 -> d;
  subgraph cluster0 { e -- f }
  label = "hello";
}
"#;
        let tokens = lang.tokenize(src).unwrap();
        let mut parser = Parser::new(lang.grammar().clone());
        assert!(matches!(parser.parse(&tokens), ParseOutcome::Unique(_)));
    }

    #[test]
    fn node_vs_edge_statements_disambiguate() {
        // "a;" is a node statement; "a -> b;" is an edge statement; both
        // start with the same id — the non-LL(1) decision.
        let lang = language();
        let mut parser = Parser::new(lang.grammar().clone());
        for src in [
            "graph g { a; }",
            "graph g { a -- b; }",
            "graph g { a:p -- b; }",
            "graph g { a [color=red]; }",
            "graph g { a = b; }",
        ] {
            let tokens = lang.tokenize(src).unwrap();
            assert!(
                matches!(parser.parse(&tokens), ParseOutcome::Unique(_)),
                "{src}"
            );
        }
    }

    #[test]
    fn rejects_malformed_graphs() {
        let lang = language();
        let mut parser = Parser::new(lang.grammar().clone());
        for bad in [
            "digraph {",
            "graph g { a -> ; }",
            "g { a; }",
            "graph g { [x] }",
        ] {
            if let Ok(tokens) = lang.tokenize(bad) {
                assert!(!parser.parse(&tokens).is_accept(), "accepted {bad:?}");
            }
        }
    }

    #[test]
    fn generated_graphs_parse_uniquely() {
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
    fn comments_are_skipped() {
        let lang = language();
        let tokens = lang.tokenize("graph /* block */ g { // line\n }").unwrap();
        assert_eq!(tokens.len(), 4); // graph g { }
    }
}
