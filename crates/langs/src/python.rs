//! The Python-like benchmark language (paper Fig. 8: |T|=89, |N|=287,
//! |P|=521 for the full Python 3 grammar).
//!
//! This is a substantial subset of the Python 3 grammar from the ANTLR
//! grammar repository the paper used: the full statement/compound
//! statement split, the complete expression precedence ladder, function
//! and class definitions, imports, and the INDENT/DEDENT block structure.
//! It is by far the largest benchmark grammar, which is the property the
//! paper's §6.1 profiling discussion ties to CoStar's slower
//! tokens-per-second rate on Python.
//!
//! Tokenization follows CPython's model: a DFA scanner handles the tokens
//! of one logical line, while [`tokenize_indented`] supplies the
//! out-of-band NEWLINE / INDENT / DEDENT discipline (blank lines and
//! comment lines vanish; brackets suppress newlines; indentation changes
//! become synthetic tokens). The paper notes the ANTLR Python *lexer* is
//! disproportionately slow "possibly due to Python's complex whitespace
//! and indentation rules" — this module is where those rules live for us.

use crate::{Language, TokenizerKind};
use costar_grammar::{Span, Token};
use costar_lexer::{LexError, LexerSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// The Python-like grammar in the EBNF notation of `costar-ebnf`.
pub const GRAMMAR: &str = r#"
file_input : stmt* ;
stmt : simple_stmt | compound_stmt ;

simple_stmt : small_stmt (';' small_stmt)* ';'? NEWLINE ;
small_stmt : expr_stmt | del_stmt | pass_stmt | flow_stmt
           | import_stmt | global_stmt | assert_stmt ;
expr_stmt : testlist (augassign testlist | ('=' testlist)*) ;
augassign : '+=' | '-=' | '*=' | '/=' | '%=' | '&=' | '|=' | '^='
          | '<<=' | '>>=' | '**=' | '//=' ;
del_stmt : 'del' exprlist ;
pass_stmt : 'pass' ;
flow_stmt : break_stmt | continue_stmt | return_stmt | raise_stmt ;
break_stmt : 'break' ;
continue_stmt : 'continue' ;
return_stmt : 'return' testlist? ;
raise_stmt : 'raise' (test ('from' test)?)? ;
import_stmt : import_name | import_from ;
import_name : 'import' dotted_as_names ;
import_from : 'from' dotted_name 'import' ('*' | import_as_names) ;
import_as_names : import_as_name (',' import_as_name)* ;
import_as_name : NAME ('as' NAME)? ;
dotted_as_names : dotted_as_name (',' dotted_as_name)* ;
dotted_as_name : dotted_name ('as' NAME)? ;
dotted_name : NAME ('.' NAME)* ;
global_stmt : 'global' NAME (',' NAME)* ;
assert_stmt : 'assert' test (',' test)? ;

compound_stmt : if_stmt | while_stmt | for_stmt | try_stmt | with_stmt
              | funcdef | classdef ;
if_stmt : 'if' test ':' suite ('elif' test ':' suite)* ('else' ':' suite)? ;
while_stmt : 'while' test ':' suite ('else' ':' suite)? ;
for_stmt : 'for' exprlist 'in' testlist ':' suite ('else' ':' suite)? ;
try_stmt : 'try' ':' suite
           ( (except_clause ':' suite)+ ('else' ':' suite)? ('finally' ':' suite)?
           | 'finally' ':' suite ) ;
except_clause : 'except' (test ('as' NAME)?)? ;
with_stmt : 'with' with_item (',' with_item)* ':' suite ;
with_item : test ('as' expr)? ;
funcdef : 'def' NAME parameters ('->' test)? ':' suite ;
parameters : '(' typedargslist? ')' ;
typedargslist : tfpdef ('=' test)? (',' tfpdef ('=' test)?)* ;
tfpdef : NAME (':' test)? ;
classdef : 'class' NAME ('(' arglist? ')')? ':' suite ;
suite : simple_stmt | NEWLINE INDENT stmt+ DEDENT ;

test : or_test ('if' or_test 'else' test)? | lambdef ;
lambdef : 'lambda' varargslist? ':' test ;
varargslist : NAME (',' NAME)* ;
or_test : and_test ('or' and_test)* ;
and_test : not_test ('and' not_test)* ;
not_test : 'not' not_test | comparison ;
comparison : expr (comp_op expr)* ;
comp_op : '<' | '>' | '==' | '>=' | '<=' | '!=' | 'in' | 'not' 'in'
        | 'is' | 'is' 'not' ;
expr : xor_expr ('|' xor_expr)* ;
xor_expr : and_expr ('^' and_expr)* ;
and_expr : shift_expr ('&' shift_expr)* ;
shift_expr : arith_expr (('<<' | '>>') arith_expr)* ;
arith_expr : term (('+' | '-') term)* ;
term : factor (('*' | '/' | '%' | '//') factor)* ;
factor : ('+' | '-' | '~') factor | power ;
power : atom_expr ('**' factor)? ;
atom_expr : atom trailer* ;
atom : '(' testlist? ')'
     | '[' testlist? ']'
     | '{' dictorsetmaker? '}'
     | NAME | NUMBER | STRING+ | '...' | 'None' | 'True' | 'False' ;
dictorsetmaker : test ':' test (',' test ':' test)* ','?
               | test (',' test)* ','? ;
trailer : '(' arglist? ')' | '[' subscript ']' | '.' NAME ;
subscript : test (':' test?)? | ':' test? ;
arglist : argument (',' argument)* ;
argument : test ('=' test)? ;
exprlist : expr (',' expr)* ;
testlist : test (',' test)* ;
"#;

fn lexer_spec() -> LexerSpec {
    let mut spec = LexerSpec::new();
    // Keywords before NAME so they win length ties.
    for kw in [
        "del", "pass", "break", "continue", "return", "raise", "import", "from", "as", "global",
        "assert", "if", "elif", "else", "while", "for", "in", "try", "except", "finally", "with",
        "def", "class", "lambda", "or", "and", "not", "is", "None", "True", "False",
    ] {
        spec.token_literal(kw, kw);
    }
    // Multi-character operators before their prefixes.
    for op in [
        "**=", "//=", "<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "==", "!=",
        ">=", "<=", "<<", ">>", "**", "//", "->", "...",
    ] {
        spec.token_literal(op, op);
    }
    for op in [
        "=", "<", ">", "+", "-", "*", "/", "%", "&", "|", "^", "~", "(", ")", "[", "]", "{", "}",
        ",", ":", ";", ".",
    ] {
        spec.token_literal(op, op);
    }
    spec.token("NAME", "[a-zA-Z_][a-zA-Z0-9_]*")
        .token("NUMBER", r"[0-9]+(\.[0-9]*)?([eE][+\-]?[0-9]+)?")
        .token("STRING", r#"'([^'\\\n]|\\.)*'|"([^"\\\n]|\\.)*""#)
        .skip("ws", "[ \\t]+")
        .skip("comment", "#[^\\n]*");
    spec
}

/// The grammar's analysis, computed ahead of time (see
/// [`Language::analysis`]).
const ANALYSIS: &str = include_str!("../analysis/python.cache.json");

/// Builds the Python-like [`Language`].
pub fn language() -> Language {
    Language::build(
        "Python",
        GRAMMAR,
        ANALYSIS,
        &lexer_spec(),
        TokenizerKind::PythonIndent,
    )
}

/// CPython-style logical-line tokenization: runs the DFA lexer on each
/// line's content and synthesizes NEWLINE / INDENT / DEDENT tokens from
/// the layout. Newlines inside brackets are implicit continuations; blank
/// and comment-only lines produce nothing.
///
/// # Errors
///
/// Returns [`LexError`] for unmatchable characters or inconsistent
/// dedentation.
pub fn tokenize_indented(lang: &Language, source: &str) -> Result<Vec<Token>, LexError> {
    let symbols = lang.grammar().symbols();
    let lookup = |name: &str| {
        symbols
            .lookup_terminal(name)
            .unwrap_or_else(|| panic!("grammar defines {name}"))
    };
    let newline = lookup("NEWLINE");
    let indent = lookup("INDENT");
    let dedent = lookup("DEDENT");

    let mut out: Vec<Token> = Vec::new();
    let mut indents: Vec<usize> = vec![0];
    let mut depth: i64 = 0; // bracket nesting depth
    let mut offset = 0usize;
    let mut line_no = 0u32;

    let open = ["(", "[", "{"].map(lookup);
    let close = [")", "]", "}"].map(lookup);

    for raw_line in source.split('\n') {
        let line_offset = offset;
        offset += raw_line.len() + 1;
        line_no = line_no.saturating_add(1);
        // A CRLF terminator leaves a trailing '\r' on the split line; it
        // belongs to the line ending, not the content — the per-line
        // lexer has no rule for it.
        let line = raw_line.strip_suffix('\r').unwrap_or(raw_line);
        let trimmed = line.trim_start_matches([' ', '\t']);
        if depth == 0 {
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let width = line.len() - trimmed.len();
            // Synthetic layout tokens sit at column 1 of the line that
            // triggered them.
            let layout_span = Span::new(line_offset, 0, line_no, 1);
            if width > *indents.last().expect("nonempty") {
                indents.push(width);
                out.push(Token::with_span(indent, "", layout_span));
            } else {
                while width < *indents.last().expect("nonempty") {
                    indents.pop();
                    out.push(Token::with_span(dedent, "", layout_span));
                }
                if width != *indents.last().expect("nonempty") {
                    return Err(LexError {
                        at: line_offset,
                        snippet: format!("inconsistent dedent to column {width}"),
                    });
                }
            }
        }
        let content = if depth == 0 { trimmed } else { line };
        let strip = line.len() - content.len();
        let base = line_offset + strip;
        let toks = lang.lexer().tokenize(content).map_err(|e| LexError {
            at: base + e.at,
            snippet: e.snippet,
        })?;
        for t in &toks {
            if open.contains(&t.terminal()) {
                depth += 1;
            } else if close.contains(&t.terminal()) {
                depth -= 1;
            }
        }
        let had_tokens = !toks.is_empty();
        out.extend(toks.into_iter().map(|t| {
            // The per-line lexer reports line 1 and columns relative to
            // the stripped content; rebase onto the real source line.
            let sp = t.span();
            let span = Span::new(
                base + sp.offset,
                sp.len,
                line_no,
                sp.col.saturating_add(strip as u32),
            );
            Token::with_span(t.terminal(), t.lexeme(), span)
        }));
        if depth == 0 && had_tokens {
            let eol = Span::new(
                offset.saturating_sub(1),
                0,
                line_no,
                (line.len() as u32).saturating_add(1),
            );
            out.push(Token::with_span(newline, "", eol));
        }
    }
    // Close any open blocks (at a virtual line past the end).
    while indents.len() > 1 {
        indents.pop();
        out.push(Token::with_span(
            dedent,
            "",
            Span::new(offset, 0, line_no.saturating_add(1), 1),
        ));
    }
    Ok(out)
}

/// Generates a random Python-like module whose token count grows roughly
/// linearly with `size`.
pub fn generate(seed: u64, size: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::new();
    out.push_str("import os\nfrom sys import path as p, argv\n");
    let mut budget = size as i64 - 12;
    let mut n = 0usize;
    while budget > 0 {
        match rng.random_range(0..4) {
            0 => gen_funcdef(&mut rng, &mut out, n, &mut budget),
            1 => gen_classdef(&mut rng, &mut out, n, &mut budget),
            _ => gen_stmt(&mut rng, &mut out, 0, &mut budget),
        }
        n += 1;
    }
    out
}

fn indent_to(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn gen_funcdef(rng: &mut SmallRng, out: &mut String, n: usize, budget: &mut i64) {
    let params = rng.random_range(0..4);
    indent_to(out, 0);
    let _ = write!(out, "def f{n}(");
    for i in 0..params {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "arg{i}");
        if rng.random_bool(0.3) {
            let _ = write!(out, "={}", rng.random_range(0..10));
        }
    }
    out.push_str("):\n");
    *budget -= 7 + params as i64;
    gen_block(rng, out, 1, budget);
}

fn gen_classdef(rng: &mut SmallRng, out: &mut String, n: usize, budget: &mut i64) {
    let _ = writeln!(out, "class C{n}(object):");
    *budget -= 7;
    indent_to(out, 1);
    let _ = writeln!(out, "def method(self):");
    *budget -= 8;
    gen_block(rng, out, 2, budget);
}

fn gen_block(rng: &mut SmallRng, out: &mut String, level: usize, budget: &mut i64) {
    let stmts = rng.random_range(1..=3);
    for _ in 0..stmts {
        gen_stmt(rng, out, level, budget);
    }
}

fn gen_stmt(rng: &mut SmallRng, out: &mut String, level: usize, budget: &mut i64) {
    indent_to(out, level);
    match rng.random_range(0..10) {
        0..=3 => {
            // Assignment or expression statement.
            let _ = write!(out, "x{} = ", rng.random_range(0..20));
            gen_expr(rng, out, 2, budget);
            out.push('\n');
            *budget -= 3;
        }
        4 => {
            out.push_str("pass\n");
            *budget -= 2;
        }
        5 if level > 0 => {
            out.push_str("return ");
            gen_expr(rng, out, 1, budget);
            out.push('\n');
            *budget -= 3;
        }
        6 if level < 3 && *budget > 10 => {
            out.push_str("if ");
            gen_expr(rng, out, 1, budget);
            out.push_str(":\n");
            *budget -= 4;
            gen_block(rng, out, level + 1, budget);
            if rng.random_bool(0.4) {
                indent_to(out, level);
                out.push_str("else:\n");
                *budget -= 3;
                gen_block(rng, out, level + 1, budget);
            }
        }
        7 if level < 3 && *budget > 10 => {
            let _ = write!(out, "for i{} in ", rng.random_range(0..5));
            gen_expr(rng, out, 1, budget);
            out.push_str(":\n");
            *budget -= 5;
            gen_block(rng, out, level + 1, budget);
        }
        8 => {
            out.push_str("assert ");
            gen_expr(rng, out, 1, budget);
            let _ = write!(out, ", \"msg{}\"", rng.random_range(0..10));
            out.push('\n');
            *budget -= 4;
        }
        _ => {
            // Call statement.
            let _ = write!(out, "f{}(", rng.random_range(0..5));
            gen_expr(rng, out, 1, budget);
            out.push_str(")\n");
            *budget -= 4;
        }
    }
}

fn gen_expr(rng: &mut SmallRng, out: &mut String, depth: usize, budget: &mut i64) {
    *budget -= 1;
    if depth == 0 || *budget <= 0 {
        match rng.random_range(0..4) {
            0 => {
                let _ = write!(out, "x{}", rng.random_range(0..20));
            }
            1 => {
                let _ = write!(out, "{}", rng.random_range(0..100));
            }
            2 => {
                let _ = write!(out, "\"s{}\"", rng.random_range(0..50));
            }
            _ => out.push_str("None"),
        }
        return;
    }
    match rng.random_range(0..8) {
        0..=2 => {
            gen_expr(rng, out, depth - 1, budget);
            let op = ["+", "-", "*", "//", "%", "==", "<", "and", "or"][rng.random_range(0..9)];
            let _ = write!(out, " {op} ");
            gen_expr(rng, out, depth - 1, budget);
            *budget -= 1;
        }
        3 => {
            out.push('(');
            gen_expr(rng, out, depth - 1, budget);
            out.push(')');
            *budget -= 2;
        }
        4 => {
            out.push('[');
            let n = rng.random_range(1..=3);
            for i in 0..n {
                if i > 0 {
                    out.push_str(", ");
                }
                gen_expr(rng, out, depth - 1, budget);
            }
            out.push(']');
            *budget -= 2 + n as i64;
        }
        5 => {
            // Attribute / call trailer chain.
            let _ = write!(
                out,
                "x{}.attr{}(",
                rng.random_range(0..20),
                rng.random_range(0..5)
            );
            gen_expr(rng, out, depth - 1, budget);
            out.push(')');
            *budget -= 5;
        }
        6 => {
            // Parenthesized so the boolean-level `not` can sit under
            // arithmetic operators chosen by the binary branch.
            out.push_str("(not ");
            gen_expr(rng, out, depth - 1, budget);
            out.push(')');
            *budget -= 3;
        }
        _ => {
            let _ = write!(out, "{{\"k\": ");
            gen_expr(rng, out, depth - 1, budget);
            out.push('}');
            *budget -= 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costar::{ParseOutcome, Parser};

    fn kinds(lang: &Language, src: &str) -> Vec<String> {
        lang.tokenize(src)
            .unwrap()
            .iter()
            .map(|t| {
                lang.grammar()
                    .symbols()
                    .terminal_name(t.terminal())
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn grammar_is_large_like_fig8() {
        let lang = language();
        let (t, n, p) = lang.grammar_stats();
        assert!(t >= 60, "|T| = {t}");
        assert!(n >= 100, "|N| = {n}");
        assert!(p >= 200, "|P| = {p}");
    }

    #[test]
    fn indentation_produces_block_tokens() {
        let lang = language();
        let src = "if x:\n    y = 1\nz = 2\n";
        let ks = kinds(&lang, src);
        assert_eq!(
            ks,
            vec![
                "if", "NAME", ":", "NEWLINE", "INDENT", "NAME", "=", "NUMBER", "NEWLINE", "DEDENT",
                "NAME", "=", "NUMBER", "NEWLINE"
            ]
        );
    }

    #[test]
    fn blank_and_comment_lines_vanish() {
        let lang = language();
        let src = "x = 1\n\n   \n# comment only\nx = 2\n";
        let ks = kinds(&lang, src);
        assert_eq!(ks.iter().filter(|k| *k == "NEWLINE").count(), 2);
        assert!(!ks.contains(&"INDENT".to_owned()));
    }

    #[test]
    fn brackets_suppress_newlines() {
        let lang = language();
        let src = "x = [1,\n     2,\n     3]\n";
        let ks = kinds(&lang, src);
        assert_eq!(ks.iter().filter(|k| *k == "NEWLINE").count(), 1);
        assert!(!ks.contains(&"INDENT".to_owned()));
    }

    #[test]
    fn crlf_lines_tokenize_like_lf_lines() {
        let lang = language();
        let lf = "if x:\n    y = 1\nz = 2\n";
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(kinds(&lang, &crlf), kinds(&lang, lf));
        // Token lexemes survive unchanged; only byte offsets shift by
        // the extra '\r' per preceding line ending.
        let lf_toks = lang.tokenize(lf).unwrap();
        let crlf_toks = lang.tokenize(&crlf).unwrap();
        for (a, b) in lf_toks.iter().zip(&crlf_toks) {
            assert_eq!(a.lexeme(), b.lexeme());
            assert_eq!(a.span().line, b.span().line);
            assert!(b.span().offset >= a.span().offset);
        }
    }

    #[test]
    fn trailing_dedents_are_emitted() {
        let lang = language();
        let src = "def f():\n    if x:\n        return 1\n";
        let ks = kinds(&lang, src);
        assert_eq!(ks.iter().filter(|k| *k == "DEDENT").count(), 2);
    }

    #[test]
    fn inconsistent_dedent_is_an_error() {
        let lang = language();
        let src = "if x:\n        y = 1\n   z = 2\n";
        assert!(lang.tokenize(src).is_err());
    }

    #[test]
    fn parses_handwritten_module() {
        let lang = language();
        let src = r#"
import os
from sys import path as p

def fib(n, acc=0):
    if n <= 1:
        return n
    else:
        return fib(n - 1) + fib(n - 2)

class Greeter(object):
    def greet(self, name):
        msg = "hello " + name
        print(msg)
        return {"msg": msg, "n": len(name)}

for i in range(10):
    x = fib(i) ** 2 // 3
    assert x >= 0, "non-negative"
    if x % 2 == 0 and not x == 4:
        print(x, i)
"#;
        let tokens = lang.tokenize(src).unwrap();
        let mut parser = Parser::new(lang.grammar().clone());
        let outcome = parser.parse(&tokens);
        assert!(
            matches!(outcome, ParseOutcome::Unique(_)),
            "got {outcome:?}"
        );
    }

    #[test]
    fn assignment_vs_expression_needs_two_tokens() {
        // "x = 1" vs "x" alone: the expr_stmt decision is not LL(1) —
        // the case that keeps Python off the quick-decision fast path.
        let lang = language();
        let mut parser = Parser::new(lang.grammar().clone());
        for src in ["x = 1\n", "x\n", "x += 1\n", "x = y = 1\n", "f(1)\n"] {
            let tokens = lang.tokenize(src).unwrap();
            assert!(
                matches!(parser.parse(&tokens), ParseOutcome::Unique(_)),
                "{src}"
            );
        }
    }

    #[test]
    fn rejects_malformed_modules() {
        let lang = language();
        let mut parser = Parser::new(lang.grammar().clone());
        for bad in [
            "def f(:\n    pass\n",
            "if x\n    pass\n",
            "return\n pass\n",
            "x = = 1\n",
        ] {
            if let Ok(tokens) = lang.tokenize(bad) {
                assert!(!parser.parse(&tokens).is_accept(), "accepted {bad:?}");
            }
        }
    }

    #[test]
    fn generated_modules_parse_uniquely() {
        let lang = language();
        let mut parser = Parser::new(lang.grammar().clone());
        for seed in 0..6 {
            let src = generate(seed, 150);
            let tokens = lang
                .tokenize(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            let outcome = parser.parse(&tokens);
            assert!(
                matches!(outcome, ParseOutcome::Unique(_)),
                "seed {seed}: {outcome:?}\n{src}"
            );
        }
    }
}

#[cfg(test)]
mod indent_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random nesting structures: INDENT and DEDENT tokens are always
        /// balanced, and every generated logical line produces exactly one
        /// NEWLINE.
        #[test]
        fn indent_dedent_always_balanced(levels in proptest::collection::vec(0usize..5, 1..20)) {
            let lang = language();
            // Build a syntactically plausible nesting: a line may only
            // indent one level past its predecessor, so clamp.
            let mut src = String::new();
            let mut prev = 0usize;
            let mut lines = 0usize;
            for &want in &levels {
                let level = want.min(prev + 1);
                for _ in 0..level {
                    src.push_str("    ");
                }
                if level > prev {
                    // The line introducing a block must have been a
                    // header; rewrite the previous line by appending a
                    // fresh header here instead (keep it simple: emit a
                    // header at this level too so the NEXT line may nest).
                }
                src.push_str("if x:\n");
                prev = level;
                lines += 1;
            }
            let tokens = lang.tokenize(&src).expect("well-nested input lexes");
            let symbols = lang.grammar().symbols();
            let count = |name: &str| {
                tokens
                    .iter()
                    .filter(|t| symbols.terminal_name(t.terminal()) == name)
                    .count()
            };
            prop_assert_eq!(count("INDENT"), count("DEDENT"));
            prop_assert_eq!(count("NEWLINE"), lines);
        }

        /// Arbitrary text never makes the tokenizer panic: it either
        /// tokenizes or reports a lexical error.
        #[test]
        fn tokenizer_is_total(src in "[a-z0-9 :=#\\n\\t(){}\\[\\]+\\-*/]{0,120}") {
            let lang = language();
            let _ = lang.tokenize(&src); // must not panic
        }
    }
}
