//! An LL(1) parser generator.
//!
//! The predecessor to CoStar (Lasser et al., *A Verified LL(1) Parser
//! Generator*, ITP 2019 — paper §7) handles only LL(1) grammars: those
//! parseable with one token of lookahead through a static table. Building
//! it here serves two purposes: it is the expressiveness foil (the
//! paper's XML grammar is not LL(k), so table construction must *fail* on
//! it — reproduced in the `xml_not_ll1` integration test), and a
//! performance comparator on grammars that are LL(1), such as JSON.

use costar_grammar::analysis::{FirstSets, FollowSets, NullableSet};
use costar_grammar::{Grammar, NonTerminal, ProdId, Symbol, Terminal, Token, Tree};
use std::collections::HashMap;
use std::fmt;

/// Why a grammar is not LL(1): two productions of one nonterminal compete
/// for the same lookahead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ll1Conflict {
    /// The nonterminal whose table row conflicts.
    pub nonterminal: NonTerminal,
    /// The lookahead terminal (`None` = end of input).
    pub lookahead: Option<Terminal>,
    /// The two competing productions.
    pub productions: (ProdId, ProdId),
}

impl fmt::Display for Ll1Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LL(1) conflict on {} at lookahead {:?}",
            self.nonterminal, self.lookahead
        )
    }
}

impl std::error::Error for Ll1Conflict {}

/// A compiled LL(1) parse table.
///
/// # Examples
///
/// ```
/// use costar_baselines::Ll1Parser;
/// use costar_grammar::{GrammarBuilder, Token};
/// let mut gb = GrammarBuilder::new();
/// gb.rule("list", &["Int", "tail"]);
/// gb.rule("tail", &["Comma", "Int", "tail"]);
/// gb.rule("tail", &[]);
/// let g = gb.start("list").build()?;
/// let parser = Ll1Parser::generate(&g).expect("grammar is LL(1)");
/// let t = |n: &str| Token::new(g.symbols().lookup_terminal(n).unwrap(), n);
/// assert!(parser.parse(&[t("Int"), t("Comma"), t("Int")]).is_some());
/// assert!(parser.parse(&[t("Comma")]).is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ll1Parser {
    grammar: Grammar,
    /// `table[nt][terminal]` plus a per-nt end-of-input entry.
    table: Vec<HashMap<Terminal, ProdId>>,
    eof_entry: Vec<Option<ProdId>>,
}

impl Ll1Parser {
    /// Builds the LL(1) table, failing on the first conflict.
    ///
    /// # Errors
    ///
    /// Returns the first [`Ll1Conflict`] found — the witness that the
    /// grammar is outside the LL(1) class.
    pub fn generate(g: &Grammar) -> Result<Ll1Parser, Ll1Conflict> {
        let nullable = NullableSet::compute(g);
        let first = FirstSets::compute(g, &nullable);
        let follow = FollowSets::compute(g, &nullable, &first);

        let n = g.num_nonterminals();
        let mut table: Vec<HashMap<Terminal, ProdId>> = vec![HashMap::new(); n];
        let mut eof_entry: Vec<Option<ProdId>> = vec![None; n];

        for (pid, p) in g.iter() {
            let x = p.lhs();
            let select = first.first_of_form(p.rhs(), &nullable);
            let mut insert = |t: Terminal| -> Result<(), Ll1Conflict> {
                if let Some(&other) = table[x.index()].get(&t) {
                    if other != pid {
                        return Err(Ll1Conflict {
                            nonterminal: x,
                            lookahead: Some(t),
                            productions: (other, pid),
                        });
                    }
                } else {
                    table[x.index()].insert(t, pid);
                }
                Ok(())
            };
            for t in select.iter() {
                insert(t)?;
            }
            if nullable.form_nullable(p.rhs()) {
                for t in follow.follow(x).iter() {
                    insert(t)?;
                }
                if follow.eof_follows(x) {
                    if let Some(other) = eof_entry[x.index()] {
                        if other != pid {
                            return Err(Ll1Conflict {
                                nonterminal: x,
                                lookahead: None,
                                productions: (other, pid),
                            });
                        }
                    } else {
                        eof_entry[x.index()] = Some(pid);
                    }
                }
            }
        }

        Ok(Ll1Parser {
            grammar: g.clone(),
            table,
            eof_entry,
        })
    }

    /// The grammar the table was generated from.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Parses `word`, returning its parse tree or `None` on rejection.
    /// LL(1) grammars are unambiguous, so no ambiguity label is needed.
    pub fn parse(&self, word: &[Token]) -> Option<Tree> {
        // The production a frame processes (`None`: the bottom frame
        // `[S]`), read through the grammar as CoStar's frames are.
        struct Frame {
            prod: Option<ProdId>,
            dot: usize,
            trees: Vec<Tree>,
        }
        let g = &self.grammar;
        let mut stack = vec![Frame {
            prod: None,
            dot: 0,
            trees: Vec::new(),
        }];
        let mut cursor = 0usize;
        loop {
            let top = stack.last_mut().expect("stack never empties");
            let Some(head) = g.frame_rhs(top.prod).get(top.dot).copied() else {
                let done = stack.pop().expect("nonempty");
                match g.frame_lhs(done.prod) {
                    None => {
                        // Bottom frame finished.
                        return if cursor == word.len() {
                            done.trees.into_iter().next()
                        } else {
                            None
                        };
                    }
                    Some(x) => {
                        stack
                            .last_mut()
                            .expect("caller frame present")
                            .trees
                            .push(Tree::Node(x, done.trees));
                        continue;
                    }
                }
            };
            match head {
                Symbol::T(a) => match word.get(cursor) {
                    Some(t) if t.terminal() == a => {
                        top.trees.push(Tree::Leaf(t.clone()));
                        top.dot += 1;
                        cursor += 1;
                    }
                    _ => return None,
                },
                Symbol::Nt(x) => {
                    let pid = match word.get(cursor) {
                        Some(t) => self.table[x.index()].get(&t.terminal()).copied(),
                        None => self.eof_entry[x.index()],
                    }?;
                    top.dot += 1;
                    stack.push(Frame {
                        prod: Some(pid),
                        dot: 0,
                        trees: Vec::with_capacity(g.production(pid).rhs().len()),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costar_grammar::{check_tree, tokens, GrammarBuilder};

    fn expr_grammar() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("e", &["t", "e2"]);
        gb.rule("e2", &["Plus", "t", "e2"]);
        gb.rule("e2", &[]);
        gb.rule("t", &["Int"]);
        gb.rule("t", &["LParen", "e", "RParen"]);
        gb.start("e").build().unwrap()
    }

    #[test]
    fn generates_for_ll1_grammar() {
        assert!(Ll1Parser::generate(&expr_grammar()).is_ok());
    }

    #[test]
    fn parses_and_tree_checks() {
        let g = expr_grammar();
        let p = Ll1Parser::generate(&g).unwrap();
        let mut tab = g.symbols().clone();
        let w = tokens(
            &mut tab,
            &[
                ("LParen", "("),
                ("Int", "1"),
                ("Plus", "+"),
                ("Int", "2"),
                ("RParen", ")"),
                ("Plus", "+"),
                ("Int", "3"),
            ],
        );
        let tree = p.parse(&w).expect("valid expression");
        assert!(check_tree(&g, g.start(), &w, &tree).is_ok());
    }

    #[test]
    fn rejects_invalid_words() {
        let g = expr_grammar();
        let p = Ll1Parser::generate(&g).unwrap();
        let mut tab = g.symbols().clone();
        for bad in [
            vec![("Plus", "+")],
            vec![("Int", "1"), ("Plus", "+")],
            vec![("Int", "1"), ("Int", "2")],
            vec![],
        ] {
            let w = tokens(&mut tab, &bad);
            assert!(p.parse(&w).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn first_first_conflict_detected() {
        // Both S alternatives start with a.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a", "b"]);
        gb.rule("S", &["a", "c"]);
        let g = gb.start("S").build().unwrap();
        let err = Ll1Parser::generate(&g).unwrap_err();
        assert_eq!(g.symbols().nonterminal_name(err.nonterminal), "S");
        assert!(err.lookahead.is_some());
    }

    #[test]
    fn first_follow_conflict_detected() {
        // A -> a | ε with FOLLOW(A) containing a.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "a"]);
        gb.rule("A", &["a"]);
        gb.rule("A", &[]);
        let g = gb.start("S").build().unwrap();
        assert!(Ll1Parser::generate(&g).is_err());
    }

    #[test]
    fn fig2_grammar_is_not_ll1() {
        // The paper's Fig. 2 grammar needs unbounded lookahead to decide
        // between S -> A c and S -> A d; LL(1) must reject it — exactly
        // the expressiveness gap ALL(*) closes.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        let g = gb.start("S").build().unwrap();
        assert!(Ll1Parser::generate(&g).is_err());
    }

    #[test]
    fn eof_conflict_detected() {
        // Two nullable alternatives: conflict at end-of-input.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A"]);
        gb.rule("A", &[]);
        gb.rule("A", &["A", "x"]); // also left-recursive, but LL(1) gen
                                   // fails first on the table conflict
        let g = gb.start("S").build().unwrap();
        assert!(Ll1Parser::generate(&g).is_err());
    }

    #[test]
    fn nullable_parse_at_eof() {
        let g = expr_grammar();
        let p = Ll1Parser::generate(&g).unwrap();
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, &[("Int", "7")]);
        let tree = p.parse(&w).unwrap();
        // e2 -> ε applied at end of input.
        assert!(check_tree(&g, g.start(), &w, &tree).is_ok());
    }
}
