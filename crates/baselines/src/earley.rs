//! An Earley parser for arbitrary CFGs.
//!
//! The paper's related-work discussion (§7) contrasts CoStar with
//! verified *general* CFG parsers, which handle every grammar — including
//! ambiguous and left-recursive ones — at the cost of weaker performance
//! on the deterministic grammars practical applications need. This module
//! provides such a general parser as (a) an independent completeness
//! oracle for the test suites (it accepts exactly the words CoStar must
//! accept on non-left-recursive grammars) and (b) the "general CFG
//! parser" comparator in the evaluation harness.

use costar_grammar::analysis::NullableSet;
use costar_grammar::{Grammar, NonTerminal, ProdId, Symbol, Token, Tree};
use std::collections::{HashMap, HashSet};

/// An Earley item: `lhs → rhs[..dot] • rhs[dot..]`, started at `origin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Item {
    prod: u32,
    dot: u16,
    origin: u32,
}

/// The Earley chart for one input word (completed spans only; the raw
/// item sets are consumed during construction).
#[derive(Debug)]
pub struct Chart {
    /// For each `(nonterminal, origin)`, the set positions it completes at.
    spans: HashMap<(u32, u32), Vec<u32>>,
}

/// Builds the Earley chart for `word`.
fn build_chart(g: &Grammar, word: &[Token]) -> Chart {
    let n = word.len();
    let nullable = NullableSet::compute(g);
    let mut sets: Vec<Vec<Item>> = vec![Vec::new(); n + 1];
    let mut seen: Vec<HashSet<Item>> = vec![HashSet::new(); n + 1];

    let add = |sets: &mut Vec<Vec<Item>>, seen: &mut Vec<HashSet<Item>>, k: usize, it: Item| {
        if seen[k].insert(it) {
            sets[k].push(it);
        }
    };

    for &pid in g.alternatives(g.start()) {
        add(
            &mut sets,
            &mut seen,
            0,
            Item {
                prod: pid.index() as u32,
                dot: 0,
                origin: 0,
            },
        );
    }

    for k in 0..=n {
        let mut i = 0;
        while i < sets[k].len() {
            let it = sets[k][i];
            i += 1;
            let rhs = g.production(ProdId::from_index(it.prod as usize)).rhs();
            if (it.dot as usize) < rhs.len() {
                match rhs[it.dot as usize] {
                    Symbol::Nt(y) => {
                        // Predict.
                        for &pid in g.alternatives(y) {
                            add(
                                &mut sets,
                                &mut seen,
                                k,
                                Item {
                                    prod: pid.index() as u32,
                                    dot: 0,
                                    origin: k as u32,
                                },
                            );
                        }
                        // Aycock–Horspool nullable fix: a plain
                        // completion pass misses items added to this set
                        // *after* the nullable's ε-completion ran, so
                        // advance over nullable nonterminals eagerly at
                        // prediction time.
                        if nullable.contains(y) {
                            add(
                                &mut sets,
                                &mut seen,
                                k,
                                Item {
                                    dot: it.dot + 1,
                                    ..it
                                },
                            );
                        }
                    }
                    Symbol::T(a) => {
                        // Scan.
                        if k < n && word[k].terminal() == a {
                            add(
                                &mut sets,
                                &mut seen,
                                k + 1,
                                Item {
                                    dot: it.dot + 1,
                                    ..it
                                },
                            );
                        }
                    }
                }
            } else {
                // Complete.
                let lhs = g.production(ProdId::from_index(it.prod as usize)).lhs();
                let origin = it.origin as usize;
                let mut j = 0;
                while j < sets[origin].len() {
                    let cand = sets[origin][j];
                    j += 1;
                    let crhs = g.production(ProdId::from_index(cand.prod as usize)).rhs();
                    if (cand.dot as usize) < crhs.len()
                        && crhs[cand.dot as usize] == Symbol::Nt(lhs)
                    {
                        add(
                            &mut sets,
                            &mut seen,
                            k,
                            Item {
                                dot: cand.dot + 1,
                                ..cand
                            },
                        );
                    }
                }
            }
        }
    }

    // Index completed spans for tree reconstruction.
    let mut spans: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    for (k, set) in sets.iter().enumerate() {
        for it in set {
            let p = g.production(ProdId::from_index(it.prod as usize));
            if it.dot as usize == p.rhs().len() {
                spans
                    .entry((p.lhs().index() as u32, it.origin))
                    .or_default()
                    .push(k as u32);
            }
        }
    }
    for v in spans.values_mut() {
        v.sort_unstable();
        v.dedup();
    }

    Chart { spans }
}

/// Does the grammar recognize `word`?
///
/// Unlike CoStar, this recognizer handles left-recursive and ambiguous
/// grammars — it is a decision procedure for *all* CFGs.
///
/// # Examples
///
/// ```
/// use costar_baselines::earley_recognize;
/// use costar_grammar::{GrammarBuilder, Token};
/// // A left-recursive grammar CoStar refuses.
/// let mut gb = GrammarBuilder::new();
/// gb.rule("E", &["E", "p", "i"]);
/// gb.rule("E", &["i"]);
/// let g = gb.start("E").build()?;
/// let t = |n: &str| Token::new(g.symbols().lookup_terminal(n).unwrap(), n);
/// assert!(earley_recognize(&g, &[t("i"), t("p"), t("i")]));
/// assert!(!earley_recognize(&g, &[t("p")]));
/// # Ok::<(), costar_grammar::GrammarError>(())
/// ```
pub fn earley_recognize(g: &Grammar, word: &[Token]) -> bool {
    let chart = build_chart(g, word);
    chart
        .spans
        .get(&(g.start().index() as u32, 0))
        .is_some_and(|ks| ks.contains(&(word.len() as u32)))
}

/// Parses `word`, returning one parse tree if the word is in the
/// language (an arbitrary one if the word is ambiguous).
pub fn earley_parse(g: &Grammar, word: &[Token]) -> Option<Tree> {
    let chart = build_chart(g, word);
    if !chart
        .spans
        .get(&(g.start().index() as u32, 0))
        .is_some_and(|ks| ks.contains(&(word.len() as u32)))
    {
        return None;
    }
    let mut builder = TreeBuilder {
        g,
        word,
        chart: &chart,
        in_progress: HashSet::new(),
    };
    builder.build_nt(g.start(), 0, word.len())
}

/// Backtracking tree reconstruction over the chart.
///
/// A minimal parse tree never repeats a `(nonterminal, span)` pair along
/// one root-to-leaf path (a repeat could be excised), so the builder
/// tracks the path's in-progress pairs and skips them — this both
/// guarantees termination on unit cycles (`S → S`) and preserves
/// completeness: whenever the chart proves a derivation exists, a
/// repeat-free one exists and the backtracking search finds it.
struct TreeBuilder<'a> {
    g: &'a Grammar,
    word: &'a [Token],
    chart: &'a Chart,
    in_progress: HashSet<(u32, u32, u32)>,
}

impl TreeBuilder<'_> {
    fn derivable(&self, x: NonTerminal, i: usize, j: usize) -> bool {
        self.chart
            .spans
            .get(&(x.index() as u32, i as u32))
            .is_some_and(|ks| ks.binary_search(&(j as u32)).is_ok())
    }

    fn build_nt(&mut self, x: NonTerminal, i: usize, j: usize) -> Option<Tree> {
        let key = (x.index() as u32, i as u32, j as u32);
        if !self.in_progress.insert(key) {
            return None; // unit cycle: a repeat-free tree skips this path
        }
        let mut result = None;
        for &pid in self.g.alternatives(x) {
            if let Some(children) = self.build_seq(pid.index() as u32, 0, i, j) {
                result = Some(Tree::Node(x, children));
                break;
            }
        }
        self.in_progress.remove(&key);
        result
    }

    fn build_seq(&mut self, prod: u32, dot: u16, i: usize, j: usize) -> Option<Vec<Tree>> {
        let g = self.g;
        let rhs = g.production(ProdId::from_index(prod as usize)).rhs();
        if dot as usize == rhs.len() {
            return (i == j).then(Vec::new);
        }
        match rhs[dot as usize] {
            Symbol::T(a) => {
                if i < j && self.word[i].terminal() == a {
                    let mut rest = self.build_seq(prod, dot + 1, i + 1, j)?;
                    rest.insert(0, Tree::Leaf(self.word[i].clone()));
                    Some(rest)
                } else {
                    None
                }
            }
            Symbol::Nt(y) => {
                for k in i..=j {
                    if !self.derivable(y, i, k) {
                        continue;
                    }
                    // Backtrack across both the split point and the
                    // nonterminal's internal choices.
                    let Some(head) = self.build_nt(y, i, k) else {
                        continue;
                    };
                    if let Some(mut rest) = self.build_seq(prod, dot + 1, k, j) {
                        rest.insert(0, head);
                        return Some(rest);
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costar_grammar::{check_tree, tokens, GrammarBuilder};

    fn fig2() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    #[test]
    fn recognizes_fig2_language() {
        let g = fig2();
        let mut tab = g.symbols().clone();
        let yes = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let no = tokens(&mut tab, &[("a", "a"), ("c", "c")]);
        assert!(earley_recognize(&g, &yes));
        assert!(!earley_recognize(&g, &no));
        assert!(!earley_recognize(&g, &[]));
    }

    #[test]
    fn parses_and_tree_checks() {
        let g = fig2();
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("a", "a"), ("b", "b"), ("c", "c")]);
        let tree = earley_parse(&g, &w).expect("in language");
        assert!(check_tree(&g, g.start(), &w, &tree).is_ok());
        assert!(earley_parse(&g, &w[..1]).is_none());
    }

    #[test]
    fn handles_left_recursion() {
        let mut gb = GrammarBuilder::new();
        gb.rule("E", &["E", "p", "E"]);
        gb.rule("E", &["i"]);
        let g = gb.start("E").build().unwrap();
        let mut tab = g.symbols().clone();
        let w = tokens(
            &mut tab,
            &[("i", "i"), ("p", "p"), ("i", "i"), ("p", "p"), ("i", "i")],
        );
        assert!(earley_recognize(&g, &w));
        let tree = earley_parse(&g, &w).expect("in language");
        assert!(check_tree(&g, g.start(), &w, &tree).is_ok());
    }

    #[test]
    fn handles_nullable_rules() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "B", "A"]);
        gb.rule("A", &[]);
        gb.rule("A", &["a"]);
        gb.rule("B", &["b"]);
        let g = gb.start("S").build().unwrap();
        let mut tab = g.symbols().clone();
        for word in [
            vec![("b", "b")],
            vec![("a", "a"), ("b", "b")],
            vec![("b", "b"), ("a", "a")],
            vec![("a", "a"), ("b", "b"), ("a", "a")],
        ] {
            let w = tokens(&mut tab, &word);
            assert!(earley_recognize(&g, &w), "{word:?}");
            let tree = earley_parse(&g, &w).unwrap();
            assert!(check_tree(&g, g.start(), &w, &tree).is_ok());
        }
        let w = tokens(&mut tab, &[("a", "a"), ("a", "a"), ("b", "b")]);
        assert!(!earley_recognize(&g, &w));
    }

    #[test]
    fn handles_unit_cycles() {
        // S -> S | a : reconstruction must not loop.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["S"]);
        gb.rule("S", &["a"]);
        let g = gb.start("S").build().unwrap();
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, &[("a", "a")]);
        assert!(earley_recognize(&g, &w));
        let tree = earley_parse(&g, &w).unwrap();
        assert!(check_tree(&g, g.start(), &w, &tree).is_ok());
    }

    #[test]
    fn nullable_completion_ordering_regression() {
        // Found by the oracle-agreement property tests: N1's ε-completion
        // runs before the `N1 -> N0 . N1` item exists in the same set, so
        // a single completion pass misses it (the Aycock–Horspool case).
        let mut gb = GrammarBuilder::new();
        gb.rule("N0", &["t", "N1"]);
        gb.rule("N1", &[]);
        gb.rule("N1", &["N0", "N1"]);
        let g = gb.start("N0").build().unwrap();
        let mut tab = g.symbols().clone();
        for n in 1..=5 {
            let word = tokens(&mut tab, &vec![("t", "t"); n]);
            assert!(earley_recognize(&g, &word), "t^{n} is in the language");
            let tree = earley_parse(&g, &word).unwrap();
            assert!(check_tree(&g, g.start(), &word, &tree).is_ok());
        }
        assert!(!earley_recognize(&g, &[]));
    }

    #[test]
    fn empty_word_in_nullable_grammar() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A"]);
        gb.rule("A", &[]);
        let g = gb.start("S").build().unwrap();
        assert!(earley_recognize(&g, &[]));
        let tree = earley_parse(&g, &[]).unwrap();
        assert_eq!(tree.leaf_count(), 0);
    }

    #[test]
    fn ambiguous_input_yields_some_valid_tree() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["S", "S"]);
        gb.rule("S", &["a"]);
        let g = gb.start("S").build().unwrap();
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("a", "a"), ("a", "a")]);
        let tree = earley_parse(&g, &w).unwrap();
        assert!(check_tree(&g, g.start(), &w, &tree).is_ok());
    }
}
