//! Parse trees and forests.
//!
//! Trees `v ::= Leaf(t) | Node(X, f)` and forests `f ::= • | v, f`
//! (paper Fig. 1). A successful CoStar parse returns a tree with the start
//! symbol at the root and the input word at the leaves.

use crate::symbol::{NonTerminal, Symbol};
use crate::token::{Span, Token};
use crate::SymbolTable;
use std::fmt::Write as _;

/// The payload of a [`Tree::Error`] node, spliced into a tree by the
/// recovering parser when panic-mode resynchronization discards input or
/// abandons an incomplete production. Error nodes are *not* part of the
/// paper's derivation relation: a tree containing one fails `check_tree`
/// by construction, which is exactly right — it is a partial tree, not a
/// proof of membership.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ErrorNode {
    /// Source location where the error was detected.
    pub span: Span,
    /// Tokens discarded during resynchronization, in input order (empty
    /// for pure "missing symbol" repairs).
    pub skipped: Vec<Token>,
    /// Human-readable description of what went wrong.
    pub reason: String,
}

/// A parse tree.
///
/// # Examples
///
/// ```
/// use costar_grammar::{SymbolTable, Token, Tree};
/// let mut tab = SymbolTable::new();
/// let b = tab.terminal("b");
/// let a_nt = tab.nonterminal("A");
/// let tree = Tree::Node(a_nt, vec![Tree::Leaf(Token::new(b, "b"))]);
/// assert_eq!(tree.yield_tokens().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Tree {
    /// A leaf holding a consumed token.
    Leaf(Token),
    /// An interior node: a nonterminal and the forest derived from the
    /// right-hand side chosen for it.
    Node(NonTerminal, Vec<Tree>),
    /// A recovery artifact: input skipped or a symbol abandoned during
    /// panic-mode resynchronization. Only the recovering parser produces
    /// these; plain parses never do. Boxed so the rare payload does not
    /// widen every slot of every child vector.
    Error(Box<ErrorNode>),
}

// Every child-vector slot is one `Tree`: `Leaf(Token)` sets the size, and
// the boxed error payload keeps `Error` from widening it.
const _: () = assert!(std::mem::size_of::<Tree>() <= 56);

/// A forest: the subtrees derived from a sentential form.
pub type Forest = Vec<Tree>;

impl Tree {
    /// The grammar symbol at the root of this tree, or `None` for an
    /// error node (which stands for no grammar symbol).
    pub fn root_symbol(&self) -> Option<Symbol> {
        match self {
            Tree::Leaf(t) => Some(Symbol::T(t.terminal())),
            Tree::Node(x, _) => Some(Symbol::Nt(*x)),
            Tree::Error(_) => None,
        }
    }

    /// `true` when this tree or any subtree is an error node — i.e. the
    /// tree was produced by recovery, not by a clean derivation.
    pub fn has_errors(&self) -> bool {
        match self {
            Tree::Leaf(_) => false,
            Tree::Node(_, children) => children.iter().any(Tree::has_errors),
            Tree::Error(_) => true,
        }
    }

    /// The word at the leaves of this tree, in left-to-right order.
    pub fn yield_tokens(&self) -> Vec<Token> {
        let mut out = Vec::new();
        self.collect_yield(&mut out);
        out
    }

    fn collect_yield(&self, out: &mut Vec<Token>) {
        match self {
            Tree::Leaf(t) => out.push(t.clone()),
            Tree::Node(_, children) => {
                for c in children {
                    c.collect_yield(out);
                }
            }
            // Skipped tokens were consumed input: they belong to the yield
            // so a recovered tree still reproduces what was read.
            Tree::Error(e) => out.extend(e.skipped.iter().cloned()),
        }
    }

    /// Number of leaves in the tree (the length of its yield; skipped
    /// tokens inside error nodes count).
    pub fn leaf_count(&self) -> usize {
        match self {
            Tree::Leaf(_) => 1,
            Tree::Node(_, children) => children.iter().map(Tree::leaf_count).sum(),
            Tree::Error(e) => e.skipped.len(),
        }
    }

    /// Number of nodes (interior + leaves) in the tree.
    pub fn size(&self) -> usize {
        match self {
            Tree::Leaf(_) => 1,
            Tree::Node(_, children) => 1 + children.iter().map(Tree::size).sum::<usize>(),
            Tree::Error(_) => 1,
        }
    }

    /// Height of the tree: a leaf has height 1.
    pub fn height(&self) -> usize {
        match self {
            Tree::Leaf(_) => 1,
            Tree::Node(_, children) => 1 + children.iter().map(Tree::height).max().unwrap_or(0),
            Tree::Error(_) => 1,
        }
    }

    /// Bottom-up fold over the tree: the basis for user-defined semantic
    /// analyses (the paper's §8 "semantic actions" future work).
    ///
    /// `leaf` maps each token to a semantic value; `node` combines a
    /// nonterminal and its children's values; `err` values an error node
    /// spliced in by the recovering parser (trees from plain parses never
    /// contain any, so `err` can simply be `|_| unreachable-value` there).
    ///
    /// # Examples
    ///
    /// Counting leaves via a fold:
    ///
    /// ```
    /// use costar_grammar::{SymbolTable, Token, Tree};
    /// let mut tab = SymbolTable::new();
    /// let t = Token::new(tab.terminal("a"), "a");
    /// let tree = Tree::Node(tab.nonterminal("X"), vec![Tree::Leaf(t)]);
    /// let n: usize = tree.fold(
    ///     &mut |_| 1usize,
    ///     &mut |_, kids| kids.iter().sum(),
    ///     &mut |e| e.skipped.len(),
    /// );
    /// assert_eq!(n, 1);
    /// ```
    pub fn fold<V>(
        &self,
        leaf: &mut impl FnMut(&Token) -> V,
        node: &mut impl FnMut(NonTerminal, Vec<V>) -> V,
        err: &mut impl FnMut(&ErrorNode) -> V,
    ) -> V {
        match self {
            Tree::Leaf(t) => leaf(t),
            Tree::Node(x, children) => {
                let vals = children.iter().map(|c| c.fold(leaf, node, err)).collect();
                node(*x, vals)
            }
            Tree::Error(e) => err(e),
        }
    }

    /// Pretty-prints the tree with indentation, resolving symbol names via
    /// `tab`. Intended for debugging and examples.
    pub fn render(&self, tab: &SymbolTable) -> String {
        let mut out = String::new();
        self.render_into(tab, 0, &mut out);
        out
    }

    fn render_into(&self, tab: &SymbolTable, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            Tree::Leaf(t) => {
                let _ = writeln!(out, "{} {:?}", tab.terminal_name(t.terminal()), t.lexeme());
            }
            Tree::Node(x, children) => {
                let _ = writeln!(out, "{}", tab.nonterminal_name(*x));
                for c in children {
                    c.render_into(tab, depth + 1, out);
                }
            }
            Tree::Error(e) => {
                let _ = writeln!(
                    out,
                    "<error: {} ({} token(s) skipped)>",
                    e.reason,
                    e.skipped.len()
                );
            }
        }
    }
}

/// The word at the leaves of a forest, in left-to-right order.
pub fn forest_yield(forest: &[Tree]) -> Vec<Token> {
    let mut out = Vec::new();
    for t in forest {
        t.collect_yield(&mut out);
    }
    out
}

/// The root symbols of a forest, in order. For a forest derived from a
/// sentential form `γ`, these roots equal `γ`. Error nodes stand for no
/// grammar symbol and are skipped — a recovered forest's roots spell the
/// symbols that *were* derived around the damage.
pub fn forest_roots(forest: &[Tree]) -> Vec<Symbol> {
    forest.iter().filter_map(Tree::root_symbol).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolTable;

    fn sample(tab: &mut SymbolTable) -> Tree {
        // S -> A d ; A -> a A | b, parsing "abd" as in paper Fig. 2.
        let a = tab.terminal("a");
        let b = tab.terminal("b");
        let d = tab.terminal("d");
        let s = tab.nonterminal("S");
        let a_nt = tab.nonterminal("A");
        Tree::Node(
            s,
            vec![
                Tree::Node(
                    a_nt,
                    vec![
                        Tree::Leaf(Token::new(a, "a")),
                        Tree::Node(a_nt, vec![Tree::Leaf(Token::new(b, "b"))]),
                    ],
                ),
                Tree::Leaf(Token::new(d, "d")),
            ],
        )
    }

    #[test]
    fn yield_is_left_to_right() {
        let mut tab = SymbolTable::new();
        let tree = sample(&mut tab);
        let lexemes: Vec<String> = tree
            .yield_tokens()
            .iter()
            .map(|t| t.lexeme().to_owned())
            .collect();
        assert_eq!(lexemes, vec!["a", "b", "d"]);
    }

    #[test]
    fn counts_and_height() {
        let mut tab = SymbolTable::new();
        let tree = sample(&mut tab);
        assert_eq!(tree.leaf_count(), 3);
        assert_eq!(tree.size(), 6);
        assert_eq!(tree.height(), 4);
    }

    #[test]
    fn root_symbol_matches_structure() {
        let mut tab = SymbolTable::new();
        let tree = sample(&mut tab);
        assert_eq!(
            tree.root_symbol(),
            Some(Symbol::Nt(tab.lookup_nonterminal("S").unwrap()))
        );
    }

    #[test]
    fn error_nodes_carry_skipped_yield_and_no_root_symbol() {
        let mut tab = SymbolTable::new();
        let junk = Token::new(tab.terminal("junk"), "?!");
        let err = Tree::Error(Box::new(ErrorNode {
            span: Span::at_offset(4),
            skipped: vec![junk.clone()],
            reason: "unexpected token".to_owned(),
        }));
        assert_eq!(err.root_symbol(), None);
        assert!(err.has_errors());
        assert_eq!(err.yield_tokens(), vec![junk]);
        assert_eq!(err.leaf_count(), 1);
        assert_eq!(err.size(), 1);
        assert_eq!(err.height(), 1);

        let s = tab.nonterminal("S");
        let wrapped = Tree::Node(s, vec![err.clone()]);
        assert!(wrapped.has_errors());
        // Error roots are transparent to forest_roots.
        assert_eq!(forest_roots(&[err]), vec![]);
        assert_eq!(
            forest_roots(std::slice::from_ref(&wrapped)),
            vec![Symbol::Nt(s)]
        );
        assert!(wrapped.render(&tab).contains("error: unexpected token"));
        // Clean trees report no errors.
        let clean = sample(&mut tab);
        assert!(!clean.has_errors());
    }

    #[test]
    fn forest_helpers() {
        let mut tab = SymbolTable::new();
        let tree = sample(&mut tab);
        let forest = vec![tree.clone(), tree];
        assert_eq!(forest_yield(&forest).len(), 6);
        let roots = forest_roots(&forest);
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0], roots[1]);
    }

    #[test]
    fn fold_computes_leaf_count() {
        let mut tab = SymbolTable::new();
        let tree = sample(&mut tab);
        let n: usize = tree.fold(
            &mut |_| 1usize,
            &mut |_, kids| kids.iter().sum(),
            &mut |e| e.skipped.len(),
        );
        assert_eq!(n, tree.leaf_count());
    }

    #[test]
    fn render_lists_all_symbols() {
        let mut tab = SymbolTable::new();
        let tree = sample(&mut tab);
        let s = tree.render(&tab);
        for name in ["S", "A", "a", "b", "d"] {
            assert!(s.contains(name), "missing {name} in {s}");
        }
    }
}
