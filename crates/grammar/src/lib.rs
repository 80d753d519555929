//! Grammar substrate for the CoStar ALL(*) parser reproduction.
//!
//! This crate provides everything the parser in the `costar` crate is
//! parameterized over (paper Fig. 1, "Basic definitions"):
//!
//! * interned [`Terminal`] / [`NonTerminal`] / [`Symbol`] values and the
//!   [`SymbolTable`] they live in;
//! * [`Token`]s `(a, l)` and parse [`Tree`]s / forests;
//! * indexed BNF [`Grammar`]s built with [`GrammarBuilder`];
//! * static analyses in [`analysis`]: nullability, FIRST/FOLLOW, the
//!   left-recursion decision procedure (the paper's §8 future work),
//!   reachability/productivity, and the SLL stable-return-frame
//!   computation (§3.5);
//! * a diagnostics-grade grammar linter in [`lint`], turning the analyses
//!   into structured findings with stable codes and witnesses;
//! * the executable derivation relation ([`check_tree`]) that serves as the
//!   correctness specification (paper Fig. 3).
//!
//! # Example
//!
//! Build the grammar from Fig. 2 of the paper and check a hand-made tree
//! against the derivation relation:
//!
//! ```
//! use costar_grammar::{check_tree, GrammarBuilder, Token, Tree};
//!
//! let mut gb = GrammarBuilder::new();
//! gb.rule("S", &["A", "c"]);
//! gb.rule("S", &["A", "d"]);
//! gb.rule("A", &["a", "A"]);
//! gb.rule("A", &["b"]);
//! let g = gb.start("S").build()?;
//!
//! let s = g.symbols().lookup_nonterminal("S").unwrap();
//! let a_nt = g.symbols().lookup_nonterminal("A").unwrap();
//! let tok = |name: &str| Token::new(g.symbols().lookup_terminal(name).unwrap(), name);
//! let word = vec![tok("a"), tok("b"), tok("d")];
//!
//! let tree = Tree::Node(s, vec![
//!     Tree::Node(a_nt, vec![
//!         Tree::Leaf(word[0].clone()),
//!         Tree::Node(a_nt, vec![Tree::Leaf(word[1].clone())]),
//!     ]),
//!     Tree::Leaf(word[2].clone()),
//! ]);
//! assert!(check_tree(&g, s, &word, &tree).is_ok());
//! # Ok::<(), costar_grammar::GrammarError>(())
//! ```

#![warn(missing_docs)]
// The panic-freedom discipline (clippy.toml `disallowed_*` config) is
// opted into per module: the analysis module tree re-enables these lints
// with a module-level `#![warn(..)]`; everything else (builders,
// samplers, transforms, tests) is exempt by this crate-level allow.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

pub mod analysis;
mod derivation;
mod grammar;
pub mod json;
pub mod lint;
pub mod sampler;
mod sets;
mod symbol;
mod token;
pub mod transform;
mod tree;

pub use derivation::{
    check_tree, has_production, production_of_node, terminal_form_matches, DerivationError,
};
pub use grammar::{Grammar, GrammarBuilder, GrammarError, ProdId, Production};
pub use sets::{BitSet, NtSet, TermSet};
pub use symbol::{NonTerminal, Symbol, SymbolTable, Terminal};
pub use token::{tokens, Span, Token};
pub use tree::{forest_roots, forest_yield, ErrorNode, Forest, Tree};
