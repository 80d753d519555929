//! # costar — a purely functional ALL(*) parser
//!
//! A Rust reproduction of **CoStar** (Lasser, Casinghino, Fisher, Roux:
//! *CoStar: A Verified ALL(\*) Parser*, PLDI 2021): an interpreter-style
//! parser, parametric over an arbitrary non-left-recursive BNF grammar,
//! based on the ALL(*) algorithm at the core of ANTLR 4.
//!
//! The paper's headline guarantees, and how this crate reproduces each:
//!
//! | Paper (proved in Coq) | Here (executable) |
//! |---|---|
//! | Soundness: accepted trees are correct derivations | [`costar_grammar::check_tree`] validates every accepted tree in the test suites |
//! | Completeness: every derivable word is accepted | property tests generate words *from* grammars and cross-check an Earley oracle |
//! | Error-free termination | [`instrument::run_instrumented`] asserts the §4 measure strictly decreases at every step |
//! | Correct ambiguity labels | `Unique`/`Ambig` labels checked against oracle derivation counts |
//!
//! ## Quick start
//!
//! ```
//! use costar::{ParseOutcome, Parser};
//! use costar_grammar::{GrammarBuilder, Token};
//!
//! // The grammar of Fig. 2 in the paper.
//! let mut gb = GrammarBuilder::new();
//! gb.rule("S", &["A", "c"]);
//! gb.rule("S", &["A", "d"]);
//! gb.rule("A", &["a", "A"]);
//! gb.rule("A", &["b"]);
//! let grammar = gb.start("S").build()?;
//!
//! let mut parser = Parser::new(grammar);
//! let tok = |n: &str| Token::new(parser.grammar().symbols().lookup_terminal(n).unwrap(), n);
//! match parser.parse(&[tok("a"), tok("b"), tok("d")]) {
//!     ParseOutcome::Unique(tree) => assert_eq!(tree.leaf_count(), 3),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Architecture (paper §3)
//!
//! * [`machine`] — the stack machine: machine states, `step`, and the
//!   one `multistep` loop every parse runs (recovering on rejection when
//!   asked, see [`recover`]).
//! * [`Parser`] — the one parse driver ([`Parser::run`]): cache policy,
//!   budget (including auto fuel from the cost certificate), the
//!   panic-safe boundary, and the metrics stamp. Every other entry point —
//!   plain, recovering, one-shot [`parse`], edit sessions, batch items —
//!   is a thin wrapper over it.
//! * `prediction` (private) — `adaptivePredict`: SLL simulation with the
//!   DFA cache ([`SllCache`]), LL failover, ambiguity detection.
//! * [`measure`] — the `(tokens, stackScore, height)` termination measure
//!   of §4, over arbitrary-precision naturals ([`bignat`]).
//! * [`invariants`] — executable forms of the machine-state invariants
//!   used by the paper's proofs (e.g. `StacksWf_I`, Fig. 4).
//! * [`instrument`] — a step-by-step runner that checks the measure and
//!   the invariants after every machine operation.
//! * [`semantics`] — semantic actions over parse trees (the paper's §8
//!   future work).
//! * [`budget`] — resource governance (not in the paper): step fuel
//!   derived from the §4 termination measure, wall-clock deadlines, stack
//!   depth and cache capacity limits, surfacing as
//!   [`ParseOutcome::Aborted`] instead of unbounded work.
//! * [`observe`] — zero-cost-when-disabled observability: one [`Event`]
//!   schema delivered to a [`ParseObserver`], [`MetricsObserver`]/
//!   [`ParseMetrics`] for counters and latency histograms, and
//!   [`TraceObserver`] for bounded post-mortem event traces.
//! * [`batch`] — parallel batch parsing: [`BatchParser`] runs clones of
//!   one [`Parser`] — sharing its immutable grammar + analysis, each with
//!   a private prediction cache — as a worker pool, with results
//!   deterministic in input order regardless of worker count.
//! * `session` (private module, types re-exported) — incremental editing:
//!   [`ParseSession`] keeps source, token vector, and cached outcome
//!   alive across [`Parser::reparse_after_edit`] calls, re-lexing only
//!   the edited region and skipping the parse entirely when the spliced
//!   token vector is byte-identical to the previous one.

#![warn(missing_docs)]
// The panic-freedom discipline (clippy.toml `disallowed_*` config) is
// opted into per module: hot-path modules re-enable these lints with a
// module-level `#![warn(..)]`; everything else (support modules, tests)
// is exempt by this crate-level allow.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

pub mod batch;
pub mod bignat;
pub mod budget;
mod error;
#[cfg(feature = "faults")]
pub mod faults;
pub mod instrument;
pub mod invariants;
pub mod machine;
pub mod measure;
pub mod observe;
mod parser;
mod prediction;
pub mod recover;
pub mod semantics;
mod session;
pub mod state;
#[cfg(kani)]
pub mod verify_hooks;

pub use batch::{BatchItem, BatchItemResult, BatchParser, BatchResult};
pub use budget::{AbortReason, Budget};
pub use error::{ParseError, RejectReason};
#[cfg(feature = "faults")]
pub use faults::FaultPlan;
pub use machine::{Machine, ParseOutcome, PredictionMode, StepResult};
pub use observe::{
    Event, MetricsObserver, NullObserver, ParseMetrics, ParseObserver, TraceEvent, TraceObserver,
};
pub use parser::{parse, CachePolicy, Parser};
pub use prediction::cache::{CacheStats, SllCache};
pub use recover::{exit_code, Diagnostic, RecoveredParse};
pub use session::{ParseSession, SessionReparse};
// The lexer-side session vocabulary, re-exported so edit-session callers
// (the CLI, the verify harnesses) need only this crate.
pub use costar_lexer::{Edit, EditError, EditSession, SpliceReport};
