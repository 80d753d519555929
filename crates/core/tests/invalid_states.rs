//! Exercising the machine's `InvalidState` arms.
//!
//! Theorem 5.8 guarantees these errors never occur for well-formed,
//! non-left-recursive grammars — which means ordinary parsing can never
//! reach them. To test the arms at all we do what the paper's proofs do
//! in reverse: start from states that *violate* the `StacksWf_I`
//! invariant (built by hand, since no machine run produces them) and
//! confirm the machine detects the corruption instead of misbehaving.

// Tests are exempt from the core's panic-freedom lints (clippy.toml).
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use costar::state::{MachineState, PrefixFrame, SuffixFrame};
use costar::{Machine, ParseError, SllCache, StepResult};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, GrammarBuilder, Token};

fn fig2() -> (Grammar, GrammarAnalysis) {
    let mut gb = GrammarBuilder::new();
    gb.rule("S", &["A", "c"]);
    gb.rule("S", &["A", "d"]);
    gb.rule("A", &["a", "A"]);
    gb.rule("A", &["b"]);
    let g = gb.start("S").build().unwrap();
    let an = GrammarAnalysis::compute(&g);
    (g, an)
}

/// Steps a machine whose state has been corrupted by `corrupt`.
fn step_corrupted(
    g: &Grammar,
    an: &GrammarAnalysis,
    word: &[Token],
    corrupt: impl FnOnce(&mut MachineState),
) -> StepResult {
    let mut machine = Machine::new(g, an, word);
    // SAFETY of the experiment: state fields are public precisely so
    // instrumentation and tests can inspect/perturb them.
    corrupt(machine.state_mut());
    let mut cache = SllCache::new();
    machine.step(&mut cache)
}

#[test]
fn mismatched_stack_heights_detected() {
    let (g, an) = fig2();
    let result = step_corrupted(&g, &an, &[], |st| {
        st.prefix.push(PrefixFrame::default());
    });
    let StepResult::Error(ParseError::InvalidState { reason }) = result else {
        panic!("expected InvalidState, got {result:?}")
    };
    assert!(reason.contains("heights"));
}

#[test]
fn return_without_caller_detected() {
    let (g, an) = fig2();
    let result = step_corrupted(&g, &an, &[], |st| {
        // An exhausted upper frame naming no production.
        st.suffix[0].dot = 1;
        st.suffix.push(SuffixFrame::bottom().advanced());
        st.prefix.push(PrefixFrame::default());
    });
    let StepResult::Error(ParseError::InvalidState { reason }) = result else {
        panic!("expected InvalidState, got {result:?}")
    };
    assert!(reason.contains("open nonterminal"));
}

#[test]
fn final_frame_with_wrong_tree_count_detected() {
    let (g, an) = fig2();
    // Bottom frame exhausted with zero trees: final-configuration check
    // must flag the inconsistency rather than accept.
    let result = step_corrupted(&g, &an, &[], |st| {
        st.suffix[0].dot = 1;
        st.prefix[0].trees.clear();
    });
    let StepResult::Error(ParseError::InvalidState { reason }) = result else {
        panic!("expected InvalidState, got {result:?}")
    };
    assert!(reason.contains("exactly one tree"));
}

#[test]
fn visited_nonterminal_triggers_left_recursion_error() {
    let (g, an) = fig2();
    let s = g.start();
    let result = step_corrupted(&g, &an, &[], |st| {
        st.visited.insert(s);
    });
    assert_eq!(result, StepResult::Error(ParseError::LeftRecursive(s)));
}

#[test]
fn corrupted_states_fail_invariant_checkers_too() {
    // The invariant checkers and the machine agree on what corruption is.
    let (g, an) = fig2();
    let mut machine = Machine::new(&g, &an, &[]);
    machine.state_mut().prefix.push(PrefixFrame::default());
    assert!(costar::invariants::check_stacks_wf(&g, machine.state()).is_err());
}
