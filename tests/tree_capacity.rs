//! Parse trees carry no slack: every `Tree::Node` child vector is
//! allocated with exactly one slot per right-hand-side symbol, for the
//! CoStar machine (plain and batch parses) and for both imperative
//! baselines, on generated files of all four benchmark languages.
//!
//! A child vector that grew by doubling instead would hold about twice
//! the slots it uses, and every slot is a whole `Tree`.

use costar::{BatchParser, Parser};
use costar_baselines::{AntlrSim, Ll1Parser};
use costar_grammar::Tree;
use costar_langs::{all_languages, corpus};

/// Every interior node in `tree` (iteratively: generated trees are deep)
/// must have `capacity() == len()`; returns the node count checked.
fn assert_exact(tree: &Tree, what: &str) -> usize {
    let mut nodes = 0usize;
    let mut stack = vec![tree];
    while let Some(t) = stack.pop() {
        if let Tree::Node(_, children) = t {
            assert_eq!(
                children.capacity(),
                children.len(),
                "{what}: a node's child vector has spare capacity"
            );
            nodes += 1;
            stack.extend(children);
        }
    }
    nodes
}

#[test]
fn every_child_vector_is_exactly_sized() {
    for (lang, generate) in all_languages() {
        let words: Vec<_> = corpus(generate, 0x51AC, 6, 300)
            .iter()
            .map(|s| lang.tokenize(s).expect("generated source must lex"))
            .collect();
        let mut parser = Parser::new(lang.grammar().clone());
        let mut sim = AntlrSim::new(lang.grammar().clone());
        let ll1 = Ll1Parser::generate(lang.grammar()).ok();
        let batch = BatchParser::new(lang.grammar().clone()).parse_many(&words);
        let mut nodes = 0usize;
        for (i, word) in words.iter().enumerate() {
            let what = format!("{} file {i}", lang.name);
            let outcome = parser.parse(word);
            let tree = outcome.tree().expect("generated files parse");
            nodes += assert_exact(tree, &format!("{what} (parse)"));
            let item = batch.items[i].tree().expect("generated files parse");
            assert_exact(item, &format!("{what} (batch)"));
            let sim_outcome = sim.parse(word);
            let sim_tree = sim_outcome.tree().expect("AntlrSim accepts");
            assert_exact(sim_tree, &format!("{what} (AntlrSim)"));
            if let Some(ll1) = &ll1 {
                let ll1_tree = ll1.parse(word).expect("LL(1) accepts");
                assert_exact(&ll1_tree, &format!("{what} (LL(1))"));
            }
        }
        assert!(
            nodes > 100,
            "{}: corpus too small to mean anything",
            lang.name
        );
    }
}
