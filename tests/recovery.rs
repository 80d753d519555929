//! Cross-crate integration tests for syntax-error recovery
//! (`Parser::parse_recovering`) and the grammar-analysis cache, over the
//! four benchmark languages of the paper's evaluation (§6.1).
//!
//! The corruption scheme is deterministic — for every generated corpus
//! file, each of the three single-token mutations (delete, insert,
//! adjacent swap) is applied at positions derived from the file index —
//! so a failure here replays exactly. The obligations per corrupted
//! word:
//!
//! 1. recovery terminates (the `2·|input| + 2` bound of the resync loop),
//! 2. it never panics and never reports an internal error,
//! 3. whenever the plain parser rejects the word, recovery records at
//!    least one diagnostic and returns an error-annotated tree whose
//!    yield — counting tokens absorbed into error nodes — spells the
//!    entire input,
//! 4. whenever the plain parser accepts, recovery is the identity:
//!    byte-identical tree, zero diagnostics.
//!
//! A separate test pins the `max_recoveries` budget contract, and the
//! cache tests check that a `GrammarAnalysis` restored from its JSON
//! cache form drives parses identical to a freshly computed one.

use costar::{AbortReason, Budget, ParseOutcome, Parser, RecoveredParse};
use costar_grammar::analysis::{from_cache_json, to_cache_json, GrammarAnalysis};
use costar_grammar::{Terminal, Token};
use costar_langs::{all_languages, corpus};

/// Small per-language corpus: big enough to hit nesting, small enough to
/// keep the suite fast.
const NUM_FILES: usize = 3;
const MAX_SIZE: usize = 120;
const SEED: u64 = 0xC0_57A2;

fn terminals(word: &[Token]) -> Vec<Terminal> {
    word.iter().map(Token::terminal).collect()
}

/// The three deterministic single-token mutations of `word`, with the
/// mutation site derived from `salt` so different files corrupt at
/// different positions. Empty words only support insertion.
fn mutations(word: &[Token], salt: usize) -> Vec<(&'static str, Vec<Token>)> {
    let mut out = Vec::new();
    if !word.is_empty() {
        let mut deleted = word.to_vec();
        deleted.remove(salt % word.len());
        out.push(("delete", deleted));

        // Insert a duplicate of an existing token at a different spot:
        // stays within the grammar's alphabet without needing the symbol
        // table, yet lands somewhere it rarely belongs.
        let mut inserted = word.to_vec();
        let tok = word[salt % word.len()].clone();
        inserted.insert((salt / 2) % (word.len() + 1), tok);
        out.push(("insert", inserted));
    }
    if word.len() >= 2 {
        // Swap the first adjacent pair of *distinct* terminals at or
        // after the salt position (a same-terminal swap is a no-op).
        let start = salt % (word.len() - 1);
        if let Some(i) = (0..word.len() - 1)
            .map(|k| (start + k) % (word.len() - 1))
            .find(|&i| word[i].terminal() != word[i + 1].terminal())
        {
            let mut swapped = word.to_vec();
            swapped.swap(i, i + 1);
            out.push(("swap", swapped));
        }
    }
    out
}

/// The shared per-word obligation: recovery either reproduces a clean
/// parse exactly or degrades into diagnostics plus a full-yield tree.
fn check_recovered(ctx: &str, parser: &mut Parser, word: &[Token]) {
    let baseline = parser.parse(word);
    let recovered: RecoveredParse = parser.parse_recovering(word);
    match &baseline {
        ParseOutcome::Unique(tree) | ParseOutcome::Ambig(tree) => {
            assert!(
                recovered.diagnostics.is_empty(),
                "{ctx}: accepted word produced {} diagnostics",
                recovered.diagnostics.len()
            );
            assert_eq!(
                recovered.tree(),
                Some(tree),
                "{ctx}: recovered tree differs from the plain parse tree"
            );
        }
        ParseOutcome::Reject(reason) => {
            assert!(
                !recovered.diagnostics.is_empty(),
                "{ctx}: rejected word ({reason}) produced no diagnostics"
            );
            assert!(
                matches!(recovered.outcome, ParseOutcome::Reject(_)),
                "{ctx}: recovered outcome is {:?}, not Reject",
                recovered.outcome
            );
            let tree = recovered
                .tree()
                .unwrap_or_else(|| panic!("{ctx}: rejected word recovered with no tree"));
            assert!(tree.has_errors(), "{ctx}: recovered tree has no error node");
            assert_eq!(
                terminals(&tree.yield_tokens()),
                terminals(word),
                "{ctx}: recovered yield does not spell the input"
            );
        }
        other => panic!("{ctx}: plain parse returned {other:?} with an unlimited budget"),
    }
}

#[test]
fn corrupted_corpora_recover_across_all_languages() {
    for (lang, generate) in all_languages() {
        let mut parser = Parser::new(lang.grammar().clone());
        let mut corrupted_words = 0usize;
        let mut rejected_words = 0usize;
        for (i, file) in corpus(generate, SEED, NUM_FILES, MAX_SIZE)
            .iter()
            .enumerate()
        {
            let word = lang.tokenize(file).expect("generated files lex");

            // The untouched file parses cleanly, and recovery agrees.
            let ctx = format!("{} file {i} (valid)", lang.name);
            let clean = parser.parse_recovering(&word);
            assert!(clean.is_clean(), "{ctx}: {:?}", clean.outcome);
            check_recovered(&ctx, &mut parser, &word);

            for (kind, mutated) in mutations(&word, i * 7 + 3) {
                corrupted_words += 1;
                let ctx = format!("{} file {i} ({kind})", lang.name);
                if matches!(parser.parse(&mutated), ParseOutcome::Reject(_)) {
                    rejected_words += 1;
                }
                check_recovered(&ctx, &mut parser, &mutated);
            }
        }
        // The corruption scheme must actually produce invalid inputs, or
        // the recovery leg above is vacuous.
        assert!(
            rejected_words > 0,
            "{}: none of the {corrupted_words} mutations left the language",
            lang.name
        );
    }
}

#[test]
fn recovery_collects_multiple_diagnostics_per_file() {
    // JSON with two independent corruption sites: recovery should resync
    // past the first error and still report the second.
    let (lang, _) = all_languages().into_iter().next().expect("JSON first");
    let mut parser = Parser::new(lang.grammar().clone());
    let word = lang
        .tokenize(r#"{ "a": [1, 2 2], "b": { "c": : true } }"#)
        .expect("lexes");
    let recovered = parser.parse_recovering(&word);
    assert!(
        recovered.diagnostics.len() >= 2,
        "expected multiple diagnostics, got {:?}",
        recovered.diagnostics
    );
    let tree = recovered.into_tree().expect("recovered tree");
    assert_eq!(terminals(&tree.yield_tokens()), terminals(&word));
}

#[test]
fn max_recoveries_budget_aborts_cleanly() {
    let (lang, _) = all_languages().into_iter().next().expect("JSON first");
    // Same doubly corrupted input as above: needs at least two recoveries.
    let word = lang
        .tokenize(r#"{ "a": [1, 2 2], "b": { "c": : true } }"#)
        .expect("lexes");

    let mut capped = Parser::new(lang.grammar().clone());
    capped.set_budget(Budget::unlimited().with_max_recoveries(1));
    let recovered = capped.parse_recovering(&word);
    assert_eq!(
        recovered.outcome,
        ParseOutcome::Aborted(AbortReason::RecoveryLimit { limit: 1 }),
        "diagnostics: {:?}",
        recovered.diagnostics
    );
    assert_eq!(
        recovered.diagnostics.len(),
        1,
        "cap of 1 means 1 diagnostic"
    );
    assert!(
        recovered.tree().is_none(),
        "an aborted recovery must not hand back a partial tree"
    );

    // A cap of zero disables recovery entirely: abort on first reject.
    let mut off = Parser::new(lang.grammar().clone());
    off.set_budget(Budget::unlimited().with_max_recoveries(0));
    let recovered = off.parse_recovering(&word);
    assert_eq!(
        recovered.outcome,
        ParseOutcome::Aborted(AbortReason::RecoveryLimit { limit: 0 })
    );
    assert!(recovered.diagnostics.is_empty());

    // A generous cap never triggers, and the parser stays usable after an
    // abort (panic-safe boundary contract).
    let mut roomy = Parser::new(lang.grammar().clone());
    roomy.set_budget(Budget::unlimited().with_max_recoveries(64));
    let recovered = roomy.parse_recovering(&word);
    assert!(matches!(recovered.outcome, ParseOutcome::Reject(_)));
    assert!(recovered.diagnostics.len() >= 2);
    let valid = lang
        .tokenize(r#"{ "a": [1, 2], "b": true }"#)
        .expect("lexes");
    assert!(roomy.parse_recovering(&valid).is_clean());
}

#[test]
fn cached_analysis_drives_identical_parses() {
    for (lang, generate) in all_languages() {
        let g = lang.grammar().clone();
        let fresh = GrammarAnalysis::compute(&g);
        let restored = from_cache_json(&g, &to_cache_json(&g, &fresh))
            .unwrap_or_else(|| panic!("{}: cache roundtrip failed validation", lang.name));

        let mut a = Parser::with_analysis(g.clone(), fresh);
        let mut b = Parser::with_analysis(g.clone(), restored);
        for (i, file) in corpus(generate, SEED, NUM_FILES, MAX_SIZE)
            .iter()
            .enumerate()
        {
            let word = lang.tokenize(file).expect("generated files lex");
            assert_eq!(
                a.parse(&word),
                b.parse(&word),
                "{} file {i}: cached analysis diverged on the valid word",
                lang.name
            );
            for (kind, mutated) in mutations(&word, i * 7 + 3) {
                let ra = a.parse_recovering(&mutated);
                let rb = b.parse_recovering(&mutated);
                assert_eq!(
                    ra, rb,
                    "{} file {i} ({kind}): cached analysis diverged under recovery",
                    lang.name
                );
            }
        }
    }
}

#[test]
fn corrupt_cache_text_is_rejected_not_trusted() {
    let (lang, _) = all_languages().into_iter().next().expect("JSON first");
    let g = lang.grammar().clone();
    let analysis = GrammarAnalysis::compute(&g);
    let good = to_cache_json(&g, &analysis);

    // Truncations, bit flips, and wholesale garbage must all be detected
    // by validation — `from_cache_json` returns None rather than a
    // half-reconstructed analysis.
    assert!(from_cache_json(&g, &good[..good.len() / 2]).is_none());
    assert!(from_cache_json(&g, "").is_none());
    assert!(from_cache_json(&g, "{}").is_none());
    assert!(from_cache_json(&g, "not json at all").is_none());
    let flipped = good.replace("costar-gcache", "costar-gcacheX");
    assert!(from_cache_json(&g, &flipped).is_none());
}
