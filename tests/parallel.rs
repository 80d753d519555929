//! Threaded stress tests for batch parsing: the four benchmark languages
//! run concurrently, each through one shared `Arc<GrammarAnalysis>` (and
//! therefore one shared `DecisionTable`), and every per-input outcome must
//! be identical to a sequential run at any worker count.
//!
//! This is the integration-level determinism contract of
//! [`costar::BatchParser`]: workers share only immutable context; all
//! mutable state (SLL caches, budget meters, metrics) is per-parse, so
//! scheduling can never leak into results.

use std::sync::Arc;
use std::thread;

use costar::{BatchItemResult, BatchParser, Edit, Parser};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::Token;
use costar_langs::{all_languages, corpus};

const WORKER_COUNTS: [usize; 2] = [2, 8];

#[test]
fn four_languages_batch_concurrently_and_match_sequential() {
    let mut handles = Vec::new();
    for (lang, generate) in all_languages() {
        handles.push(thread::spawn(move || {
            let sources = corpus(generate, 0xC057A6 + lang.name.len() as u64, 10, 150);
            let words: Vec<Vec<costar_grammar::Token>> = sources
                .iter()
                .map(|s| {
                    lang.tokenize(s)
                        .unwrap_or_else(|e| panic!("{}: generated source must lex: {e}", lang.name))
                })
                .collect();
            let grammar = Arc::new(lang.grammar().clone());
            let analysis = Arc::new(GrammarAnalysis::compute(&grammar));

            let sequential = BatchParser::with_shared(Arc::clone(&grammar), Arc::clone(&analysis))
                .with_jobs(1)
                .parse_many(&words);
            for jobs in WORKER_COUNTS {
                let parallel =
                    BatchParser::with_shared(Arc::clone(&grammar), Arc::clone(&analysis))
                        .with_jobs(jobs)
                        .parse_many(&words);
                assert_eq!(parallel.items.len(), sequential.items.len());
                for (i, (p, s)) in parallel.items.iter().zip(&sequential.items).enumerate() {
                    assert_eq!(
                        p.outcome(),
                        s.outcome(),
                        "{}: input {i} diverged at jobs={jobs}",
                        lang.name
                    );
                    assert_eq!(
                        p.metrics.deterministic(),
                        s.metrics.deterministic(),
                        "{}: input {i} metrics diverged at jobs={jobs}",
                        lang.name
                    );
                }
                assert_eq!(parallel.exit_code(), sequential.exit_code());
                assert_eq!(
                    parallel.metrics.deterministic(),
                    sequential.metrics.deterministic(),
                    "{}: roll-up metrics diverged at jobs={jobs}",
                    lang.name
                );
            }
            lang.name
        }));
    }
    for h in handles {
        h.join().expect("language stress thread panicked");
    }
}

#[test]
fn recovering_batches_stay_deterministic_under_concurrency() {
    // Corrupt every word (drop a token mid-stream) so the recovery path —
    // diagnostics, skip counts, exit folding — is exercised across worker
    // counts, concurrently for all four languages.
    let mut handles = Vec::new();
    for (lang, generate) in all_languages() {
        handles.push(thread::spawn(move || {
            let sources = corpus(generate, 0xBAD5EED + lang.name.len() as u64, 8, 120);
            let words: Vec<Vec<costar_grammar::Token>> = sources
                .iter()
                .map(|s| {
                    let mut w = lang.tokenize(s).unwrap_or_else(|e| {
                        panic!("{}: generated source must lex: {e}", lang.name)
                    });
                    if w.len() > 2 {
                        w.remove(w.len() / 2);
                    }
                    w
                })
                .collect();
            let grammar = Arc::new(lang.grammar().clone());
            let analysis = Arc::new(GrammarAnalysis::compute(&grammar));

            let sequential = BatchParser::with_shared(Arc::clone(&grammar), Arc::clone(&analysis))
                .with_jobs(1)
                .parse_many_recovering(&words);
            for jobs in WORKER_COUNTS {
                let parallel =
                    BatchParser::with_shared(Arc::clone(&grammar), Arc::clone(&analysis))
                        .with_jobs(jobs)
                        .parse_many_recovering(&words);
                for (i, (p, s)) in parallel.items.iter().zip(&sequential.items).enumerate() {
                    assert_eq!(
                        p.outcome(),
                        s.outcome(),
                        "{}: recovered input {i} diverged at jobs={jobs}",
                        lang.name
                    );
                    assert_eq!(
                        p.exit_code(),
                        s.exit_code(),
                        "{}: input {i} exit diverged at jobs={jobs}",
                        lang.name
                    );
                    assert_eq!(
                        p.metrics.deterministic(),
                        s.metrics.deterministic(),
                        "{}: recovered input {i} metrics diverged at jobs={jobs}",
                        lang.name
                    );
                }
                assert_eq!(parallel.exit_code(), sequential.exit_code());
            }
            lang.name
        }));
    }
    for h in handles {
        h.join().expect("language stress thread panicked");
    }
}

#[test]
fn warm_cache_batches_match_cold_under_concurrency() {
    // Warm-cache mode snapshots the cache after a warm-up parse and hands
    // every worker a private clone; outcomes must still match the cold
    // sequential oracle at every worker count.
    let (lang, generate) = all_languages().remove(0);
    let sources = corpus(generate, 0x5EED, 12, 200);
    let words: Vec<Vec<costar_grammar::Token>> = sources
        .iter()
        .map(|s| lang.tokenize(s).expect("generated source must lex"))
        .collect();
    let grammar = Arc::new(lang.grammar().clone());
    let analysis = Arc::new(GrammarAnalysis::compute(&grammar));

    let cold = BatchParser::with_shared(Arc::clone(&grammar), Arc::clone(&analysis))
        .with_jobs(1)
        .parse_many(&words);
    for jobs in [1, 2, 8] {
        let warm = BatchParser::with_shared(Arc::clone(&grammar), Arc::clone(&analysis))
            .with_jobs(jobs)
            .with_warm_cache(true)
            .parse_many(&words);
        for (i, (w, c)) in warm.items.iter().zip(&cold.items).enumerate() {
            assert_eq!(
                w.outcome(),
                c.outcome(),
                "input {i} diverged at jobs={jobs}"
            );
        }
        assert_eq!(warm.exit_code(), cold.exit_code());
    }
}

#[test]
fn every_entry_point_runs_the_same_parse() {
    // Plain, recovering, batch (at one and two workers) and edit-session
    // parses all go through one driver, so on valid input they must agree
    // on the outcome, the tree, and every deterministic metric — cost
    // certificate check included. On corrupted input the plain and the
    // recovering flavors differ, but each must match its batch twin.
    for (lang, generate) in all_languages() {
        let sources = corpus(generate, 0xD21FE + lang.name.len() as u64, 6, 120);
        let valid: Vec<Vec<Token>> = sources
            .iter()
            .map(|s| lang.tokenize(s).expect("generated source must lex"))
            .collect();
        let corrupted: Vec<Vec<Token>> = valid
            .iter()
            .map(|w| {
                let mut w = w.clone();
                if w.len() > 2 {
                    w.remove(w.len() / 2);
                }
                w
            })
            .collect();
        let grammar = Arc::new(lang.grammar().clone());
        let analysis = Arc::new(GrammarAnalysis::compute(&grammar));
        let mut parser = Parser::with_analysis(lang.grammar().clone(), (*analysis).clone());
        let batch = |jobs: usize| {
            BatchParser::with_shared(Arc::clone(&grammar), Arc::clone(&analysis)).with_jobs(jobs)
        };

        for jobs in [1, 2] {
            let plain = batch(jobs).parse_many(&valid);
            let recovering = batch(jobs).parse_many_recovering(&valid);
            for (i, word) in valid.iter().enumerate() {
                let at = format!("{}: valid input {i}, jobs={jobs}", lang.name);
                let (outcome, metrics) = parser.parse_with_metrics(word);
                assert!(outcome.is_accept(), "{at}: {outcome:?}");
                assert_eq!(metrics.cost_checks, 1, "{at}");
                let want = metrics.deterministic();
                let (recovered, m) = parser.parse_recovering_with_metrics(word);
                assert!(recovered.is_clean(), "{at}");
                assert_eq!(recovered.outcome, outcome, "{at}");
                assert_eq!(m.deterministic(), want, "{at}: recovering metrics");
                for item in [&plain.items[i], &recovering.items[i]] {
                    assert_eq!(item.outcome(), &outcome, "{at}");
                    assert_eq!(item.tree(), outcome.tree(), "{at}");
                    assert_eq!(item.metrics.deterministic(), want, "{at}: batch metrics");
                }
            }

            let plain = batch(jobs).parse_many(&corrupted);
            let recovering = batch(jobs).parse_many_recovering(&corrupted);
            for (i, word) in corrupted.iter().enumerate() {
                let at = format!("{}: corrupted input {i}, jobs={jobs}", lang.name);
                let (outcome, metrics) = parser.parse_with_metrics(word);
                assert_eq!(plain.items[i].outcome(), &outcome, "{at}");
                assert_eq!(
                    plain.items[i].metrics.deterministic(),
                    metrics.deterministic(),
                    "{at}"
                );
                let (recovered, metrics) = parser.parse_recovering_with_metrics(word);
                assert_eq!(
                    recovering.items[i].result,
                    BatchItemResult::Recovered(recovered),
                    "{at}"
                );
                assert_eq!(
                    recovering.items[i].metrics.deterministic(),
                    metrics.deterministic(),
                    "{at}"
                );
            }
        }

        // Edit sessions: grow each source from empty in one edit, so the
        // reparse covers the whole word (Python re-tokenizes globally and
        // has no edit sessions).
        if !lang.incremental_lexing() {
            continue;
        }
        for (i, (source, word)) in sources.iter().zip(&valid).enumerate() {
            let at = format!("{}: session over input {i}", lang.name);
            let want = parser.parse_with_metrics(word).1.deterministic();
            for recover in [false, true] {
                let mut session = if recover {
                    parser.parse_session_recovering(lang.lexer(), "")
                } else {
                    parser.parse_session(lang.lexer(), "")
                }
                .expect("empty source lexes");
                let (reparse, m) = parser
                    .reparse_after_edit_with_metrics(&mut session, &Edit::new(0..0, source.clone()))
                    .expect("edit applies");
                assert!(!reparse.reused, "{at}");
                assert_eq!(session.tokens(), &word[..], "{at}");
                assert!(session.outcome().is_accept(), "{at}");
                let mut got = m.deterministic();
                got.tokens_relexed = 0;
                got.tokens_reused = 0;
                assert_eq!(got, want, "{at}, recover={recover}");
            }
        }
    }
}
