//! End-to-end tests of `costar audit` against fixture grammars: human
//! output with certified bounds and witnesses, exact golden JSON (the
//! `costar-cert-v1` schema is a stability contract — it is the same
//! document embedded in the on-disk grammar-analysis cache and replayed
//! at load time), the `--max-lookahead` bound note, and the lint-style
//! exit-code contract (0 clean / 1 findings / 2 load error).

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn audit(extra: &[&str], grammar: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_costar"))
        .arg("audit")
        .arg("--grammar")
        .arg(fixture(grammar))
        .args(extra)
        .output()
        .expect("spawn costar")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

/// The certificate must match its golden fixture byte-for-byte: any
/// schema change must be deliberate (regenerate the golden and bump the
/// `costar-cert-v1` tag if the shape changed incompatibly), because the
/// cache loader replays this exact document.
fn assert_matches_golden(grammar: &str, golden: &str) {
    assert_stdout_is_golden(&audit(&["--format=json"], grammar), golden, grammar);
}

fn assert_stdout_is_golden(out: &Output, golden: &str, label: &str) {
    let expected = std::fs::read_to_string(fixture(golden)).expect("read golden");
    assert_eq!(stdout(out).trim_end(), expected.trim_end(), "{label}");
}

#[test]
fn lookahead_fixture_certifies_exact_bound_with_witnesses() {
    let out = audit(&[], "audit_lookahead.ebnf");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("s: k = 3"), "{text}");
    assert!(text.contains("collide after `A B`"), "{text}");
    assert!(text.contains("resolved by `A B C`"), "{text}");
    assert!(stderr(&out).contains("1 bounded (max k = 3)"), "{out:?}");
}

#[test]
fn max_lookahead_threshold_turns_the_bound_into_a_finding() {
    // Bound within threshold: still clean.
    let out = audit(&["--max-lookahead", "3"], "audit_lookahead.ebnf");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(!stdout(&out).contains("L011"), "{out:?}");
    // Threshold below the certified bound: L011 note, exit 1.
    let out = audit(&["--max-lookahead", "2"], "audit_lookahead.ebnf");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("note[L011]"), "{text}");
    assert!(text.contains("k = 3 exceeds threshold 2"), "{text}");
}

#[test]
fn dead_alternative_fixture_exits_one_with_l009() {
    let out = audit(&[], "audit_dead.ebnf");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("error[L009]"), "{text}");
    assert!(text.contains("`s -> u` contains an unproductive"), "{text}");
}

#[test]
fn shadowed_alternative_fixture_exits_one_with_l010() {
    let out = audit(&[], "audit_shadowed.ebnf");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("warning[L010]"), "{text}");
    assert!(
        text.contains("`s -> A` is covered by the earlier `s -> x`"),
        "{text}"
    );
}

#[test]
fn certificate_schema_is_stable_against_goldens() {
    assert_matches_golden("audit_lookahead.ebnf", "audit_lookahead.golden.json");
    assert_matches_golden("audit_dead.ebnf", "audit_dead.golden.json");
    assert_matches_golden("audit_shadowed.ebnf", "audit_shadowed.golden.json");
}

/// The `costar-cost-v1` certificate is pinned the same way: it is the
/// document embedded under the grammar cache's `"cost"` key.
#[test]
fn cost_certificate_schema_is_stable_against_goldens() {
    for name in ["lookahead", "dead", "shadowed"] {
        let out = Command::new(env!("CARGO_BIN_EXE_costar"))
            .args(["cost", "--format=json", "--grammar"])
            .arg(fixture(&format!("audit_{name}.ebnf")))
            .output()
            .expect("spawn costar");
        assert_stdout_is_golden(&out, &format!("cost_{name}.golden.json"), name);
    }
}

/// Both certificates of every bundled language are pinned as well: DOT
/// and Python hit the pair graphs' exploration caps, which the fixture
/// grammars above never do.
#[test]
fn builtin_language_certificates_are_stable_against_goldens() {
    for lang in ["json", "xml", "dot", "python"] {
        for command in ["audit", "cost"] {
            let out = Command::new(env!("CARGO_BIN_EXE_costar"))
                .args([command, "--lang", lang, "--format=json"])
                .output()
                .expect("spawn costar");
            let golden = format!("{command}_lang_{lang}.golden.json");
            assert_stdout_is_golden(&out, &golden, &golden);
        }
    }
}

#[test]
fn missing_grammar_file_exits_two() {
    let out = audit(&[], "no_such_fixture.ebnf");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn builtin_languages_report_exact_bounds() {
    // The audit must certify every bundled grammar's decision points —
    // each one either carries a finite exact k or is explicitly
    // unbounded (ALL(*) regular lookahead), and none has dead or
    // shadowed alternatives.
    for lang in ["json", "xml", "dot", "python"] {
        let out = Command::new(env!("CARGO_BIN_EXE_costar"))
            .args(["audit", "--lang", lang])
            .output()
            .expect("spawn costar");
        assert_eq!(out.status.code(), Some(0), "{lang}: {out:?}");
        let summary = stderr(&out);
        assert!(summary.contains("0 dead, 0 shadowed"), "{lang}: {summary}");
        let text = stdout(&out);
        assert!(text.contains(": k = "), "{lang}: {text}");
    }
    // JSON — the headline bench grammar — is entirely single-token
    // decidable: every decision point certifies k = 1.
    let out = Command::new(env!("CARGO_BIN_EXE_costar"))
        .args(["audit", "--lang", "json"])
        .output()
        .expect("spawn costar");
    let text = stdout(&out);
    assert!(text.contains("value: k = 1"), "{text}");
    assert!(!text.contains("unbounded"), "{text}");
}
