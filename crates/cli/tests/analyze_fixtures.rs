//! End-to-end tests of `costar analyze` against fixture grammars
//! covering all three decision classes: human output, exact golden JSON
//! (the `costar-analyze-v1` schema is a stability contract for CI
//! scripts), and the lint-style exit-code contract (0 clean / 1 findings
//! / 2 load error, where a "finding" is a proven-ambiguous pair).

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze(extra: &[&str], grammar: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_costar"))
        .arg("analyze")
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

/// The JSON report must match its golden fixture byte-for-byte: any
/// schema change must be deliberate (regenerate the golden and bump the
/// `schema` tag if the shape changed incompatibly).
fn assert_matches_golden(grammar: &str, golden: &str) {
    assert_stdout_is_golden(&analyze(&["--format=json"], grammar), golden, grammar);
}

fn assert_stdout_is_golden(out: &Output, golden: &str, label: &str) {
    let expected = std::fs::read_to_string(fixture(golden)).expect("read golden");
    assert_eq!(stdout(out).trim_end(), expected.trim_end(), "{label}");
}

#[test]
fn ll1_fixture_is_clean_and_fully_mapped() {
    let out = analyze(&[], "analyze_ll1.ebnf");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("s: ll1"), "{text}");
    assert!(text.contains("lookahead map: 2 entries"), "{text}");
    assert!(stderr(&out).contains("1 ll1, 0 sll-safe"), "{out:?}");
}

#[test]
fn sll_safe_fixture_reports_class_and_distinguishing_prefix() {
    let out = analyze(&[], "analyze_sll_safe.ebnf");
    assert_eq!(out.status.code(), Some(0), "sll-safe is not a finding");
    let text = stdout(&out);
    assert!(text.contains("s: sll-safe"), "{text}");
    assert!(text.contains("x: ll1"), "{text}");
    assert!(text.contains("distinguished after"), "{text}");
    assert!(!text.contains("needs-full-allstar"), "{text}");
}

#[test]
fn ambiguous_fixture_exits_one_with_word_witness() {
    let out = analyze(&[], "analyze_ambiguous.ebnf");
    assert_eq!(out.status.code(), Some(1), "ambiguity is a finding");
    let text = stdout(&out);
    assert!(text.contains("s: needs-full-allstar"), "{text}");
    assert!(text.contains("ambiguous: both derive `A`"), "{text}");
    assert!(stderr(&out).contains("1 ambiguous"), "{out:?}");
}

#[test]
fn json_schema_is_stable_against_goldens() {
    assert_matches_golden("analyze_ll1.ebnf", "analyze_ll1.golden.json");
    assert_matches_golden("analyze_sll_safe.ebnf", "analyze_sll_safe.golden.json");
    assert_matches_golden("analyze_ambiguous.ebnf", "analyze_ambiguous.golden.json");
}

/// The bundled languages are pinned the same way. Unlike the tiny
/// fixtures above, DOT and Python hit the closure graph's exploration
/// caps, so these goldens also pin which cap fires where.
#[test]
fn builtin_language_reports_are_stable_against_goldens() {
    for lang in ["json", "xml", "dot", "python"] {
        let out = Command::new(env!("CARGO_BIN_EXE_costar"))
            .args(["analyze", "--lang", lang, "--format=json"])
            .output()
            .expect("spawn costar");
        assert_stdout_is_golden(&out, &format!("analyze_lang_{lang}.golden.json"), lang);
    }
}

#[test]
fn ambiguous_json_exit_code_still_one() {
    let out = analyze(&["--format=json"], "analyze_ambiguous.ebnf");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout(&out).contains("\"ambiguous\":1"), "{out:?}");
}

#[test]
fn missing_grammar_file_exits_two() {
    let out = analyze(&[], "no_such_fixture.ebnf");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn builtin_language_tables_are_unambiguous_and_mostly_static() {
    // The shipped benchmark grammars must contain no proven-ambiguous
    // decision pair (exit 0), and the JSON grammar — the headline bench
    // corpus — must dispatch a majority of its decision points through
    // the precompiled LL(1) fast path.
    for lang in ["json", "xml", "dot", "python"] {
        let out = Command::new(env!("CARGO_BIN_EXE_costar"))
            .args(["analyze", "--lang", lang, "--format=json"])
            .output()
            .expect("spawn costar");
        assert_eq!(out.status.code(), Some(0), "{lang}: {out:?}");
        assert!(stdout(&out).contains("\"ambiguous\":0"), "{lang}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_costar"))
        .args(["analyze", "--lang", "json"])
        .output()
        .expect("spawn costar");
    assert!(stderr(&out).contains("5 decision points: 5 ll1"), "{out:?}");
}
