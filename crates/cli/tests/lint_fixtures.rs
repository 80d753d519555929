//! End-to-end tests of `costar lint` against fixture grammars with
//! seeded defects: exact diagnostic codes, concrete witnesses, both
//! output formats, and the exit-code contract (0 clean / 1 findings /
//! 2 load error).

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(extra: &[&str], grammar: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_costar"))
        .arg("lint")
        .arg("--grammar")
        .arg(fixture(grammar))
        .args(extra)
        .output()
        .expect("spawn costar")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

#[test]
fn clean_fixture_exits_zero() {
    let out = lint(&[], "lint_clean.ebnf");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("no findings"), "{}", stdout(&out));
}

#[test]
fn unreachable_fixture_reports_l004() {
    let out = lint(&[], "lint_unreachable.ebnf");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("warning[L004]"), "{text}");
    assert!(text.contains("orphan"), "{text}");
    // The clean parts of the grammar must not be flagged.
    assert!(!text.contains("L001"), "{text}");
    assert!(!text.contains("L003"), "{text}");
}

#[test]
fn unproductive_fixture_reports_l003_with_witness() {
    let out = lint(&[], "lint_unproductive.ebnf");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("warning[L003]"), "{text}");
    assert!(text.contains("loop"), "{text}");
    assert!(!text.contains("L001"), "{text}");
    assert!(!text.contains("L004"), "{text}");
}

#[test]
fn hidden_left_recursion_reports_l001_with_cycle() {
    let out = lint(&[], "lint_hidden_lr.ebnf");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("error[L001]"), "{text}");
    // The cycle witness renders with the derivation arrow and returns to
    // its origin: `s ⇒ ... ⇒ s`.
    let witness = text
        .lines()
        .find(|l| l.contains("witness:") && l.contains('\u{21d2}'))
        .unwrap_or_else(|| panic!("no cycle witness line in:\n{text}"));
    assert!(witness.matches('s').count() >= 2, "{witness}");
}

#[test]
fn json_format_is_structured() {
    let out = lint(&["--format=json"], "lint_unreachable.ebnf");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    let line = text.lines().next().expect("one JSON line");
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"findings\":1"), "{line}");
    assert!(line.contains("\"worst\":\"warning\""), "{line}");
    assert!(line.contains("\"code\":\"L004\""), "{line}");
    assert!(line.contains("\"nonterminal\":\"orphan\""), "{line}");
}

#[test]
fn json_format_clean_grammar() {
    let out = lint(&["--format=json"], "lint_clean.ebnf");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("\"findings\":0"), "{text}");
    assert!(text.contains("\"worst\":null"), "{text}");
    assert!(text.contains("\"diagnostics\":[]"), "{text}");
}

/// The JSON report is a stability contract: each fixture's document
/// must match its golden byte-for-byte.
#[test]
fn json_reports_match_goldens() {
    for name in ["clean", "hidden_lr", "unproductive", "unreachable"] {
        let out = lint(&["--format=json"], &format!("lint_{name}.ebnf"));
        let expected =
            std::fs::read_to_string(fixture(&format!("lint_{name}.golden.json"))).expect("golden");
        assert_eq!(stdout(&out).trim_end(), expected.trim_end(), "{name}");
    }
}

#[test]
fn missing_grammar_file_exits_two() {
    let out = lint(&[], "no_such_fixture.ebnf");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn builtin_language_grammars_lint() {
    // The shipped benchmark grammars are expected to be structurally
    // clean apart from (possibly) LL(1)-conflict notes, which ALL(*)
    // exists to handle — so the command may exit 0 or 1, but never 2,
    // and must never report an error-severity finding.
    for lang in ["json", "xml", "dot"] {
        let out = Command::new(env!("CARGO_BIN_EXE_costar"))
            .args(["lint", "--lang", lang])
            .output()
            .expect("spawn costar");
        let code = out.status.code();
        assert!(code == Some(0) || code == Some(1), "{lang}: {out:?}");
        let text = stdout(&out);
        assert!(!text.contains("error[L00"), "{lang}:\n{text}");
    }
}
