//! End-to-end smoke tests of the `costar` binary.

use std::process::Command;

fn costar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_costar"))
}

fn tmp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("costar-cli-test-{name}-{}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path
}

#[test]
fn generate_then_parse_round_trip() {
    let out = costar()
        .args(["generate", "--lang", "json", "--size", "60", "--seed", "5"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf8");
    assert!(json.starts_with('{'));

    let path = tmp_file("gen", &json);
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .args(["--stats", "--time"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("unique parse"), "{stdout}");
    // Human stats and timing report on stderr, keeping stdout for the
    // verdict (and, with --tree, the rendered tree).
    assert!(stderr.contains("decisions:"), "{stderr}");
    assert!(stderr.contains("cache:"), "{stderr}");
    assert!(stderr.contains("parse time:"), "{stderr}");
    assert!(!stdout.contains("decisions:"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn stats_json_goes_to_stdout_and_reconciles() {
    let out = costar()
        .args(["generate", "--lang", "json", "--size", "80", "--seed", "11"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf8");
    let path = tmp_file("statsjson", &json);

    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .arg("--stats=json")
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(out.status.success(), "{stdout}{stderr}");
    // stdout is exactly one JSON object; the verdict line moves to stderr.
    assert!(stdout.trim().starts_with('{'), "{stdout}");
    assert!(stdout.trim().ends_with('}'), "{stdout}");
    assert!(stderr.contains("unique parse"), "{stderr}");
    // The metrics must self-certify: machine + prediction steps equal the
    // meter, and the cache lookup/hit/miss accounting closes.
    assert!(stdout.contains("\"reconciles\":true"), "{stdout}");
    assert!(stdout.contains("\"machine_steps\":"), "{stdout}");
    assert!(stdout.contains("\"cache_hit_rate\":"), "{stdout}");
    assert!(stdout.contains("\"abort\":null"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_buffer_dumps_on_reject() {
    let path = tmp_file("tracebad", "[1, 2, }");
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .args(["--trace-buffer", "32"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("trace: last"), "{stderr}");
    assert!(stderr.contains("consume"), "{stderr}");

    // On an accepting parse the buffer stays silent.
    let good = tmp_file("traceok", "[1, 2]");
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&good)
        .args(["--trace-buffer", "32"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(!stderr.contains("trace:"), "{stderr}");
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(good);
}

#[test]
fn parse_rejects_invalid_input_with_nonzero_exit() {
    let path = tmp_file("bad", "{\"a\": }");
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("reject"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_reports_left_recursion_and_rewrite() {
    let path = tmp_file("lr", "e : e '+' T | T ;\n");
    let out = costar()
        .args(["check", "--grammar"])
        .arg(&path)
        .arg("--eliminate-lr")
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(!out.status.success(), "left recursion must fail the check");
    assert!(stdout.contains("left recursion: YES"), "{stdout}");
    assert!(stdout.contains("rewritten grammar"), "{stdout}");
    assert!(stdout.contains("__lr"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn parse_with_inline_grammar_and_tokens() {
    let path = tmp_file("g", "s : A s | B ;\n");
    let ok = costar()
        .args(["parse", "--grammar"])
        .arg(&path)
        .args(["--tokens", "A A B"])
        .output()
        .expect("spawn");
    assert!(ok.status.success());
    let bad = costar()
        .args(["parse", "--grammar"])
        .arg(&path)
        .args(["--tokens", "A A"])
        .output()
        .expect("spawn");
    assert!(!bad.status.success());
    let _ = std::fs::remove_file(path);
}

#[test]
fn usage_on_bad_arguments() {
    let out = costar().arg("bogus").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn tokens_dump_lists_kinds() {
    let path = tmp_file("dot", "graph g { a -- b; }");
    let out = costar()
        .args(["tokens", "--lang", "dot"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("graph"), "{stdout}");
    assert!(stdout.contains("ID"), "{stdout}");
    assert!(stdout.contains("--"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn budget_abort_reports_distinctly_with_exit_3() {
    let out = costar()
        .args(["generate", "--lang", "json", "--size", "200", "--seed", "7"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf8");
    let path = tmp_file("budget", &json);

    // One step of fuel cannot resolve a 200-token input: distinct
    // "aborted" report, exit code 3 (not the rejection/error code 1).
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .args(["--max-steps", "1"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("aborted"), "{stdout}");
    assert!(stdout.contains("step budget"), "{stdout}");
    assert!(!stdout.starts_with("reject"), "{stdout}");

    // A zero deadline is no longer a reachable abort: it is rejected as
    // a usage error before any parse starts (see
    // zero_budgets_are_usage_errors below). Deadline aborts remain
    // covered by the budget unit tests.

    // A generous budget resolves the same input normally.
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .args(["--max-steps", "100000000", "--deadline-ms", "600000"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("unique parse"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn stats_json_and_recover_json_merge_into_one_document() {
    // Regression: `--stats=json --recover=json` used to interleave two
    // top-level JSON documents on stdout; consumers piping into a JSON
    // parser saw trailing garbage. They must merge into one document.
    let path = tmp_file("mergedjson", "[1, 2, }, 3]");
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .args(["--recover=json", "--stats=json"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(4), "recovered-with-errors exit");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let trimmed = stdout.trim();
    // Exactly one line, one object, both sections present.
    assert_eq!(trimmed.lines().count(), 1, "{stdout}");
    assert!(trimmed.starts_with("{\"stats\":{"), "{stdout}");
    assert!(trimmed.ends_with('}'), "{stdout}");
    assert!(trimmed.contains(",\"recovery\":{"), "{stdout}");
    assert!(trimmed.contains("\"outcome\":\"recovered\""), "{stdout}");
    assert!(trimmed.contains("\"reconciles\":true"), "{stdout}");
    // Balanced braces certify a single well-formed document (the old bug
    // printed `}{` between the two).
    let depth_ok = trimmed
        .chars()
        .scan(0i64, |d, c| {
            *d += match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            };
            Some(*d)
        })
        .all(|d| d >= 0);
    assert!(depth_ok && !trimmed.contains("}{"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn batch_parse_reports_per_file_in_stable_order() {
    let a = tmp_file("batch-a", "[1, 2, 3]");
    let b = tmp_file("batch-b", "{\"k\": [true, null]}");
    let c = tmp_file("batch-c", "[1, 2, }");
    let out = costar()
        .args(["parse", "--lang", "json"])
        .args([&a, &b, &c])
        .args(["--jobs", "2"])
        .output()
        .expect("spawn");
    // Exit folds to the worst per-file code: the reject makes it 1.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    // Verdicts appear in input order regardless of worker scheduling.
    assert!(lines[0].starts_with(a.to_str().unwrap()), "{stdout}");
    assert!(lines[1].starts_with(b.to_str().unwrap()), "{stdout}");
    assert!(lines[2].starts_with(c.to_str().unwrap()), "{stdout}");
    assert!(lines[0].contains("unique parse"), "{stdout}");
    assert!(lines[1].contains("unique parse"), "{stdout}");
    assert!(lines[2].contains("reject"), "{stdout}");
    for p in [a, b, c] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn batch_parse_emits_one_json_document_and_folds_recovered_exit() {
    let good = tmp_file("batch-good", "[1, [2], 3]");
    let broken = tmp_file("batch-broken", "[1, 2, }, 3]");
    let out = costar()
        .args(["parse", "--lang", "json"])
        .args([&good, &broken])
        .args([
            "--jobs",
            "4",
            "--warm-cache",
            "--recover=json",
            "--stats=json",
        ])
        .output()
        .expect("spawn");
    // good=0, recovered-with-errors=4 → folded batch exit is 4.
    assert_eq!(out.status.code(), Some(4));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let trimmed = stdout.trim();
    assert_eq!(trimmed.lines().count(), 1, "one document: {stdout}");
    assert!(trimmed.starts_with("{\"files\":["), "{stdout}");
    assert!(trimmed.contains("\"outcome\":\"unique\""), "{stdout}");
    assert!(trimmed.contains("\"outcome\":\"recovered\""), "{stdout}");
    assert!(trimmed.contains("\"recovery\":{"), "{stdout}");
    assert!(trimmed.contains("\"jobs\":"), "{stdout}");
    assert!(trimmed.contains("\"exit\":4"), "{stdout}");
    // Per-file and roll-up stats both present and self-certifying.
    assert!(
        trimmed.matches("\"reconciles\":true").count() >= 3,
        "{stdout}"
    );
    // Verdict lines move to stderr when JSON owns stdout.
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unique parse"), "{stderr}");
    let _ = std::fs::remove_file(good);
    let _ = std::fs::remove_file(broken);
}

#[test]
fn batch_parse_rejects_trace_buffer() {
    let a = tmp_file("batch-tb-a", "[1]");
    let b = tmp_file("batch-tb-b", "[2]");
    let out = costar()
        .args(["parse", "--lang", "json"])
        .args([&a, &b])
        .args(["--trace-buffer", "16"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("single-file"), "{stderr}");
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
}

#[test]
fn jobs_zero_is_a_usage_error_with_exit_two() {
    // Regression: `--jobs 0` used to be accepted and silently fall back
    // to available parallelism; a zero worker count is now a usage error
    // (exit 2), matching the other malformed-flag diagnostics.
    let path = tmp_file("jobs0", "[1]");
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .args(["--jobs", "0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("--jobs"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn truncated_grammar_cache_recomputes_silently() {
    // A byte-truncated grammar-analysis cache file must fail validation
    // and be recomputed (and healed) silently — same verdict, no error
    // output. This is the end-to-end face of the decoder-level
    // truncation tests in costar-grammar.
    let dir = std::env::temp_dir().join(format!("costar-cache-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir cache dir");
    let g = tmp_file("cacheg", "s : A s | B ;\n");
    let run = || {
        costar()
            .args(["parse", "--grammar"])
            .arg(&g)
            .args(["--tokens", "A A B"])
            .env("COSTAR_CACHE_DIR", &dir)
            .output()
            .expect("spawn")
    };
    let out = run();
    assert!(out.status.success(), "{out:?}");
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    assert_eq!(files.len(), 1, "one cache entry expected: {files:?}");
    let full = std::fs::read_to_string(&files[0]).expect("read cache");
    assert!(
        full.contains("costar-cert-v1"),
        "cert embedded: {full:.>40}"
    );

    std::fs::write(&files[0], &full[..full.len() / 2]).expect("truncate");
    let out = run();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stdout.contains("unique parse"), "{stdout}");
    assert!(!stderr.contains("error"), "silent recompute: {stderr}");
    // The rerun healed the cache file back to the full document.
    let healed = std::fs::read_to_string(&files[0]).expect("read healed");
    assert_eq!(healed, full, "cache must be rewritten after truncation");
    let _ = std::fs::remove_file(g);
    let _ = std::fs::remove_dir_all(dir);
}

/// The deterministic counters of a `--stats=json` line: its top-level
/// `"key":value` pairs before the timing fields (`total_nanos` and
/// after), minus the `*_micros` timings among them.
fn stats_counters(stats: &str) -> Vec<&str> {
    let head = stats.split("\"total_nanos\"").next().unwrap_or("");
    head.trim_start_matches('{')
        .split(',')
        .filter(|kv| !kv.is_empty() && !kv.contains("_micros\""))
        .collect()
}

#[test]
fn bundled_languages_parse_with_their_shipped_analysis_and_no_disk_cache() {
    // A `--lang` parse loads the analysis the binary ships with: it
    // neither reads nor writes `COSTAR_CACHE_DIR` (that cache serves
    // `--grammar` files only), and it parses exactly as a parse on a
    // freshly computed analysis (`--no-grammar-cache`) does.
    for lang in ["json", "xml", "dot", "python"] {
        let out = costar()
            .args(["generate", "--lang", lang, "--size", "40", "--seed", "9"])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{lang}: {out:?}");
        let path = tmp_file(
            &format!("shipped-{lang}"),
            &String::from_utf8_lossy(&out.stdout),
        );
        let dir = std::env::temp_dir().join(format!(
            "costar-cli-test-cache-{lang}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir cache dir");
        let run = |extra: &[&str]| {
            let out = costar()
                .args(["parse", "--lang", lang, "--stats=json"])
                .args(extra)
                .arg(&path)
                .env("COSTAR_CACHE_DIR", &dir)
                .output()
                .expect("spawn");
            assert!(out.status.success(), "{lang}: {out:?}");
            String::from_utf8(out.stdout).expect("utf8")
        };
        let shipped = run(&[]);
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("read cache dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        assert!(entries.is_empty(), "{lang}: --lang wrote {entries:?}");
        let computed = run(&["--no-grammar-cache"]);
        let counters = stats_counters(&shipped);
        assert!(
            counters
                .iter()
                .any(|kv| kv.starts_with("\"machine_steps\":")),
            "{lang}: {shipped}"
        );
        assert_eq!(counters, stats_counters(&computed), "{lang}");
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn human_stats_decision_line_matches_stats_json() {
    // `--stats` and `--stats=json` read the same `ParseMetrics`: every
    // number on the human decision line is a field of the JSON report,
    // the lookahead mean and max included.
    for lang in ["json", "xml", "dot", "python"] {
        let out = costar()
            .args(["generate", "--lang", lang, "--size", "60", "--seed", "13"])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{lang}: {out:?}");
        let path = tmp_file(
            &format!("human-stats-{lang}"),
            &String::from_utf8_lossy(&out.stdout),
        );
        let run = |flag: &str| {
            let out = costar()
                .args(["parse", "--lang", lang, flag])
                .arg(&path)
                .output()
                .expect("spawn");
            assert!(out.status.success(), "{lang}: {out:?}");
            out
        };
        let human = String::from_utf8(run("--stats").stderr).expect("utf8");
        let line = human
            .lines()
            .find(|l| l.starts_with("decisions:"))
            .unwrap_or_else(|| panic!("{lang}: no decision line in {human}"));
        let stats = String::from_utf8(run("--stats=json").stdout).expect("utf8");
        // The first `"key":<integer>` in `doc` (the report's keys are
        // unique at top level; `lookahead_depth` is its last object).
        let field = |doc: &str, key: &str| -> u64 {
            let pat = format!("\"{key}\":");
            let at = doc.find(&pat).unwrap_or_else(|| panic!("{lang}: no {key}")) + pat.len();
            let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("an integer field")
        };
        let depth = &stats[stats.find("\"lookahead_depth\":").expect("lookahead_depth")..];
        let (count, sum) = (field(depth, "count"), field(depth, "sum"));
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        let expected = format!(
            "decisions: {} (+{} single-alt), static fast path {}, SLL-resolved {}, \
             failovers {}, lookahead mean {mean:.2} max {}",
            field(&stats, "decisions"),
            field(&stats, "single_alternative"),
            field(&stats, "static_fast_path_hits"),
            field(&stats, "sll_resolved"),
            field(&stats, "failovers"),
            field(depth, "max"),
        );
        assert_eq!(line, expected, "{lang}");
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn cache_cap_degrades_without_changing_the_verdict() {
    let out = costar()
        .args(["generate", "--lang", "json", "--size", "120", "--seed", "3"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf8");
    let path = tmp_file("cap", &json);

    // A tiny cache cap forces LRU eviction but must not change outcomes
    // (degradation order: evict, then failover, and only budgets abort).
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .args(["--cache-cap", "4", "--stats"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("unique parse"), "{stdout}");

    // `--cache-cap 0` is the cache-off mode: every prediction re-simulates
    // (all lookups miss, nothing evicts) but the verdict is unchanged —
    // exercised on deeply nested input to stress repeated decisions.
    let nested = format!("{}42{}", "[".repeat(40), "]".repeat(40));
    let deep = tmp_file("cap0", &nested);
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&deep)
        .args(["--cache-cap", "0", "--stats=json"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"cache_hits\":0"), "{stdout}");
    assert!(stdout.contains("\"cache_evictions\":0"), "{stdout}");
    assert!(stdout.contains("\"reconciles\":true"), "{stdout}");
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(deep);
}

#[test]
fn zero_budgets_are_usage_errors() {
    // `--max-steps 0` and `--deadline-ms 0` would abort every parse
    // before its first step — they are rejected up front as usage errors
    // (exit 2), never silently accepted as budgets.
    for flag in ["--max-steps", "--deadline-ms"] {
        let out = costar()
            .args(["parse", "--lang", "json", "whatever.json", flag, "0"])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flag} 0 must be a usage error");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains(flag), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn max_steps_auto_derives_fuel_from_the_cost_certificate() {
    let out = costar()
        .args(["generate", "--lang", "json", "--size", "120", "--seed", "3"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf8");
    let path = tmp_file("autofuel", &json);

    // Auto fuel must accept what an unlimited budget accepts: the
    // certificate claims no accepting parse exceeds the derived bound.
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .args(["--max-steps", "auto", "--stats=json"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"cost_checks\":1"), "{stdout}");
    assert!(stdout.contains("\"cost_violations\":0"), "{stdout}");
    assert!(!stdout.contains("\"predicted_steps\":0,"), "{stdout}");

    // Batch mode derives fuel per input: a one-token file and the large
    // file in one batch both accept, each under its own bound.
    let tiny = tmp_file("autofuel-tiny", "7");
    let out = costar()
        .args(["parse", "--lang", "json"])
        .arg(&path)
        .arg(&tiny)
        .args(["--max-steps", "auto", "--stats=json", "--jobs", "2"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"cost_violations\":0"), "{stdout}");
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(tiny);
}

#[test]
fn recover_checks_the_cost_certificate_on_valid_input() {
    // A recovering parse of a valid file takes the plain parse's steps,
    // so it must run (and pass) the same cost-certificate check.
    let path = tmp_file("recover-cost", r#"{ "a": [1, 2], "b": true }"#);
    let field = |stdout: &str, name: &str| {
        let key = format!("\"{name}\":");
        let at = stdout
            .find(&key)
            .unwrap_or_else(|| panic!("{name} in {stdout}"))
            + key.len();
        stdout[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .map(str::to_owned)
            .unwrap_or_default()
    };
    let mut reports = Vec::new();
    for recover in [false, true] {
        let mut cmd = costar();
        cmd.args(["parse", "--lang", "json"])
            .arg(&path)
            .arg("--stats=json");
        if recover {
            cmd.arg("--recover");
        }
        let out = cmd.output().expect("spawn");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(out.status.success(), "recover={recover}: {stdout}");
        assert_eq!(
            field(&stdout, "cost_checks"),
            "1",
            "recover={recover}: {stdout}"
        );
        assert_eq!(field(&stdout, "cost_violations"), "0", "{stdout}");
        reports.push((
            field(&stdout, "predicted_steps"),
            field(&stdout, "meter_steps"),
        ));
    }
    assert_ne!(reports[0].0, "0", "{reports:?}");
    assert_eq!(reports[0], reports[1], "plain vs --recover");
    let _ = std::fs::remove_file(path);
}

#[test]
fn edit_replays_a_script_incrementally() {
    let src = tmp_file("edit-src", "[1, 2, 3]");
    // Edit 0 replaces the `2` token; edit 1 swaps a space for a tab —
    // same-width skipped trivia, so the token vector is unchanged and
    // the parse must be skipped.
    let script = tmp_file(
        "edit-script",
        r#"{"edits":[
            {"start":4,"end":5,"replacement":"99"},
            {"start":3,"end":4,"replacement":"\t"}
        ]}"#,
    );
    let out = costar()
        .args(["edit", "--lang", "json"])
        .arg(&src)
        .arg("--script")
        .arg(&script)
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(out.status.success(), "{stdout}{stderr}");
    assert!(stdout.contains("initial: unique"), "{stdout}");
    assert!(stdout.contains("incremental lexing"), "{stdout}");
    assert!(stdout.contains("edit 0:"), "{stdout}");
    assert!(
        stdout.contains("parse skipped: tokens unchanged"),
        "{stdout}"
    );
    assert!(stdout.contains("final: unique"), "{stdout}");
    // The summary (stderr) reports aggregate reuse.
    assert!(stderr.contains("2 edits applied"), "{stderr}");
    assert!(stderr.contains("reuse"), "{stderr}");
    // The edited file on disk is untouched: the session edits in memory.
    assert_eq!(std::fs::read_to_string(&src).expect("read"), "[1, 2, 3]");
    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(script);
}

#[test]
fn edit_json_document_carries_oracle_verdicts() {
    let src = tmp_file("edit-json-src", "{\"k\": [1, 2]}");
    let script = tmp_file(
        "edit-json-script",
        r#"{"edits":[{"start":10,"end":11,"replacement":"true"}]}"#,
    );
    let out = costar()
        .args(["edit", "--lang", "json"])
        .arg(&src)
        .arg("--script")
        .arg(&script)
        .args(["--format=json", "--oracle"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(out.status.success(), "{stdout}{stderr}");
    // One JSON document on stdout; human lines move to stderr.
    let trimmed = stdout.trim();
    assert_eq!(trimmed.lines().count(), 1, "{stdout}");
    assert!(trimmed.starts_with("{\"file\":"), "{stdout}");
    assert!(trimmed.contains("\"incremental\":true"), "{stdout}");
    assert!(trimmed.contains("\"tokens_relexed\":"), "{stdout}");
    assert!(trimmed.contains("\"oracle_ok\":true"), "{stdout}");
    assert!(trimmed.contains("\"outcome\":\"unique\""), "{stdout}");
    assert!(trimmed.ends_with("\"exit\":0}"), "{stdout}");
    assert!(stderr.contains("initial: unique"), "{stderr}");
    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(script);
}

#[test]
fn edit_error_contract_distinguishes_lex_from_bounds() {
    let src = tmp_file("edit-err-src", "[1, 2]");
    // An edit that produces unlexable text: exit 1 (the session survives
    // in-process; here the replay just stops).
    let bad_lex = tmp_file(
        "edit-err-lex",
        r#"{"edits":[{"start":1,"end":2,"replacement":"%"}]}"#,
    );
    let out = costar()
        .args(["edit", "--lang", "json"])
        .arg(&src)
        .arg("--script")
        .arg(&bad_lex)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("edit 0"), "{stderr}");

    // An out-of-bounds range is a malformed script: exit 2.
    let oob = tmp_file(
        "edit-err-oob",
        r#"{"edits":[{"start":90,"end":95,"replacement":"x"}]}"#,
    );
    let out = costar()
        .args(["edit", "--lang", "json"])
        .arg(&src)
        .arg("--script")
        .arg(&oob)
        .args(["--format=json"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // The JSON document still appears, carrying the error and exit code.
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\"error\":"), "{stdout}");
    assert!(stdout.trim().ends_with("\"exit\":2}"), "{stdout}");

    // A syntactically broken script never reaches the parser: exit 2.
    let broken = tmp_file("edit-err-script", r#"{"edits":[{"start":}]}"#);
    let out = costar()
        .args(["edit", "--lang", "json"])
        .arg(&src)
        .arg("--script")
        .arg(&broken)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    for p in [src, bad_lex, oob, broken] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn edit_scripts_accept_standard_json_escapes() {
    // What Python's `json.dumps` writes for an emoji replacement (a
    // surrogate pair) and for a backspace (`\b`): both scripts are
    // standard JSON, and both edits yield valid JSON documents.
    let src = tmp_file("edit-esc-src", r#"{"a": 1}"#);
    for (name, script) in [
        (
            "surrogates",
            r#"{"edits": [{"start": 6, "end": 7, "replacement": "\"😀\""}]}"#,
        ),
        (
            "backspace",
            r#"{"edits": [{"start": 6, "end": 7, "replacement": "\"\b\""}]}"#,
        ),
    ] {
        let script = tmp_file(&format!("edit-esc-{name}"), script);
        let out = costar()
            .args(["edit", "--lang", "json"])
            .arg(&src)
            .arg("--script")
            .arg(&script)
            .output()
            .expect("spawn");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(0), "{name}: {stdout}{stderr}");
        assert!(stdout.contains("final: unique"), "{name}: {stdout}");
        let _ = std::fs::remove_file(script);
    }
    let _ = std::fs::remove_file(src);
}

#[test]
fn edit_python_falls_back_to_full_retokenize() {
    // Python's INDENT/DEDENT synthesis is line-global, so `costar edit`
    // re-tokenizes from scratch per edit and says so.
    let out = costar()
        .args([
            "generate", "--lang", "python", "--size", "40", "--seed", "1",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let py = String::from_utf8(out.stdout).expect("utf8");
    let src = tmp_file("edit-py-src", &py);
    let script = tmp_file(
        "edit-py-script",
        r#"{"edits":[{"start":0,"end":0,"replacement":""}]}"#,
    );
    let out = costar()
        .args(["edit", "--lang", "python"])
        .arg(&src)
        .arg("--script")
        .arg(&script)
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(out.status.success(), "{stdout}{stderr}");
    assert!(stdout.contains("full re-tokenize"), "{stdout}");
    assert!(stdout.contains("reused 0 (0.0%)"), "{stdout}");
    assert!(stdout.contains("final: unique"), "{stdout}");
    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(script);
}

#[test]
fn cost_subcommand_reports_certificate_and_findings() {
    // Human mode: the certified linear bound for a bundled language.
    let out = costar()
        .args(["cost", "--lang", "json"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("certified bound:"), "{stdout}");

    // JSON mode prints the machine-checkable costar-cost-v1 certificate.
    let out = costar()
        .args(["cost", "--lang", "json", "--format=json"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"schema\":\"costar-cost-v1\""), "{stdout}");
    assert!(stdout.contains("\"linear\":true"), "{stdout}");

    // An impossible steps-per-token threshold turns into an L013 note
    // and lint's findings exit code.
    let out = costar()
        .args(["cost", "--lang", "json", "--max-steps-per-token", "1"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("L013"), "{stdout}");

    // A grammar that cannot load exits 2 (lint's contract).
    let out = costar()
        .args(["cost", "--grammar", "/nonexistent/g.ebnf"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}
