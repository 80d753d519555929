//! Pins the grammar-analysis cache document (`to_cache_json`) of every
//! bundled language byte-for-byte. The document covers every analysis
//! the cache stores: nullable/FIRST/FOLLOW sets, stable frames, the
//! decision table, sync sets and the audit and cost certificates.
//!
//! The pinned files are `crates/langs/analysis/<lang>.cache.json`, and
//! each language ships its file inside the binary as the analysis
//! `Language::analysis` loads. So this test checks two things: the
//! shipped document equals what `GrammarAnalysis::compute` produces now,
//! and the validating loader accepts it, so a shipped language never
//! falls back to computing its analysis at run time. A deliberate change
//! to any analysis must regenerate the files; on a mismatch the fresh
//! document is written under the test's target directory and the
//! failure message names both paths.

use costar_grammar::analysis::{from_cache_json, to_cache_json, GrammarAnalysis};
use costar_langs::all_languages;
use std::path::PathBuf;

#[test]
fn bundled_language_cache_documents_are_pinned() {
    for (lang, _) in all_languages() {
        let file = format!("{}.cache.json", lang.name.to_lowercase());
        let pinned = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("crates/langs/analysis")
            .join(&file);
        let doc = to_cache_json(lang.grammar(), &GrammarAnalysis::compute(lang.grammar()));
        let expected = lang.analysis_document().trim_end();
        if doc != expected {
            let fresh = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(&file);
            std::fs::write(&fresh, format!("{doc}\n"))
                .unwrap_or_else(|e| panic!("write {}: {e}", fresh.display()));
            // The documents are long single lines: report the first
            // differing byte instead of dumping both.
            let first_diff = doc
                .bytes()
                .zip(expected.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(doc.len().min(expected.len()));
            panic!(
                "{}: cache document differs from its pin at byte {first_diff} (lengths {} vs {}); \
                 regenerate it with `cp {} {}`",
                lang.name,
                doc.len(),
                expected.len(),
                fresh.display(),
                pinned.display()
            );
        }
        assert!(
            from_cache_json(lang.grammar(), lang.analysis_document()).is_some(),
            "{}: from_cache_json rejects the shipped document; regenerate {}",
            lang.name,
            pinned.display()
        );
    }
}
