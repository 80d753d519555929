//! Pins the grammar-analysis cache document (`to_cache_json`) of every
//! bundled language byte-for-byte. The document covers every analysis
//! the cache stores: nullable/FIRST/FOLLOW sets, stable frames, the
//! decision table, sync sets and the audit and cost certificates. The
//! pinned files live in `tests/pins/`; a deliberate change to any
//! analysis must regenerate them.

use costar_grammar::analysis::{to_cache_json, GrammarAnalysis};
use costar_langs::all_languages;
use std::path::PathBuf;

fn pin(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/pins")
        .join(format!("{}.cache.json", name.to_lowercase()));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn bundled_language_cache_documents_are_pinned() {
    for (lang, _) in all_languages() {
        let doc = to_cache_json(lang.grammar(), &GrammarAnalysis::compute(lang.grammar()));
        let expected = pin(lang.name);
        let expected = expected.trim_end();
        // The documents are long single lines: report the first differing
        // byte instead of dumping both.
        let first_diff = doc
            .bytes()
            .zip(expected.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(doc.len().min(expected.len()));
        assert!(
            doc == expected,
            "{}: cache document differs from its pin at byte {first_diff} (lengths {} vs {})",
            lang.name,
            doc.len(),
            expected.len()
        );
    }
}
