//! Grammar-analysis caching: serialize a complete [`GrammarAnalysis`]
//! (including the [`super::DecisionTable`] and recovery [`super::SyncSets`])
//! to JSON and read it back, keyed by a content fingerprint of the
//! grammar.
//!
//! Recomputing the analyses is pure function of the grammar, so a cache
//! entry is valid exactly when the grammar that produced it is
//! byte-identical to the one being loaded — which is what
//! [`grammar_fingerprint`] captures (symbol tables in interning order,
//! start symbol, and every production, so the dense indices baked into
//! the serialized sets mean the same thing on the way back in).
//!
//! The deserializer is *never trusting*: schema string, fingerprint, and
//! dimensions must match the live grammar, every index is bounds-checked,
//! and any discrepancy makes [`from_cache_json`] return `None` so the
//! caller recomputes. A stale or corrupted cache file can cost a
//! recompute; it can never corrupt a parse.
//!
//! File placement is the caller's business (the CLI writes
//! `<cache-dir>/<fingerprint>.json`), but the atomic write itself lives
//! here: [`write_cache_atomic`] stages the document in a temp file whose
//! name is unique per process *and per write* (pid + a process-local
//! counter) and renames it into place, so any number of concurrent
//! writers — including several `costar` processes racing on the same
//! cache directory — each stage privately, and the last whole-file
//! rename wins. A shared temp name (the old `<file>.tmp` scheme) let one
//! process rename another's half-written staging file into place.

use crate::analysis::{
    audit, cost, ConflictPair, DecisionClass, DecisionInfo, DecisionTable, FirstSets, FollowSets,
    GrammarAnalysis, LeftRecursion, LookaheadMap, NullableSet, Position, Productivity,
    Reachability, StableDests, StableFrames, SyncSets,
};
use crate::grammar::{Grammar, ProdId};
use crate::json::{self, JsonValue, JsonWriter};
use crate::sets::{NtSet, TermSet};
use crate::symbol::{NonTerminal, Terminal};

/// Schema tag stamped into every cache file; bump it whenever the
/// serialized shape changes so old files fail cleanly. v2 added the
/// embedded `costar-cert-v1` audit certificate; v3 added the embedded
/// `costar-cost-v1` cost certificate.
pub const CACHE_SCHEMA: &str = "costar-gcache-v3";

/// FNV-1a content hash of a grammar: symbol tables (both namespaces, in
/// interning order), start symbol, and all productions. Two grammars
/// share a fingerprint only if their dense symbol/production indices are
/// interchangeable, which is exactly the property cached index-based
/// analyses need.
pub fn grammar_fingerprint(g: &Grammar) -> u64 {
    let mut h = Fnv::new();
    let tab = g.symbols();
    h.usize(tab.num_terminals());
    for t in tab.terminals() {
        h.str(tab.terminal_name(t));
    }
    h.usize(tab.num_nonterminals());
    for x in tab.nonterminals() {
        h.str(tab.nonterminal_name(x));
    }
    h.usize(g.start().index());
    h.usize(g.num_productions());
    for (_, p) in g.iter() {
        h.usize(p.lhs().index());
        h.usize(p.rhs().len());
        for &s in p.rhs() {
            match s {
                crate::symbol::Symbol::T(t) => {
                    h.byte(b'T');
                    h.usize(t.index());
                }
                crate::symbol::Symbol::Nt(x) => {
                    h.byte(b'N');
                    h.usize(x.index());
                }
            }
        }
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn usize(&mut self, n: usize) {
        for b in (n as u64).to_le_bytes() {
            self.byte(b);
        }
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for &b in s.as_bytes() {
            self.byte(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

/// Renders the complete analysis bundle as a deterministic JSON document.
pub fn to_cache_json(g: &Grammar, a: &GrammarAnalysis) -> String {
    json::object(|w| {
        w.header(CACHE_SCHEMA, grammar_fingerprint(g))
            .field("nts", g.num_nonterminals())
            .field("ts", g.num_terminals())
            .field("prods", g.num_productions());
        w.key("nullable")
            .values(a.nullable.as_set().iter().map(|x| x.index()));
        w.key("first").array(|w| push_term_sets(w, a.first.sets()));
        let (follow_sets, follow_eof) = a.follow.parts();
        w.key("follow").object(|w| {
            w.key("sets").array(|w| push_term_sets(w, follow_sets));
            w.key("eof").values(follow_eof.iter().copied());
        });
        let lr = &a.left_recursion;
        w.key("left_recursion").object(|w| {
            w.key("set")
                .values(lr.left_recursive_set().iter().map(|x| x.index()));
            w.key("edges").array(|w| {
                for es in lr.edge_lists() {
                    w.values(es.iter().copied());
                }
            });
        });
        let re = &a.reachability;
        w.key("reachability").object(|w| {
            w.key("set")
                .values(re.reachable_set().iter().map(|x| x.index()));
            w.key("parent")
                .values(re.parents().iter().map(|p| p.map(|x| x.index())));
        });
        let pr = &a.productivity;
        w.key("productivity").object(|w| {
            w.key("set")
                .values(pr.productive_set().iter().map(|x| x.index()));
            w.key("witness")
                .values(pr.witnesses().iter().map(|p| p.map(|p| p.index())));
        });
        w.key("stable_frames").array(|w| {
            for d in a.stable_frames.all_dests() {
                w.object(|w| {
                    w.key("pos").array(|w| {
                        for p in &d.positions {
                            w.values([p.production.index(), p.dot as usize]);
                        }
                    });
                    w.field("end", d.can_end);
                });
            }
        });
        w.key("decisions").array(|w| {
            for row in a.decisions.rows() {
                match row {
                    None => w.value(None::<u8>),
                    Some(d) => w.object(|w| push_decision(w, d)),
                };
            }
        });
        w.key("sync").object(|w| {
            w.key("sets")
                .array(|w| push_term_sets(w, a.sync.iter().map(|(s, _)| s)));
            w.key("eof").values(a.sync.iter().map(|(_, e)| e));
        });
        // The certificates are embedded verbatim: the values under
        // "audit" and "cost" are exactly the standalone `costar-cert-v1`
        // and `costar-cost-v1` documents, so `costar audit` / `costar
        // cost --format=json` output and the cached forms stay
        // byte-identical.
        w.key("audit").raw(&audit::to_cert_json(g, &a.audit));
        w.key("cost").raw(&cost::to_cost_json(g, &a.cost));
    })
}

fn push_decision(w: &mut JsonWriter, d: &DecisionInfo) {
    w.field("class", d.class.as_str())
        .field("alts", d.alternatives)
        .field("gs", d.graph_states)
        .key("la");
    match &d.lookahead {
        None => w.value(None::<u8>),
        Some(map) => w.object(|w| {
            w.key("by")
                .values(map.terminal_entries().iter().map(|e| e.map(|p| p.index())));
            w.field("eof", map.for_eof().map(|p| p.index()));
        }),
    };
    w.key("conflicts").array(|w| {
        for c in &d.conflicts {
            w.object(|w| {
                w.field("a", c.a.index())
                    .field("b", c.b.index())
                    .field("t", c.lookahead.map(|t| t.index()));
                push_opt_word(w.key("dp"), c.distinguishing_prefix.as_deref());
                push_opt_word(w.key("aw"), c.ambiguous_word.as_deref());
            });
        }
    });
}

fn push_term_sets<'a>(w: &mut JsonWriter, sets: impl IntoIterator<Item = &'a TermSet>) {
    for s in sets {
        w.values(s.iter().map(|t| t.index()));
    }
}

/// A terminal word as an array of indices, or `null`.
pub(super) fn push_opt_word(w: &mut JsonWriter, word: Option<&[Terminal]>) {
    match word {
        None => w.value(None::<u8>),
        Some(ts) => w.values(ts.iter().map(|t| t.index())),
    };
}

/// Reads what [`push_opt_word`] wrote: `Some(None)` for `null`, `None`
/// on any malformed or out-of-bounds entry.
pub(super) fn read_opt_word(v: &JsonValue, ts: usize) -> Option<Option<Vec<Terminal>>> {
    v.nullable(|v| {
        Some(
            v.as_indices(ts)?
                .into_iter()
                .map(Terminal::from_index)
                .collect(),
        )
    })
}

// ---------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------

/// Rebuilds a [`GrammarAnalysis`] from a cache document, validating it
/// against the live grammar `g`. Any mismatch — schema, fingerprint,
/// dimensions, out-of-bounds index, malformed JSON — returns `None`; the
/// caller then recomputes from scratch.
pub fn from_cache_json(g: &Grammar, text: &str) -> Option<GrammarAnalysis> {
    let v = json::parse(text).ok()?;
    json::check_header(&v, CACHE_SCHEMA, grammar_fingerprint(g))?;
    let nts = g.num_nonterminals();
    let ts = g.num_terminals();
    let prods = g.num_productions();
    if v.get("nts")?.as_usize()? != nts
        || v.get("ts")?.as_usize()? != ts
        || v.get("prods")?.as_usize()? != prods
    {
        return None;
    }

    let term_sets = |v: &JsonValue| read_rows(v, nts, |r| read_term_set(r, ts));
    let bools = |v: &JsonValue| read_rows(v, nts, JsonValue::as_bool);
    let nullable = NullableSet::from_parts(read_nt_set(v.get("nullable")?, nts)?);
    let first = FirstSets::from_parts(term_sets(v.get("first")?)?);

    let fo = v.get("follow")?;
    let follow = FollowSets::from_parts(term_sets(fo.get("sets")?)?, bools(fo.get("eof")?)?);

    let lr = v.get("left_recursion")?;
    let left_recursion = LeftRecursion::from_parts(
        read_nt_set(lr.get("set")?, nts)?,
        read_rows(lr.get("edges")?, nts, |r| r.as_indices(nts))?,
    );

    let re = v.get("reachability")?;
    let reachability = Reachability::from_parts(
        read_nt_set(re.get("set")?, nts)?,
        read_rows(re.get("parent")?, nts, |r| {
            r.nullable(|p| p.as_index(nts).map(NonTerminal::from_index))
        })?,
    );

    let pr = v.get("productivity")?;
    let productivity = Productivity::from_parts(
        read_nt_set(pr.get("set")?, nts)?,
        read_rows(pr.get("witness")?, nts, |r| {
            r.nullable(|p| p.as_index(prods).map(ProdId::from_index))
        })?,
    );

    let stable_frames = StableFrames::from_parts(read_rows(v.get("stable_frames")?, nts, |row| {
        let mut positions = Vec::new();
        for p in row.get("pos")?.as_arr()? {
            let [prod, dot] = p.as_arr()? else {
                return None;
            };
            let (prod, dot) = (prod.as_index(prods)?, dot.as_usize()?);
            if dot > g.production(ProdId::from_index(prod)).rhs().len() {
                return None;
            }
            positions.push(Position {
                production: ProdId::from_index(prod),
                dot: u32::try_from(dot).ok()?,
            });
        }
        Some(StableDests {
            positions,
            can_end: row.get("end")?.as_bool()?,
        })
    })?);

    let dec_rows = v.get("decisions")?.as_arr()?;
    if dec_rows.len() != nts {
        return None;
    }
    let by_nt = dec_rows
        .iter()
        .enumerate()
        .map(|(i, row)| row.nullable(|r| read_decision(r, NonTerminal::from_index(i), ts, prods)))
        .collect::<Option<_>>()?;
    let decisions = DecisionTable::from_parts(by_nt);

    let sy = v.get("sync")?;
    let sync = SyncSets::from_parts(term_sets(sy.get("sets")?)?, bools(sy.get("eof")?)?);

    // The embedded certificate is never trusted structurally alone: its
    // witnesses are replayed against the live grammar (a few closure
    // steps per decision pair), so a tampered bound or stale verdict
    // costs a recompute instead of shipping a wrong certificate.
    let audit_table = audit::cert_from_json(g, v.get("audit")?)?;
    if !audit::replay(g, &stable_frames, &productivity, &audit_table) {
        return None;
    }

    // The cost certificate gets the same treatment, and its replay is
    // total: the model is cheap to derive, so the validator recomputes it
    // from the live analyses (plus the just-replayed audit table) and
    // demands equality. A deflated `a`/`b` never reaches a budget.
    let cost_model = cost::cost_from_json(g, v.get("cost")?)?;
    if !cost::replay(g, &nullable, &left_recursion, &audit_table, &cost_model) {
        return None;
    }

    Some(GrammarAnalysis {
        nullable,
        first,
        follow,
        left_recursion,
        reachability,
        productivity,
        stable_frames,
        decisions,
        sync,
        audit: audit_table,
        cost: cost_model,
    })
}

fn read_decision(row: &JsonValue, x: NonTerminal, ts: usize, prods: usize) -> Option<DecisionInfo> {
    let class = match row.get("class")?.as_str()? {
        "ll1" => DecisionClass::Ll1,
        "sll-safe" => DecisionClass::SllSafe,
        "needs-full-allstar" => DecisionClass::NeedsFullAllStar,
        _ => return None,
    };
    let lookahead = row.get("la")?.nullable(|la| {
        let by = read_rows(la.get("by")?, ts, |e| {
            e.nullable(|p| p.as_index(prods).map(ProdId::from_index))
        })?;
        let eof = la.get("eof")?.nullable(|p| p.as_index(prods))?;
        Some(LookaheadMap::from_parts(by, eof.map(ProdId::from_index)))
    })?;
    // The lookahead map exists exactly for LL(1) decisions; anything else
    // is a corrupt file.
    if lookahead.is_some() != (class == DecisionClass::Ll1) {
        return None;
    }
    let mut conflicts = Vec::new();
    for c in row.get("conflicts")?.as_arr()? {
        conflicts.push(ConflictPair {
            a: ProdId::from_index(c.get("a")?.as_index(prods)?),
            b: ProdId::from_index(c.get("b")?.as_index(prods)?),
            lookahead: c
                .get("t")?
                .nullable(|t| t.as_index(ts))?
                .map(Terminal::from_index),
            distinguishing_prefix: read_opt_word(c.get("dp")?, ts)?,
            ambiguous_word: read_opt_word(c.get("aw")?, ts)?,
        });
    }
    Some(DecisionInfo {
        nonterminal: x,
        class,
        alternatives: row.get("alts")?.as_usize()?,
        lookahead,
        conflicts,
        graph_states: row.get("gs")?.as_usize()?,
    })
}

fn read_nt_set(v: &JsonValue, nts: usize) -> Option<NtSet> {
    let mut s = NtSet::with_capacity(nts);
    for i in v.as_indices(nts)? {
        s.insert(NonTerminal::from_index(i));
    }
    Some(s)
}

fn read_term_set(v: &JsonValue, ts: usize) -> Option<TermSet> {
    let mut s = TermSet::with_capacity(ts);
    for i in v.as_indices(ts)? {
        s.insert(Terminal::from_index(i));
    }
    Some(s)
}

/// A fixed-length array of `len` items, each read by `read`.
fn read_rows<T>(
    v: &JsonValue,
    len: usize,
    read: impl Fn(&JsonValue) -> Option<T>,
) -> Option<Vec<T>> {
    let items = v.as_arr()?;
    if items.len() != len {
        return None;
    }
    items.iter().map(read).collect()
}

// ---------------------------------------------------------------------
// Atomic file writes
// ---------------------------------------------------------------------

/// Atomically publishes `contents` at `path` via temp-file + rename,
/// creating the parent directory if needed.
///
/// The staging name is `<file>.<pid>.<seq>.tmp` — unique per process
/// (pid) and per call within a process (a process-local counter), so
/// concurrent writers never share a staging file: each write is staged
/// privately and published by a single whole-file rename. Readers (and
/// competing writers) therefore only ever observe complete documents;
/// when several writers race, the last rename wins, which is fine for a
/// cache whose entries are pure functions of their key. On error the
/// staging file is removed; `path` is never left half-written.
pub fn write_cache_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(name) = path.file_name() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "cache path has no file name",
        ));
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp_name = name.to_os_string();
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let result = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    fn fig2() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    /// Deep-equality proxy: the serializer is deterministic, so two
    /// analyses are equal iff they serialize identically.
    fn canon(g: &Grammar, a: &GrammarAnalysis) -> String {
        to_cache_json(g, a)
    }

    #[test]
    fn roundtrip_is_identity() {
        for build in [
            fig2,
            || {
                // Nullable + ambiguous + LL(1) mix.
                let mut gb = GrammarBuilder::new();
                gb.rule("S", &["A", "x"]);
                gb.rule("S", &["B"]);
                gb.rule("A", &[]);
                gb.rule("A", &["a", "A"]);
                gb.rule("B", &["a"]);
                gb.start("S").build().unwrap()
            },
            || {
                // Left-recursive (analysis still computes everything).
                let mut gb = GrammarBuilder::new();
                gb.rule("E", &["E", "p", "n"]);
                gb.rule("E", &["n"]);
                gb.start("E").build().unwrap()
            },
        ] {
            let g = build();
            let a = GrammarAnalysis::compute(&g);
            let json = to_cache_json(&g, &a);
            let back = from_cache_json(&g, &json).expect("roundtrip");
            assert_eq!(canon(&g, &a), canon(&g, &back));
        }
    }

    /// The cache document's exact bytes: a file written by an earlier
    /// build must stay a cache hit, so any change here is a schema change.
    #[test]
    fn fig2_cache_document_is_pinned() {
        let g = fig2();
        let json = to_cache_json(&g, &GrammarAnalysis::compute(&g));
        assert_eq!(json, FIG2_CACHE);
        assert!(from_cache_json(&g, FIG2_CACHE).is_some());
    }

    const FIG2_CACHE: &str = r#"{"schema":"costar-gcache-v3","fingerprint":"8e7539c87d78a0b9","nts":2,"ts":4,"prods":4,"nullable":[],"first":[[2,3],[2,3]],"follow":{"sets":[[],[0,1]],"eof":[true,false]},"left_recursion":{"set":[],"edges":[[1,1],[]]},"reachability":{"set":[0,1],"parent":[null,0]},"productivity":{"set":[0,1],"witness":[0,3]},"stable_frames":[{"pos":[],"end":true},{"pos":[[0,1],[1,1]],"end":false}],"decisions":[{"class":"sll-safe","alts":2,"gs":4,"la":null,"conflicts":[{"a":0,"b":1,"t":2,"dp":[3,0],"aw":null}]},{"class":"ll1","alts":2,"gs":0,"la":{"by":[null,null,2,3],"eof":null},"conflicts":[]}],"sync":{"sets":[[2,3],[0,1,2,3]],"eof":[true,false]},"audit":{"schema":"costar-cert-v1","fingerprint":"8e7539c87d78a0b9","decisions":[{"nt":0,"k":null,"gs":4,"pairs":[{"a":0,"b":1,"k":null,"collide":null,"resolve":null}],"dead":[],"shadowed":[]},{"nt":1,"k":1,"gs":3,"pairs":[{"a":2,"b":3,"k":1,"collide":[],"resolve":[2]}],"dead":[],"shadowed":[]}]},"cost":{"schema":"costar-cost-v1","fingerprint":"8e7539c87d78a0b9","nonterminals":2,"max_rhs_nts":1,"epsilon_max":0,"nullable_hazard":false,"pushes_per_epoch":2,"k_max":1,"unbounded":[0],"superlinear":[],"linear":false,"a":0,"b":0}}"#;

    #[test]
    fn fingerprint_tracks_grammar_content() {
        let g1 = fig2();
        let g2 = fig2();
        assert_eq!(grammar_fingerprint(&g1), grammar_fingerprint(&g2));
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["e"]); // one terminal differs
        let g3 = gb.start("S").build().unwrap();
        assert_ne!(grammar_fingerprint(&g1), grammar_fingerprint(&g3));
    }

    #[test]
    fn stale_cache_for_other_grammar_is_rejected() {
        let g1 = fig2();
        let a1 = GrammarAnalysis::compute(&g1);
        let json = to_cache_json(&g1, &a1);
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["e"]);
        let g2 = gb.start("S").build().unwrap();
        assert!(from_cache_json(&g2, &json).is_none());
    }

    #[test]
    fn corrupted_documents_are_rejected_not_trusted() {
        let g = fig2();
        let a = GrammarAnalysis::compute(&g);
        let json = to_cache_json(&g, &a);
        // Sanity: the pristine document loads.
        assert!(from_cache_json(&g, &json).is_some());
        // Truncations at every eighth byte.
        for cut in (0..json.len()).step_by(8) {
            assert!(from_cache_json(&g, &json[..cut]).is_none(), "cut={cut}");
        }
        // Wrong schema.
        let bad = json.replace(CACHE_SCHEMA, "costar-gcache-v0");
        assert!(from_cache_json(&g, &bad).is_none());
        // Tampered fingerprint.
        let fp = json::fingerprint_hex(grammar_fingerprint(&g));
        let bad = json.replace(&fp, &json::fingerprint_hex(!grammar_fingerprint(&g)));
        assert!(from_cache_json(&g, &bad).is_none());
        // Out-of-bounds index smuggled into the nullable set.
        let bad = json.replace("\"nullable\":[", "\"nullable\":[999,");
        assert!(from_cache_json(&g, &bad).is_none());
        // Not JSON at all.
        assert!(from_cache_json(&g, "not json {").is_none());
        assert!(from_cache_json(&g, "").is_none());
    }

    #[test]
    fn truncated_cache_files_fail_validation_silently() {
        // Regression guard for caches written before the atomic-rename
        // path existed: a process killed mid-write leaves a prefix of
        // the document. Every such prefix must be rejected (None, no
        // panic), so callers silently fall back to recompute.
        let g = fig2();
        let a = GrammarAnalysis::compute(&g);
        let json = to_cache_json(&g, &a);
        for cut in 0..json.len().min(64) {
            assert!(from_cache_json(&g, &json[..cut]).is_none(), "cut={cut}");
        }
        for cut in (0..json.len()).step_by(7) {
            assert!(from_cache_json(&g, &json[..cut]).is_none(), "cut={cut}");
        }
        // Truncating from the back of a valid document also kills the
        // embedded certificate, which sits last.
        assert!(from_cache_json(&g, &json[..json.len() - 1]).is_none());
    }

    #[test]
    fn corrupted_certificate_triggers_recompute() {
        let g = fig2();
        let a = GrammarAnalysis::compute(&g);
        let json = to_cache_json(&g, &a);
        assert!(json.contains("\"audit\":{\"schema\":\"costar-cert-v1\""));
        assert!(from_cache_json(&g, &json).is_some());
        // Structurally broken: out-of-bounds terminal in a witness.
        let bad = json.replace("\"collide\":[", "\"collide\":[999,");
        assert!(from_cache_json(&g, &bad).is_none());
        // Structurally valid but semantically wrong: an inflated bound
        // whose collide witness no longer matches — caught by replay,
        // not by the schema checks.
        let bad = json.replace("\"k\":1", "\"k\":2");
        assert_ne!(bad, json, "fig2 must certify a k=1 decision");
        assert!(from_cache_json(&g, &bad).is_none());
        // Wrong certificate schema tag.
        let bad = json.replace("costar-cert-v1", "costar-cert-v0");
        assert!(from_cache_json(&g, &bad).is_none());
        // Certificate stripped entirely.
        let bad = json.replace("\"audit\":", "\"audited\":");
        assert!(from_cache_json(&g, &bad).is_none());
    }

    #[test]
    fn corrupted_cost_certificate_triggers_recompute() {
        let g = fig2();
        let a = GrammarAnalysis::compute(&g);
        let json = to_cache_json(&g, &a);
        assert!(json.contains("\"cost\":{\"schema\":\"costar-cost-v1\""));
        assert!(from_cache_json(&g, &json).is_some());
        // Structurally valid but semantically deflated constants: a
        // shrunken push bound would under-budget `--max-steps auto`.
        // Caught by the total replay (recompute + equality), not by the
        // schema checks.
        let want = format!("\"pushes_per_epoch\":{}", a.cost.pushes_per_epoch);
        let bad = json.replace(&want, "\"pushes_per_epoch\":1");
        assert_ne!(bad, json, "fig2 cost model must be present");
        assert!(from_cache_json(&g, &bad).is_none());
        // Wrong cost schema tag.
        let bad = json.replace("costar-cost-v1", "costar-cost-v0");
        assert!(from_cache_json(&g, &bad).is_none());
        // Cost certificate stripped entirely.
        let bad = json.replace("\"cost\":", "\"costed\":");
        assert!(from_cache_json(&g, &bad).is_none());
        // A non-numeric bound constant fails the structural parse.
        let want = format!("\"b\":{}", a.cost.b);
        let bad = json.replace(&want, "\"b\":null");
        assert!(from_cache_json(&g, &bad).is_none());
    }

    #[test]
    fn decoded_analysis_is_usable() {
        let g = fig2();
        let a = GrammarAnalysis::compute(&g);
        let back = from_cache_json(&g, &to_cache_json(&g, &a)).unwrap();
        let a_nt = g.symbols().lookup_nonterminal("A").unwrap();
        let ta = g.symbols().lookup_terminal("a").unwrap();
        assert_eq!(back.nullable.contains(a_nt), a.nullable.contains(a_nt));
        assert!(back.first.first(a_nt).contains(ta));
        assert_eq!(
            back.decisions.decision(a_nt).map(|d| d.class),
            a.decisions.decision(a_nt).map(|d| d.class)
        );
        assert!(back.sync.is_sync_token(a_nt, ta));
        assert_eq!(back.stable_frames.dests(a_nt), a.stable_frames.dests(a_nt));
    }

    #[test]
    fn atomic_write_round_trips_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!(
            "costar-gcache-test-{}-roundtrip",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("entry.json");
        let g = fig2();
        let json = to_cache_json(&g, &GrammarAnalysis::compute(&g));
        write_cache_atomic(&path, &json).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        // Overwrite publishes the new document.
        write_cache_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        // No staging litter.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "staging files left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_publish_a_torn_document() {
        // The regression this guards: with a writer-shared staging name
        // (`<file>.tmp`), writer A could rename B's half-written staging
        // file into place, publishing a torn document. With per-writer
        // staging names, every observed state of the published file must
        // be the complete document of exactly one writer.
        let dir = std::env::temp_dir().join(format!(
            "costar-gcache-test-{}-concurrent",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");
        const WRITERS: usize = 8;
        const ROUNDS: usize = 50;
        // Each writer's document is big enough that a torn write is
        // detectable, and self-describing: "<id>|<payload>".
        let doc = |w: usize| format!("{w}|{}", "x".repeat(4096 + w));
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let path = &path;
                let doc = doc(w);
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        write_cache_atomic(path, &doc).unwrap();
                    }
                });
            }
            // A concurrent reader: every observed state must be some
            // writer's complete document.
            let path = &path;
            s.spawn(move || {
                for _ in 0..200 {
                    if let Ok(text) = std::fs::read_to_string(path) {
                        let id: usize = text
                            .split('|')
                            .next()
                            .and_then(|p| p.parse().ok())
                            .unwrap_or_else(|| panic!("torn document: {:.60}...", text));
                        assert_eq!(text, doc(id), "torn or mixed document observed");
                    }
                    std::thread::yield_now();
                }
            });
        });
        // Final state is one writer's complete document and no staging
        // files survive.
        let final_text = std::fs::read_to_string(&path).unwrap();
        let id: usize = final_text.split('|').next().unwrap().parse().unwrap();
        assert_eq!(final_text, doc(id));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "staging files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
