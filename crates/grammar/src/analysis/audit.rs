//! Grammar audit pass: exact lookahead-bound certification plus
//! dead/shadowed-alternative detection, packaged as a machine-checkable
//! certificate (`costar-cert-v1`).
//!
//! Where `decide.rs` answers "how much prediction machinery does this
//! decision need?", this pass answers three sharper static questions per
//! multi-alternative nonterminal:
//!
//! * **Exact lookahead bound k.** For every pair of alternatives, the
//!   smallest number of lookahead observations (terminals, with the
//!   end-of-input mark counting as one observation) after which SLL
//!   prediction is guaranteed to have committed or rejected, measured on
//!   the pair's static closure graph (see `sll_graph`). The bound is
//!   exact *under the SLL abstraction*: the graph's longest walk through
//!   states where both alternatives survive is `k - 1`, so some input
//!   keeps the pair alive for `k - 1` observations (minimality) and no
//!   input keeps it alive for `k` (sufficiency). Because every concrete
//!   reachable configuration set is covered by an abstract state, the
//!   parse-time engine's lookahead at this decision never exceeds a
//!   finite certified `k` — the property the runtime certificate check
//!   in `costar-core` asserts. `k = None` means no finite bound exists
//!   (a live cycle or an end-of-input conflict in the pair graph) or
//!   exploration hit its caps; ALL(*) handles those decisions with
//!   unbounded regular lookahead, so `None` is a fact, not a failure.
//! * **Dead alternatives (lint L009).** A production whose right-hand
//!   side contains an unproductive nonterminal derives no terminal word
//!   at all: no input ever selects it. This is exact — productivity is a
//!   least fixpoint, not an approximation.
//! * **Shadowed alternatives (lint L010).** A later alternative whose
//!   derivable language is contained in an earlier alternative's can
//!   never win: wherever the later subparser survives, the earlier one
//!   survives too, and the engine's ambiguity resolution picks the
//!   lowest surviving alternative. Containment is established by
//!   exhaustively enumerating the later alternative's language within
//!   bounded caps, so the verdict is only ever emitted when it is exact;
//!   hitting a cap (or an infinite later language) yields no verdict.
//!   Syntactically identical right-hand sides are skipped — those are
//!   lint L005's territory.
//!
//! ## The certificate and its replay contract
//!
//! [`to_cert_json`] serializes the table as a `costar-cert-v1` document,
//! embedded under the `"audit"` key of the grammar-analysis disk cache.
//! On cache load, [`replay`] validates the certificate against the live
//! grammar by *replaying witnesses* instead of recomputing graphs: each
//! finite pair bound `k` carries a collide witness (a word of length
//! `k - 1` after which both alternatives still survive) and usually a
//! resolve witness (length `k`, after which at most one survives), and
//! replay re-simulates those few closure steps, the ones
//! [`simulate_survivors`] takes, in one closure engine shared by the
//! whole certificate. Dead verdicts are re-derived from the (cheap,
//! already validated) productivity analysis, and shadowed verdicts
//! re-run the bounded containment check for the claimed pairs only.
//! Replay validates every *claim* in the certificate; completeness —
//! that no finding was dropped — rests on the cache fingerprint, which
//! pins the exact grammar the table was computed from. One asymmetry is
//! inherent: an *inflated* bound is refuted by its (now inconsistent)
//! collide witness, but a *deflated* bound cannot be refuted by any
//! single witness — sufficiency is a universal property. Deflation is
//! instead caught at parse time by the engine's certificate check
//! (`Event::CertificateCheck` fires with `ok = false` the moment a
//! prediction uses more lookahead than the certificate admits). Any
//! replay failure makes the cache load return `None`, and the caller
//! silently recomputes: a corrupted or tampered certificate costs a
//! recompute, never a wrong bound.

use crate::analysis::cache::{grammar_fingerprint, push_opt_word, read_opt_word};
use crate::analysis::productivity::Productivity;
use crate::analysis::sll_graph::{
    Automata, PartId, EMPTY_PART, MAX_CONFIGS_PER_STATE, MAX_STATES, MAX_WORK_ITEMS,
};
use crate::analysis::stable_frames::StableFrames;
use crate::grammar::{Grammar, ProdId};
use crate::json::{self, JsonValue};
use crate::symbol::{NonTerminal, Symbol, Terminal};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Schema tag of the serialized certificate; bump whenever the shape
/// changes so stale documents fail cleanly.
pub const CERT_SCHEMA: &str = "costar-cert-v1";

/// Exploration caps for the bounded shadow-containment enumeration.
const SHADOW_MAX_WORD: usize = 6;
const SHADOW_MAX_FORM: usize = 10;
const SHADOW_MAX_QUEUE: usize = 2_000;
const SHADOW_MAX_WORDS: usize = 64;

/// The audit verdict for one pair of alternatives of a decision
/// nonterminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairAudit {
    /// Earlier alternative of the pair (lower production id).
    pub a: ProdId,
    /// Later alternative of the pair.
    pub b: ProdId,
    /// Exact minimum lookahead bound distinguishing the pair under the
    /// SLL abstraction; `None` when no finite bound exists (or
    /// exploration hit a cap).
    pub k: Option<usize>,
    /// Collide witness: a word of length `k - 1` after which both
    /// alternatives still survive — proof `k` is minimal. `None` exactly
    /// when `k` is `None` or `k == 0`.
    pub collide: Option<Vec<Terminal>>,
    /// Resolve witness: the collide word extended by one terminal, after
    /// which at most one alternative survives. `None` when the deepest
    /// live state resolves only at end of input (or `k` is `None`).
    pub resolve: Option<Vec<Terminal>>,
}

/// Everything the audit established about one decision nonterminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditInfo {
    /// The decision nonterminal.
    pub nonterminal: NonTerminal,
    /// Decision-level lookahead bound: the maximum over all pair bounds,
    /// `None` if any pair is unbounded.
    pub k: Option<usize>,
    /// Total subset states explored across all pair graphs — a static
    /// upper-bound proxy for the decision's runtime SLL cache footprint.
    pub graph_states: usize,
    /// Per-pair bounds and witnesses, in (a, b) production-id order.
    pub pairs: Vec<PairAudit>,
    /// Dead alternatives: productions whose right-hand side contains an
    /// unproductive nonterminal (lint L009).
    pub dead: Vec<ProdId>,
    /// Shadowed alternatives as (earlier shadower, later shadowed) pairs
    /// (lint L010), at most one shadower recorded per shadowed
    /// alternative.
    pub shadowed: Vec<(ProdId, ProdId)>,
}

/// Aggregate audit statistics, reported by `costar audit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditStats {
    /// Number of decision points audited.
    pub decision_points: usize,
    /// Decisions with a finite certified lookahead bound.
    pub bounded: usize,
    /// Decisions with no finite bound (ALL(*) regular lookahead).
    pub unbounded: usize,
    /// The largest finite decision bound, 0 when none is finite.
    pub max_k: usize,
    /// Total dead alternatives across all decisions.
    pub dead_alternatives: usize,
    /// Total shadowed alternatives across all decisions.
    pub shadowed_alternatives: usize,
    /// Total pair-graph subset states explored.
    pub graph_states: usize,
}

/// The per-grammar audit table: one [`AuditInfo`] per multi-alternative
/// nonterminal, indexed by nonterminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditTable {
    by_nt: Vec<Option<AuditInfo>>,
}

impl AuditTable {
    /// Audits every decision point of `g`. Callers normally reach this
    /// through `GrammarAnalysis::compute`.
    pub fn compute(g: &Grammar, stable_frames: &StableFrames, productivity: &Productivity) -> Self {
        Self::compute_with(g, productivity, &mut Automata::new(g, stable_frames))
    }

    /// [`compute`](AuditTable::compute) on a caller's closure engine,
    /// reusing whatever closures it already memoized; the result is the
    /// same (DESIGN §7g's exact cap accounting).
    pub(crate) fn compute_with(
        g: &Grammar,
        productivity: &Productivity,
        auto: &mut Automata,
    ) -> Self {
        let by_nt = g
            .symbols()
            .nonterminals()
            .map(|x| audit_nonterminal(g, auto, productivity, x))
            .collect();
        AuditTable { by_nt }
    }

    /// The audit info for `x`, or `None` when `x` has fewer than two
    /// alternatives.
    pub fn audit(&self, x: NonTerminal) -> Option<&AuditInfo> {
        self.by_nt.get(x.index()).and_then(|d| d.as_ref())
    }

    /// The finite certified lookahead bound for decision `x`, if any.
    pub fn k_bound(&self, x: NonTerminal) -> Option<usize> {
        self.audit(x).and_then(|d| d.k)
    }

    /// All audited decision points, in nonterminal-index order.
    pub fn iter(&self) -> impl Iterator<Item = &AuditInfo> {
        self.by_nt.iter().flatten()
    }

    /// Total pair-graph states across all decisions — consulted by the
    /// parse-time engine to pre-size its SLL cache.
    pub fn total_graph_states(&self) -> usize {
        self.iter().map(|d| d.graph_states).sum()
    }

    /// Rebuilds from raw rows (certificate deserialization).
    pub(crate) fn from_parts(by_nt: Vec<Option<AuditInfo>>) -> Self {
        AuditTable { by_nt }
    }

    /// Aggregate statistics over the table.
    pub fn stats(&self) -> AuditStats {
        let mut s = AuditStats::default();
        for d in self.iter() {
            s.decision_points += 1;
            match d.k {
                Some(k) => {
                    s.bounded += 1;
                    s.max_k = s.max_k.max(k);
                }
                None => s.unbounded += 1,
            }
            s.dead_alternatives += d.dead.len();
            s.shadowed_alternatives += d.shadowed.len();
            s.graph_states += d.graph_states;
        }
        s
    }
}

/// Is production `p` dead — does its right-hand side mention a
/// nonterminal that derives no terminal word?
pub(crate) fn is_dead(g: &Grammar, productivity: &Productivity, p: ProdId) -> bool {
    g.production(p)
        .rhs()
        .iter()
        .any(|s| matches!(s, Symbol::Nt(y) if !productivity.is_productive(*y)))
}

fn audit_nonterminal(
    g: &Grammar,
    auto: &mut Automata,
    productivity: &Productivity,
    x: NonTerminal,
) -> Option<AuditInfo> {
    let alts = g.alternatives(x);
    if alts.len() < 2 {
        return None;
    }
    let mut pairs = Vec::new();
    let mut graph_states = 0usize;
    let mut k: Option<usize> = Some(0);
    for (i, &p) in alts.iter().enumerate() {
        for &q in &alts[i + 1..] {
            let pair = pair_bound(auto, p, q);
            graph_states += pair.states;
            k = match (k, pair.k) {
                (Some(acc), Some(pk)) => Some(acc.max(pk)),
                _ => None,
            };
            pairs.push(PairAudit {
                a: p,
                b: q,
                k: pair.k,
                collide: pair.collide,
                resolve: pair.resolve,
            });
        }
    }
    let dead: Vec<ProdId> = alts
        .iter()
        .copied()
        .filter(|&p| is_dead(g, productivity, p))
        .collect();
    let mut shadowed = Vec::new();
    for (j, &q) in alts.iter().enumerate() {
        if let Some(&p) = alts[..j].iter().find(|&&p| is_shadowed(g, p, q)) {
            shadowed.push((p, q));
        }
    }
    Some(AuditInfo {
        nonterminal: x,
        k,
        graph_states,
        pairs,
        dead,
        shadowed,
    })
}

// ---------------------------------------------------------------------
// Exact pair bounds over the closure graph
// ---------------------------------------------------------------------

struct PairBound {
    k: Option<usize>,
    collide: Option<Vec<Terminal>>,
    resolve: Option<Vec<Terminal>>,
    states: usize,
}

/// Computes the exact lookahead bound for distinguishing alternatives
/// `a` and `b`, by materializing the pair's closure graph and measuring
/// the longest walk through *live* states (states where both
/// alternatives survive).
///
/// `k = None` when a live state has an end-of-input conflict (some input
/// is genuinely unresolvable), when the live subgraph has a cycle (the
/// pair stays alive on arbitrarily long inputs), or when exploration
/// hit a cap. Otherwise the live subgraph is a DAG rooted at the start
/// state and `k = 1 + longest live path`: after at most `k`
/// observations every walk has left the live region (committed or
/// rejected), and the longest-path word is a collide witness showing
/// `k - 1` observations do not suffice.
fn pair_bound(auto: &mut Automata, a: ProdId, b: ProdId) -> PairBound {
    let unbounded = |states: usize| PairBound {
        k: None,
        collide: None,
        resolve: None,
        states,
    };
    let mut budget = MAX_WORK_ITEMS;
    let mut start = [EMPTY_PART; 2];
    if auto.start_parts(&[a, b], &mut start, &mut budget).is_err() {
        return unbounded(0);
    }

    // BFS subset construction, retaining per-state liveness and the
    // live-to-live edge list (expansion is pruned at resolved states, so
    // every interned state is reachable through live interior states).
    let mut ids: HashMap<[PartId; 2], usize> = HashMap::new();
    let mut live: Vec<bool> = vec![false];
    let mut edges: Vec<Vec<(Terminal, usize)>> = vec![Vec::new()];
    let mut queue: VecDeque<(usize, [PartId; 2])> = VecDeque::new();
    ids.insert(start, 0);
    queue.push_back((0, start));

    while let Some((sid, state)) = queue.pop_front() {
        if auto.configs(&state) > MAX_CONFIGS_PER_STATE {
            return unbounded(ids.len());
        }
        let is_live = Automata::survivors(&state) >= 2;
        live[sid] = is_live;
        if !is_live {
            continue; // resolved: the engine commits or rejects here.
        }
        if auto.eof_conflict(&state) {
            // Some input ending here is unresolvable: no finite bound.
            return unbounded(ids.len());
        }
        for t in auto.terminals(&state) {
            let mut next = state;
            if auto.advance(&mut next, t, &mut budget).is_err() {
                return unbounded(ids.len());
            }
            let next_id = if let Some(&id) = ids.get(&next) {
                id
            } else {
                if ids.len() >= MAX_STATES {
                    return unbounded(ids.len());
                }
                let id = live.len();
                ids.insert(next, id);
                live.push(false);
                edges.push(Vec::new());
                queue.push_back((id, next));
                id
            };
            edges[sid].push((t, next_id));
        }
    }
    let states = ids.len();

    if !live[0] {
        // One alternative already dies in the initial closure: resolved
        // with zero observations.
        return PairBound {
            k: Some(0),
            collide: None,
            resolve: None,
            states,
        };
    }

    // Kahn's algorithm on the live subgraph: a leftover node means a
    // live cycle, i.e. some input keeps both alternatives alive forever.
    let n = live.len();
    let mut indeg = vec![0usize; n];
    for (u, es) in edges.iter().enumerate() {
        if !live[u] {
            continue;
        }
        for &(_, v) in es {
            if live[v] {
                indeg[v] += 1;
            }
        }
    }
    let mut topo: Vec<usize> = Vec::new();
    let mut ready: VecDeque<usize> = (0..n).filter(|&u| live[u] && indeg[u] == 0).collect();
    while let Some(u) = ready.pop_front() {
        topo.push(u);
        for &(_, v) in &edges[u] {
            if live[v] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push_back(v);
                }
            }
        }
    }
    let live_count = (0..n).filter(|&u| live[u]).count();
    if topo.len() != live_count {
        return unbounded(states);
    }

    // Longest path from the start through live states, with parent
    // pointers for the collide witness.
    let mut depth = vec![0usize; n];
    let mut parent: Vec<Option<(usize, Terminal)>> = vec![None; n];
    for &u in &topo {
        for &(t, v) in &edges[u] {
            if live[v] && depth[u] + 1 > depth[v] {
                depth[v] = depth[u] + 1;
                parent[v] = Some((u, t));
            }
        }
    }
    let deepest = match (0..n).filter(|&u| live[u]).max_by_key(|&u| depth[u]) {
        Some(u) => u,
        None => return unbounded(states),
    };
    let k = depth[deepest] + 1;
    let mut collide: Vec<Terminal> = Vec::new();
    let mut cursor = deepest;
    while let Some((prev, t)) = parent[cursor] {
        collide.push(t);
        cursor = prev;
    }
    collide.reverse();
    // Every edge out of the deepest live state targets a resolved state
    // (a live target would contradict maximality), so any of them
    // completes a resolve witness; pick the smallest terminal for
    // determinism. No edge at all means the state resolves only at end
    // of input.
    let resolve = edges[deepest].first().map(|&(t, _)| {
        let mut w = collide.clone();
        w.push(t);
        w
    });
    PairBound {
        k: Some(k),
        collide: Some(collide),
        resolve,
        states,
    }
}

/// Replays a word against the closure graph of `alts`: runs the initial
/// closure, consumes each terminal of `word` (move + closure), and
/// returns the alternatives still surviving, ascending and deduplicated.
/// `None` when a closure cap is hit. This is the certificate-replay
/// primitive: a handful of closure steps per witness instead of a full
/// graph exploration.
pub fn simulate_survivors(
    g: &Grammar,
    sf: &StableFrames,
    alts: &[ProdId],
    word: &[Terminal],
) -> Option<Vec<ProdId>> {
    let mut distinct = alts.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    // A repeated alternative's start configuration is popped once more
    // and found already visited: one extra work item per repeat.
    let mut budget = MAX_WORK_ITEMS.checked_sub(alts.len() - distinct.len())?;
    let mut parts = vec![EMPTY_PART; distinct.len()];
    Automata::new(g, sf)
        .walk(&distinct, &mut parts, word, &mut budget)
        .ok()?;
    Some(
        distinct
            .into_iter()
            .zip(parts)
            .filter(|&(_, part)| part != EMPTY_PART)
            .map(|(alt, _)| alt)
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Shadow containment
// ---------------------------------------------------------------------

/// Exhaustively enumerates the terminal language of the sentential form
/// `start`, or `None` when any cap is hit (the language may be infinite
/// or merely too large — either way, no exact verdict).
fn enumerate_language(g: &Grammar, start: &[Symbol]) -> Option<BTreeSet<Vec<Terminal>>> {
    let mut out: BTreeSet<Vec<Terminal>> = BTreeSet::new();
    let mut seen: BTreeSet<(Vec<Terminal>, Vec<Symbol>)> = BTreeSet::new();
    let mut queue: VecDeque<(Vec<Terminal>, Vec<Symbol>)> = VecDeque::new();
    queue.push_back((Vec::new(), start.to_vec()));
    let mut processed = 0usize;
    while let Some((word, form)) = queue.pop_front() {
        processed += 1;
        if processed > SHADOW_MAX_QUEUE {
            return None;
        }
        if !seen.insert((word.clone(), form.clone())) {
            continue;
        }
        match form.first().copied() {
            None => {
                out.insert(word);
                if out.len() > SHADOW_MAX_WORDS {
                    return None;
                }
            }
            Some(Symbol::T(t)) => {
                if word.len() >= SHADOW_MAX_WORD {
                    return None; // a longer word may exist: inexact.
                }
                let mut w = word;
                w.push(t);
                queue.push_back((w, form[1..].to_vec()));
            }
            Some(Symbol::Nt(y)) => {
                for &r in g.alternatives(y) {
                    let mut nf: Vec<Symbol> = g.production(r).rhs().to_vec();
                    nf.extend_from_slice(&form[1..]);
                    if nf.len() > SHADOW_MAX_FORM {
                        return None; // pruning would make the set partial.
                    }
                    queue.push_back((word.clone(), nf));
                }
            }
        }
    }
    Some(out)
}

/// Can the sentential form `start` derive exactly `w`? Bounded search;
/// `false` on cap exhaustion (conservative — never claims derivability
/// it cannot show, so a shadow verdict is only strengthened).
fn derives_word(g: &Grammar, start: &[Symbol], w: &[Terminal]) -> bool {
    let mut seen: BTreeSet<(usize, Vec<Symbol>)> = BTreeSet::new();
    let mut stack: Vec<(usize, Vec<Symbol>)> = vec![(0, start.to_vec())];
    let mut processed = 0usize;
    while let Some((matched, form)) = stack.pop() {
        processed += 1;
        if processed > SHADOW_MAX_QUEUE {
            return false;
        }
        if !seen.insert((matched, form.clone())) {
            continue;
        }
        match form.first().copied() {
            None => {
                if matched == w.len() {
                    return true;
                }
            }
            Some(Symbol::T(t)) => {
                if matched < w.len() && w[matched] == t {
                    stack.push((matched + 1, form[1..].to_vec()));
                }
            }
            Some(Symbol::Nt(y)) => {
                for &r in g.alternatives(y) {
                    let mut nf: Vec<Symbol> = g.production(r).rhs().to_vec();
                    nf.extend_from_slice(&form[1..]);
                    if nf.len() <= SHADOW_MAX_FORM + w.len() {
                        stack.push((matched, nf));
                    }
                }
            }
        }
    }
    false
}

/// Does earlier alternative `p` shadow later alternative `q` — is
/// `lang(rhs(q))` a non-empty language wholly contained in
/// `lang(rhs(p))`? Exact when it answers `true`; caps and identical
/// right-hand sides yield `false` (no verdict).
pub(crate) fn is_shadowed(g: &Grammar, p: ProdId, q: ProdId) -> bool {
    if g.production(p).rhs() == g.production(q).rhs() {
        return false; // duplicate productions are lint L005's business.
    }
    let Some(lang_q) = enumerate_language(g, g.production(q).rhs()) else {
        return false;
    };
    if lang_q.is_empty() {
        return false; // empty language: dead (L009), not shadowed.
    }
    lang_q
        .iter()
        .all(|w| derives_word(g, g.production(p).rhs(), w))
}

// ---------------------------------------------------------------------
// Certificate serialization
// ---------------------------------------------------------------------

/// Renders the audit table as a deterministic `costar-cert-v1` JSON
/// document — the machine-checkable certificate embedded in the
/// grammar-analysis disk cache and printed by `costar audit
/// --format=json`.
pub fn to_cert_json(g: &Grammar, t: &AuditTable) -> String {
    json::object(|w| {
        w.header(CERT_SCHEMA, grammar_fingerprint(g));
        w.key("decisions").array(|w| {
            for d in t.iter() {
                w.object(|w| {
                    w.field("nt", d.nonterminal.index())
                        .field("k", d.k)
                        .field("gs", d.graph_states);
                    w.key("pairs").array(|w| {
                        for pa in &d.pairs {
                            w.object(|w| {
                                w.field("a", pa.a.index())
                                    .field("b", pa.b.index())
                                    .field("k", pa.k);
                                push_opt_word(w.key("collide"), pa.collide.as_deref());
                                push_opt_word(w.key("resolve"), pa.resolve.as_deref());
                            });
                        }
                    });
                    w.key("dead").values(d.dead.iter().map(|p| p.index()));
                    w.key("shadowed").array(|w| {
                        for (p, q) in &d.shadowed {
                            w.values([p.index(), q.index()]);
                        }
                    });
                });
            }
        });
    })
}

/// Parses a standalone `costar-cert-v1` document from text. Structural
/// validation only; pair with [`replay`] for the semantic half.
pub fn parse_cert_json(g: &Grammar, text: &str) -> Option<AuditTable> {
    cert_from_json(g, &json::parse(text).ok()?)
}

/// Parses a `costar-cert-v1` document (the value under the cache's
/// `"audit"` key) back into an [`AuditTable`]. Structural validation
/// only — schema, fingerprint, bounds-checked indices, ascending unique
/// rows; the semantic half lives in [`replay`]. `None` on any mismatch.
pub(crate) fn cert_from_json(g: &Grammar, v: &JsonValue) -> Option<AuditTable> {
    json::check_header(v, CERT_SCHEMA, grammar_fingerprint(g))?;
    let nts = g.num_nonterminals();
    let ts = g.num_terminals();
    let prods = g.num_productions();
    let mut by_nt: Vec<Option<AuditInfo>> = vec![None; nts];
    let mut last_nt: Option<usize> = None;
    for row in v.get("decisions")?.as_arr()? {
        let nt = row.get("nt")?.as_index(nts)?;
        if last_nt.is_some_and(|prev| nt <= prev) {
            return None;
        }
        last_nt = Some(nt);
        let mut pairs = Vec::new();
        for pr in row.get("pairs")?.as_arr()? {
            pairs.push(PairAudit {
                a: ProdId::from_index(pr.get("a")?.as_index(prods)?),
                b: ProdId::from_index(pr.get("b")?.as_index(prods)?),
                k: pr.get("k")?.nullable(JsonValue::as_usize)?,
                collide: read_opt_word(pr.get("collide")?, ts)?,
                resolve: read_opt_word(pr.get("resolve")?, ts)?,
            });
        }
        let mut shadowed = Vec::new();
        for pair in row.get("shadowed")?.as_arr()? {
            let [p, q] = pair.as_indices(prods)?[..] else {
                return None;
            };
            shadowed.push((ProdId::from_index(p), ProdId::from_index(q)));
        }
        by_nt[nt] = Some(AuditInfo {
            nonterminal: NonTerminal::from_index(nt),
            k: row.get("k")?.nullable(JsonValue::as_usize)?,
            graph_states: row.get("gs")?.as_usize()?,
            pairs,
            dead: row
                .get("dead")?
                .as_indices(prods)?
                .into_iter()
                .map(ProdId::from_index)
                .collect(),
            shadowed,
        });
    }
    Some(AuditTable::from_parts(by_nt))
}

// ---------------------------------------------------------------------
// Certificate replay
// ---------------------------------------------------------------------

/// Semantically validates a deserialized certificate against the live
/// grammar by replaying its witnesses (see the module docs for the
/// contract). Returns `false` on the first claim that fails to replay;
/// the cache loader then discards the document and recomputes.
pub fn replay(
    g: &Grammar,
    stable_frames: &StableFrames,
    productivity: &Productivity,
    table: &AuditTable,
) -> bool {
    let mut auto = Automata::new(g, stable_frames);
    // Row coverage: exactly the multi-alternative nonterminals.
    for x in g.symbols().nonterminals() {
        if (g.alternatives(x).len() >= 2) != table.audit(x).is_some() {
            return false;
        }
    }
    for info in table.iter() {
        let alts = g.alternatives(info.nonterminal);
        // Pairs must enumerate the alternative pairs in canonical order.
        let mut want: Vec<(ProdId, ProdId)> = Vec::new();
        for (i, &p) in alts.iter().enumerate() {
            for &q in &alts[i + 1..] {
                want.push((p, q));
            }
        }
        if info.pairs.len() != want.len() {
            return false;
        }
        let mut decision_k: Option<usize> = Some(0);
        for (pa, &(p, q)) in info.pairs.iter().zip(&want) {
            if pa.a != p || pa.b != q {
                return false;
            }
            decision_k = match (decision_k, pa.k) {
                (Some(acc), Some(pk)) => Some(acc.max(pk)),
                _ => None,
            };
            match (pa.k, &pa.collide) {
                (Some(0), None) => {
                    // Zero-observation resolution: the initial closure
                    // must already drop one alternative.
                    if pa.resolve.is_some() {
                        return false;
                    }
                    let mut parts = [EMPTY_PART; 2];
                    let mut budget = MAX_WORK_ITEMS;
                    if auto.walk(&[p, q], &mut parts, &[], &mut budget).is_err()
                        || Automata::survivors(&parts) > 1
                    {
                        return false;
                    }
                }
                (Some(k), Some(collide)) => {
                    // Minimality: after k - 1 observations both survive.
                    if collide.len() + 1 != k {
                        return false;
                    }
                    let mut parts = [EMPTY_PART; 2];
                    let mut budget = MAX_WORK_ITEMS;
                    if auto
                        .walk(&[p, q], &mut parts, collide, &mut budget)
                        .is_err()
                        || Automata::survivors(&parts) != 2
                    {
                        return false;
                    }
                    // Sufficiency spot check: the resolve witness, when
                    // present, extends the collide word by one terminal
                    // and leaves at most one survivor. The walk resumes
                    // where the collide word ended: replaying the whole
                    // resolve word from scratch would repeat those steps
                    // and charge the same budget.
                    if let Some(resolve) = &pa.resolve {
                        if resolve.len() != k || !resolve.starts_with(collide) {
                            return false;
                        }
                        let Some(&last) = resolve.last() else {
                            return false;
                        };
                        if auto.advance(&mut parts, last, &mut budget).is_err()
                            || Automata::survivors(&parts) > 1
                        {
                            return false;
                        }
                    }
                }
                // A positive finite bound must carry its collide
                // witness; an unbounded pair claims nothing replayable.
                (Some(_), None) => return false,
                (None, _) => {}
            }
        }
        if info.k != decision_k {
            return false;
        }
        // Dead verdicts re-derive exactly from productivity.
        for &p in alts {
            if info.dead.contains(&p) != is_dead(g, productivity, p) {
                return false;
            }
        }
        // Shadow claims re-run the bounded containment check, and the
        // pair must be correctly ordered within this decision.
        for &(p, q) in &info.shadowed {
            let ip = alts.iter().position(|&r| r == p);
            let iq = alts.iter().position(|&r| r == q);
            match (ip, iq) {
                (Some(ip), Some(iq)) if ip < iq => {}
                _ => return false,
            }
            if !is_shadowed(g, p, q) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::analysis::nullable::NullableSet;
    use crate::grammar::GrammarBuilder;

    fn setup(
        build: impl FnOnce(&mut GrammarBuilder),
    ) -> (Grammar, StableFrames, Productivity, AuditTable) {
        let mut gb = GrammarBuilder::new();
        build(&mut gb);
        let g = gb.build().unwrap();
        let n = NullableSet::compute(&g);
        let sf = StableFrames::compute(&g, &n);
        let pr = Productivity::compute(&g);
        let t = AuditTable::compute(&g, &sf, &pr);
        (g, sf, pr, t)
    }

    fn nt(g: &Grammar, name: &str) -> NonTerminal {
        g.symbols().lookup_nonterminal(name).unwrap()
    }

    #[test]
    fn ll1_decision_gets_k_one() {
        // A -> a X | b Y: one token always decides.
        let (g, _, _, t) = setup(|gb| {
            gb.rule("A", &["a", "X"]);
            gb.rule("A", &["b", "Y"]);
            gb.rule("X", &["x"]);
            gb.rule("Y", &["y"]);
            gb.start("A");
        });
        let info = t.audit(nt(&g, "A")).unwrap();
        assert_eq!(info.k, Some(1));
        assert_eq!(info.pairs.len(), 1);
        let pa = &info.pairs[0];
        assert_eq!(pa.k, Some(1));
        assert_eq!(pa.collide.as_deref(), Some(&[][..]), "empty collide word");
        let resolve = pa.resolve.as_ref().unwrap();
        assert_eq!(resolve.len(), 1);
        assert!(info.dead.is_empty());
        assert!(info.shadowed.is_empty());
    }

    #[test]
    fn fixed_left_factor_gets_exact_k() {
        // S -> a b c | a b d: identical 2-token prefix, k = 3.
        let (g, sf, _, t) = setup(|gb| {
            gb.rule("S", &["a", "b", "c"]);
            gb.rule("S", &["a", "b", "d"]);
            gb.start("S");
        });
        let info = t.audit(nt(&g, "S")).unwrap();
        assert_eq!(info.k, Some(3), "{info:?}");
        let pa = &info.pairs[0];
        let collide = pa.collide.as_ref().unwrap();
        assert_eq!(collide.len(), 2);
        // The collide witness really keeps both alive...
        let s = simulate_survivors(&g, &sf, &[pa.a, pa.b], collide).unwrap();
        assert_eq!(s.len(), 2);
        // ...and the resolve witness really resolves.
        let resolve = pa.resolve.as_ref().unwrap();
        let s = simulate_survivors(&g, &sf, &[pa.a, pa.b], resolve).unwrap();
        assert!(s.len() <= 1);
    }

    #[test]
    fn fig2_pair_is_unbounded_under_sll() {
        // Paper Fig. 2: S -> A c | A d with right-recursive A. SLL always
        // resolves (SllSafe) but input a^n b needs n + 2 observations, so
        // there is no finite bound.
        let (g, _, _, t) = setup(|gb| {
            gb.rule("S", &["A", "c"]);
            gb.rule("S", &["A", "d"]);
            gb.rule("A", &["a", "A"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        let info = t.audit(nt(&g, "S")).unwrap();
        assert_eq!(info.k, None, "{info:?}");
        // The inner A decision (a A | b) is plain LL(1): k = 1.
        assert_eq!(t.audit(nt(&g, "A")).unwrap().k, Some(1));
    }

    #[test]
    fn ambiguous_pair_is_unbounded() {
        // Fig. 6: both alternatives accept "a" at EOF — no bound exists.
        let (g, _, _, t) = setup(|gb| {
            gb.rule("S", &["X"]);
            gb.rule("S", &["Y"]);
            gb.rule("X", &["a"]);
            gb.rule("Y", &["a"]);
            gb.start("S");
        });
        assert_eq!(t.audit(nt(&g, "S")).unwrap().k, None);
    }

    #[test]
    fn dead_alternative_detected() {
        // U has no productive production (U -> u U only), so S -> U x is
        // dead while S -> a stays live.
        let (g, _, pr, t) = setup(|gb| {
            gb.rule("S", &["a"]);
            gb.rule("S", &["U", "x"]);
            gb.rule("U", &["u", "U"]);
            gb.start("S");
        });
        let info = t.audit(nt(&g, "S")).unwrap();
        assert_eq!(info.dead.len(), 1);
        assert!(is_dead(&g, &pr, info.dead[0]));
        let rendered = g.render_production(info.dead[0]);
        assert!(rendered.contains('U'), "{rendered}");
    }

    #[test]
    fn shadowed_alternative_detected() {
        // S -> A | a with A -> a | b: the later "a" alternative's
        // language {a} is strictly inside A's {a, b}.
        let (g, _, _, t) = setup(|gb| {
            gb.rule("S", &["A"]);
            gb.rule("S", &["a"]);
            gb.rule("A", &["a"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        let info = t.audit(nt(&g, "S")).unwrap();
        assert_eq!(info.shadowed.len(), 1);
        let (p, q) = info.shadowed[0];
        assert_eq!(g.render_production(q), "S -> a");
        assert!(g.render_production(p).starts_with("S -> A"));
    }

    #[test]
    fn infinite_later_language_is_not_flagged() {
        // The later alternative derives an infinite language; no exact
        // containment verdict is possible, so nothing is flagged.
        let (g, _, _, t) = setup(|gb| {
            gb.rule("S", &["L"]);
            gb.rule("S", &["a", "S"]);
            gb.rule("L", &["a", "L"]);
            gb.rule("L", &["a"]);
            gb.start("S");
        });
        let info = t.audit(nt(&g, "S")).unwrap();
        assert!(info.shadowed.is_empty(), "{info:?}");
    }

    #[test]
    fn duplicate_rhs_is_not_shadowed() {
        let (g, _, _, t) = setup(|gb| {
            gb.rule("S", &["a"]);
            gb.rule("S", &["a"]);
            gb.start("S");
        });
        assert!(t.audit(nt(&g, "S")).unwrap().shadowed.is_empty());
    }

    #[test]
    fn cert_roundtrip_and_replay() {
        let (g, sf, pr, t) = setup(|gb| {
            gb.rule("S", &["a", "b", "c"]);
            gb.rule("S", &["a", "b", "d"]);
            gb.rule("B", &["x"]);
            gb.rule("B", &["y"]);
            gb.start("S");
        });
        let json = to_cert_json(&g, &t);
        let v = json::parse(&json).unwrap();
        let back = cert_from_json(&g, &v).unwrap();
        assert_eq!(t, back);
        assert!(replay(&g, &sf, &pr, &back));
        // Serialization is deterministic.
        assert_eq!(json, to_cert_json(&g, &back));
    }

    #[test]
    fn replay_rejects_tampered_bounds_and_witnesses() {
        let (g, sf, pr, t) = setup(|gb| {
            gb.rule("S", &["a", "b", "c"]);
            gb.rule("S", &["a", "b", "d"]);
            gb.start("S");
        });
        let x = nt(&g, "S");
        // Inflated k without a matching collide witness.
        let mut bad = t.clone();
        let rows = vec![None; g.num_nonterminals()];
        let mut by_nt = rows.clone();
        let mut info = bad.audit(x).unwrap().clone();
        info.k = info.k.map(|k| k + 1);
        info.pairs[0].k = info.pairs[0].k.map(|k| k + 1);
        by_nt[x.index()] = Some(info);
        bad = AuditTable::from_parts(by_nt);
        assert!(!replay(&g, &sf, &pr, &bad));
        // Deflated k with a consistent (shorter) collide witness. Replay
        // accepts this: sufficiency is a universal property no single
        // witness can refute, so understating a bound is out of static
        // replay's reach by design — the parse-time certificate check
        // (`Event::CertificateCheck`) flags it on the first input that
        // needs more lookahead than the certificate admits.
        let mut by_nt = rows.clone();
        let mut info = t.audit(x).unwrap().clone();
        info.k = Some(1);
        info.pairs[0].k = Some(1);
        info.pairs[0].collide = Some(Vec::new());
        info.pairs[0].resolve = None;
        by_nt[x.index()] = Some(info);
        bad = AuditTable::from_parts(by_nt);
        assert!(replay(&g, &sf, &pr, &bad), "deflation is a runtime matter");
        // Bogus dead claim.
        let mut by_nt = rows.clone();
        let mut info = t.audit(x).unwrap().clone();
        info.dead = vec![info.pairs[0].a];
        by_nt[x.index()] = Some(info);
        bad = AuditTable::from_parts(by_nt);
        assert!(!replay(&g, &sf, &pr, &bad));
        // Bogus shadow claim.
        let mut by_nt = rows;
        let mut info = t.audit(x).unwrap().clone();
        info.shadowed = vec![(info.pairs[0].a, info.pairs[0].b)];
        by_nt[x.index()] = Some(info);
        bad = AuditTable::from_parts(by_nt);
        assert!(!replay(&g, &sf, &pr, &bad));
        // Missing decision row.
        bad = AuditTable::from_parts(vec![None; g.num_nonterminals()]);
        assert!(!replay(&g, &sf, &pr, &bad));
    }

    #[test]
    fn cert_rejects_wrong_schema_and_out_of_bounds() {
        let (g, _, _, t) = setup(|gb| {
            gb.rule("S", &["a"]);
            gb.rule("S", &["b"]);
            gb.start("S");
        });
        let json = to_cert_json(&g, &t);
        let bad = json.replace(CERT_SCHEMA, "costar-cert-v0");
        assert!(cert_from_json(&g, &json::parse(&bad).unwrap()).is_none());
        let bad = json.replace("\"dead\":[]", "\"dead\":[99]");
        assert!(cert_from_json(&g, &json::parse(&bad).unwrap()).is_none());
    }

    #[test]
    fn stats_aggregate() {
        let (g, _, _, t) = setup(|gb| {
            gb.rule("S", &["a", "b", "c"]);
            gb.rule("S", &["a", "b", "d"]);
            gb.rule("B", &["x"]);
            gb.rule("B", &["y"]);
            gb.start("S");
        });
        let s = t.stats();
        assert_eq!(s.decision_points, 2);
        assert_eq!(s.bounded, 2);
        assert_eq!(s.unbounded, 0);
        assert_eq!(s.max_k, 3);
        assert!(s.graph_states >= 2);
        assert_eq!(s.graph_states, t.total_graph_states());
        let _ = nt(&g, "S");
    }
}
