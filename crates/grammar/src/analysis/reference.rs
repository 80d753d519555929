//! Test-only reference for the static closure engine: the original
//! set-based closure, graph exploration, pair bounds, survivor
//! simulation and stable-frame fixpoint, kept verbatim apart from cap
//! counting so the memoizing engine in `sll_graph` can be checked
//! against it on random grammars.
//!
//! Every configuration here is a cloned `Vec` stack held in a
//! `BTreeSet`, and every closure starts from scratch: slow, but simple
//! enough to read as the specification. The property test at the bottom
//! asserts that `StableFrames`, `DecisionTable`, `AuditTable` and
//! `simulate_survivors` agree exactly with it, that the decision table's
//! select-set conflicts and lookahead maps match a terminal-by-terminal
//! `ll1_selects` loop, that `GrammarAnalysis::compute` (one engine shared
//! by both tables) builds the same tables as the standalone calls, and
//! that every exploration cap fires at least once across the sample.

use crate::analysis::audit::{simulate_survivors, AuditTable};
use crate::analysis::decide::{
    common_word, ConflictPair, DecisionClass, DecisionInfo, DecisionTable, LookaheadMap,
};
use crate::analysis::first_follow::{ll1_selects, FirstSets, FollowSets};
use crate::analysis::nullable::NullableSet;
use crate::analysis::productivity::Productivity;
use crate::analysis::sll_graph::{
    GraphOutcome, GraphReport, MAX_CONFIGS_PER_STATE, MAX_STACK_DEPTH, MAX_STATES, MAX_WORK_ITEMS,
};
use crate::analysis::stable_frames::{Position, StableDests, StableFrames};
use crate::analysis::GrammarAnalysis;
use crate::grammar::{Grammar, GrammarBuilder, ProdId};
use crate::sampler::SplitMix64;
use crate::symbol::{Symbol, Terminal};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The continuation of an abstract subparser configuration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum StaticCont {
    /// The subparser accepts exactly at end of input.
    Eof,
    /// Frames still to process, bottom first (top is the last element).
    Frames(Vec<(ProdId, u32)>),
}

/// An abstract configuration: the alternative it votes for plus its
/// continuation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct StaticConfig {
    alt: ProdId,
    cont: StaticCont,
}

/// Which closure cap stopped a closure.
enum Cap {
    Work,
    Depth,
}

/// How often each exploration cap fired.
#[derive(Debug, Default)]
struct Caps {
    work: usize,
    depth: usize,
    configs: usize,
    states: usize,
}

impl Caps {
    fn closure(&mut self, cap: Cap) {
        match cap {
            Cap::Work => self.work += 1,
            Cap::Depth => self.depth += 1,
        }
    }
}

fn static_closure(
    g: &Grammar,
    sf: &StableFrames,
    init: Vec<StaticConfig>,
    work_budget: &mut usize,
) -> Result<BTreeSet<StaticConfig>, Cap> {
    let mut out: BTreeSet<StaticConfig> = BTreeSet::new();
    let mut visited: BTreeSet<StaticConfig> = BTreeSet::new();
    let mut work: Vec<StaticConfig> = init;

    while let Some(c) = work.pop() {
        if *work_budget == 0 {
            return Err(Cap::Work);
        }
        *work_budget -= 1;
        if !visited.insert(c.clone()) {
            continue;
        }
        let stack = match &c.cont {
            StaticCont::Eof => {
                out.insert(c);
                continue;
            }
            StaticCont::Frames(stack) => stack,
        };
        let Some(&(p, j)) = stack.last() else {
            continue;
        };
        let rhs = g.production(p).rhs();
        if (j as usize) < rhs.len() {
            match rhs[j as usize] {
                Symbol::T(_) => {
                    out.insert(c);
                }
                Symbol::Nt(y) => {
                    let mut base: Vec<(ProdId, u32)> = stack[..stack.len() - 1].to_vec();
                    if (j as usize) + 1 < rhs.len() {
                        base.push((p, j + 1));
                    }
                    for &q in g.alternatives(y) {
                        let mut pushed = base.clone();
                        pushed.push((q, 0));
                        if pushed.len() > MAX_STACK_DEPTH {
                            return Err(Cap::Depth);
                        }
                        work.push(StaticConfig {
                            alt: c.alt,
                            cont: StaticCont::Frames(pushed),
                        });
                    }
                }
            }
        } else {
            let mut tail = stack.clone();
            tail.pop();
            if tail.is_empty() {
                let dests = sf.dests(g.production(p).lhs());
                for pos in &dests.positions {
                    work.push(StaticConfig {
                        alt: c.alt,
                        cont: StaticCont::Frames(vec![(pos.production, pos.dot)]),
                    });
                }
                if dests.can_end {
                    work.push(StaticConfig {
                        alt: c.alt,
                        cont: StaticCont::Eof,
                    });
                }
            } else {
                work.push(StaticConfig {
                    alt: c.alt,
                    cont: StaticCont::Frames(tail),
                });
            }
        }
    }
    Ok(out)
}

fn distinct_alts(state: &BTreeSet<StaticConfig>) -> Vec<ProdId> {
    let mut alts: Vec<ProdId> = state.iter().map(|c| c.alt).collect();
    alts.sort_unstable();
    alts.dedup();
    alts
}

fn has_eof_conflict(state: &BTreeSet<StaticConfig>) -> bool {
    let mut eof_alts: Vec<ProdId> = state
        .iter()
        .filter(|c| c.cont == StaticCont::Eof)
        .map(|c| c.alt)
        .collect();
    eof_alts.sort_unstable();
    eof_alts.dedup();
    eof_alts.len() >= 2
}

fn moves_by_terminal(
    g: &Grammar,
    state: &BTreeSet<StaticConfig>,
) -> BTreeMap<Terminal, Vec<StaticConfig>> {
    let mut by_terminal: BTreeMap<Terminal, Vec<StaticConfig>> = BTreeMap::new();
    for c in state {
        let StaticCont::Frames(stack) = &c.cont else {
            continue;
        };
        let Some(&(p, j)) = stack.last() else {
            continue;
        };
        let Some(Symbol::T(t)) = g.production(p).rhs().get(j as usize).copied() else {
            continue;
        };
        let mut advanced = stack.clone();
        if let Some(top) = advanced.last_mut() {
            top.1 += 1;
        }
        by_terminal.entry(t).or_default().push(StaticConfig {
            alt: c.alt,
            cont: StaticCont::Frames(advanced),
        });
    }
    by_terminal
}

fn initial(alts: &[ProdId]) -> Vec<StaticConfig> {
    alts.iter()
        .map(|&p| StaticConfig {
            alt: p,
            cont: StaticCont::Frames(vec![(p, 0)]),
        })
        .collect()
}

fn explore(g: &Grammar, sf: &StableFrames, alts: &[ProdId], caps: &mut Caps) -> GraphReport {
    let mut work_budget = MAX_WORK_ITEMS;
    let bounded = |states: usize, prefix: Option<Vec<Terminal>>| GraphReport {
        outcome: GraphOutcome::Bounded,
        states,
        distinguishing_prefix: prefix,
    };
    let start = match static_closure(g, sf, initial(alts), &mut work_budget) {
        Ok(s) => s,
        Err(cap) => {
            caps.closure(cap);
            return bounded(0, None);
        }
    };
    let mut ids: BTreeMap<Vec<StaticConfig>, usize> = BTreeMap::new();
    let mut prefixes: Vec<Vec<Terminal>> = Vec::new();
    let mut queue: VecDeque<(usize, BTreeSet<StaticConfig>)> = VecDeque::new();
    ids.insert(start.iter().cloned().collect(), 0);
    prefixes.push(Vec::new());
    queue.push_back((0, start));
    let mut conflict = false;
    let mut distinguishing: Option<Vec<Terminal>> = None;

    while let Some((sid, state)) = queue.pop_front() {
        if state.len() > MAX_CONFIGS_PER_STATE {
            caps.configs += 1;
            return bounded(ids.len(), distinguishing);
        }
        if has_eof_conflict(&state) {
            conflict = true;
        }
        if distinct_alts(&state).len() <= 1 {
            if distinguishing.is_none() {
                distinguishing = Some(prefixes[sid].clone());
            }
            continue;
        }
        for (t, moved) in moves_by_terminal(g, &state) {
            let next = match static_closure(g, sf, moved, &mut work_budget) {
                Ok(s) => s,
                Err(cap) => {
                    caps.closure(cap);
                    return bounded(ids.len(), distinguishing);
                }
            };
            let next_key: Vec<StaticConfig> = next.iter().cloned().collect();
            if ids.contains_key(&next_key) {
                continue;
            }
            if ids.len() >= MAX_STATES {
                caps.states += 1;
                return bounded(ids.len(), distinguishing);
            }
            let next_id = prefixes.len();
            let mut prefix = prefixes[sid].clone();
            prefix.push(t);
            ids.insert(next_key, next_id);
            prefixes.push(prefix);
            queue.push_back((next_id, next));
        }
    }
    GraphReport {
        outcome: if conflict {
            GraphOutcome::Conflict
        } else {
            GraphOutcome::ConflictFree
        },
        states: ids.len(),
        distinguishing_prefix: distinguishing,
    }
}

/// `(k, collide, resolve, states)` of one pair, as `audit.rs` records it.
type PairBound = (
    Option<usize>,
    Option<Vec<Terminal>>,
    Option<Vec<Terminal>>,
    usize,
);

fn pair_bound(g: &Grammar, sf: &StableFrames, a: ProdId, b: ProdId, caps: &mut Caps) -> PairBound {
    let unbounded = |states: usize| (None, None, None, states);
    let mut budget = MAX_WORK_ITEMS;
    let start = match static_closure(g, sf, initial(&[a, b]), &mut budget) {
        Ok(s) => s,
        Err(cap) => {
            caps.closure(cap);
            return unbounded(0);
        }
    };
    let mut ids: BTreeMap<Vec<StaticConfig>, usize> = BTreeMap::new();
    let mut live: Vec<bool> = Vec::new();
    let mut edges: Vec<Vec<(Terminal, usize)>> = Vec::new();
    let mut queue: VecDeque<(usize, BTreeSet<StaticConfig>)> = VecDeque::new();
    ids.insert(start.iter().cloned().collect(), 0);
    live.push(false);
    edges.push(Vec::new());
    queue.push_back((0, start));

    while let Some((sid, state)) = queue.pop_front() {
        if state.len() > MAX_CONFIGS_PER_STATE {
            caps.configs += 1;
            return unbounded(ids.len());
        }
        let is_live = distinct_alts(&state).len() >= 2;
        live[sid] = is_live;
        if !is_live {
            continue;
        }
        if has_eof_conflict(&state) {
            return unbounded(ids.len());
        }
        for (t, moved) in moves_by_terminal(g, &state) {
            let next = match static_closure(g, sf, moved, &mut budget) {
                Ok(s) => s,
                Err(cap) => {
                    caps.closure(cap);
                    return unbounded(ids.len());
                }
            };
            let next_key: Vec<StaticConfig> = next.iter().cloned().collect();
            let next_id = if let Some(&id) = ids.get(&next_key) {
                id
            } else {
                if ids.len() >= MAX_STATES {
                    caps.states += 1;
                    return unbounded(ids.len());
                }
                let id = live.len();
                ids.insert(next_key, id);
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
        return (Some(0), None, None, states);
    }
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
    if topo.len() != (0..n).filter(|&u| live[u]).count() {
        return unbounded(states);
    }
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
    let Some(deepest) = (0..n).filter(|&u| live[u]).max_by_key(|&u| depth[u]) else {
        return unbounded(states);
    };
    let mut collide: Vec<Terminal> = Vec::new();
    let mut cursor = deepest;
    while let Some((prev, t)) = parent[cursor] {
        collide.push(t);
        cursor = prev;
    }
    collide.reverse();
    let resolve = edges[deepest].first().map(|&(t, _)| {
        let mut w = collide.clone();
        w.push(t);
        w
    });
    (Some(depth[deepest] + 1), Some(collide), resolve, states)
}

fn reference_survivors(
    g: &Grammar,
    sf: &StableFrames,
    alts: &[ProdId],
    word: &[Terminal],
) -> Option<Vec<ProdId>> {
    let mut budget = MAX_WORK_ITEMS;
    let mut state = static_closure(g, sf, initial(alts), &mut budget).ok()?;
    for &t in word {
        let moved = moves_by_terminal(g, &state).remove(&t).unwrap_or_default();
        state = static_closure(g, sf, moved, &mut budget).ok()?;
    }
    Some(distinct_alts(&state))
}

fn reference_stable_frames(g: &Grammar, nullable: &NullableSet) -> Vec<StableDests> {
    let num_prods = g.num_productions();
    let mut sf_base = vec![0usize; num_prods + 1];
    for (i, p) in g.productions().iter().enumerate() {
        sf_base[i + 1] = sf_base[i] + p.rhs().len() + 1;
    }
    let sf_index = |p: ProdId, j: usize| sf_base[p.index()] + j;

    #[derive(Default, Clone, PartialEq)]
    struct SetVal {
        positions: BTreeSet<Position>,
        can_end: bool,
    }
    impl SetVal {
        fn union_from(&mut self, other: &SetVal) -> bool {
            let before = (self.positions.len(), self.can_end);
            self.positions.extend(other.positions.iter().copied());
            self.can_end |= other.can_end;
            before != (self.positions.len(), self.can_end)
        }
    }
    let mut sd = vec![SetVal::default(); g.num_nonterminals()];
    let mut sf = vec![SetVal::default(); sf_base[num_prods]];
    let mut fs = vec![SetVal::default(); g.num_nonterminals()];
    sd[g.start().index()].can_end = true;
    for (pid, p) in g.iter() {
        for (j, &s) in p.rhs().iter().enumerate() {
            if s.is_terminal() {
                sf[sf_index(pid, j)].positions.insert(Position {
                    production: pid,
                    dot: j as u32,
                });
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (pid, p) in g.iter() {
            let rhs = p.rhs();
            let src = sd[p.lhs().index()].clone();
            changed |= sf[sf_index(pid, rhs.len())].union_from(&src);
            for (j, &s) in rhs.iter().enumerate().rev() {
                if let Symbol::Nt(z) = s {
                    let src = fs[z.index()].clone();
                    changed |= sf[sf_index(pid, j)].union_from(&src);
                    if nullable.contains(z) {
                        let src = sf[sf_index(pid, j + 1)].clone();
                        changed |= sf[sf_index(pid, j)].union_from(&src);
                    }
                }
            }
            let src = sf[sf_index(pid, 0)].clone();
            changed |= fs[p.lhs().index()].union_from(&src);
            for (i, &s) in rhs.iter().enumerate() {
                if let Symbol::Nt(x) = s {
                    let src = sf[sf_index(pid, i + 1)].clone();
                    changed |= sd[x.index()].union_from(&src);
                }
            }
        }
    }
    sd.into_iter()
        .map(|v| StableDests {
            positions: v.positions.into_iter().collect(),
            can_end: v.can_end,
        })
        .collect()
}

/// The decision table rebuilt from scratch: conflict lookaheads and
/// lookahead maps by testing `ll1_selects` terminal by terminal, and every
/// closure-derived field (distinguishing prefixes, classes of non-LL(1)
/// decisions, graph state counts) by the reference explorer. Ambiguity
/// words never touch either, so they come from the shared `common_word`.
fn reference_decisions(
    g: &Grammar,
    nullable: &NullableSet,
    first: &FirstSets,
    follow: &FollowSets,
    sf: &StableFrames,
    caps: &mut Caps,
) -> DecisionTable {
    let mut rows = Vec::new();
    for x in g.symbols().nonterminals() {
        let alts = g.alternatives(x);
        if alts.len() < 2 {
            rows.push(None);
            continue;
        }
        let rhs = |p: ProdId| g.production(p).rhs();
        let selects = |p: ProdId, t| ll1_selects(rhs(p), t, nullable, first, follow.follow(x));
        let mut conflicts = Vec::new();
        for (i, &a) in alts.iter().enumerate() {
            for &b in &alts[i + 1..] {
                let lookahead = match g
                    .symbols()
                    .terminals()
                    .find(|&t| selects(a, t) && selects(b, t))
                {
                    Some(t) => Some(t),
                    None if nullable.form_nullable(rhs(a)) && nullable.form_nullable(rhs(b)) => {
                        None
                    }
                    None => continue,
                };
                conflicts.push(ConflictPair {
                    a,
                    b,
                    lookahead,
                    distinguishing_prefix: explore(g, sf, &[a, b], caps).distinguishing_prefix,
                    ambiguous_word: common_word(g, a, b),
                });
            }
        }
        let (class, lookahead, graph_states) = if conflicts.is_empty() {
            let mut by_terminal = vec![None; g.num_terminals()];
            let mut eof = None;
            for &p in alts {
                for t in g.symbols().terminals() {
                    if selects(p, t) {
                        by_terminal[t.index()] = Some(p);
                    }
                }
                if nullable.form_nullable(rhs(p)) {
                    eof = Some(p);
                }
            }
            let map = LookaheadMap::from_parts(by_terminal, eof);
            (DecisionClass::Ll1, Some(map), 0)
        } else {
            let report = explore(g, sf, alts, caps);
            let class = match report.outcome {
                GraphOutcome::ConflictFree => DecisionClass::SllSafe,
                GraphOutcome::Conflict | GraphOutcome::Bounded => DecisionClass::NeedsFullAllStar,
            };
            (class, None, report.states)
        };
        rows.push(Some(DecisionInfo {
            nonterminal: x,
            class,
            alternatives: alts.len(),
            lookahead,
            conflicts,
            graph_states,
        }));
    }
    DecisionTable::from_parts(rows)
}

/// `table` with every pair bound, witness and state count recomputed by
/// the reference pair graphs. Dead and shadowed verdicts never touch the
/// closure engine.
fn reference_audit(
    g: &Grammar,
    sf: &StableFrames,
    table: &AuditTable,
    caps: &mut Caps,
) -> AuditTable {
    let mut rows: Vec<_> = g
        .symbols()
        .nonterminals()
        .map(|x| table.audit(x).cloned())
        .collect();
    for info in rows.iter_mut().flatten() {
        info.graph_states = 0;
        info.k = Some(0);
        for pa in &mut info.pairs {
            let (k, collide, resolve, states) = pair_bound(g, sf, pa.a, pa.b, caps);
            (pa.k, pa.collide, pa.resolve) = (k, collide, resolve);
            info.graph_states += states;
            info.k = info.k.zip(k).map(|(acc, pk)| acc.max(pk));
        }
    }
    AuditTable::from_parts(rows)
}

/// A random grammar: up to 8 nonterminals, 6 terminals, 4 alternatives
/// each, right-hand sides of at most 5 symbols. Nothing stops left
/// recursion, and nonterminal-heavy right-hand sides are common enough to
/// drive the closures into every cap.
fn random_grammar(rng: &mut SplitMix64) -> Grammar {
    let mut gb = GrammarBuilder::new();
    let nts: Vec<_> = (0..1 + rng.below(8))
        .map(|i| gb.nonterminal(&format!("n{i}")))
        .collect();
    let ts: Vec<_> = (0..1 + rng.below(6))
        .map(|i| gb.terminal(&format!("t{i}")))
        .collect();
    // Per grammar, how likely a symbol is a nonterminal (1..=3 in 4), and
    // whether nonterminals may only call later ones. Acyclic grammars
    // never reach the depth cap, so their closures can branch until the
    // work cap stops them.
    let nt_weight = 1 + rng.below(3);
    let acyclic = rng.below(4) == 0;
    for (i, &x) in nts.iter().enumerate() {
        let callees = if acyclic { &nts[i + 1..] } else { &nts[..] };
        for _ in 0..1 + rng.below(4) {
            let rhs = (0..rng.below(6))
                .map(|_| {
                    if !callees.is_empty() && rng.below(4) < nt_weight {
                        Symbol::Nt(callees[rng.below(callees.len())])
                    } else {
                        Symbol::T(ts[rng.below(ts.len())])
                    }
                })
                .collect();
            gb.rule_syms(x, rhs);
        }
    }
    gb.start_sym(nts[0]);
    gb.build().expect("every nonterminal has an alternative")
}

/// Runs the engine-vs-reference comparison over `grammars` random
/// grammars drawn from `seed`, returning how often each cap fired.
fn compare_on_random_grammars(seed: u64, grammars: usize) -> Caps {
    let mut rng = SplitMix64::new(seed);
    let mut caps = Caps::default();
    for case in 0..grammars {
        let g = random_grammar(&mut rng);
        let nullable = NullableSet::compute(&g);
        let first = FirstSets::compute(&g, &nullable);
        let follow = FollowSets::compute(&g, &nullable, &first);
        let productivity = Productivity::compute(&g);
        let sf = StableFrames::compute(&g, &nullable);
        assert_eq!(
            sf.all_dests(),
            &reference_stable_frames(&g, &nullable)[..],
            "case {case}: stable frames"
        );

        let decisions = DecisionTable::compute(&g, &nullable, &first, &follow, &sf);
        let audit = AuditTable::compute(&g, &sf, &productivity);
        assert_eq!(
            decisions,
            reference_decisions(&g, &nullable, &first, &follow, &sf, &mut caps),
            "case {case}: decision table"
        );
        assert_eq!(
            audit,
            reference_audit(&g, &sf, &audit, &mut caps),
            "case {case}: audit table"
        );
        // The bundle runs both tables on one shared closure engine; that
        // must change nothing.
        let bundle = GrammarAnalysis::compute(&g);
        assert_eq!(
            bundle.decisions, decisions,
            "case {case}: bundled decisions"
        );
        assert_eq!(bundle.audit, audit, "case {case}: bundled audit");

        for x in g.symbols().nonterminals() {
            let alts = g.alternatives(x);
            // A random non-empty selection of the alternatives, sometimes
            // with repeats, and a random word over the terminals.
            let picked: Vec<ProdId> = (0..1 + rng.below(alts.len() + 1))
                .map(|_| alts[rng.below(alts.len())])
                .collect();
            let word: Vec<Terminal> = (0..rng.below(6))
                .map(|_| Terminal::from_index(rng.below(g.num_terminals())))
                .collect();
            assert_eq!(
                simulate_survivors(&g, &sf, &picked, &word),
                reference_survivors(&g, &sf, &picked, &word),
                "case {case}: survivors of {picked:?} after {word:?}"
            );
        }
    }
    caps
}

#[test]
fn closure_engine_matches_reference_on_random_grammars() {
    let caps = compare_on_random_grammars(0x00C1_050E, 120);
    assert!(caps.work > 0, "work cap never fired: {caps:?}");
    assert!(caps.depth > 0, "depth cap never fired: {caps:?}");
    assert!(caps.configs > 0, "config cap never fired: {caps:?}");
    assert!(caps.states > 0, "state cap never fired: {caps:?}");
}
