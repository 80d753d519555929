//! Static SLL closure graph: a grammar-time subset construction over the
//! abstract configurations an SLL prediction can reach.
//!
//! The parse-time SLL engine (paper §3.4/§3.5) simulates one subparser
//! per alternative over the *actual* remaining input, returning through
//! the statically computed stable frames when a simulated stack empties.
//! This module runs the same simulation symbolically over *all possible*
//! inputs: states are canonical sets of abstract configurations, and
//! transitions are labeled by the terminal consumed. The resulting graph
//! answers, entirely at grammar-compile time, the question "can SLL
//! prediction for this decision nonterminal ever report a conflict?" —
//! the property the `SllSafe` decision class certifies.
//!
//! ## Abstraction and soundness
//!
//! An abstract configuration carries the alternative it votes for and a
//! continuation: either `Eof` (the subparser accepts exactly at end of
//! input) or a stack of `(production, dot)` frames. Two deliberate
//! over-approximations keep the graph finite where the concrete
//! simulation's state space is not:
//!
//! * **Tail-call elision.** When a caller frame's dot passes the last
//!   symbol of its right-hand side at push time, the frame is dropped
//!   instead of kept. A configuration that later empties its stack then
//!   returns through the stable destinations of the *pushed* nonterminal
//!   `Y` rather than of the dropped caller's left-hand side `Z`. This is
//!   sound because `SD[Y] ⊇ SF[p, |rhs(p)|] ⊇ SD[Z]` (the caller and
//!   return constraints of the stable-frame fixpoint): the elided
//!   configuration set is a superset of the concrete one. Elision is what
//!   keeps right-recursive grammars — whose concrete simulated stacks
//!   grow with input length — finite-state here.
//! * **Exploration caps.** Left recursion and pathological grammars can
//!   still blow the graph up; bounded exploration reports
//!   [`GraphOutcome::Bounded`], which callers treat as "not provably
//!   safe" — never as "safe".
//!
//! Because every concrete reachable configuration set is covered by an
//! abstract reachable state, a graph with no conflicting state proves the
//! parse-time engine can never take the LL failover path for this
//! decision. The converse does not hold: a conflicting *abstract* state
//! may be unreachable concretely, so `Conflict` only means "not provably
//! safe".
//!
//! ## The engine: interned stacks and per-alternative parts
//!
//! [`Automata`] computes every closure of one analysis pass (a decision
//! table, an audit table, a certificate replay) and memoizes them:
//!
//! * **Hash-consed stacks.** A frame stack is an interned id naming its
//!   top frame and the id of the stack below, so a push or a return is
//!   one table lookup and a configuration is one `u32`. One-frame stacks,
//!   the most common kind, are numbered densely up front and need no
//!   lookup, which also interns every return destination.
//! * **Parts.** The alternative tag of a configuration is inert: no
//!   closure or move step reads it, so configurations of different
//!   alternatives never interact. The state of a set of alternatives
//!   after a word is therefore the tuple of each alternative's own state,
//!   its *part* (an interned, sorted set of configurations). The engine
//!   memoizes each alternative's start part and each part's successor on
//!   a terminal, so a pair graph of the audit reuses every closure the
//!   other pairs of the same alternatives already computed.
//! * **Exact cap accounting.** Each memoized closure stores its work:
//!   the number of work items it popped, duplicates included. That count
//!   depends only on the configurations closed, not on the order they
//!   are processed in, so closing a tuple costs the sum of its parts'
//!   work, charged against the same per-exploration budget as before. The
//!   depth cap fires exactly when some part's closure reaches a too-deep
//!   push, the configuration cap compares the summed part sizes, and the
//!   state cap counts distinct tuples (a tuple and its configuration set
//!   determine each other). Every exploration therefore hits the same
//!   caps at the same states as a closure over the whole set would.

use crate::analysis::stable_frames::StableFrames;
use crate::grammar::{Grammar, ProdId};
use crate::symbol::{Symbol, Terminal};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Exploration caps: exceeding any of them yields [`GraphOutcome::Bounded`].
pub(crate) const MAX_STATES: usize = 256;
pub(crate) const MAX_STACK_DEPTH: usize = 32;
pub(crate) const MAX_CONFIGS_PER_STATE: usize = 512;
pub(crate) const MAX_WORK_ITEMS: usize = 100_000;

/// What exploring the closure graph established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GraphOutcome {
    /// Every reachable state was enumerated and none lets two
    /// alternatives accept end of input: SLL prediction provably never
    /// conflicts for this decision.
    ConflictFree,
    /// Some reachable abstract state has end-of-input configurations for
    /// at least two alternatives — a potential SLL conflict.
    Conflict,
    /// An exploration cap was hit first; safety is unknown.
    Bounded,
}

/// The result of exploring one decision point's closure graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GraphReport {
    /// What the exploration established.
    pub outcome: GraphOutcome,
    /// Number of distinct subset states enumerated.
    pub states: usize,
    /// The terminal word labeling the shortest path (in BFS order) to a
    /// state where at most one alternative survives — a distinguishing
    /// prefix under the SLL abstraction. `None` when no such state was
    /// reached within the caps.
    pub distinguishing_prefix: Option<Vec<Terminal>>,
}

/// Signals an exploration cap was exceeded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapHit;

/// An interned part: one alternative's configuration set.
pub(crate) type PartId = u32;

/// The part of an alternative that no longer survives.
pub(crate) const EMPTY_PART: PartId = 0;

/// The configuration id of the `Eof` continuation. Stack ids start at 1,
/// so id 0 doubles as "no stack below" and its depth is 0.
const EOF: u32 = 0;
const NO_STACK: u32 = 0;

/// One interned stack: its top frame and the stack below it.
#[derive(Debug, Clone, Copy)]
struct Frame {
    prod: ProdId,
    dot: u32,
    below: u32,
    depth: usize,
}

/// One interned part with its memoized moves.
#[derive(Debug)]
struct Part {
    /// Configuration ids, ascending (so `Eof` comes first when present);
    /// shared with the interning map's key.
    configs: Rc<[u32]>,
    /// The distinct terminals the part can consume, ascending.
    terms: Box<[Terminal]>,
    /// The memoized successor on each of `terms`, once computed.
    succ: Box<[Option<Result<Step, CapHit>>]>,
}

/// A memoized closure: the part it produced and the work it popped.
#[derive(Debug, Clone, Copy)]
struct Step {
    part: PartId,
    work: usize,
}

/// The memoizing closure engine of one analysis pass (see the module
/// docs): interned stacks, interned parts, and each alternative's start
/// part and each part's successors computed at most once.
pub(crate) struct Automata<'g> {
    g: &'g Grammar,
    frames: Vec<Frame>,
    /// Bottom frames (nothing below) are allocated up front: the id of
    /// `(p, dot)` is `bottom[p] + dot`. Deeper stacks are hash-consed.
    bottom: Vec<u32>,
    frame_ids: HashMap<(ProdId, u32, u32), u32>,
    /// Per nonterminal: the configurations an emptied stack returns to.
    returns: Vec<Box<[u32]>>,
    parts: Vec<Part>,
    part_ids: HashMap<Rc<[u32]>, PartId>,
    starts: Vec<Option<Result<Step, CapHit>>>,
    /// Closure scratch: epoch marks indexed by configuration id, the work
    /// stack, and the stable configurations found.
    marks: Vec<u32>,
    epoch: u32,
    work: Vec<u32>,
    out: Vec<u32>,
}

impl<'g> Automata<'g> {
    /// An engine for `g` whose emptied stacks return through `sf`.
    pub(crate) fn new(g: &'g Grammar, sf: &StableFrames) -> Self {
        let mut auto = Automata {
            g,
            frames: vec![Frame {
                prod: ProdId(0),
                dot: 0,
                below: NO_STACK,
                depth: 0,
            }],
            bottom: Vec::with_capacity(g.num_productions()),
            frame_ids: HashMap::new(),
            returns: Vec::with_capacity(g.num_nonterminals()),
            parts: Vec::new(),
            part_ids: HashMap::new(),
            starts: vec![None; g.num_productions()],
            marks: Vec::new(),
            epoch: 0,
            work: Vec::new(),
            out: Vec::new(),
        };
        auto.intern_part(); // the empty part becomes `EMPTY_PART`
        for (prod, p) in g.iter() {
            auto.bottom.push(auto.frames.len() as u32);
            for dot in 0..=p.rhs().len() as u32 {
                auto.frames.push(Frame {
                    prod,
                    dot,
                    below: NO_STACK,
                    depth: 1,
                });
            }
        }
        for x in g.symbols().nonterminals() {
            let dests = sf.dests(x);
            let mut configs: Vec<u32> = dests
                .positions
                .iter()
                .map(|pos| auto.frame(pos.production, pos.dot, NO_STACK))
                .collect();
            if dests.can_end {
                configs.push(EOF);
            }
            auto.returns.push(configs.into());
        }
        auto
    }

    /// The interned stack `(prod, dot)` on top of `below`.
    fn frame(&mut self, prod: ProdId, dot: u32, below: u32) -> u32 {
        if below == NO_STACK {
            return self.bottom[prod.index()] + dot;
        }
        if let Some(&id) = self.frame_ids.get(&(prod, dot, below)) {
            return id;
        }
        let id = self.frames.len() as u32;
        let depth = self.frames[below as usize].depth + 1;
        self.frames.push(Frame {
            prod,
            dot,
            below,
            depth,
        });
        self.frame_ids.insert((prod, dot, below), id);
        id
    }

    /// The terminal configuration `c` is about to consume (`None` for
    /// `Eof`).
    fn next_terminal(&self, c: u32) -> Option<Terminal> {
        if c == EOF {
            return None;
        }
        let f = self.frames[c as usize];
        match self.g.production(f.prod).rhs().get(f.dot as usize) {
            Some(&Symbol::T(t)) => Some(t),
            _ => None,
        }
    }

    /// Interns the sorted configuration set in `self.out` as a part.
    fn intern_part(&mut self) -> PartId {
        if let Some(&id) = self.part_ids.get(&self.out[..]) {
            return id;
        }
        let configs: Rc<[u32]> = self.out.as_slice().into();
        let mut terms: Vec<Terminal> = configs
            .iter()
            .filter_map(|&c| self.next_terminal(c))
            .collect();
        terms.sort_unstable();
        terms.dedup();
        let id = self.parts.len() as PartId;
        self.part_ids.insert(configs.clone(), id);
        self.parts.push(Part {
            configs,
            succ: vec![None; terms.len()].into(),
            terms: terms.into(),
        });
        id
    }

    /// Closure of the configurations on the work stack: performs every
    /// abstract push and return possible without consuming input, keeping
    /// the stable configurations (top dot before a terminal, or `Eof`).
    /// Fails when it pops more than [`MAX_WORK_ITEMS`] items or a push
    /// would exceed [`MAX_STACK_DEPTH`].
    fn close(&mut self) -> Result<Step, CapHit> {
        if self.epoch == u32::MAX {
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.out.clear();
        let g = self.g;
        let mut popped = 0usize;
        while let Some(c) = self.work.pop() {
            popped += 1;
            if popped > MAX_WORK_ITEMS {
                self.work.clear();
                return Err(CapHit);
            }
            let ci = c as usize;
            if ci >= self.marks.len() {
                self.marks.resize(self.frames.len(), 0);
            }
            if self.marks[ci] == self.epoch {
                continue;
            }
            self.marks[ci] = self.epoch;
            if c == EOF {
                self.out.push(c);
                continue;
            }
            let Frame {
                prod, dot, below, ..
            } = self.frames[ci];
            let rhs = g.production(prod).rhs();
            match rhs.get(dot as usize) {
                // Stable: consuming input is the only way forward.
                Some(Symbol::T(_)) => self.out.push(c),
                Some(&Symbol::Nt(y)) => {
                    // Abstract push with tail-call elision: advance the
                    // caller's dot past `y`, dropping the frame when that
                    // exhausts it.
                    let base = if dot as usize + 1 < rhs.len() {
                        self.frame(prod, dot + 1, below)
                    } else {
                        below
                    };
                    let alts = g.alternatives(y);
                    if !alts.is_empty() && self.frames[base as usize].depth + 1 > MAX_STACK_DEPTH {
                        self.work.clear();
                        return Err(CapHit);
                    }
                    for &q in alts {
                        let pushed = self.frame(q, 0, base);
                        self.work.push(pushed);
                    }
                }
                // Exhausted top frame: abstract return, out of the
                // decision context through the finished nonterminal's
                // stable destinations (paper §3.5) when no frame is left.
                None if below == NO_STACK => {
                    let lhs = g.production(prod).lhs();
                    self.work.extend_from_slice(&self.returns[lhs.index()]);
                }
                None => self.work.push(below),
            }
        }
        self.out.sort_unstable();
        Ok(Step {
            part: self.intern_part(),
            work: popped,
        })
    }

    /// The start part of alternative `alt`: the closure of `(alt, 0)`.
    fn start(&mut self, alt: ProdId) -> Result<Step, CapHit> {
        if let Some(step) = self.starts[alt.index()] {
            return step;
        }
        self.work.clear();
        let init = self.frame(alt, 0, NO_STACK);
        self.work.push(init);
        let step = self.close();
        self.starts[alt.index()] = Some(step);
        step
    }

    /// The successor of `part` on `t`: move every configuration about to
    /// consume `t` past it, then close.
    fn step(&mut self, part: PartId, t: Terminal) -> Result<Step, CapHit> {
        let Ok(slot) = self.parts[part as usize].terms.binary_search(&t) else {
            return Ok(Step {
                part: EMPTY_PART,
                work: 0,
            });
        };
        if let Some(step) = self.parts[part as usize].succ[slot] {
            return step;
        }
        self.work.clear();
        for i in 0..self.parts[part as usize].configs.len() {
            let c = self.parts[part as usize].configs[i];
            if self.next_terminal(c) == Some(t) {
                let f = self.frames[c as usize];
                let moved = self.frame(f.prod, f.dot + 1, f.below);
                self.work.push(moved);
            }
        }
        let step = self.close();
        self.parts[part as usize].succ[slot] = Some(step);
        step
    }

    /// Fills `parts` with the start part of each of `alts`, charging the
    /// closures' summed work against `budget`.
    pub(crate) fn start_parts(
        &mut self,
        alts: &[ProdId],
        parts: &mut [PartId],
        budget: &mut usize,
    ) -> Result<(), CapHit> {
        let mut work = 0;
        for (slot, &alt) in parts.iter_mut().zip(alts) {
            let step = self.start(alt)?;
            *slot = step.part;
            work += step.work;
        }
        charge(budget, work)
    }

    /// Advances every part of a tuple on terminal `t`, charging the
    /// closures' summed work against `budget`.
    pub(crate) fn advance(
        &mut self,
        parts: &mut [PartId],
        t: Terminal,
        budget: &mut usize,
    ) -> Result<(), CapHit> {
        let mut work = 0;
        for slot in parts.iter_mut() {
            let step = self.step(*slot, t)?;
            *slot = step.part;
            work += step.work;
        }
        charge(budget, work)
    }

    /// Fills `parts` with the state of `alts` after `word`: the start
    /// parts, advanced on each terminal in turn.
    pub(crate) fn walk(
        &mut self,
        alts: &[ProdId],
        parts: &mut [PartId],
        word: &[Terminal],
        budget: &mut usize,
    ) -> Result<(), CapHit> {
        self.start_parts(alts, parts, budget)?;
        for &t in word {
            self.advance(parts, t, budget)?;
        }
        Ok(())
    }

    /// Number of configurations in a tuple's state.
    pub(crate) fn configs(&self, parts: &[PartId]) -> usize {
        parts
            .iter()
            .map(|&p| self.parts[p as usize].configs.len())
            .sum()
    }

    /// Number of alternatives still surviving in a tuple's state.
    pub(crate) fn survivors(parts: &[PartId]) -> usize {
        parts.iter().filter(|&&p| p != EMPTY_PART).count()
    }

    /// Do two or more alternatives accept end of input in a tuple's
    /// state? This is precisely the condition under which the parse-time
    /// engine's end-of-input resolution reports a conflict and fails over
    /// to LL.
    pub(crate) fn eof_conflict(&self, parts: &[PartId]) -> bool {
        parts
            .iter()
            .filter(|&&p| self.parts[p as usize].configs.first() == Some(&EOF))
            .count()
            >= 2
    }

    /// The terminals some part of a tuple can consume, ascending.
    pub(crate) fn terminals(&self, parts: &[PartId]) -> Vec<Terminal> {
        let mut terms: Vec<Terminal> = parts
            .iter()
            .flat_map(|&p| self.parts[p as usize].terms.iter().copied())
            .collect();
        terms.sort_unstable();
        terms.dedup();
        terms
    }

    /// Explores the closure graph for deciding among `alts` (distinct
    /// alternatives of the decision nonterminal). BFS over subset states:
    /// the first state reached with at most one surviving alternative
    /// labels the distinguishing prefix; any state with an end-of-input
    /// conflict settles the outcome as [`GraphOutcome::Conflict`].
    pub(crate) fn explore(&mut self, alts: &[ProdId]) -> GraphReport {
        let bounded = |states: usize, prefix: Option<Vec<Terminal>>| GraphReport {
            outcome: GraphOutcome::Bounded,
            states,
            distinguishing_prefix: prefix,
        };
        let mut budget = MAX_WORK_ITEMS;
        let mut start = vec![EMPTY_PART; alts.len()];
        if self.start_parts(alts, &mut start, &mut budget).is_err() {
            return bounded(0, None);
        }

        // Subset states, interned by their part tuple. Each state
        // remembers the terminal word of its (BFS-shortest) discovery path.
        let mut ids: HashMap<Vec<PartId>, usize> = HashMap::new();
        let mut prefixes: Vec<Vec<Terminal>> = vec![Vec::new()];
        let mut queue: VecDeque<(usize, Vec<PartId>)> = VecDeque::new();
        ids.insert(start.clone(), 0);
        queue.push_back((0, start));

        let mut conflict = false;
        let mut distinguishing: Option<Vec<Terminal>> = None;

        while let Some((sid, state)) = queue.pop_front() {
            if self.configs(&state) > MAX_CONFIGS_PER_STATE {
                return bounded(ids.len(), distinguishing);
            }
            if self.eof_conflict(&state) {
                conflict = true;
            }
            if Self::survivors(&state) <= 1 {
                // The parse-time engine commits (or rejects) here without
                // reading further input: record the prefix, prune successors.
                if distinguishing.is_none() {
                    distinguishing = Some(prefixes[sid].clone());
                }
                continue;
            }
            for t in self.terminals(&state) {
                let mut next = state.clone();
                if self.advance(&mut next, t, &mut budget).is_err() {
                    return bounded(ids.len(), distinguishing);
                }
                if ids.contains_key(&next) {
                    continue;
                }
                if ids.len() >= MAX_STATES {
                    return bounded(ids.len(), distinguishing);
                }
                let next_id = prefixes.len();
                let mut prefix = prefixes[sid].clone();
                prefix.push(t);
                ids.insert(next.clone(), next_id);
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
}

/// Deducts `work` from `budget`, failing when the budget cannot cover it.
fn charge(budget: &mut usize, work: usize) -> Result<(), CapHit> {
    *budget = budget.checked_sub(work).ok_or(CapHit)?;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::analysis::nullable::NullableSet;
    use crate::grammar::GrammarBuilder;

    fn setup(build: impl FnOnce(&mut GrammarBuilder)) -> (Grammar, StableFrames) {
        let mut gb = GrammarBuilder::new();
        build(&mut gb);
        let g = gb.build().unwrap();
        let n = NullableSet::compute(&g);
        let sf = StableFrames::compute(&g, &n);
        (g, sf)
    }

    fn report(g: &Grammar, sf: &StableFrames, name: &str) -> GraphReport {
        let x = g.symbols().lookup_nonterminal(name).unwrap();
        Automata::new(g, sf).explore(g.alternatives(x))
    }

    #[test]
    fn fig2_decision_is_conflict_free() {
        // Paper Fig. 2: S -> A c | A d is not LL(1), but SLL prediction
        // always resolves it (the c/d suffix separates the alternatives),
        // so the graph must be conflict-free despite the right recursion
        // in A (tail-call elision keeps it finite).
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["A", "c"]);
            gb.rule("S", &["A", "d"]);
            gb.rule("A", &["a", "A"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        let r = report(&g, &sf, "S");
        assert_eq!(r.outcome, GraphOutcome::ConflictFree, "{r:?}");
        assert!(r.states >= 2);
        // A shortest distinguishing prefix exists: e.g. "b c" resolves to
        // the first alternative after two tokens.
        let prefix = r.distinguishing_prefix.expect("fig2 S is resolvable");
        assert!(!prefix.is_empty());
    }

    #[test]
    fn genuinely_ambiguous_decision_conflicts() {
        // Paper Fig. 6: S -> X | Y; X -> a; Y -> a. Both alternatives
        // accept EOF after "a": the conflict state is reachable.
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["X"]);
            gb.rule("S", &["Y"]);
            gb.rule("X", &["a"]);
            gb.rule("Y", &["a"]);
            gb.start("S");
        });
        let r = report(&g, &sf, "S");
        assert_eq!(r.outcome, GraphOutcome::Conflict, "{r:?}");
    }

    #[test]
    fn sll_context_merge_conflict_detected() {
        // The SLL-conflict grammar from the core prediction tests: merged
        // contexts let both X alternatives survive to EOF on "a a b".
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["p", "C1"]);
            gb.rule("S", &["q", "C2"]);
            gb.rule("C1", &["X", "b"]);
            gb.rule("C2", &["X", "a", "b"]);
            gb.rule("X", &["a", "a"]);
            gb.rule("X", &["a"]);
            gb.start("S");
        });
        let r = report(&g, &sf, "X");
        assert_eq!(r.outcome, GraphOutcome::Conflict, "{r:?}");
        // The top-level S decision (p vs q) stays conflict-free.
        let r = report(&g, &sf, "S");
        assert_eq!(r.outcome, GraphOutcome::ConflictFree, "{r:?}");
    }

    #[test]
    fn left_recursion_is_bounded_not_safe() {
        let (g, sf) = setup(|gb| {
            gb.rule("E", &["E", "x"]);
            gb.rule("E", &["y"]);
            gb.start("E");
        });
        let r = report(&g, &sf, "E");
        assert_eq!(r.outcome, GraphOutcome::Bounded, "{r:?}");
    }

    #[test]
    fn pair_exploration_yields_distinguishing_prefix() {
        // Exploring just the fig2 S pair gives the shortest prefix after
        // which one alternative remains: one of "b c" / "b d" families —
        // the first resolved state in BFS order.
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["A", "c"]);
            gb.rule("S", &["A", "d"]);
            gb.rule("A", &["a", "A"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let alts = g.alternatives(s);
        let r = Automata::new(&g, &sf).explore(alts);
        let prefix = r.distinguishing_prefix.unwrap();
        // The prefix must end in the separating c or d.
        let last = *prefix.last().unwrap();
        let name = g.symbols().terminal_name(last);
        assert!(name == "c" || name == "d", "{name}");
    }

    #[test]
    fn right_recursion_stays_finite() {
        // rlist: S -> a S | e. Concrete simulated stacks grow with input
        // length; elision must keep the abstract graph small.
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["a", "S"]);
            gb.rule("S", &["e"]);
            gb.start("S");
        });
        let r = report(&g, &sf, "S");
        assert_eq!(r.outcome, GraphOutcome::ConflictFree, "{r:?}");
        assert!(r.states <= 8, "expected a small graph, got {}", r.states);
    }

    #[test]
    fn parts_and_stacks_are_shared_across_explorations() {
        // Exploring the pair and then the whole decision reuses the
        // memoized start parts: the second run interns no new part for
        // the alternatives the first already closed.
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["A", "c"]);
            gb.rule("S", &["A", "d"]);
            gb.rule("S", &["e"]);
            gb.rule("A", &["a", "A"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let alts = g.alternatives(s);
        let mut auto = Automata::new(&g, &sf);
        let pair = auto.explore(&alts[..2]);
        let parts_after_pair = auto.parts.len();
        assert_eq!(auto.explore(&alts[..2]), pair, "memoized rerun");
        assert_eq!(auto.parts.len(), parts_after_pair);
        // Identical stacks are one id.
        let a = auto.frame(alts[0], 1, NO_STACK);
        assert_eq!(a, auto.frame(alts[0], 1, NO_STACK));
        assert_eq!(auto.frames[a as usize].depth, 1);
    }
}
