//! Subparser simulation shared by LL and SLL prediction (paper §3.4).
//!
//! A subparser `θ = (γ, Ψ)` (Fig. 1) carries the right-hand side it
//! predicts (identified here by its [`ProdId`]) and a simulated suffix
//! stack. Prediction launches one subparser per alternative and advances
//! them in lockstep: a *closure* phase performs all push/return operations
//! possible without consuming input, then a *move* phase consumes one
//! token and filters the survivors.
//!
//! The simulated stacks are persistent cons lists ([`SimStack`]): pushing
//! shares the tail, so the sub-stacks that subparsers have in common are
//! stored once. The paper notes (§3.5) that CoStar forgoes ANTLR's
//! graph-structured stack; a purely functional implementation naturally
//! gets this tail sharing instead, and we reproduce exactly that.
//!
//! A stack's frames are the machine's own [`SuffixFrame`]s: `Copy`
//! `(production, dot)` locations whose symbols are read through the
//! grammar. Pushing, advancing and returning therefore never touch a
//! refcount on the grammar that concurrent parses share (the cons cells'
//! own `Arc`s are private to one prediction cache), and the canonical
//! order of interned DFA states depends only on production indices and
//! dots.

use crate::budget::{AbortReason, Meter, DEADLINE_CHECK_INTERVAL};
use crate::error::ParseError;
use crate::observe::{Event, ParseObserver};
use crate::state::SuffixFrame;
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, NtSet, ProdId, Symbol, Terminal};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A frame's identity as hashed into [`SimStack`] nodes: its production
/// index (`u32::MAX` for the machine's bottom frame) and dot.
fn frame_key(frame: SuffixFrame) -> (u32, usize) {
    let prod = frame.prod.map_or(u32::MAX, |p| p.index() as u32);
    (prod, frame.dot)
}

#[derive(Debug)]
struct StackNode {
    frame: SuffixFrame,
    tail: SimStack,
    hash: u64,
    depth: usize,
}

/// A persistent (cons-list) simulated suffix stack with O(1) push/pop and
/// precomputed hashes for cheap deduplication.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimStack(Option<Arc<StackNode>>);

impl SimStack {
    /// The empty stack.
    pub fn empty() -> Self {
        SimStack(None)
    }

    /// `true` if the stack has no frames.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Number of frames.
    pub fn depth(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.depth)
    }

    /// Pushes a frame, sharing this stack as the tail.
    pub fn push(&self, frame: SuffixFrame) -> SimStack {
        let tail_hash = self.0.as_ref().map_or(0xcbf2_9ce4_8422_2325, |n| n.hash);
        let (p, d) = frame_key(frame);
        let mut h = tail_hash;
        for v in [p as u64, d as u64] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimStack(Some(Arc::new(StackNode {
            hash: h,
            depth: self.depth() + 1,
            frame,
            tail: self.clone(),
        })))
    }

    /// The top frame, if any.
    pub fn top(&self) -> Option<SuffixFrame> {
        self.0.as_ref().map(|n| n.frame)
    }

    /// The stack below the top frame.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    // Audited: callers only pop after `top()` returned `Some` (the
    // simulation's return step requires a frame to return from), and the
    // contract is documented above.
    #[allow(clippy::disallowed_methods)]
    pub fn pop(&self) -> SimStack {
        self.0
            .as_ref()
            .map(|n| n.tail.clone())
            .expect("pop on empty SimStack")
    }

    /// Replaces the top frame (e.g. to advance its dot after a simulated
    /// return).
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn replace_top(&self, frame: SuffixFrame) -> SimStack {
        self.pop().push(frame)
    }

    fn iter_nodes(&self) -> impl Iterator<Item = SuffixFrame> + '_ {
        let mut cur = self.0.as_deref();
        std::iter::from_fn(move || {
            let node = cur?;
            cur = node.tail.0.as_deref();
            Some(node.frame)
        })
    }
}

impl PartialEq for SimStack {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                if Arc::ptr_eq(a, b) {
                    return true;
                }
                if a.hash != b.hash || a.depth != b.depth {
                    return false;
                }
                self.iter_nodes()
                    .zip(other.iter_nodes())
                    .all(|(x, y)| x == y)
            }
            _ => false,
        }
    }
}
impl Eq for SimStack {}

impl Hash for SimStack {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.as_ref().map_or(0u64, |n| n.hash).hash(state);
    }
}

impl PartialOrd for SimStack {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimStack {
    /// A total order used only to canonicalize config sets before interning
    /// them as DFA states. Frames compare by production index and dot, so
    /// the order depends only on the grammar.
    fn cmp(&self, other: &Self) -> Ordering {
        self.depth()
            .cmp(&other.depth())
            .then_with(|| self.iter_nodes().cmp(other.iter_nodes()))
    }
}

/// The state of one subparser: either a nonempty simulated stack (stable
/// only when its top dot sits before a terminal) or "accepts exactly at
/// end of input".
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SpState {
    /// Can only succeed if the input ends here.
    AcceptEof,
    /// Frames remain to process.
    Stack(SimStack),
}

impl Hash for SpState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            SpState::AcceptEof => 0u8.hash(state),
            SpState::Stack(s) => {
                1u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for SpState {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SpState {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (SpState::AcceptEof, SpState::AcceptEof) => Ordering::Equal,
            (SpState::AcceptEof, SpState::Stack(_)) => Ordering::Less,
            (SpState::Stack(_), SpState::AcceptEof) => Ordering::Greater,
            (SpState::Stack(a), SpState::Stack(b)) => a.cmp(b),
        }
    }
}

/// A subparser configuration: the alternative it predicts plus its state.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Config {
    /// The production this subparser votes for.
    pub alt: ProdId,
    /// Its simulated machine state.
    pub state: SpState,
}

/// Whether a closure runs for LL (full caller context) or SLL
/// (context-free, returning through statically computed stable frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimMode {
    /// Precise simulation over the real machine stack.
    Ll,
    /// Context-insensitive simulation (paper §3.5's stable-frame variant).
    Sll,
}

/// Why a [`closure`] stopped short of its fixed point.
#[derive(Debug)]
pub(crate) enum ClosureStop {
    /// Left recursion, or a corrupt configuration.
    Error(ParseError),
    /// The budget's deadline expired mid-closure.
    Abort(AbortReason),
}

/// Computes the closure of a set of configurations: performs every push
/// and return possible without consuming input, until each surviving
/// subparser is *stable* — its dot sits before a terminal, or it can only
/// accept at end of input.
///
/// Each exploration path carries its own visited set; revisiting a
/// nonterminal on a path without consuming input is exactly a nullable
/// path from the nonterminal to itself, i.e. left recursion, and aborts
/// prediction with `LeftRecursive` (paper §4.1/§5.4 apply the same scheme
/// inside prediction as in the main machine).
///
/// Closure work charges no fuel, but it does watch the clock: every
/// [`DEADLINE_CHECK_INTERVAL`] worklist items it reads the meter's
/// deadline, so one runaway prediction still ends in a typed
/// [`ClosureStop::Abort`]. The read leaves the meter untouched, so a
/// parse that does not abort counts exactly what it counted before.
pub(crate) fn closure<O: ParseObserver>(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    mode: SimMode,
    configs: Vec<Config>,
    meter: &Meter,
    obs: &mut O,
) -> Result<Vec<Config>, ClosureStop> {
    let num_nts = g.num_nonterminals();
    let mut out: Vec<Config> = Vec::new();
    let mut emitted: HashSet<Config> = HashSet::new();
    let mut explored: HashSet<Config> = HashSet::new();
    let mut work: Vec<(ProdId, SimStack, NtSet)> = Vec::new();

    let emit = |out: &mut Vec<Config>, emitted: &mut HashSet<Config>, c: Config| {
        if emitted.insert(c.clone()) {
            out.push(c);
        }
    };

    for c in configs {
        match c.state {
            SpState::AcceptEof => emit(&mut out, &mut emitted, c),
            SpState::Stack(stack) => {
                work.push((c.alt, stack, NtSet::with_capacity(num_nts)));
            }
        }
    }

    let mut until_clock_check = DEADLINE_CHECK_INTERVAL;
    while let Some((alt, stack, mut visited)) = work.pop() {
        obs.on_event(Event::ClosureStep);
        until_clock_check -= 1;
        if until_clock_check == 0 {
            until_clock_check = DEADLINE_CHECK_INTERVAL;
            if let Err(reason) = meter.check_deadline() {
                obs.on_event(Event::Abort { reason });
                return Err(ClosureStop::Abort(reason));
            }
        }
        // Process each distinct (alternative, stack) configuration once:
        // converging derivation paths would otherwise re-explore shared
        // continuations exponentially often.
        if !explored.insert(Config {
            alt,
            state: SpState::Stack(stack.clone()),
        }) {
            continue;
        }
        let Some(top) = stack.top() else {
            // Empty stacks are handled eagerly below; reaching here means a
            // caller passed one in, which the constructors never do.
            debug_assert!(false, "closure saw an empty stack");
            continue;
        };
        match top.head(g) {
            Some(Symbol::T(_)) => {
                // Stable: consuming input is the only way forward.
                emit(
                    &mut out,
                    &mut emitted,
                    Config {
                        alt,
                        state: SpState::Stack(stack),
                    },
                );
            }
            Some(Symbol::Nt(y)) => {
                if visited.contains(y) {
                    return Err(ClosureStop::Error(ParseError::LeftRecursive(y)));
                }
                visited.insert(y);
                // Mirror the machine's push semantics: the caller's dot
                // passes the nonterminal at push time, so a simulated
                // return is a plain pop.
                let base = stack.replace_top(top.advanced());
                for &q in g.alternatives(y) {
                    let pushed = base.push(SuffixFrame::new(q));
                    work.push((alt, pushed, visited.clone()));
                }
            }
            None => {
                // Exhausted frame: simulated return.
                let finished_lhs = top.caller(g);
                let tail = stack.pop();
                if let Some(x) = finished_lhs {
                    visited.remove(x);
                }
                if !tail.is_empty() {
                    // The caller's dot already passed the finished
                    // nonterminal at push time; just resume there.
                    work.push((alt, tail, visited));
                } else {
                    match mode {
                        SimMode::Ll => {
                            // The whole machine stack is consumed: only end
                            // of input can follow.
                            emit(
                                &mut out,
                                &mut emitted,
                                Config {
                                    alt,
                                    state: SpState::AcceptEof,
                                },
                            );
                        }
                        SimMode::Sll => {
                            // Return through the statically computed stable
                            // frames of the finished nonterminal (§3.5).
                            let Some(x) = finished_lhs else {
                                return Err(ClosureStop::Error(ParseError::invalid_state(
                                    "SLL simulation frame has no production label",
                                )));
                            };
                            let dests = analysis.stable_frames.dests(x);
                            for pos in &dests.positions {
                                let frame = SuffixFrame {
                                    prod: Some(pos.production),
                                    dot: pos.dot as usize,
                                };
                                // Stable by construction: the dot precedes
                                // a terminal.
                                emit(
                                    &mut out,
                                    &mut emitted,
                                    Config {
                                        alt,
                                        state: SpState::Stack(SimStack::empty().push(frame)),
                                    },
                                );
                            }
                            if dests.can_end {
                                emit(
                                    &mut out,
                                    &mut emitted,
                                    Config {
                                        alt,
                                        state: SpState::AcceptEof,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// The move (consume) step: keeps the subparsers whose next terminal
/// matches `t`, advancing their dots. `AcceptEof` subparsers die — they
/// needed the input to end.
///
/// # Errors
///
/// Only stable configurations (produced by [`closure`]) are valid inputs;
/// a config with an empty simulated stack indicates internal corruption
/// and is reported as a typed `InvalidState` rather than a panic.
pub(crate) fn move_configs(
    g: &Grammar,
    configs: &[Config],
    t: Terminal,
) -> Result<Vec<Config>, ParseError> {
    let mut out = Vec::new();
    for c in configs {
        if let SpState::Stack(stack) = &c.state {
            let Some(top) = stack.top() else {
                return Err(ParseError::invalid_state(
                    "unstable configuration (empty simulated stack) in move step",
                ));
            };
            if top.head(g) == Some(Symbol::T(t)) {
                out.push(Config {
                    alt: c.alt,
                    state: SpState::Stack(stack.replace_top(top.advanced())),
                });
            }
        }
    }
    Ok(out)
}

/// The distinct alternatives among a config set, ascending.
pub(crate) fn distinct_alts(configs: &[Config]) -> Vec<ProdId> {
    let mut alts: Vec<ProdId> = configs.iter().map(|c| c.alt).collect();
    alts.sort_unstable();
    alts.dedup();
    alts
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::budget::Meter;
    use crate::observe::NullObserver;
    use costar_grammar::GrammarBuilder;
    use std::time::Duration;

    fn setup() -> (Grammar, GrammarAnalysis) {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        (g, an)
    }

    fn initial_configs(g: &Grammar, name: &str, base: &SimStack) -> Vec<Config> {
        let x = g.symbols().lookup_nonterminal(name).unwrap();
        g.alternatives(x)
            .iter()
            .map(|&q| Config {
                alt: q,
                state: SpState::Stack(base.push(SuffixFrame::new(q))),
            })
            .collect()
    }

    #[test]
    fn persistent_stack_sharing_and_equality() {
        let (g, _) = setup();
        let (pid, _) = g.iter().next().unwrap();
        let f = |dot| SuffixFrame {
            prod: Some(pid),
            dot,
        };
        let base = SimStack::empty();
        let s1 = base.push(f(0)).push(f(1));
        let s2 = base.push(f(0)).push(f(1));
        assert_eq!(s1, s2);
        assert_eq!(s1.depth(), 2);
        let popped = s1.pop();
        assert_eq!(popped, base.push(f(0)));
        assert_ne!(s1, popped);
    }

    #[test]
    fn closure_expands_to_stable_configs() {
        let (g, an) = setup();
        // LL closure of S's alternatives over an empty outer context: each
        // expands A, whose alternatives start with terminals a and b.
        let configs = initial_configs(&g, "S", &SimStack::empty());
        let stable = closure(
            &g,
            &an,
            SimMode::Ll,
            configs,
            &Meter::unlimited(),
            &mut NullObserver,
        )
        .unwrap();
        // 2 alternatives x 2 A-expansions = 4 stable configs.
        assert_eq!(stable.len(), 4);
        for c in &stable {
            let SpState::Stack(s) = &c.state else {
                panic!("no EOF-accepting configs expected")
            };
            assert!(matches!(s.top().unwrap().head(&g), Some(Symbol::T(_))));
        }
    }

    #[test]
    fn closure_detects_left_recursion() {
        let mut gb = GrammarBuilder::new();
        gb.rule("E", &["E", "x"]);
        gb.rule("E", &["y"]);
        let g = gb.start("E").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let configs = initial_configs(&g, "E", &SimStack::empty());
        let err = closure(
            &g,
            &an,
            SimMode::Ll,
            configs,
            &Meter::unlimited(),
            &mut NullObserver,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ClosureStop::Error(ParseError::LeftRecursive(_))
        ));
    }

    #[test]
    fn closure_allows_repeated_nonterminal_after_return() {
        // S -> A A x; A -> ε | a. The second A must not be flagged as left
        // recursion after the first A's ε-expansion returns.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "A", "x"]);
        gb.rule("A", &[]);
        gb.rule("A", &["a"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let configs = initial_configs(&g, "S", &SimStack::empty());
        let stable = closure(
            &g,
            &an,
            SimMode::Ll,
            configs,
            &Meter::unlimited(),
            &mut NullObserver,
        )
        .unwrap();
        assert!(!stable.is_empty());
    }

    #[test]
    fn move_filters_and_advances() {
        let (g, an) = setup();
        let configs = initial_configs(&g, "S", &SimStack::empty());
        let stable = closure(
            &g,
            &an,
            SimMode::Ll,
            configs,
            &Meter::unlimited(),
            &mut NullObserver,
        )
        .unwrap();
        let b = g.symbols().lookup_terminal("b").unwrap();
        let moved = move_configs(&g, &stable, b).unwrap();
        // Only the A -> b expansions survive (one per S alternative).
        assert_eq!(moved.len(), 2);
        assert_eq!(distinct_alts(&moved).len(), 2);
    }

    #[test]
    fn sll_empty_stack_returns_via_stable_frames() {
        let (g, an) = setup();
        // Simulate prediction for A in SLL mode with input "b": after
        // consuming b the A -> b subparser's frame is exhausted and its
        // stack empties; it must resume at "S -> A . c" and "S -> A . d".
        let configs = initial_configs(&g, "A", &SimStack::empty());
        let stable = closure(
            &g,
            &an,
            SimMode::Sll,
            configs,
            &Meter::unlimited(),
            &mut NullObserver,
        )
        .unwrap();
        let b = g.symbols().lookup_terminal("b").unwrap();
        let moved = move_configs(&g, &stable, b).unwrap();
        let after = closure(
            &g,
            &an,
            SimMode::Sll,
            moved,
            &Meter::unlimited(),
            &mut NullObserver,
        )
        .unwrap();
        // Two stable resumptions, both for the alternative A -> b.
        assert_eq!(after.len(), 2);
        assert_eq!(distinct_alts(&after).len(), 1);
        for c in &after {
            assert!(matches!(c.state, SpState::Stack(_)));
        }
    }

    #[test]
    fn ll_empty_stack_accepts_eof() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let configs = initial_configs(&g, "S", &SimStack::empty());
        let stable = closure(
            &g,
            &an,
            SimMode::Ll,
            configs,
            &Meter::unlimited(),
            &mut NullObserver,
        )
        .unwrap();
        let a = g.symbols().lookup_terminal("a").unwrap();
        let moved = move_configs(&g, &stable, a).unwrap();
        let after = closure(
            &g,
            &an,
            SimMode::Ll,
            moved,
            &Meter::unlimited(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(after.len(), 1);
        assert!(matches!(after[0].state, SpState::AcceptEof));
    }

    #[test]
    fn closure_reads_the_deadline_without_charging() {
        // One nonterminal with more alternatives than the clock-check
        // interval: its closure alone crosses a check.
        let mut gb = GrammarBuilder::new();
        let names: Vec<String> = (0..=DEADLINE_CHECK_INTERVAL)
            .map(|i| format!("T{i}"))
            .collect();
        for name in &names {
            gb.rule("S", &[name.as_str()]);
        }
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let run = |meter: &Meter| {
            let configs = initial_configs(&g, "S", &SimStack::empty());
            closure(&g, &an, SimMode::Ll, configs, meter, &mut NullObserver)
        };
        let expired = Meter::new(&crate::Budget::unlimited().with_deadline(Duration::ZERO));
        let Err(ClosureStop::Abort(AbortReason::DeadlineExpired { budget_ms: 0 })) = run(&expired)
        else {
            panic!("an expired deadline must stop the closure");
        };
        assert_eq!(expired.steps_taken(), 0, "closure charges no fuel");
        let generous =
            Meter::new(&crate::Budget::unlimited().with_deadline(Duration::from_secs(3600)));
        assert_eq!(run(&generous).unwrap().len(), names.len());
        // A closure shorter than the interval never reads the clock.
        let (g2, an2) = setup();
        let configs = initial_configs(&g2, "S", &SimStack::empty());
        assert!(closure(&g2, &an2, SimMode::Ll, configs, &expired, &mut NullObserver).is_ok());
    }

    #[test]
    fn distinct_alts_deduplicates() {
        let (g, an) = setup();
        let configs = initial_configs(&g, "S", &SimStack::empty());
        let stable = closure(
            &g,
            &an,
            SimMode::Ll,
            configs,
            &Meter::unlimited(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(distinct_alts(&stable).len(), 2);
    }
}
