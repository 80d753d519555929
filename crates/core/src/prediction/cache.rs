//! The SLL prediction cache `Δ` (paper §2, §3.4), with bounded capacity.
//!
//! `adaptivePredict` caches each SLL analysis step as a transition in a
//! DFA whose states are canonical sets of subparser configurations. Before
//! performing an analysis step, SLL prediction consults the cache; on a
//! miss it computes the step (move + closure) and records the transition.
//! This memoization is what makes ALL(*) fast in practice.
//!
//! CoStar as published rebuilds the cache for every input; ANTLR reuses it
//! across inputs (the effect measured in the paper's Fig. 11). This
//! implementation supports both policies — see
//! [`Parser`](crate::Parser) — by making the cache an explicit value.
//!
//! ## Bounded capacity
//!
//! An adversarial grammar/input pair can mint DFA states without bound
//! (the ALL(*) DFA is worst-case exponential in the grammar). The cache
//! therefore supports caps on entries and approximate bytes
//! ([`SllCache::set_capacity`], usually configured through a
//! [`Budget`](crate::Budget)): when a cap is exceeded, least-recently-used
//! states are evicted together with every transition and start-state
//! pointer that mentions them. Eviction is *safe by construction* — the
//! cache is a pure memo of derivable analysis, so the only cost of losing
//! an entry is re-deriving it on the next miss. The
//! [`CacheStats::evictions`] counter and the hit/miss counters make the
//! degradation observable.
//!
//! States in active use by an in-flight prediction are passed as a
//! protection set to [`SllCache::intern_protected`] and are never chosen
//! as victims, so a live `StateId` always resolves.

use crate::prediction::sim::{distinct_alts, Config, SpState};
use costar_grammar::{NonTerminal, ProdId, Terminal};
use std::collections::HashMap;
use std::mem;
use std::sync::Arc;

#[cfg(feature = "faults")]
use crate::faults::FaultPlan;

/// Identifier of an interned DFA state. Ids are minted from a monotonic
/// counter and never reused, so a stale id can never alias a newer state
/// after eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StateId(pub(crate) u32);

/// What an interned state already tells us without reading more input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolution {
    /// Every surviving subparser votes for this alternative.
    Unique(ProdId),
    /// No subparser survives.
    Reject,
    /// Multiple alternatives still compete; more input is needed.
    Pending,
}

/// What the state resolves to if the input ends here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EofResolution {
    /// Exactly one alternative accepts at end of input.
    Unique(ProdId),
    /// No alternative accepts at end of input.
    Reject,
    /// Several alternatives accept: an SLL conflict — fail over to LL
    /// (paper §3.4), which re-examines the decision with full context.
    Conflict(ProdId),
}

#[derive(Debug, Clone)]
pub(crate) struct StateData {
    /// Canonically sorted configuration set.
    pub configs: Arc<[Config]>,
    pub resolution: Resolution,
    eof: Option<EofResolution>,
    /// LRU tick of the last lookup that touched this state.
    last_used: u64,
    /// Approximate retained bytes attributed to this state.
    bytes: usize,
    /// Set only by fault injection: serving this entry would be a bug, so
    /// lookups drop it instead (see `CacheStats::poison_drops`).
    poisoned: bool,
}

/// Counters describing cache effectiveness; used by the Fig. 11 style
/// cache-warm-up experiments, the `ablation_sll_cache` bench, and the
/// bounded-cache degradation tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of interned DFA states currently resident.
    pub states: usize,
    /// Number of recorded transitions currently resident.
    pub transitions: usize,
    /// Transition lookups answered from the cache.
    pub hits: u64,
    /// Transition lookups that required a fresh move+closure computation.
    pub misses: u64,
    /// States evicted to stay under the configured capacity.
    pub evictions: u64,
    /// Poisoned entries detected at lookup and dropped instead of served
    /// (non-zero only under fault injection).
    pub poison_drops: u64,
    /// Approximate bytes currently retained by interned states.
    pub approx_bytes: usize,
}

/// The SLL prediction cache: interned DFA states, start states per
/// decision nonterminal, and the transition table.
///
/// Create one with [`SllCache::new`] (or take it from a
/// [`Parser`](crate::Parser)); it may be reused across any number of
/// inputs *for the same grammar*. Capacity caps (see the module docs) are
/// configured with [`SllCache::set_capacity`] and survive
/// [`SllCache::clear`].
///
/// The cache is `Clone`: cloning snapshots the full memo (states,
/// transitions, caps, counters). Batch parsing uses this for its
/// warm-cache mode — one warmup parse populates a cache, and each worker
/// starts from an identical private copy (interned configuration sets are
/// `Arc`-shared, so the copy is cheap relative to re-deriving the DFA).
#[derive(Debug, Default, Clone)]
pub struct SllCache {
    states: HashMap<u32, StateData>,
    intern: HashMap<Arc<[Config]>, StateId>,
    starts: HashMap<NonTerminal, StateId>,
    transitions: HashMap<(StateId, Terminal), StateId>,
    next_id: u32,
    tick: u64,
    bytes: usize,
    max_entries: Option<usize>,
    max_bytes: Option<usize>,
    /// Entry cap 0 means "cache off": nothing is memoized, every lookup
    /// is a miss, and interned states are transient scratch values that
    /// live only while an in-flight prediction holds their ids.
    disabled: bool,
    hits: u64,
    misses: u64,
    evictions: u64,
    poison_drops: u64,
    #[cfg(feature = "faults")]
    fault_plan: Option<FaultPlan>,
    #[cfg(feature = "faults")]
    intern_seq: u64,
}

impl SllCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache capped at `max_entries` interned states.
    pub fn bounded(max_entries: usize) -> Self {
        let mut cache = Self::new();
        cache.set_capacity(Some(max_entries), None);
        cache
    }

    /// Pre-sizes the state, intern, and transition tables for roughly `n`
    /// interned states, avoiding rehash churn while the DFA warms up. The
    /// audit certificate's per-decision graph-state totals
    /// (`AuditTable::total_graph_states`) give a static upper estimate of
    /// the SLL DFA this cache will intern, so
    /// [`Parser::with_analysis`](crate::Parser::with_analysis) seeds the
    /// reservation from it. Purely a capacity hint: no states are created
    /// and caps are unaffected.
    pub fn reserve_states(&mut self, n: usize) {
        self.states.reserve(n);
        self.intern.reserve(n);
        // DFA states average more than one outgoing edge; 2n is a cheap
        // middle ground between no hint and per-terminal fanout.
        self.transitions.reserve(n.saturating_mul(2));
    }

    /// Configures (or removes, with `None`) the entry and byte caps, and
    /// immediately enforces them. No prediction is in flight between
    /// parses, so nothing needs protection here.
    ///
    /// An entry cap of 0 disables the cache entirely rather than thrashing
    /// it: every lookup is a miss, nothing is memoized, and no evictions
    /// are counted — prediction degrades to uncached SLL simulation.
    pub fn set_capacity(&mut self, max_entries: Option<usize>, max_bytes: Option<usize>) {
        self.max_entries = max_entries;
        self.max_bytes = max_bytes;
        let was_disabled = self.disabled;
        self.disabled = max_entries == Some(0);
        if was_disabled && !self.disabled {
            // Leftover scratch states are not in the memo maps; drop them
            // rather than letting them shadow future interning.
            self.states.clear();
        }
        if self.disabled {
            // Dropping the memo wholesale is not eviction churn: nothing
            // will ever be served from the cache again, so the evictions
            // counter stays untouched.
            self.states.clear();
            self.intern.clear();
            self.starts.clear();
            self.transitions.clear();
            self.bytes = 0;
        } else {
            self.enforce_caps(&[]);
        }
    }

    /// Discards all cached states and transitions (e.g. when switching
    /// grammars; a cache must never be shared between grammars). Capacity
    /// caps and any installed fault plan are retained.
    pub fn clear(&mut self) {
        self.states.clear();
        self.intern.clear();
        self.starts.clear();
        self.transitions.clear();
        self.bytes = 0;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
        self.poison_drops = 0;
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            states: self.states.len(),
            transitions: self.transitions.len(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            poison_drops: self.poison_drops,
            approx_bytes: self.bytes,
        }
    }

    // Audited: every StateId handed out by `intern` is pinned against
    // eviction while the caller's simulation round holds it (see
    // `enforce_caps`' live-set exclusion), so the lookup cannot miss.
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn state(&self, id: StateId) -> &StateData {
        self.states
            .get(&id.0)
            .expect("live StateIds are protected from eviction")
    }

    fn touch(&mut self, id: StateId) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(data) = self.states.get_mut(&id.0) {
            data.last_used = tick;
        }
    }

    /// Interns a configuration set (sorting it into canonical order),
    /// computes its resolution, and enforces the capacity caps. States in
    /// `protect` — the ids an in-flight prediction still holds — are
    /// exempt from eviction, as is the state being interned.
    pub(crate) fn intern_protected(
        &mut self,
        mut configs: Vec<Config>,
        protect: &[StateId],
    ) -> StateId {
        configs.sort_unstable();
        configs.dedup();
        let key: Arc<[Config]> = configs.into();
        if self.disabled {
            return self.scratch_state(key, protect);
        }
        if let Some(&id) = self.intern.get(&key) {
            self.touch(id);
            return id;
        }
        let resolution = classify(&key);
        let id = StateId(self.next_id);
        self.next_id += 1;
        self.tick += 1;
        // Approximate: the config array plus per-entry map overhead. The
        // persistent SimStack tails inside configs are shared and not
        // attributed.
        let bytes = mem::size_of::<StateData>()
            + key.len() * mem::size_of::<Config>()
            + mem::size_of::<(Arc<[Config]>, StateId)>();
        self.bytes += bytes;
        self.states.insert(
            id.0,
            StateData {
                configs: Arc::clone(&key),
                resolution,
                eof: None,
                last_used: self.tick,
                bytes,
                poisoned: false,
            },
        );
        self.intern.insert(key, id);
        self.apply_fault_hooks(id, protect);
        let mut guarded = protect.to_vec();
        guarded.push(id);
        self.enforce_caps(&guarded);
        id
    }

    /// Interning without an in-flight prediction to protect (the newly
    /// interned state itself is always protected).
    #[cfg(test)]
    pub(crate) fn intern(&mut self, configs: Vec<Config>) -> StateId {
        self.intern_protected(configs, &[])
    }

    /// Disabled-mode interning: mints a transient state resolvable through
    /// [`SllCache::state`] while the in-flight prediction holds its id, and
    /// drops every unprotected scratch state so memory stays bounded at a
    /// couple of entries. Nothing enters the memo maps, the byte ledger,
    /// or the eviction counter.
    fn scratch_state(&mut self, key: Arc<[Config]>, protect: &[StateId]) -> StateId {
        self.states
            .retain(|id, _| protect.iter().any(|p| p.0 == *id));
        let resolution = classify(&key);
        let id = StateId(self.next_id);
        self.next_id += 1;
        self.tick += 1;
        self.states.insert(
            id.0,
            StateData {
                configs: key,
                resolution,
                eof: None,
                last_used: self.tick,
                bytes: 0,
                poisoned: false,
            },
        );
        id
    }

    /// Lifetime total of capacity-driven evictions (monotonic, unlike the
    /// snapshot in [`CacheStats`]); sampled around interns to report
    /// eviction bursts to observers.
    pub(crate) fn evictions_total(&self) -> u64 {
        self.evictions
    }

    #[cfg(feature = "faults")]
    fn apply_fault_hooks(&mut self, id: StateId, protect: &[StateId]) {
        let Some(plan) = self.fault_plan else { return };
        self.intern_seq += 1;
        let seq = self.intern_seq;
        let due = |every: Option<u64>| every.is_some_and(|n| n > 0 && seq.is_multiple_of(n));
        if due(plan.poison_every) {
            if let Some(data) = self.states.get_mut(&id.0) {
                data.poisoned = true;
            }
        }
        if due(plan.evict_every) {
            let mut guarded = protect.to_vec();
            guarded.push(id);
            if let Some(victim) = self.lru_victim(&guarded) {
                self.evict(victim);
            }
        }
    }

    #[cfg(not(feature = "faults"))]
    fn apply_fault_hooks(&mut self, _id: StateId, _protect: &[StateId]) {}

    /// Installs a deterministic fault-injection plan (see
    /// [`crate::faults::FaultPlan`]). Survives [`SllCache::clear`].
    #[cfg(feature = "faults")]
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// `true` when the installed fault plan calls for a panic at machine
    /// step `step`. Fires at-or-past the scheduled step: fuel indices are
    /// shared with prediction lookahead, so a machine step with exactly
    /// the scheduled index may never occur.
    #[cfg(feature = "faults")]
    pub(crate) fn fault_panic_due(&self, step: u64) -> bool {
        self.fault_plan
            .and_then(|p| p.panic_at_step)
            .is_some_and(|at| step >= at)
    }

    fn over_caps(&self) -> bool {
        self.max_entries.is_some_and(|m| self.states.len() > m)
            || self.max_bytes.is_some_and(|m| self.bytes > m)
    }

    fn lru_victim(&self, protect: &[StateId]) -> Option<u32> {
        self.states
            .iter()
            .filter(|(id, _)| !protect.iter().any(|p| p.0 == **id))
            .min_by_key(|(_, data)| data.last_used)
            .map(|(id, _)| *id)
    }

    /// Evicts least-recently-used states until the caps are respected,
    /// never evicting a protected (in-flight) state.
    fn enforce_caps(&mut self, protect: &[StateId]) {
        while self.over_caps() {
            let Some(victim) = self.lru_victim(protect) else {
                break; // everything left is protected
            };
            self.evict(victim);
        }
    }

    /// Removes a state and every start pointer and transition that
    /// mentions it, keeping the DFA internally consistent.
    fn evict(&mut self, victim: u32) {
        let Some(data) = self.states.remove(&victim) else {
            return;
        };
        self.intern.remove(&data.configs);
        self.starts.retain(|_, id| id.0 != victim);
        self.transitions
            .retain(|(from, _), to| from.0 != victim && to.0 != victim);
        self.bytes = self.bytes.saturating_sub(data.bytes);
        self.evictions += 1;
    }

    /// Drops a poisoned entry discovered at lookup time: the entry is
    /// evicted (so it can never be served) and the lookup proceeds as a
    /// miss, which re-derives the correct analysis.
    fn drop_poisoned(&mut self, id: StateId) {
        self.evict(id.0);
        self.evictions -= 1; // counted as a poison drop, not an eviction
        self.poison_drops += 1;
    }

    /// The cached start state for decision nonterminal `x`, if present
    /// and healthy. Poisoned entries are dropped and reported as misses.
    pub(crate) fn start_state(&mut self, x: NonTerminal) -> Option<StateId> {
        let id = self.starts.get(&x).copied()?;
        if self.state(id).poisoned {
            self.drop_poisoned(id);
            return None;
        }
        self.touch(id);
        Some(id)
    }

    /// Records the start state for `x` (a no-op when the cache is
    /// disabled: scratch states must not be memoized).
    pub(crate) fn set_start_state(&mut self, x: NonTerminal, id: StateId) {
        if self.disabled {
            return;
        }
        self.starts.insert(x, id);
    }

    /// Looks up a cached transition, bumping hit/miss counters. A
    /// poisoned target is dropped and reported as a miss — unless it is
    /// the source state itself (a poisoned self-loop), which stays
    /// resident until reached from elsewhere because the caller still
    /// holds its id.
    pub(crate) fn transition(&mut self, from: StateId, t: Terminal) -> Option<StateId> {
        match self.transitions.get(&(from, t)).copied() {
            Some(to) => {
                if to != from && self.state(to).poisoned {
                    self.drop_poisoned(to);
                    self.misses += 1;
                    return None;
                }
                self.hits += 1;
                self.touch(to);
                Some(to)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records a transition (a no-op when the cache is disabled).
    pub(crate) fn set_transition(&mut self, from: StateId, t: Terminal, to: StateId) {
        if self.disabled {
            return;
        }
        self.transitions.insert((from, t), to);
    }

    /// The end-of-input resolution of a state, computed on first use and
    /// cached thereafter.
    pub(crate) fn eof_resolution(&mut self, id: StateId) -> EofResolution {
        let data = self.state(id);
        if let Some(r) = data.eof {
            return r;
        }
        let eof_alts: Vec<ProdId> = {
            let mut alts: Vec<ProdId> = data
                .configs
                .iter()
                .filter(|c| matches!(c.state, SpState::AcceptEof))
                .map(|c| c.alt)
                .collect();
            alts.sort_unstable();
            alts.dedup();
            alts
        };
        let r = match eof_alts.as_slice() {
            [] => EofResolution::Reject,
            [only] => EofResolution::Unique(*only),
            [first, ..] => EofResolution::Conflict(*first),
        };
        if let Some(data) = self.states.get_mut(&id.0) {
            data.eof = Some(r);
        }
        r
    }
}

/// The resolution a canonical config set implies without more input.
fn classify(key: &[Config]) -> Resolution {
    let alts = distinct_alts(key);
    match alts.as_slice() {
        [] => Resolution::Reject,
        [only] => Resolution::Unique(*only),
        _ => Resolution::Pending,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::prediction::sim::SimStack;

    fn cfg(alt: u32, state: SpState) -> Config {
        // ProdId is crate-private to costar-grammar; go through index 0..n
        // of a real grammar to mint ids.
        let g = {
            let mut gb = costar_grammar::GrammarBuilder::new();
            gb.rule("S", &["a"]);
            gb.rule("S", &["b"]);
            gb.rule("S", &["c"]);
            gb.start("S").build().unwrap()
        };
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        Config {
            alt: g.alternatives(s)[alt as usize],
            state,
        }
    }

    #[test]
    fn interning_is_canonical() {
        let mut cache = SllCache::new();
        let a = cfg(0, SpState::AcceptEof);
        let b = cfg(1, SpState::AcceptEof);
        let id1 = cache.intern(vec![a.clone(), b.clone()]);
        let id2 = cache.intern(vec![b, a]);
        assert_eq!(id1, id2);
        assert_eq!(cache.stats().states, 1);
    }

    #[test]
    fn resolution_classification() {
        let mut cache = SllCache::new();
        let empty = cache.intern(vec![]);
        assert_eq!(cache.state(empty).resolution, Resolution::Reject);
        let unique = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
        assert!(matches!(
            cache.state(unique).resolution,
            Resolution::Unique(_)
        ));
        let pending = cache.intern(vec![cfg(0, SpState::AcceptEof), cfg(1, SpState::AcceptEof)]);
        assert_eq!(cache.state(pending).resolution, Resolution::Pending);
    }

    #[test]
    fn eof_resolution_variants() {
        let mut cache = SllCache::new();
        // Both alternatives accept EOF: conflict, resolved to the first.
        let conflict = cache.intern(vec![cfg(0, SpState::AcceptEof), cfg(1, SpState::AcceptEof)]);
        assert!(matches!(
            cache.eof_resolution(conflict),
            EofResolution::Conflict(_)
        ));
        // A pending state whose configs need more input rejects at EOF.
        let g = {
            let mut gb = costar_grammar::GrammarBuilder::new();
            gb.rule("S", &["a"]);
            gb.rule("S", &["b"]);
            gb.start("S").build().unwrap()
        };
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let stack = SimStack::empty().push(crate::state::SuffixFrame::new(g.alternatives(s)[0]));
        let not_eof = cache.intern(vec![
            Config {
                alt: g.alternatives(s)[0],
                state: SpState::Stack(stack.clone()),
            },
            Config {
                alt: g.alternatives(s)[1],
                state: SpState::Stack(stack),
            },
        ]);
        assert_eq!(cache.eof_resolution(not_eof), EofResolution::Reject);
        // Cached on second call.
        assert_eq!(cache.eof_resolution(not_eof), EofResolution::Reject);
    }

    #[test]
    fn transition_hit_miss_accounting() {
        let mut cache = SllCache::new();
        let s0 = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
        let s1 = cache.intern(vec![cfg(1, SpState::AcceptEof)]);
        let t = Terminal::from_index(0);
        assert_eq!(cache.transition(s0, t), None);
        cache.set_transition(s0, t, s1);
        assert_eq!(cache.transition(s0, t), Some(s1));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.transitions, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut cache = SllCache::new();
        let s0 = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
        cache.set_start_state(NonTerminal::from_index(0), s0);
        cache.set_transition(s0, Terminal::from_index(0), s0);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.states, 0);
        assert_eq!(stats.transitions, 0);
        assert_eq!(stats.approx_bytes, 0);
        assert!(cache.start_state(NonTerminal::from_index(0)).is_none());
    }

    #[test]
    fn entry_cap_evicts_lru_and_cleans_edges() {
        let mut cache = SllCache::new();
        cache.set_capacity(Some(2), None);
        let s0 = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
        let s1 = cache.intern(vec![cfg(1, SpState::AcceptEof)]);
        cache.set_start_state(NonTerminal::from_index(0), s0);
        cache.set_transition(s0, Terminal::from_index(0), s1);
        // Touch s0 so s1 is the LRU entry, then overflow the cap.
        cache.start_state(NonTerminal::from_index(0));
        let s2 = cache.intern(vec![cfg(2, SpState::AcceptEof)]);
        let stats = cache.stats();
        assert_eq!(stats.states, 2);
        assert_eq!(stats.evictions, 1);
        // s1 was evicted: its transition edge must be gone too.
        assert_eq!(stats.transitions, 0);
        assert!(cache.states.contains_key(&s0.0));
        assert!(!cache.states.contains_key(&s1.0));
        assert!(cache.states.contains_key(&s2.0));
        // Re-interning the evicted configs mints a fresh id (no ABA).
        let s1_again = cache.intern(vec![cfg(1, SpState::AcceptEof)]);
        assert_ne!(s1_again, s1);
    }

    #[test]
    fn protected_states_survive_cap_pressure() {
        let mut cache = SllCache::new();
        cache.set_capacity(Some(1), None);
        let s0 = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
        let s1 = cache.intern_protected(vec![cfg(1, SpState::AcceptEof)], &[s0]);
        // Cap is 1 but both states are protected: enforcement backs off
        // rather than evicting an in-flight state.
        assert!(cache.states.contains_key(&s0.0));
        assert!(cache.states.contains_key(&s1.0));
        // With protection released, the next intern shrinks to the cap.
        let _s2 = cache.intern(vec![cfg(2, SpState::AcceptEof)]);
        assert_eq!(cache.stats().states, 1);
    }

    #[test]
    fn byte_cap_is_enforced() {
        let mut cache = SllCache::new();
        cache.set_capacity(None, Some(1)); // absurdly small: at most one state survives
        let _ = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
        let _ = cache.intern(vec![cfg(1, SpState::AcceptEof)]);
        // Each intern evicts everything unprotected; at most the newest
        // (protected during its own intern) remains resident.
        assert!(cache.stats().states <= 1);
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn zero_entry_cap_disables_the_cache() {
        let mut cache = SllCache::new();
        // Warm the cache, then turn it off: the memo must vanish without
        // being booked as evictions.
        let s0 = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
        cache.set_start_state(NonTerminal::from_index(0), s0);
        cache.set_transition(s0, Terminal::from_index(0), s0);
        cache.set_capacity(Some(0), None);
        assert_eq!(cache.stats().states, 0);
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.start_state(NonTerminal::from_index(0)).is_none());

        // Scratch states resolve while protected, nothing is memoized,
        // and every transition lookup is a miss.
        let a = cache.intern_protected(vec![cfg(0, SpState::AcceptEof)], &[]);
        assert!(matches!(cache.state(a).resolution, Resolution::Unique(_)));
        cache.set_start_state(NonTerminal::from_index(0), a);
        assert!(cache.start_state(NonTerminal::from_index(0)).is_none());
        let t = Terminal::from_index(0);
        assert_eq!(cache.transition(a, t), None);
        let b = cache.intern_protected(vec![cfg(1, SpState::AcceptEof)], &[a]);
        cache.set_transition(a, t, b);
        assert_eq!(cache.transition(a, t), None);
        // Memory stays bounded: unprotected scratch states are dropped.
        let _c = cache.intern_protected(vec![cfg(2, SpState::AcceptEof)], &[b]);
        assert!(cache.states.len() <= 2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.transitions, 0);
        assert_eq!(stats.approx_bytes, 0);
    }

    #[test]
    fn raising_a_zero_cap_reenables_the_cache() {
        let mut cache = SllCache::new();
        cache.set_capacity(Some(0), None);
        let _ = cache.intern_protected(vec![cfg(0, SpState::AcceptEof)], &[]);
        cache.set_capacity(Some(8), None);
        let s0 = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
        let s1 = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
        assert_eq!(s0, s1, "memoization must resume once the cap is lifted");
    }

    #[test]
    fn bounded_constructor_caps_entries() {
        let mut cache = SllCache::bounded(1);
        let _ = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
        let _ = cache.intern(vec![cfg(1, SpState::AcceptEof)]);
        assert_eq!(cache.stats().states, 1);
    }

    #[cfg(feature = "faults")]
    mod fault_tests {
        use super::*;
        use crate::faults::FaultPlan;

        #[test]
        fn poisoned_start_state_is_dropped_not_served() {
            let mut cache = SllCache::new();
            cache.install_fault_plan(FaultPlan::none().poison_every(1));
            let s0 = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
            cache.set_start_state(NonTerminal::from_index(0), s0);
            assert!(cache.start_state(NonTerminal::from_index(0)).is_none());
            assert_eq!(cache.stats().poison_drops, 1);
            assert_eq!(cache.stats().states, 0);
        }

        #[test]
        fn poisoned_transition_target_reported_as_miss() {
            let mut cache = SllCache::new();
            cache.install_fault_plan(FaultPlan::none().poison_every(2));
            let s0 = cache.intern(vec![cfg(0, SpState::AcceptEof)]); // healthy
            let s1 = cache.intern(vec![cfg(1, SpState::AcceptEof)]); // poisoned
            let t = Terminal::from_index(0);
            cache.set_transition(s0, t, s1);
            assert_eq!(cache.transition(s0, t), None);
            let stats = cache.stats();
            assert_eq!(stats.poison_drops, 1);
            assert_eq!(stats.misses, 1);
            assert_eq!(stats.hits, 0);
        }

        #[test]
        fn eviction_storm_forces_constant_turnover() {
            let mut cache = SllCache::new();
            cache.install_fault_plan(FaultPlan::none().evict_every(1));
            let _ = cache.intern(vec![cfg(0, SpState::AcceptEof)]);
            let _ = cache.intern(vec![cfg(1, SpState::AcceptEof)]);
            let _ = cache.intern(vec![cfg(2, SpState::AcceptEof)]);
            // Every intern evicts the previous LRU entry (the new state is
            // protected), so only one state is ever resident.
            assert_eq!(cache.stats().states, 1);
            assert_eq!(cache.stats().evictions, 2);
        }
    }
}
