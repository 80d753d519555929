//! Deterministic fault injection (feature `faults`; test-only).
//!
//! The robustness claims of this crate — bounded-cache eviction never
//! changes outcomes, poisoned cache entries are dropped rather than
//! served, budget exhaustion aborts cleanly, and no panic escapes
//! [`crate::Parser::parse`] — are only credible if something actively
//! tries to break them. A [`FaultPlan`] is that something: installed on
//! an [`SllCache`](crate::SllCache) (or via
//! `Parser::install_fault_plan`), it deterministically injects faults at
//! chosen points, with no randomness, so every failure replays exactly.
//!
//! Compiled only with `--features faults`; release builds carry none of
//! these hooks.

/// A deterministic schedule of injected faults. All counters are
/// 1-based: `evict_every = Some(1)` evicts on every intern (an eviction
/// storm), `poison_every = Some(3)` poisons every third interned state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Every `n`th interned DFA state triggers a forced eviction of the
    /// least-recently-used unprotected cache entry — an eviction storm
    /// when set to 1. Exercises the invariant that eviction only ever
    /// costs re-prediction, never correctness.
    pub evict_every: Option<u64>,
    /// Every `n`th interned DFA state is marked poisoned. A poisoned
    /// entry is detected at its next cache lookup, dropped (counted in
    /// [`CacheStats::poison_drops`](crate::CacheStats::poison_drops)),
    /// and treated as a miss — corrupted cache state must never be
    /// served.
    pub poison_every: Option<u64>,
    /// Panic when the machine reaches this (0-based) fuel index or the
    /// first machine step after it (fuel is shared with prediction
    /// lookahead, so the exact index may fall between steps) — exercises
    /// the panic boundary in [`crate::Parser::run`], which
    /// must map the panic to a typed
    /// [`ParseError::InvalidState`](crate::ParseError::InvalidState).
    pub panic_at_step: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Forces an eviction on every `n`th intern.
    pub fn evict_every(mut self, n: u64) -> Self {
        self.evict_every = Some(n);
        self
    }

    /// Poisons every `n`th interned state.
    pub fn poison_every(mut self, n: u64) -> Self {
        self.poison_every = Some(n);
        self
    }

    /// Panics at the given machine step.
    pub fn panic_at_step(mut self, step: u64) -> Self {
        self.panic_at_step = Some(step);
        self
    }
}
