//! Resource budgets for parsing (robustness layer).
//!
//! The paper proves the machine terminates by exhibiting a strictly
//! decreasing lexicographic measure `(tokens, stackScore, height)` (§4).
//! That proof yields more than termination: it yields a *computable upper
//! bound* on how many operations a well-formed parse can take. A
//! [`Budget`] turns that bound into an enforced contract — step fuel,
//! a wall-clock deadline, a stack-depth ceiling, and caps on the SLL
//! cache — so that no input/grammar pair, however adversarial, can make
//! [`crate::Parser::parse`] run without bound or exhaust memory. A
//! violated budget surfaces as the typed
//! [`ParseOutcome::Aborted`](crate::ParseOutcome::Aborted) outcome, never
//! a panic.
//!
//! ## Where the derived fuel bound comes from
//!
//! For an input of `n` tokens over a grammar with `|N|` nonterminals:
//!
//! * **consume** steps: at most `n` (each consumes one token);
//! * **push** steps: between two consumes the machine's visited set
//!   (paper §4.1) admits each nonterminal at most once, so at most `|N|`
//!   pushes happen per consume epoch, and there are `n + 1` epochs —
//!   at most `(n + 1)·|N|` pushes total;
//! * **return** steps: each return pops a frame some push created, plus
//!   one final return for the bottom frame — at most pushes `+ 1`.
//!
//! Machine steps are therefore bounded by `n + 2(n+1)|N| + 1`. Prediction
//! work is metered in the same fuel: each push triggers at most one
//! `adaptivePredict`, which scans at most `n + 1` lookahead tokens in its
//! SLL phase and at most as many again after an LL failover. The derived
//! bound ([`Budget::derived`]) is the saturating sum of all three terms —
//! a budget a correct parse can never exceed, making any `StepLimit`
//! abort under it evidence of a bug rather than of a large input.
//!
//! ## Degradation ordering
//!
//! Resource pressure degrades service in a fixed order, each stage
//! preserving correctness (see `DESIGN.md`):
//!
//! 1. **evict** — the bounded SLL cache drops least-recently-used DFA
//!    states; the only cost is re-predicting (re-deriving the dropped
//!    states) later;
//! 2. **failover** — SLL conflicts fall back to precise LL prediction,
//!    exactly as in the unbudgeted algorithm (paper §3.4);
//! 3. **abort** — only when fuel, deadline, or stack depth is exhausted
//!    does the parse stop, with a typed [`AbortReason`].

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
use costar_grammar::Grammar;
use std::fmt;
use std::time::{Duration, Instant};

/// Why a budgeted parse was aborted (the payload of
/// [`ParseOutcome::Aborted`](crate::ParseOutcome::Aborted)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The step fuel ([`Budget::with_max_steps`]) ran out.
    StepLimit {
        /// The configured fuel.
        limit: u64,
    },
    /// The wall-clock deadline ([`Budget::with_deadline`]) expired.
    DeadlineExpired {
        /// The configured deadline, in milliseconds.
        budget_ms: u64,
    },
    /// A push would exceed the suffix-stack depth ceiling
    /// ([`Budget::with_max_stack_depth`]).
    StackDepth {
        /// The depth the push would have reached.
        depth: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// A recovering parse ([`crate::Parser::parse_recovering`]) needed
    /// more error recoveries than [`Budget::with_max_recoveries`] allows.
    /// The plain (non-recovering) parse path never produces this.
    RecoveryLimit {
        /// The configured recovery cap.
        limit: u64,
    },
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::StepLimit { limit } => {
                write!(f, "step budget exhausted (limit {limit})")
            }
            AbortReason::DeadlineExpired { budget_ms } => {
                write!(f, "deadline expired (budget {budget_ms} ms)")
            }
            AbortReason::StackDepth { depth, limit } => {
                write!(f, "stack depth {depth} exceeds limit {limit}")
            }
            AbortReason::RecoveryLimit { limit } => {
                write!(f, "error-recovery budget exhausted (limit {limit})")
            }
        }
    }
}

/// A resource budget for one parse. All limits are optional; the default
/// ([`Budget::unlimited`]) enforces nothing and adds no per-step cost
/// beyond a counter increment.
///
/// ```
/// use costar::{Budget, ParseOutcome, Parser};
/// use costar_grammar::{GrammarBuilder, Token};
///
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["a", "S"]);
/// gb.rule("S", &["b"]);
/// let g = gb.start("S").build()?;
/// let a = g.symbols().lookup_terminal("a").unwrap();
/// let b = g.symbols().lookup_terminal("b").unwrap();
/// let mut word: Vec<Token> = std::iter::repeat_with(|| Token::new(a, "a")).take(100).collect();
/// word.push(Token::new(b, "b"));
///
/// // Two steps of fuel cannot finish a 101-token parse: typed abort.
/// let mut parser = Parser::new(g);
/// parser.set_budget(Budget::unlimited().with_max_steps(2));
/// assert!(matches!(parser.parse(&word), ParseOutcome::Aborted(_)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    steps: Fuel,
    deadline: Option<Duration>,
    max_stack_depth: Option<usize>,
    max_cache_entries: Option<usize>,
    max_cache_bytes: Option<usize>,
    max_recoveries: Option<u64>,
}

/// Where a budget's step fuel comes from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Fuel {
    #[default]
    Unlimited,
    Fixed(u64),
    /// The cost certificate's bound for each input's own length.
    Auto,
}

impl Budget {
    /// A budget that enforces nothing.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget whose step fuel is the termination-measure-derived bound
    /// for parsing `input_len` tokens with `g` (see the module docs). A
    /// correct parse can never exceed it, so an abort under this budget
    /// indicates a parser bug — the executable form of "the measure
    /// argument really does bound the work".
    pub fn derived(g: &Grammar, input_len: usize) -> Self {
        Budget::unlimited().with_max_steps(Self::derived_steps(g, input_len))
    }

    /// The derived fuel bound itself (see the module docs for the
    /// derivation).
    pub fn derived_steps(g: &Grammar, input_len: usize) -> u64 {
        let n = input_len as u64;
        let nts = g.num_nonterminals() as u64;
        let epochs = n.saturating_add(1);
        let pushes = epochs.saturating_mul(nts);
        let machine_steps = n.saturating_add(pushes.saturating_mul(2)).saturating_add(1);
        // Each push may trigger one prediction scanning <= n + 1 tokens in
        // its SLL phase and as many again after LL failover.
        let prediction = pushes.saturating_mul(epochs.saturating_mul(2));
        machine_steps.saturating_add(prediction)
    }

    /// Caps the total fuel: machine steps plus prediction lookahead
    /// tokens examined.
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.steps = Fuel::Fixed(steps);
        self
    }

    /// Derives each parse's step fuel from the grammar's certified cost
    /// bound instead of a fixed pool: an input of `n` tokens parses under
    /// fuel [`CostModel::bound_for(n)`](costar_grammar::analysis::CostModel::bound_for),
    /// replacing any fuel set via [`Budget::with_max_steps`] (and vice
    /// versa — the later call wins). Because the certificate claims no
    /// accepting or rejecting parse exceeds the bound, a `StepLimit` abort
    /// under auto fuel is evidence of a parser or certificate bug, never
    /// of a large input; and in a batch, one long file can never inflate a
    /// sibling's allowance, since every input's fuel comes from its own
    /// length.
    pub fn with_auto_steps(mut self) -> Self {
        self.steps = Fuel::Auto;
        self
    }

    /// Sets a wall-clock deadline, measured from the start of the parse.
    ///
    /// **Batch semantics:** the deadline is *per parse*, not per batch.
    /// The clock starts when a parse begins (each `Machine` construction
    /// creates a fresh `Meter`, which captures `Instant::now()` then), so
    /// every input in a [`BatchParser`](crate::BatchParser) run gets its
    /// own full allowance — a slow or aborting first input can never
    /// starve later inputs of deadline. This is also what makes deadline
    /// behavior independent of batch order and worker scheduling: input
    /// `k` sees the same allowance whether it is parsed first, last, or
    /// concurrently with others.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the suffix-stack depth (bounds memory for deeply nested
    /// input and guards against runaway recursion in one number).
    pub fn with_max_stack_depth(mut self, depth: usize) -> Self {
        self.max_stack_depth = Some(depth);
        self
    }

    /// Caps the number of interned SLL DFA states; beyond it the cache
    /// evicts least-recently-used states (correctness is unaffected —
    /// evicted analysis is simply re-derived on demand).
    pub fn with_max_cache_entries(mut self, entries: usize) -> Self {
        self.max_cache_entries = Some(entries);
        self
    }

    /// Caps the (approximate) bytes retained by the SLL cache.
    pub fn with_max_cache_bytes(mut self, bytes: usize) -> Self {
        self.max_cache_bytes = Some(bytes);
        self
    }

    /// Caps how many syntax-error recoveries one
    /// [`crate::Parser::parse_recovering`] call may perform before giving
    /// up with [`AbortReason::RecoveryLimit`]. Has no effect on the plain
    /// parse path, which stops at the first error.
    pub fn with_max_recoveries(mut self, recoveries: u64) -> Self {
        self.max_recoveries = Some(recoveries);
        self
    }

    /// The configured step fuel, if a fixed pool is set (`None` for
    /// unlimited and for [`Budget::with_auto_steps`]).
    pub fn max_steps(&self) -> Option<u64> {
        match self.steps {
            Fuel::Fixed(n) => Some(n),
            Fuel::Unlimited | Fuel::Auto => None,
        }
    }

    /// This budget with auto fuel resolved to `bound`, the certified cost
    /// bound for the input about to be parsed; other budgets unchanged.
    pub(crate) fn resolve_auto_steps(self, bound: impl FnOnce() -> u64) -> Self {
        match self.steps {
            Fuel::Auto => self.with_max_steps(bound()),
            Fuel::Unlimited | Fuel::Fixed(_) => self,
        }
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The configured stack-depth ceiling, if any.
    pub fn max_stack_depth(&self) -> Option<usize> {
        self.max_stack_depth
    }

    /// The configured cache entry cap, if any.
    pub fn max_cache_entries(&self) -> Option<usize> {
        self.max_cache_entries
    }

    /// The configured cache byte cap, if any.
    pub fn max_cache_bytes(&self) -> Option<usize> {
        self.max_cache_bytes
    }

    /// The configured recovery cap, if any.
    pub fn max_recoveries(&self) -> Option<u64> {
        self.max_recoveries
    }

    /// `true` if no limit is configured.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }
}

/// How many fuel charges — or prediction closure worklist items — pass
/// between wall-clock reads (amortizes `Instant::now`, which would
/// otherwise dominate small steps). The first charge always checks, so a
/// tiny deadline aborts promptly.
pub(crate) const DEADLINE_CHECK_INTERVAL: u32 = 256;

/// The per-run mutable counterpart of a [`Budget`]: fuel remaining, the
/// deadline clock, and the step counter. One meter lives inside each
/// [`Machine`](crate::Machine) run.
#[derive(Debug, Clone)]
pub(crate) struct Meter {
    fuel: Option<u64>,
    step_limit: u64,
    deadline: Option<(Instant, Duration)>,
    max_depth: Option<usize>,
    max_recoveries: Option<u64>,
    until_clock_check: u32,
    steps: u64,
}

impl Meter {
    /// A meter for `budget`. Auto fuel must already be resolved
    /// ([`Budget::resolve_auto_steps`]); an unresolved one meters nothing.
    pub(crate) fn new(budget: &Budget) -> Self {
        Meter {
            fuel: budget.max_steps(),
            step_limit: budget.max_steps().unwrap_or(u64::MAX),
            deadline: budget.deadline.map(|d| (Instant::now(), d)),
            max_depth: budget.max_stack_depth,
            max_recoveries: budget.max_recoveries,
            until_clock_check: 1,
            steps: 0,
        }
    }

    /// A meter with no limits — for unbudgeted internal callers and tests.
    #[cfg(test)]
    pub(crate) fn unlimited() -> Self {
        Meter::new(&Budget::unlimited())
    }

    /// Total fuel charged so far (machine steps + prediction lookahead).
    pub(crate) fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Charges `n` units of fuel and (periodically) checks the deadline.
    ///
    /// `steps_taken()` counts only *admitted* work: a charge that fails —
    /// on fuel or on deadline — leaves the counter untouched, so the
    /// counter reconciles exactly with the observer-layer step counts.
    /// Deadline bookkeeping runs before the fuel check so that an
    /// exhausted fuel pool cannot starve the clock.
    pub(crate) fn charge(&mut self, n: u64) -> Result<(), AbortReason> {
        if self.deadline.is_some() {
            let spent = u32::try_from(n).unwrap_or(u32::MAX);
            self.until_clock_check = self.until_clock_check.saturating_sub(spent.max(1));
            if self.until_clock_check == 0 {
                self.until_clock_check = DEADLINE_CHECK_INTERVAL;
                self.check_deadline()?;
            }
        }
        if let Some(fuel) = &mut self.fuel {
            if *fuel < n {
                return Err(AbortReason::StepLimit {
                    limit: self.step_limit,
                });
            }
            *fuel -= n;
        }
        self.steps = self.steps.saturating_add(n);
        Ok(())
    }

    /// Reads the clock against the deadline, charging nothing: work that
    /// spends no fuel (prediction closure) calls this on its own schedule.
    pub(crate) fn check_deadline(&self) -> Result<(), AbortReason> {
        match self.deadline {
            Some((start, limit)) if start.elapsed() > limit => Err(AbortReason::DeadlineExpired {
                budget_ms: limit.as_millis() as u64,
            }),
            _ => Ok(()),
        }
    }

    /// Checks a prospective suffix-stack depth against the ceiling.
    pub(crate) fn check_depth(&self, depth: usize) -> Result<(), AbortReason> {
        match self.max_depth {
            Some(limit) if depth > limit => Err(AbortReason::StackDepth { depth, limit }),
            _ => Ok(()),
        }
    }

    /// Checks whether a recovering parse that has already recovered
    /// `done` errors may recover one more.
    pub(crate) fn check_recoveries(&self, done: usize) -> Result<(), AbortReason> {
        match self.max_recoveries {
            Some(limit) if done as u64 >= limit => Err(AbortReason::RecoveryLimit { limit }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use costar_grammar::GrammarBuilder;

    #[test]
    fn unlimited_meter_never_aborts() {
        let mut m = Meter::unlimited();
        for _ in 0..10_000 {
            m.charge(1).unwrap();
        }
        m.check_depth(usize::MAX).unwrap();
        assert_eq!(m.steps_taken(), 10_000);
    }

    #[test]
    fn fuel_runs_out_exactly() {
        let mut m = Meter::new(&Budget::unlimited().with_max_steps(3));
        m.charge(1).unwrap();
        m.charge(2).unwrap();
        assert_eq!(
            m.charge(1),
            Err(AbortReason::StepLimit { limit: 3 }),
            "fourth unit of fuel must abort"
        );
    }

    #[test]
    fn failed_charge_does_not_inflate_steps_taken() {
        let mut m = Meter::new(&Budget::unlimited().with_max_steps(3));
        m.charge(3).unwrap();
        assert_eq!(m.steps_taken(), 3);
        assert_eq!(m.charge(5), Err(AbortReason::StepLimit { limit: 3 }));
        assert_eq!(
            m.steps_taken(),
            3,
            "a rejected charge must not count toward steps_taken"
        );
        assert!(m.charge(1).is_err());
        assert_eq!(m.steps_taken(), 3);
    }

    #[test]
    fn deadline_bookkeeping_runs_even_when_fuel_is_exhausted() {
        // Fuel 0 plus an already-expired deadline: the deadline must win,
        // proving the StepLimit early-return no longer skips the clock.
        let mut m = Meter::new(
            &Budget::unlimited()
                .with_max_steps(0)
                .with_deadline(Duration::ZERO),
        );
        assert!(matches!(
            m.charge(1),
            Err(AbortReason::DeadlineExpired { .. })
        ));
    }

    #[test]
    fn zero_deadline_aborts_on_first_charge() {
        let mut m = Meter::new(&Budget::unlimited().with_deadline(Duration::ZERO));
        assert!(matches!(
            m.charge(1),
            Err(AbortReason::DeadlineExpired { .. })
        ));
    }

    #[test]
    fn deadline_is_per_parse_not_per_batch() {
        // Regression test for the batch deadline contract: each parse's
        // clock starts at its own Meter construction. A slow first input
        // (simulated by sleeping past the whole deadline before the
        // second meter exists) must not starve a later input — if the
        // deadline were measured from batch start, the second charge
        // below would abort.
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(40));
        let mut first = Meter::new(&budget);
        first.charge(1).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        // Charge a full clock-check interval at once to defeat the
        // amortized `Instant::now` bookkeeping and force a clock read.
        assert!(
            matches!(
                first.charge(u64::from(DEADLINE_CHECK_INTERVAL)),
                Err(AbortReason::DeadlineExpired { .. })
            ),
            "the slow first input itself does hit its deadline"
        );
        let mut second = Meter::new(&budget);
        assert!(
            second.charge(u64::from(DEADLINE_CHECK_INTERVAL)).is_ok(),
            "a later input must start with its full deadline allowance"
        );
    }

    #[test]
    fn generous_deadline_does_not_abort() {
        let mut m = Meter::new(&Budget::unlimited().with_deadline(Duration::from_secs(3600)));
        for _ in 0..2048 {
            m.charge(1).unwrap();
        }
    }

    #[test]
    fn depth_ceiling() {
        let m = Meter::new(&Budget::unlimited().with_max_stack_depth(4));
        m.check_depth(4).unwrap();
        assert_eq!(
            m.check_depth(5),
            Err(AbortReason::StackDepth { depth: 5, limit: 4 })
        );
    }

    #[test]
    fn derived_bound_is_generous_and_saturates() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a", "S"]);
        gb.rule("S", &["b"]);
        let g = gb.start("S").build().unwrap();
        // n=10, |N|=1: machine steps <= 10 + 2*11 + 1 = 33.
        assert!(Budget::derived_steps(&g, 10) >= 33);
        // Saturating arithmetic: enormous inputs must not overflow.
        assert_eq!(Budget::derived_steps(&g, usize::MAX), u64::MAX);
    }

    #[test]
    fn builder_accessors_round_trip() {
        let b = Budget::unlimited()
            .with_max_steps(7)
            .with_deadline(Duration::from_millis(5))
            .with_max_stack_depth(9)
            .with_max_cache_entries(64)
            .with_max_cache_bytes(1 << 20)
            .with_max_recoveries(3);
        assert_eq!(b.max_steps(), Some(7));
        assert_eq!(b.deadline(), Some(Duration::from_millis(5)));
        assert_eq!(b.max_stack_depth(), Some(9));
        assert_eq!(b.max_cache_entries(), Some(64));
        assert_eq!(b.max_cache_bytes(), Some(1 << 20));
        assert_eq!(b.max_recoveries(), Some(3));
        let auto = b.with_auto_steps();
        assert!(!auto.is_unlimited());
        assert_eq!(auto.max_steps(), None);
        assert_eq!(auto.resolve_auto_steps(|| 11).max_steps(), Some(11));
        assert_eq!(b.resolve_auto_steps(|| 11).max_steps(), Some(7));
        assert!(!b.is_unlimited());
        assert!(Budget::unlimited().is_unlimited());
        assert!(!Budget::unlimited().with_max_recoveries(0).is_unlimited());
    }

    #[test]
    fn abort_reason_display() {
        assert!(AbortReason::StepLimit { limit: 5 }
            .to_string()
            .contains("5"));
        assert!(AbortReason::DeadlineExpired { budget_ms: 10 }
            .to_string()
            .contains("10 ms"));
        assert!(AbortReason::StackDepth { depth: 3, limit: 2 }
            .to_string()
            .contains("exceeds"));
    }
}
