//! One harness body per paper lemma, usable by both verification modes.
//!
//! Each public `h_*` function restates a CoStar lemma as an executable
//! check over inputs drawn from a [`Nondet`] source. The proptest suite
//! (`tests/proptest_harnesses.rs`) runs every body across many RNG seeds;
//! the `#[kani::proof]` entry points in `crate::proofs` run the *same
//! bodies* over symbolic values. The harness-ID → lemma table lives in
//! `DESIGN.md` §7.
//!
//! | Harness | Paper claim |
//! |---|---|
//! | [`h_stack_wf`] (`H-STACK-WF`) | Lemma 5.2: every step preserves `StacksWf_I` (Fig. 4) |
//! | [`h_visited`] (`H-VISITED`) | §4.1/§5.4.2: visited nonterminals are exactly the open ones |
//! | [`h_prefix_der`] (`H-PREFIX-DER`) | Fig. 5 `UniqeDer_I` (derivation part): the prefix stack parses the consumed input |
//! | [`h_measure_dec`] (`H-MEASURE-DEC`) | Lemma 4.2: every `Cont` step strictly decreases `meas(σ)` |
//! | [`h_measure_ord`] (`H-MEASURE-ORD`) | §4.2–4.3 order algebra: `<₃` is a strict total order and pushes lose the exponent race |
//! | [`h_cache_bound`] (`H-CACHE-BOUND`) | §3.4 eviction safety: capping `Δ` never changes outcomes, and caps hold |
//! | [`h_stable_complete`] (`H-STABLE-COMPLETE`) | §3.5: `StableFrames` equals a brute-force closure enumeration |
//! | [`h_decide_sound`] (`H-DECIDE-SOUND`) | static decision table soundness: the precompiled LL(1) fast path agrees exactly with full prediction and the derivation-counting oracle |
//! | [`h_recover_sound`] (`H-RECOVER-SOUND`) | recovery soundness: accepted words give the byte-identical tree with zero diagnostics; rejected (incl. single-token-corrupted) words terminate with ≥1 diagnostic and a tree spelling the whole input; a `max_recoveries` cap is always honored |
//! | [`h_audit_sound`] (`H-AUDIT-SOUND`) | audit certificate soundness: every certified lookahead bound `k` is minimal (its collide witness replays) and sufficient (no word of length `k` keeps the pair alive, by exhaustive enumeration), dead/shadowed verdicts agree with an independent derivation-search oracle, and the serialized `costar-cert-v1` document round-trips and replays |
//! | [`h_cost_sound`] (`H-COST-SOUND`) | cost certificate soundness: every accepting or rejecting parse of `n` tokens consumes at most `CostModel::bound_for(n)` metered steps, the certified bound is exactly enough fuel (a budgeted re-run is outcome-identical), `bound_for` is monotone in `n`, and the serialized `costar-cost-v1` document round-trips and replays |
//! | [`h_incr_lex_sound`] (`H-INCR-LEX-SOUND`) | incremental-lexing soundness: after any edit, the spliced token vector is byte-identical (kind, lexeme, span) to a from-scratch lex of the edited source, the `unchanged` flag equals token-vector identity, splice accounting partitions the vector, and a failed edit leaves the session untouched |

use crate::grammars::{self, Template};
use crate::nondet::{any_bignat, Nondet};
use costar::bignat::BigNat;
use costar::invariants::{
    check_prefix_derivation, check_stacks_wf, check_visited, InvariantViolation,
};
use costar::measure::{frame_score, meas, stack_score_prime, Measure};
use costar::{
    AbortReason, Budget, Edit, EditError, EditSession, Machine, MetricsObserver, ParseOutcome,
    Parser, PredictionMode, SllCache, StepResult,
};
use costar_grammar::analysis::{
    parse_cert_json, parse_cost_json, replay_certificate, replay_cost_certificate,
    simulate_survivors, to_cert_json, to_cost_json, GrammarAnalysis, PairAudit, Position,
};
use costar_grammar::{check_tree, Grammar, NonTerminal, ProdId, Symbol, Terminal, Token};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A harness found its lemma violated (or could not set the scene).
/// In proptest mode this fails the test case; in Kani mode the proof
/// asserts the harness returned `Ok`.
#[derive(Debug, Clone)]
pub struct HarnessViolation {
    /// The harness ID, e.g. `H-STACK-WF`.
    pub harness: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for HarnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated: {}", self.harness, self.detail)
    }
}

impl std::error::Error for HarnessViolation {}

fn fail(harness: &'static str, detail: impl Into<String>) -> HarnessViolation {
    HarnessViolation {
        harness,
        detail: detail.into(),
    }
}

/// Which machine operations and final results one harness run exercised.
///
/// The machine has exactly three operations — push, consume, return —
/// plus the accept/reject final configurations (paper §3.3). The proptest
/// suite aggregates these counters across seeds and asserts that
/// `H-STACK-WF` and `H-MEASURE-DEC` covered *every* kind, so a harness
/// that silently stopped reaching (say) return steps fails CI rather than
/// fading into vacuity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepKinds {
    /// Push operations observed (stack height grew).
    pub pushes: u64,
    /// Consume operations observed (cursor advanced).
    pub consumes: u64,
    /// Return operations observed (stack height shrank).
    pub returns: u64,
    /// Runs that ended in a final (accepting) configuration.
    pub accepts: u64,
    /// Runs that ended in rejection.
    pub rejects: u64,
}

impl StepKinds {
    /// Adds another run's counters into this aggregate.
    pub fn absorb(&mut self, other: &StepKinds) {
        self.pushes += other.pushes;
        self.consumes += other.consumes;
        self.returns += other.returns;
        self.accepts += other.accepts;
        self.rejects += other.rejects;
    }

    /// `true` when every operation kind and both final results appear.
    pub fn covers_all_kinds(&self) -> bool {
        self.pushes > 0
            && self.consumes > 0
            && self.returns > 0
            && self.accepts > 0
            && self.rejects > 0
    }
}

/// Backstop against a broken machine looping forever in RNG mode (the
/// measure proof is exactly what guarantees this is never hit).
const STEP_CEILING: u64 = 100_000;

struct Scenario {
    template: &'static Template,
    word: Vec<Token>,
}

fn draw_scenario<N: Nondet>(nd: &mut N, max_word: usize) -> Scenario {
    let template = grammars::template(nd.choose(grammars::NUM_TEMPLATES));
    let word = grammars::draw_word(nd, template, max_word);
    Scenario { template, word }
}

fn classify(
    before: (usize, usize),
    after: (usize, usize),
    kinds: &mut StepKinds,
    harness: &'static str,
) -> Result<(), HarnessViolation> {
    let (cursor0, height0) = before;
    let (cursor1, height1) = after;
    if cursor1 > cursor0 {
        kinds.consumes += 1;
    } else if height1 > height0 {
        kinds.pushes += 1;
    } else if height1 < height0 {
        kinds.returns += 1;
    } else {
        return Err(fail(
            harness,
            "a Cont step changed neither cursor nor stack height",
        ));
    }
    Ok(())
}

/// Drives the machine over a nondeterministic scenario, running `check`
/// on the initial state and after every `Cont` step.
fn drive_with_checker<N: Nondet>(
    nd: &mut N,
    harness: &'static str,
    check: impl Fn(&Grammar, &costar::state::MachineState, &[Token]) -> Result<(), InvariantViolation>,
    max_word: usize,
) -> Result<StepKinds, HarnessViolation> {
    let sc = draw_scenario(nd, max_word);
    let g = &sc.template.grammar;
    let mut cache = SllCache::new();
    let mut machine = Machine::new(g, &sc.template.analysis, &sc.word);
    let mut kinds = StepKinds::default();

    check(g, machine.state(), &sc.word)
        .map_err(|e| fail(harness, format!("initial state: {e}")))?;
    let mut steps = 0u64;
    loop {
        steps += 1;
        if steps > STEP_CEILING {
            return Err(fail(harness, "machine exceeded the step ceiling"));
        }
        let before = (machine.state().cursor, machine.state().stack_height());
        match machine.step(&mut cache) {
            StepResult::Cont => {
                let after = (machine.state().cursor, machine.state().stack_height());
                classify(before, after, &mut kinds, harness)?;
                check(g, machine.state(), &sc.word).map_err(|e| {
                    fail(
                        harness,
                        format!("template {}, after step {steps}: {e}", sc.template.name),
                    )
                })?;
            }
            StepResult::Accept(tree) => {
                kinds.accepts += 1;
                check_tree(g, g.start(), &sc.word, &tree)
                    .map_err(|e| fail(harness, format!("accepted tree fails check_tree: {e:?}")))?;
                return Ok(kinds);
            }
            StepResult::Reject(_) => {
                kinds.rejects += 1;
                return Ok(kinds);
            }
            StepResult::Error(e) => {
                // Every template satisfies the non-left-recursion
                // precondition, so errors are unreachable (Theorem 5.8).
                return Err(fail(harness, format!("machine error: {e}")));
            }
            StepResult::Abort(r) => {
                return Err(fail(harness, format!("abort with unlimited budget: {r}")));
            }
        }
    }
}

/// `H-STACK-WF` — Lemma 5.2 / Fig. 4: every reachable machine state
/// satisfies the stack well-formedness invariant `StacksWf_I`.
pub fn h_stack_wf<N: Nondet>(nd: &mut N, max_word: usize) -> Result<StepKinds, HarnessViolation> {
    drive_with_checker(
        nd,
        "H-STACK-WF",
        |g, st, _| check_stacks_wf(g, st),
        max_word,
    )
}

/// `H-VISITED` — §4.1/§5.4.2: every visited nonterminal is open on the
/// suffix stack in every reachable state.
pub fn h_visited<N: Nondet>(nd: &mut N, max_word: usize) -> Result<StepKinds, HarnessViolation> {
    drive_with_checker(nd, "H-VISITED", |g, st, _| check_visited(g, st), max_word)
}

/// `H-PREFIX-DER` — Fig. 5 `UniqeDer_I`, derivation component: in every
/// reachable state the prefix stack holds well-formed partial trees whose
/// concatenated yield is exactly the consumed input.
pub fn h_prefix_der<N: Nondet>(nd: &mut N, max_word: usize) -> Result<StepKinds, HarnessViolation> {
    drive_with_checker(nd, "H-PREFIX-DER", check_prefix_derivation, max_word)
}

/// `H-MEASURE-DEC` — Lemma 4.2: every `Cont` step strictly decreases the
/// `(tokens, stackScore, height)` measure in the lexicographic order.
pub fn h_measure_dec<N: Nondet>(
    nd: &mut N,
    max_word: usize,
) -> Result<StepKinds, HarnessViolation> {
    const ID: &str = "H-MEASURE-DEC";
    let sc = draw_scenario(nd, max_word);
    let g = &sc.template.grammar;
    let total = sc.word.len();
    let mut cache = SllCache::new();
    let mut machine = Machine::new(g, &sc.template.analysis, &sc.word);
    let mut kinds = StepKinds::default();
    let mut prev = meas(g, machine.state(), total);
    let mut steps = 0u64;
    loop {
        steps += 1;
        if steps > STEP_CEILING {
            return Err(fail(ID, "machine exceeded the step ceiling"));
        }
        let before = (machine.state().cursor, machine.state().stack_height());
        match machine.step(&mut cache) {
            StepResult::Cont => {
                let after = (machine.state().cursor, machine.state().stack_height());
                classify(before, after, &mut kinds, ID)?;
                let now = meas(g, machine.state(), total);
                if now >= prev {
                    return Err(fail(
                        ID,
                        format!(
                            "template {}, step {steps}: measure did not decrease ({now} >= {prev})",
                            sc.template.name
                        ),
                    ));
                }
                prev = now;
            }
            StepResult::Accept(_) => {
                kinds.accepts += 1;
                return Ok(kinds);
            }
            StepResult::Reject(_) => {
                kinds.rejects += 1;
                return Ok(kinds);
            }
            StepResult::Error(e) => return Err(fail(ID, format!("machine error: {e}"))),
            StepResult::Abort(r) => {
                return Err(fail(ID, format!("abort with unlimited budget: {r}")))
            }
        }
    }
}

/// `H-MEASURE-ORD` — the order algebra underpinning §4.2–4.3:
///
/// * `<₃` on measure triples is a coherent strict total order
///   (antisymmetric, transitive) over arbitrary multi-limb components;
/// * the first component dominates, the second breaks its ties — the
///   lexicographic laws Lemma 4.2's case analysis leans on;
/// * `bᵉ⁺¹ > k·bᵉ` for every `k < b` — the exponent-race inequality that
///   makes pushes shrink `stackScore` (Lemma 4.3);
/// * `frameScore` strictly drops as the dot advances, and `stackScore′`
///   is the advertised exponent-weighted sum over the reversed stack.
pub fn h_measure_ord<N: Nondet>(nd: &mut N) -> Result<(), HarnessViolation> {
    const ID: &str = "H-MEASURE-ORD";
    let draw_measure = |nd: &mut N| Measure {
        tokens_remaining: nd.choose(1 << 16),
        stack_score: any_bignat(nd),
        stack_height: nd.choose(1 << 16),
    };
    let a = draw_measure(nd);
    let b = draw_measure(nd);
    let c = draw_measure(nd);

    // Coherence: comparing in either direction must agree.
    if a.cmp(&b) != b.cmp(&a).reverse() {
        return Err(fail(ID, format!("cmp incoherent for {a} vs {b}")));
    }
    // Transitivity.
    if a <= b && b <= c && a > c {
        return Err(fail(ID, format!("cmp not transitive over {a}, {b}, {c}")));
    }
    // Lexicographic dominance.
    if a.tokens_remaining < b.tokens_remaining && a >= b {
        return Err(fail(ID, "first component does not dominate"));
    }
    if a.tokens_remaining == b.tokens_remaining && a.stack_score < b.stack_score && a >= b {
        return Err(fail(
            ID,
            "second component does not break first-component ties",
        ));
    }

    // The exponent race: b^(e+1) > k * b^e for 1 <= k < b.
    let base = 2 + nd.choose(8) as u64; // 2..=9
    let exp = nd.choose(7); // 0..=6
    let k = 1 + nd.choose(base as usize - 1) as u64; // 1..b
    let lhs = BigNat::pow(base, exp + 1);
    let mut rhs = BigNat::pow(base, exp);
    rhs.mul_u64_assign(k);
    if lhs <= rhs {
        return Err(fail(ID, format!("{base}^{} !> {k}*{base}^{exp}", exp + 1)));
    }

    // frameScore drops strictly as the dot advances.
    let t = grammars::template(nd.choose(grammars::NUM_TEMPLATES));
    let (pid, _) = {
        let i = nd.choose(t.grammar.num_productions());
        t.grammar.iter().nth(i).expect("production index in range")
    };
    let g = &t.grammar;
    let len = g.production(pid).rhs().len();
    if len > 0 {
        let dot = nd.choose(len);
        let fbase = 1 + nd.choose(8) as u64; // >= 1 so b^e > 0
        let fexp = nd.choose(5);
        let frame = costar::state::SuffixFrame {
            prod: Some(pid),
            dot,
        };
        let before = frame_score(g, frame, fbase, fexp);
        let after = frame_score(g, frame.advanced(), fbase, fexp);
        if after >= before {
            return Err(fail(
                ID,
                format!("frameScore did not drop when the dot advanced past {dot}"),
            ));
        }
    }

    // stackScore' really is the exponent-weighted sum, bottom frames
    // weighing one exponent more per level of depth.
    let height = 1 + nd.choose(3);
    let frames: Vec<costar::state::SuffixFrame> = (0..height)
        .map(|_| {
            let i = nd.choose(g.num_productions());
            let (pid, p) = g.iter().nth(i).expect("in range");
            costar::state::SuffixFrame {
                prod: Some(pid),
                dot: nd.choose(p.rhs().len() + 1),
            }
        })
        .collect();
    let sbase = 1 + nd.choose(8) as u64;
    let sexp = nd.choose(4);
    let got = stack_score_prime(g, &frames, sbase, sexp);
    let mut want = BigNat::zero();
    for (depth_from_top, &frame) in frames.iter().rev().enumerate() {
        want.add_assign(&frame_score(g, frame, sbase, sexp + depth_from_top));
    }
    if got != want {
        return Err(fail(ID, format!("stackScore' mismatch: {got} != {want}")));
    }
    Ok(())
}

/// `H-CACHE-BOUND` — §3.4 eviction safety plus the capacity contract:
///
/// * a capacity-capped cache (including capacity 0, "cache off") yields
///   outcomes identical to the unbounded cache, on fresh *and* reused
///   caches across consecutive words;
/// * once no prediction is in flight, re-enforcing the cap leaves at most
///   `cap` resident states;
/// * `LlOnly` prediction (no cache at all) agrees with `Adaptive` — the
///   §3.4 claim that the cache is a pure memo.
pub fn h_cache_bound<N: Nondet>(nd: &mut N, max_word: usize) -> Result<(), HarnessViolation> {
    const ID: &str = "H-CACHE-BOUND";
    let t = grammars::template(nd.choose(grammars::NUM_TEMPLATES));
    let word1 = grammars::draw_word(nd, t, max_word);
    let word2 = grammars::draw_word(nd, t, max_word);
    let cap = nd.choose(5); // 0..=4

    let run = |word: &[Token], cache: &mut SllCache, mode: PredictionMode| -> ParseOutcome {
        Machine::with_mode(&t.grammar, &t.analysis, word, mode).run(cache)
    };

    // Unbounded baselines (fresh cache each, like CoStar as published).
    let mut fresh1 = SllCache::new();
    let base1 = run(&word1, &mut fresh1, PredictionMode::Adaptive);
    let mut fresh2 = SllCache::new();
    let base2 = run(&word2, &mut fresh2, PredictionMode::Adaptive);

    // One bounded cache reused across both words (the ANTLR-style policy).
    let mut bounded = SllCache::bounded(cap);
    let got1 = run(&word1, &mut bounded, PredictionMode::Adaptive);
    let got2 = run(&word2, &mut bounded, PredictionMode::Adaptive);
    if got1 != base1 {
        return Err(fail(
            ID,
            format!(
                "template {}, cap {cap}: bounded outcome diverged on word 1 ({got1:?} vs {base1:?})",
                t.name
            ),
        ));
    }
    if got2 != base2 {
        return Err(fail(
            ID,
            format!(
                "template {}, cap {cap}: bounded reused cache diverged on word 2 ({got2:?} vs {base2:?})",
                t.name
            ),
        ));
    }

    if cap == 0 {
        // Cache off: nothing is memoized, so nothing is ever served.
        let stats = bounded.stats();
        if stats.hits != 0 || stats.evictions != 0 {
            return Err(fail(
                ID,
                format!("disabled cache served hits or evicted: {stats:?}"),
            ));
        }
    } else {
        // With no prediction in flight, re-enforcing the cap must leave at
        // most `cap` resident states.
        bounded.set_capacity(Some(cap), None);
        let resident = bounded.stats().states;
        if resident > cap {
            return Err(fail(
                ID,
                format!("cap {cap} but {resident} states resident at rest"),
            ));
        }
    }

    // LL-only agrees with adaptive prediction on language membership,
    // ambiguity labeling, and the tree itself. (Reject *diagnostics* may
    // differ: the two strategies notice a dead end at different points.)
    let mut scratch = SllCache::new();
    let ll = run(&word1, &mut scratch, PredictionMode::LlOnly);
    let agree = match (&ll, &base1) {
        (ParseOutcome::Reject(_), ParseOutcome::Reject(_)) => true,
        _ => ll == base1,
    };
    if !agree {
        return Err(fail(
            ID,
            format!(
                "template {}: LlOnly diverged from Adaptive ({ll:?} vs {base1:?})",
                t.name
            ),
        ));
    }
    Ok(())
}

/// `H-STABLE-COMPLETE` — §3.5: for every nonterminal, the statically
/// computed [`StableFrames`](costar_grammar::analysis::StableFrames)
/// destinations equal a brute-force worklist enumeration of the
/// closure-reachable stable positions. Runs over a nondeterministically
/// chosen template *or* a small arbitrary grammar.
pub fn h_stable_complete<N: Nondet>(nd: &mut N) -> Result<(), HarnessViolation> {
    const ID: &str = "H-STABLE-COMPLETE";
    let (g, analysis);
    let owned;
    let owned_analysis;
    if nd.any_bool() {
        let t = grammars::template(nd.choose(grammars::NUM_TEMPLATES));
        g = &t.grammar;
        analysis = &t.analysis;
    } else {
        owned = grammars::draw_random_grammar(nd);
        owned_analysis = GrammarAnalysis::compute(&owned);
        g = &owned;
        analysis = &owned_analysis;
    }
    for x in g.symbols().nonterminals() {
        let (want_positions, want_can_end) = brute_stable_dests(g, analysis, x);
        let got = analysis.stable_frames.dests(x);
        let got_positions: BTreeSet<Position> = got.positions.iter().copied().collect();
        if got_positions != want_positions || got.can_end != want_can_end {
            return Err(fail(
                ID,
                format!(
                    "stable dests for {} disagree with brute force: \
                     got {} positions (can_end {}), want {} (can_end {})",
                    g.symbols().nonterminal_name(x),
                    got_positions.len(),
                    got.can_end,
                    want_positions.len(),
                    want_can_end,
                ),
            ));
        }
    }
    Ok(())
}

/// `H-DECIDE-SOUND` — soundness of the static decision table's fast
/// path: for any non-left-recursive grammar (template or random) and any
/// input word,
///
/// * the parse with the precompiled LL(1) fast path enabled
///   (`PredictionMode::Adaptive`) and disabled
///   (`PredictionMode::AdaptiveNoStatic`) agree on the outcome variant
///   and, on accept, return byte-identical trees (reject *diagnostics*
///   may differ — the fast path notices a dead end at the decision
///   point, full prediction sometimes later);
/// * both agree with the [`count_trees`](costar_baselines::count_trees)
///   derivation-counting oracle on language membership.
///
/// Left-recursive random grammars are skipped: the paper's correctness
/// theorems (and hence the fast path's contract) presuppose the
/// non-left-recursion precondition, under which `Error` outcomes are
/// unreachable.
pub fn h_decide_sound<N: Nondet>(nd: &mut N, max_word: usize) -> Result<(), HarnessViolation> {
    const ID: &str = "H-DECIDE-SOUND";
    let owned;
    let owned_analysis;
    let (g, analysis, word): (&Grammar, &GrammarAnalysis, Vec<Token>);
    if nd.any_bool() {
        let t = grammars::template(nd.choose(grammars::NUM_TEMPLATES));
        g = &t.grammar;
        analysis = &t.analysis;
        word = grammars::draw_word(nd, t, max_word);
    } else {
        owned = grammars::draw_random_grammar(nd);
        owned_analysis = GrammarAnalysis::compute(&owned);
        g = &owned;
        analysis = &owned_analysis;
        let alphabet: Vec<_> = g.symbols().terminals().collect();
        // A random grammar may use no terminal at all; the only word over
        // an empty alphabet is the empty word.
        let len = if alphabet.is_empty() {
            0
        } else {
            nd.choose(max_word + 1)
        };
        word = (0..len)
            .map(|_| {
                let a = alphabet[nd.choose(alphabet.len())];
                Token::new(a, g.symbols().terminal_name(a))
            })
            .collect();
    }
    if !analysis.left_recursion.is_grammar_safe() {
        return Ok(()); // outside the theorem's precondition
    }

    let run = |mode: PredictionMode| -> ParseOutcome {
        let mut cache = SllCache::new();
        Machine::with_mode(g, analysis, &word, mode).run(&mut cache)
    };
    let fast = run(PredictionMode::Adaptive);
    let full = run(PredictionMode::AdaptiveNoStatic);

    let agree = match (&fast, &full) {
        (ParseOutcome::Reject(_), ParseOutcome::Reject(_)) => true,
        _ => fast == full,
    };
    if !agree {
        return Err(fail(
            ID,
            format!("fast path diverged from full prediction: {fast:?} vs {full:?}"),
        ));
    }

    let oracle = costar_baselines::count_trees(g, &word);
    let expect_member = oracle.is_member();
    let got_member = matches!(fast, ParseOutcome::Unique(_) | ParseOutcome::Ambig(_));
    if expect_member != got_member {
        return Err(fail(
            ID,
            format!("membership disagrees with the oracle: parser {fast:?}, oracle {oracle:?}"),
        ));
    }
    Ok(())
}

/// `H-RECOVER-SOUND` — soundness of the syntax-error-recovery layer
/// (`Parser::parse_recovering`), over a nondeterministic template, an
/// arbitrary word, *and* a single-token corruption (delete / insert /
/// swap) of a known member word:
///
/// * **Identity on accepted words**: when `Parser::parse` accepts,
///   `parse_recovering` returns the *byte-identical* tree, zero
///   diagnostics, and the identical outcome — recovery never perturbs a
///   clean parse.
/// * **Recovery on rejected words**: when `Parser::parse` rejects,
///   `parse_recovering` terminates with at least one diagnostic, an
///   error-annotated tree whose yield (counting tokens absorbed into
///   error nodes) spells the entire input, and a `Reject` outcome
///   carrying the first diagnostic's reason.
/// * **Budget honored**: with `Budget::with_max_recoveries(k)` the
///   recovered parse never records more than `k` diagnostics, and any
///   abort is precisely `AbortReason::RecoveryLimit { limit: k }`.
pub fn h_recover_sound<N: Nondet>(nd: &mut N, max_word: usize) -> Result<(), HarnessViolation> {
    const ID: &str = "H-RECOVER-SOUND";
    let t = grammars::template(nd.choose(grammars::NUM_TEMPLATES));
    let mut parser = Parser::with_analysis(t.grammar.clone(), t.analysis.clone());

    // Arbitrary word: half member words (exercising the identity leg),
    // half random words (exercising the recovery leg).
    let word = grammars::draw_word(nd, t, max_word);
    check_recovery_against_baseline(ID, &mut parser, &word)?;

    // Single-token corruption of a known member word — the deterministic
    // corpus-corruption tests writ nondeterministic.
    let member = t.member_word(nd.choose(t.num_members()));
    let corrupted = corrupt_word(nd, &t.grammar, &member);
    check_recovery_against_baseline(ID, &mut parser, &corrupted)?;

    // The recovery cap is a hard bound, whatever the input.
    let limit = nd.choose(3) as u64; // 0..=2
    let mut bounded = Parser::with_analysis(t.grammar.clone(), t.analysis.clone());
    bounded.set_budget(Budget::unlimited().with_max_recoveries(limit));
    let capped = bounded.parse_recovering(&corrupted);
    if capped.diagnostics.len() as u64 > limit {
        return Err(fail(
            ID,
            format!(
                "template {}: cap {limit} but {} diagnostics recorded",
                t.name,
                capped.diagnostics.len()
            ),
        ));
    }
    match &capped.outcome {
        ParseOutcome::Aborted(AbortReason::RecoveryLimit { limit: l }) if *l == limit => {}
        ParseOutcome::Aborted(other) => {
            return Err(fail(
                ID,
                format!(
                    "template {}: capped run aborted for the wrong reason: {other}",
                    t.name
                ),
            ));
        }
        _ => {} // finished within budget — equally fine
    }
    Ok(())
}

/// The shared obligation of `H-RECOVER-SOUND`: compare one word's plain
/// and recovering parses under an unlimited budget.
fn check_recovery_against_baseline(
    id: &'static str,
    parser: &mut Parser,
    word: &[Token],
) -> Result<(), HarnessViolation> {
    let baseline = parser.parse(word);
    let recovered = parser.parse_recovering(word);
    match &baseline {
        ParseOutcome::Unique(tree) | ParseOutcome::Ambig(tree) => {
            if !recovered.diagnostics.is_empty() {
                return Err(fail(
                    id,
                    format!(
                        "accepted word produced {} diagnostics",
                        recovered.diagnostics.len()
                    ),
                ));
            }
            if recovered.tree() != Some(tree) {
                return Err(fail(
                    id,
                    "accepted word: recovered tree is not byte-identical",
                ));
            }
            if recovered.outcome != baseline {
                return Err(fail(
                    id,
                    format!(
                        "accepted word: outcome diverged ({:?} vs {baseline:?})",
                        recovered.outcome
                    ),
                ));
            }
        }
        ParseOutcome::Reject(_) => {
            if recovered.diagnostics.is_empty() {
                return Err(fail(id, "rejected word produced no diagnostics"));
            }
            if !matches!(recovered.outcome, ParseOutcome::Reject(_)) {
                return Err(fail(
                    id,
                    format!(
                        "rejected word: recovered outcome is {:?}, not Reject",
                        recovered.outcome
                    ),
                ));
            }
            let tree = recovered
                .tree()
                .ok_or_else(|| fail(id, "rejected word recovered with no tree"))?;
            if !tree.has_errors() {
                return Err(fail(id, "recovered tree carries no error node"));
            }
            let yielded: Vec<Terminal> = tree.yield_tokens().iter().map(Token::terminal).collect();
            let want: Vec<Terminal> = word.iter().map(Token::terminal).collect();
            if yielded != want {
                return Err(fail(
                    id,
                    format!(
                        "recovered yield does not spell the input ({} vs {} tokens)",
                        yielded.len(),
                        want.len()
                    ),
                ));
            }
        }
        other => {
            return Err(fail(
                id,
                format!("plain parse returned {other:?} with an unlimited budget"),
            ));
        }
    }
    Ok(())
}

/// Applies one token-level mutation — delete, insert, or adjacent swap —
/// at a nondeterministic position. The result may or may not still be in
/// the language (an ambiguous grammar can absorb an insertion); the
/// harness branches on the plain parser's verdict, so both cases carry
/// their weight.
fn corrupt_word<N: Nondet>(nd: &mut N, g: &Grammar, word: &[Token]) -> Vec<Token> {
    let mut out = word.to_vec();
    let alphabet: Vec<Terminal> = g.symbols().terminals().collect();
    let fresh = |nd: &mut N, alphabet: &[Terminal]| {
        let a = alphabet[nd.choose(alphabet.len())];
        Token::new(a, g.symbols().terminal_name(a))
    };
    match nd.choose(3) {
        0 if !out.is_empty() => {
            out.remove(nd.choose(out.len()));
        }
        2 if out.len() >= 2 => {
            let i = nd.choose(out.len() - 1);
            out.swap(i, i + 1);
        }
        // Insertion is always possible, so it doubles as the fallback for
        // deleting from an empty word or swapping in a word of length < 2.
        _ => {
            let i = nd.choose(out.len() + 1);
            let tok = fresh(nd, &alphabet);
            out.insert(i, tok);
        }
    }
    out
}

/// `H-AUDIT-SOUND` — soundness of the grammar audit pass
/// (`costar audit` / the `costar-cert-v1` certificate), over a
/// nondeterministic template *or* a small arbitrary grammar:
///
/// * **Row coverage**: the audit table carries exactly one row per
///   multi-alternative nonterminal, and the decision-level bound is the
///   `None`-propagating maximum of its pair bounds.
/// * **Minimality**: every finite pair bound `k ≥ 1` carries a collide
///   witness of length `k - 1` after which *both* alternatives still
///   survive — replayed against the live grammar with
///   [`simulate_survivors`], the same primitive the cache loader uses.
///   A recorded resolve witness (length `k`) must leave at most one
///   survivor.
/// * **Sufficiency**: when the alphabet is small enough to enumerate,
///   *no* word of length `k` keeps both alternatives alive — the
///   universal half of "exact" that no single witness can carry (and the
///   reason a *deflated* bound is only caught dynamically, by the
///   engine's `Event::CertificateCheck`).
/// * **Dead verdicts (L009)**: an independent bounded derivation search
///   over sentential forms agrees — an alternative flagged dead derives
///   no terminal word, and whenever the search exhausts conclusively
///   with no word, the audit flagged the alternative.
/// * **Shadowed verdicts (L010)**: every word the shadowed (later)
///   alternative derives within the sampling caps is also derivable by
///   its shadower, checked by an independent bounded membership search.
/// * **Round-trip**: the serialized certificate parses back to an equal
///   table and passes full witness replay ([`replay_certificate`]).
pub fn h_audit_sound<N: Nondet>(nd: &mut N, max_word: usize) -> Result<(), HarnessViolation> {
    const ID: &str = "H-AUDIT-SOUND";
    /// Alphabet^k ceiling for the exhaustive sufficiency check.
    const MAX_ENUM: usize = 256;
    let owned;
    let owned_analysis;
    let (g, analysis): (&Grammar, &GrammarAnalysis);
    if nd.any_bool() {
        let t = grammars::template(nd.choose(grammars::NUM_TEMPLATES));
        g = &t.grammar;
        analysis = &t.analysis;
    } else {
        owned = grammars::draw_random_grammar(nd);
        owned_analysis = GrammarAnalysis::compute(&owned);
        g = &owned;
        analysis = &owned_analysis;
    }
    let audit = &analysis.audit;
    let sf = &analysis.stable_frames;
    let alphabet: Vec<Terminal> = g.symbols().terminals().collect();

    // Row coverage: exactly the multi-alternative nonterminals.
    for x in g.symbols().nonterminals() {
        let multi = g.alternatives(x).len() >= 2;
        if multi != audit.audit(x).is_some() {
            return Err(fail(
                ID,
                format!(
                    "audit row for {} {} but the nonterminal has {} alternatives",
                    g.symbols().nonterminal_name(x),
                    if multi { "missing" } else { "present" },
                    g.alternatives(x).len()
                ),
            ));
        }
    }

    for info in audit.iter() {
        let name = g.symbols().nonterminal_name(info.nonterminal);

        // Decision bound = None-propagating max of the pair bounds.
        let want_k = info
            .pairs
            .iter()
            .try_fold(0usize, |m, p| p.k.map(|k| m.max(k)));
        if info.k != want_k {
            return Err(fail(
                ID,
                format!(
                    "{name}: decision bound {:?} is not the max of its pair bounds {:?}",
                    info.k, want_k
                ),
            ));
        }

        for pair in &info.pairs {
            check_pair_bound(ID, g, analysis, name, pair, &alphabet, max_word, MAX_ENUM)?;
        }

        // Dead verdicts vs the derivation-search oracle.
        for &alt in g.alternatives(info.nonterminal) {
            let claimed_dead = info.dead.contains(&alt);
            let (words, exhaustive) = enumerate_derivable_words(g, g.production(alt).rhs(), 1);
            if claimed_dead && !words.is_empty() {
                return Err(fail(
                    ID,
                    format!(
                        "{name}: alternative {} flagged dead but derives a word of {} tokens",
                        alt.index(),
                        words[0].len()
                    ),
                ));
            }
            if !claimed_dead && exhaustive && words.is_empty() {
                return Err(fail(
                    ID,
                    format!(
                        "{name}: alternative {} derives no terminal word but was not flagged dead",
                        alt.index()
                    ),
                ));
            }
        }

        // Shadow verdicts: the later alternative's sampled words must all
        // be derivable by the earlier shadower.
        for &(shadower, shadowed) in &info.shadowed {
            let (words, _) = enumerate_derivable_words(g, g.production(shadowed).rhs(), 16);
            for w in &words {
                if !derives(g, g.production(shadower).rhs(), w) {
                    return Err(fail(
                        ID,
                        format!(
                            "{name}: alternative {} claimed to shadow {}, but the oracle \
                             derives a {}-token word only the later alternative admits",
                            shadower.index(),
                            shadowed.index(),
                            w.len()
                        ),
                    ));
                }
            }
        }
    }

    // The serialized certificate round-trips and replays in full.
    let text = to_cert_json(g, audit);
    let parsed = parse_cert_json(g, &text)
        .ok_or_else(|| fail(ID, "serialized certificate failed structural validation"))?;
    if &parsed != audit {
        return Err(fail(ID, "certificate round-trip changed the audit table"));
    }
    if !replay_certificate(g, sf, &analysis.productivity, &parsed) {
        return Err(fail(
            ID,
            "freshly computed certificate failed witness replay",
        ));
    }
    Ok(())
}

/// The per-pair obligations of `H-AUDIT-SOUND`: witness shapes, collide
/// minimality, resolve spot-check, and (when enumerable) exhaustive
/// sufficiency of the certified bound.
#[allow(clippy::too_many_arguments)]
fn check_pair_bound(
    id: &'static str,
    g: &Grammar,
    analysis: &GrammarAnalysis,
    name: &str,
    pair: &PairAudit,
    alphabet: &[Terminal],
    max_word: usize,
    max_enum: usize,
) -> Result<(), HarnessViolation> {
    let sf = &analysis.stable_frames;
    let alts = [pair.a, pair.b];
    let survives = |w: &[Terminal]| simulate_survivors(g, sf, &alts, w);
    let Some(k) = pair.k else {
        // Unbounded pairs carry no witnesses by construction.
        if pair.collide.is_some() || pair.resolve.is_some() {
            return Err(fail(
                id,
                format!("{name}: unbounded pair carries witnesses"),
            ));
        }
        return Ok(());
    };

    // Collide witness: present iff k >= 1, length k - 1, both alive.
    match &pair.collide {
        Some(w) => {
            if k == 0 || w.len() != k - 1 {
                return Err(fail(
                    id,
                    format!(
                        "{name}: collide witness has {} tokens for bound k = {k}",
                        w.len()
                    ),
                ));
            }
            let survivors = survives(w)
                .ok_or_else(|| fail(id, format!("{name}: collide replay hit a closure cap")))?;
            if !(survivors.contains(&pair.a) && survivors.contains(&pair.b)) {
                return Err(fail(
                    id,
                    format!(
                        "{name}: collide witness leaves only {} survivor(s) — \
                         the bound k = {k} is inflated",
                        survivors.len()
                    ),
                ));
            }
        }
        None if k >= 1 => {
            return Err(fail(
                id,
                format!("{name}: finite bound k = {k} without a collide witness"),
            ));
        }
        None => {}
    }

    // Resolve witness: length k, at most one survivor.
    if let Some(w) = &pair.resolve {
        if w.len() != k {
            return Err(fail(
                id,
                format!(
                    "{name}: resolve witness has {} tokens for bound k = {k}",
                    w.len()
                ),
            ));
        }
        let survivors = survives(w)
            .ok_or_else(|| fail(id, format!("{name}: resolve replay hit a closure cap")))?;
        if survivors.len() > 1 {
            return Err(fail(
                id,
                format!("{name}: resolve witness leaves both alternatives alive"),
            ));
        }
    }

    // Sufficiency: no word of length k keeps both alternatives alive.
    // Only enumerable alphabets are swept; the witnesses above always run.
    if k <= max_word {
        let total = alphabet
            .len()
            .checked_pow(u32::try_from(k).unwrap_or(u32::MAX));
        if total.is_some_and(|t| t <= max_enum) {
            for w in words_of_length(alphabet, k) {
                // A fresh per-word budget is strictly more generous than
                // the audit's shared graph budget, so a cap here cannot
                // mask a refutation the audit could have seen; skip it.
                let Some(survivors) = survives(&w) else {
                    continue;
                };
                if survivors.len() > 1 {
                    return Err(fail(
                        id,
                        format!(
                            "{name}: a {k}-token word keeps both alternatives alive — \
                             the bound k = {k} is deflated"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// `H-COST-SOUND` — soundness of the static cost certificate
/// (`costar cost` / the `costar-cost-v1` certificate), over a
/// nondeterministic template *or* a small arbitrary grammar and an
/// arbitrary word:
///
/// * **Bound replay**: an unbudgeted accepting or rejecting parse of the
///   `n`-token word consumes `steps_taken ≤ CostModel::bound_for(n)`
///   metered steps, and the observer layer records exactly one cost
///   check against exactly that bound with zero violations.
/// * **Exact fuel**: re-running the same word under
///   `Budget::with_max_steps(bound_for(n))` — the `--max-steps auto`
///   budget — yields the byte-identical outcome, never an abort: the
///   certificate really is enough fuel.
/// * **Monotonicity**: `bound_for` is monotone in `n` (longer inputs
///   never certify smaller budgets), and every bound is positive (even
///   the empty input needs its final return and EOF check).
/// * **Round-trip**: the serialized `costar-cost-v1` certificate parses
///   back to an equal model and passes full replay validation
///   ([`replay_cost_certificate`]) — the same gate the grammar-cache
///   loader applies.
///
/// Left-recursive random grammars are skipped: the certificate's claim
/// (like the paper's correctness theorems) presupposes the
/// non-left-recursion precondition, under which `Error` outcomes are
/// unreachable.
pub fn h_cost_sound<N: Nondet>(nd: &mut N, max_word: usize) -> Result<StepKinds, HarnessViolation> {
    const ID: &str = "H-COST-SOUND";
    let owned;
    let owned_analysis;
    let (g, analysis, word): (&Grammar, &GrammarAnalysis, Vec<Token>);
    if nd.any_bool() {
        let t = grammars::template(nd.choose(grammars::NUM_TEMPLATES));
        g = &t.grammar;
        analysis = &t.analysis;
        word = grammars::draw_word(nd, t, max_word);
    } else {
        owned = grammars::draw_random_grammar(nd);
        owned_analysis = GrammarAnalysis::compute(&owned);
        g = &owned;
        analysis = &owned_analysis;
        let alphabet: Vec<Terminal> = g.symbols().terminals().collect();
        let len = if alphabet.is_empty() {
            0
        } else {
            nd.choose(max_word + 1)
        };
        word = (0..len)
            .map(|_| {
                let a = alphabet[nd.choose(alphabet.len())];
                Token::new(a, g.symbols().terminal_name(a))
            })
            .collect();
    }
    if !analysis.left_recursion.is_grammar_safe() {
        return Ok(StepKinds::default()); // outside the certificate's claim
    }
    check_cost_certificate(ID, g, analysis, &word)
}

/// The shared obligation of `H-COST-SOUND`, also replayed against the
/// bundled languages by the proptest suite: parse `word`, check the
/// metered step count against the certified bound, re-run under exactly
/// that fuel, and round-trip the serialized certificate.
pub fn check_cost_certificate(
    id: &'static str,
    g: &Grammar,
    analysis: &GrammarAnalysis,
    word: &[Token],
) -> Result<StepKinds, HarnessViolation> {
    let cost = &analysis.cost;
    let n = word.len() as u64;
    let bound = cost.bound_for(n);

    // Bound replay against a live metered parse.
    let mut cache = SllCache::new();
    let mut obs = MetricsObserver::new();
    let outcome = Machine::new(g, analysis, word).run_observed(&mut cache, &mut obs);
    let m = obs.into_metrics();
    let mut kinds = StepKinds {
        pushes: m.pushes,
        consumes: m.consumes,
        returns: m.returns,
        ..Default::default()
    };
    match &outcome {
        ParseOutcome::Unique(_) | ParseOutcome::Ambig(_) => kinds.accepts += 1,
        ParseOutcome::Reject(_) => kinds.rejects += 1,
        other => {
            return Err(fail(
                id,
                format!("unbudgeted parse of a safe grammar returned {other:?}"),
            ))
        }
    }
    if m.meter_steps > bound {
        return Err(fail(
            id,
            format!(
                "a {n}-token parse took {} metered steps, above the certified bound {bound} \
                 (a = {}, b = {}, linear = {})",
                m.meter_steps,
                cost.a,
                cost.b,
                cost.is_linear()
            ),
        ));
    }
    if m.cost_checks != 1 || m.cost_violations != 0 || m.predicted_steps != bound {
        return Err(fail(
            id,
            format!(
                "observer cost accounting is off: {} checks, {} violations, \
                 predicted {} (want 1, 0, {bound})",
                m.cost_checks, m.cost_violations, m.predicted_steps
            ),
        ));
    }

    // Exact fuel: the certified bound is itself a sufficient budget.
    let mut cache2 = SllCache::new();
    let budgeted = Machine::with_budget(
        g,
        analysis,
        word,
        PredictionMode::Adaptive,
        &Budget::unlimited().with_max_steps(bound),
    )
    .run(&mut cache2);
    if budgeted != outcome {
        return Err(fail(
            id,
            format!(
                "parsing under the certified fuel bound {bound} changed the outcome: \
                 {budgeted:?} vs {outcome:?}"
            ),
        ));
    }

    // Monotonicity and positivity of the closed form.
    if bound == 0 {
        return Err(fail(id, "certified bound is zero"));
    }
    if cost.bound_for(n.saturating_add(1)) < bound {
        return Err(fail(id, format!("bound_for is not monotone at n = {n}")));
    }

    // Round-trip and replay, the grammar-cache loader's gate.
    let text = to_cost_json(g, cost);
    let parsed = parse_cost_json(g, &text).ok_or_else(|| {
        fail(
            id,
            "serialized cost certificate failed structural validation",
        )
    })?;
    if &parsed != cost {
        return Err(fail(id, "cost certificate round-trip changed the model"));
    }
    if !replay_cost_certificate(
        g,
        &analysis.nullable,
        &analysis.left_recursion,
        &analysis.audit,
        &parsed,
    ) {
        return Err(fail(
            id,
            "freshly computed cost certificate failed replay validation",
        ));
    }
    Ok(kinds)
}

/// The two lexer templates `H-INCR-LEX-SOUND` draws from: a generic
/// idents/ints/brackets shape, and a maximal-munch operator shape where
/// `==` shadows `=` and `->` shadows `-` — the case where an edit between
/// two tokens can fuse them, so splice restart points earn their keep.
/// Compiled once; the session machinery treats them as immutable.
fn incr_lexers() -> &'static [costar_lexer::Lexer] {
    use std::sync::OnceLock;
    static LEXERS: OnceLock<Vec<costar_lexer::Lexer>> = OnceLock::new();
    LEXERS.get_or_init(|| {
        let mut out = Vec::new();
        let mut spec = costar_lexer::LexerSpec::new();
        spec.token("Ident", "[a-z]+")
            .token("Int", "[0-9]+")
            .token_literal("LParen", "(")
            .token_literal("RParen", ")")
            .skip("ws", "[ \t\r\n]+");
        let mut tab = costar_grammar::SymbolTable::new();
        out.push(costar_lexer::Lexer::compile(&spec, &mut tab).expect("incr template lexer 0"));
        let mut spec = costar_lexer::LexerSpec::new();
        spec.token_literal("EqEq", "==")
            .token_literal("Eq", "=")
            .token_literal("Arrow", "->")
            .token_literal("Minus", "-")
            .token("Ident", "[a-z]+")
            .skip("ws", "[ \n]+");
        let mut tab = costar_grammar::SymbolTable::new();
        out.push(costar_lexer::Lexer::compile(&spec, &mut tab).expect("incr template lexer 1"));
        out
    })
}

/// `H-INCR-LEX-SOUND` — soundness of the incremental lexer
/// ([`EditSession`], the substrate of `Parser::reparse_after_edit`), over
/// a nondeterministic lexer template, source, and edit:
///
/// * **Batch equivalence**: after a successful `apply`, the spliced token
///   vector is byte-identical — terminal, lexeme, *and* span — to a
///   from-scratch lex of the edited source. This is the oracle the
///   CLI's `costar edit --oracle` replays and the parse-reuse fast path
///   (`SessionReparse::reused`) relies on.
/// * **Honest `unchanged` flag**: `SpliceReport::unchanged` holds exactly
///   when the spliced vector equals the pre-edit vector — the soundness
///   condition for skipping the re-parse.
/// * **Partition accounting**: `tokens_relexed + tokens_reused` equals
///   the new vector's length, so reuse fractions cannot be gamed.
/// * **Error safety**: a rejected edit (unlexable replacement, bad range,
///   split char) leaves the session's source and tokens untouched.
pub fn h_incr_lex_sound<N: Nondet>(nd: &mut N, max_frags: usize) -> Result<(), HarnessViolation> {
    const ID: &str = "H-INCR-LEX-SOUND";
    let which = nd.choose(2);
    let lexer = &incr_lexers()[which];
    // Pure-ASCII fragment pools, so every byte offset is a char boundary
    // and edits can land anywhere — including mid-token and inside CRLF.
    let frags: &[&str] = if which == 0 {
        &["a", "ab", "7", "42", " ", "\n", "\r\n", "(", ")", "\t"]
    } else {
        &["x", "yz", "=", "==", "-", "->", " ", "\n"]
    };
    let n = nd.choose(max_frags + 1);
    let mut source = String::new();
    for _ in 0..n {
        source.push_str(frags[nd.choose(frags.len())]);
    }
    let mut session = EditSession::new(lexer, &source)
        .map_err(|e| fail(ID, format!("template source failed to lex: {e}")))?;

    let start = nd.choose(source.len() + 1);
    let end = start + nd.choose(source.len() - start + 1);
    let mut replacement = String::new();
    for _ in 0..nd.choose(3) {
        replacement.push_str(frags[nd.choose(frags.len())]);
    }
    // Occasionally unlexable: neither template has a rule matching '%',
    // so this exercises the error-safety leg.
    if nd.choose(8) == 0 {
        replacement.push('%');
    }
    check_incremental_edit(ID, lexer, &mut session, &Edit::new(start..end, replacement))
}

/// The shared obligation of `H-INCR-LEX-SOUND`, also replayed against the
/// bundled languages by the proptest suite: apply one edit and check the
/// splice against a from-scratch lex (or, on failure, that the session is
/// untouched).
pub fn check_incremental_edit(
    id: &'static str,
    lexer: &costar_lexer::Lexer,
    session: &mut EditSession,
    edit: &Edit,
) -> Result<(), HarnessViolation> {
    let before_tokens = session.tokens().to_vec();
    let before_source = session.source().to_owned();
    match session.apply(edit) {
        Ok(report) => {
            let oracle = lexer.tokenize(session.source()).map_err(|e| {
                fail(
                    id,
                    format!("spliced source no longer lexes from scratch: {e}"),
                )
            })?;
            if session.tokens() != oracle.as_slice() {
                return Err(fail(
                    id,
                    format!(
                        "spliced tokens diverge from a from-scratch lex after \
                         {:?} -> {:?}: {} spliced vs {} oracle tokens",
                        edit.range,
                        edit.replacement,
                        session.tokens().len(),
                        oracle.len()
                    ),
                ));
            }
            let identical = session.tokens() == before_tokens.as_slice();
            if report.unchanged != identical {
                return Err(fail(
                    id,
                    format!(
                        "unchanged flag is {} but token-vector identity is {identical}",
                        report.unchanged
                    ),
                ));
            }
            if report.tokens_relexed + report.tokens_reused != session.tokens().len() {
                return Err(fail(
                    id,
                    format!(
                        "splice accounting does not partition the vector: \
                         {} relexed + {} reused != {} tokens",
                        report.tokens_relexed,
                        report.tokens_reused,
                        session.tokens().len()
                    ),
                ));
            }
        }
        Err(
            EditError::Lex(_) | EditError::OutOfBounds { .. } | EditError::NotCharBoundary { .. },
        ) => {
            if session.source() != before_source || session.tokens() != before_tokens.as_slice() {
                return Err(fail(id, "a failed edit mutated the session"));
            }
        }
    }
    Ok(())
}

/// Independent language oracle for dead/shadow verdicts: breadth-first
/// derivation over sentential forms from `start`, collecting up to
/// `max_words` distinct terminal words. The flag reports whether the
/// search exhausted *every* derivation (no cap was hit and the word
/// budget was not the stopping reason) — only then does an empty result
/// prove the language empty.
fn enumerate_derivable_words(
    g: &Grammar,
    start: &[Symbol],
    max_words: usize,
) -> (Vec<Vec<Terminal>>, bool) {
    const MAX_FORM: usize = 12;
    const MAX_STEPS: usize = 4_000;
    let mut words: Vec<Vec<Terminal>> = Vec::new();
    let mut seen: BTreeSet<Vec<Symbol>> = BTreeSet::new();
    let mut queue: VecDeque<Vec<Symbol>> = VecDeque::new();
    queue.push_back(start.to_vec());
    let mut exhaustive = true;
    let mut steps = 0usize;
    while let Some(form) = queue.pop_front() {
        steps += 1;
        if steps > MAX_STEPS {
            exhaustive = false;
            break;
        }
        if !seen.insert(form.clone()) {
            continue;
        }
        let nt_at = form.iter().position(|s| matches!(s, Symbol::Nt(_)));
        match nt_at {
            None => {
                let word: Vec<Terminal> = form
                    .iter()
                    .filter_map(|s| match s {
                        Symbol::T(t) => Some(*t),
                        Symbol::Nt(_) => None,
                    })
                    .collect();
                words.push(word);
                if words.len() >= max_words {
                    exhaustive = false;
                    break;
                }
            }
            Some(i) => {
                let alts: &[ProdId] = match form[i] {
                    Symbol::Nt(y) => g.alternatives(y),
                    Symbol::T(_) => &[],
                };
                for &r in alts {
                    let mut nf = form[..i].to_vec();
                    nf.extend_from_slice(g.production(r).rhs());
                    nf.extend_from_slice(&form[i + 1..]);
                    if nf.len() > MAX_FORM {
                        exhaustive = false;
                        continue;
                    }
                    queue.push_back(nf);
                }
            }
        }
    }
    (words, exhaustive)
}

/// Bounded membership search: can the sentential form `start` derive
/// exactly `w`? Deliberately written independently of the audit's own
/// containment check (leftmost depth-first with a prefix-matched cursor)
/// so the two can disagree. Conservative: `false` on cap exhaustion.
fn derives(g: &Grammar, start: &[Symbol], w: &[Terminal]) -> bool {
    const MAX_STEPS: usize = 8_000;
    let mut seen: BTreeSet<(usize, Vec<Symbol>)> = BTreeSet::new();
    let mut stack: Vec<(usize, Vec<Symbol>)> = vec![(0, start.to_vec())];
    let mut steps = 0usize;
    while let Some((matched, form)) = stack.pop() {
        steps += 1;
        if steps > MAX_STEPS {
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
                    if nf.len() <= w.len() + 12 {
                        stack.push((matched, nf));
                    }
                }
            }
        }
    }
    false
}

/// All words of length exactly `k` over `alphabet`, in lexicographic
/// order. Callers cap `alphabet.len()^k` before asking.
fn words_of_length(alphabet: &[Terminal], k: usize) -> Vec<Vec<Terminal>> {
    let mut out: Vec<Vec<Terminal>> = vec![Vec::new()];
    for _ in 0..k {
        let mut next = Vec::with_capacity(out.len() * alphabet.len().max(1));
        for w in &out {
            for &t in alphabet {
                let mut w2 = w.clone();
                w2.push(t);
                next.push(w2);
            }
        }
        out = next;
    }
    out
}

/// Brute-force §3.5 closure: starting from every grammar position just
/// after an occurrence of `x`, follow return steps (at end of a
/// right-hand side, to every caller of its left-hand side), push steps
/// (into every alternative of the nonterminal at the dot), and nullable
/// skips, collecting each position whose dot sits before a terminal.
/// `can_end` records whether some chain runs off the end of a start
/// production (or `x` is itself the start symbol).
fn brute_stable_dests(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    x: NonTerminal,
) -> (BTreeSet<Position>, bool) {
    let mut stable = BTreeSet::new();
    let mut can_end = x == g.start();
    let mut seen = BTreeSet::new();
    let mut work: Vec<(costar_grammar::ProdId, usize)> = Vec::new();

    let push_continuations_of = |y: NonTerminal, work: &mut Vec<_>| {
        for (pid, p) in g.iter() {
            for (i, &s) in p.rhs().iter().enumerate() {
                if s == Symbol::Nt(y) {
                    work.push((pid, i + 1));
                }
            }
        }
    };
    push_continuations_of(x, &mut work);

    while let Some((pid, dot)) = work.pop() {
        if !seen.insert((pid.index(), dot)) {
            continue;
        }
        let p = g.production(pid);
        if dot == p.rhs().len() {
            // Return step: this production completes its left-hand side.
            let lhs = p.lhs();
            if lhs == g.start() {
                can_end = true;
            }
            push_continuations_of(lhs, &mut work);
            continue;
        }
        match p.rhs()[dot] {
            Symbol::T(_) => {
                stable.insert(Position {
                    production: pid,
                    dot: dot as u32,
                });
            }
            Symbol::Nt(z) => {
                // Push step into every alternative of z...
                for &alt in g.alternatives(z) {
                    work.push((alt, 0));
                }
                // ...and skip over z entirely when it is nullable.
                if analysis.nullable.contains(z) {
                    work.push((pid, dot + 1));
                }
            }
        }
    }
    (stable, can_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nondet::RngNondet;

    #[test]
    fn machine_harnesses_pass_across_seeds() {
        for seed in 0..64 {
            let mut nd = RngNondet::new(seed);
            h_stack_wf(&mut nd, 5).unwrap();
            let mut nd = RngNondet::new(seed);
            h_visited(&mut nd, 5).unwrap();
            let mut nd = RngNondet::new(seed);
            h_prefix_der(&mut nd, 5).unwrap();
            let mut nd = RngNondet::new(seed);
            h_measure_dec(&mut nd, 5).unwrap();
        }
    }

    #[test]
    fn algebra_and_analysis_harnesses_pass_across_seeds() {
        for seed in 0..64 {
            let mut nd = RngNondet::new(seed);
            h_measure_ord(&mut nd).unwrap();
            let mut nd = RngNondet::new(seed);
            h_cache_bound(&mut nd, 5).unwrap();
            let mut nd = RngNondet::new(seed);
            h_stable_complete(&mut nd).unwrap();
            let mut nd = RngNondet::new(seed);
            h_decide_sound(&mut nd, 5).unwrap();
            let mut nd = RngNondet::new(seed);
            h_recover_sound(&mut nd, 5).unwrap();
            let mut nd = RngNondet::new(seed);
            h_audit_sound(&mut nd, 5).unwrap();
            let mut nd = RngNondet::new(seed);
            h_cost_sound(&mut nd, 5).unwrap();
            let mut nd = RngNondet::new(seed);
            h_incr_lex_sound(&mut nd, 6).unwrap();
        }
    }

    #[test]
    fn audit_oracles_agree_on_hand_checked_cases() {
        // fig2's A: "a A" derives "a b", "b" derives only "b".
        let t = grammars::template(0);
        let g = &t.grammar;
        let a = g.symbols().lookup_nonterminal("A").unwrap();
        let alts = g.alternatives(a).to_vec();
        let (words, exhaustive) = enumerate_derivable_words(g, g.production(alts[1]).rhs(), 8);
        assert!(exhaustive, "finite language must enumerate exhaustively");
        assert_eq!(words, vec![vec![g.symbols().lookup_terminal("b").unwrap()]]);
        let b = g.symbols().lookup_terminal("b").unwrap();
        assert!(derives(g, g.production(alts[1]).rhs(), &[b]));
        assert!(!derives(g, g.production(alts[1]).rhs(), &[b, b]));
        // Words of length 2 over a 2-terminal alphabet: exactly 4.
        let two = [b, g.symbols().lookup_terminal("a").unwrap()];
        assert_eq!(words_of_length(&two, 2).len(), 4);
        assert_eq!(words_of_length(&two, 0), vec![Vec::new()]);
    }

    #[test]
    fn step_kinds_aggregate_and_cover() {
        let mut total = StepKinds::default();
        assert!(!total.covers_all_kinds());
        total.absorb(&StepKinds {
            pushes: 1,
            consumes: 2,
            returns: 3,
            accepts: 1,
            rejects: 0,
        });
        assert!(!total.covers_all_kinds(), "rejects still missing");
        total.absorb(&StepKinds {
            rejects: 1,
            ..Default::default()
        });
        assert!(total.covers_all_kinds());
        assert_eq!(total.consumes, 2);
    }

    #[test]
    fn brute_stable_matches_on_fig2_by_hand() {
        // Independent spot check against the worked example in the
        // stable-frames module docs: after A completes in Fig. 2, the
        // stable continuations are exactly "S -> A . c" and "S -> A . d".
        let t = grammars::template(0);
        let a = t.grammar.symbols().lookup_nonterminal("A").unwrap();
        let (positions, can_end) = brute_stable_dests(&t.grammar, &t.analysis, a);
        assert_eq!(positions.len(), 2);
        assert!(!can_end);
        for pos in &positions {
            assert_eq!(pos.dot, 1);
        }
    }

    #[test]
    fn violations_render_with_harness_id() {
        let v = fail("H-EXAMPLE", "something broke");
        assert_eq!(v.to_string(), "H-EXAMPLE violated: something broke");
    }
}
