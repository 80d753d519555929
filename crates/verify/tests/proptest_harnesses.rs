//! The proptest driver for the dual-mode harnesses: every harness body
//! from `costar_verify::harness` run across many RNG seeds, plus the
//! coverage obligations — `H-STACK-WF` and `H-MEASURE-DEC` must have
//! exercised *all* machine step kinds (push, consume, return) and both
//! final results (accept, reject) across the aggregate, so the harnesses
//! cannot silently go vacuous.

use costar::bignat::BigNat;
use costar::measure::meas;
use costar::{Machine, SllCache, StepResult};
use costar_grammar::analysis::GrammarAnalysis;
use costar_verify::grammars;
use costar_verify::harness::{
    check_cost_certificate, check_incremental_edit, h_audit_sound, h_cache_bound, h_cost_sound,
    h_decide_sound, h_incr_lex_sound, h_measure_dec, h_measure_ord, h_prefix_der, h_recover_sound,
    h_stable_complete, h_stack_wf, h_visited, HarnessViolation, StepKinds,
};
use costar_verify::nondet::{Nondet, RngNondet};
use proptest::prelude::*;

/// Word-length bound for the machine-driving harnesses. Longer than the
/// Kani proofs use (the fuzzer scales where the model checker cannot).
const MAX_WORD: usize = 6;

fn ok(result: Result<impl Sized, HarnessViolation>) -> Result<(), TestCaseError> {
    match result {
        Ok(_) => Ok(()),
        Err(v) => Err(TestCaseError::fail(v.to_string())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn h_stack_wf_holds(seed in any::<u64>()) {
        ok(h_stack_wf(&mut RngNondet::new(seed), MAX_WORD))?;
    }

    #[test]
    fn h_visited_holds(seed in any::<u64>()) {
        ok(h_visited(&mut RngNondet::new(seed), MAX_WORD))?;
    }

    #[test]
    fn h_prefix_der_holds(seed in any::<u64>()) {
        ok(h_prefix_der(&mut RngNondet::new(seed), MAX_WORD))?;
    }

    #[test]
    fn h_measure_dec_holds(seed in any::<u64>()) {
        ok(h_measure_dec(&mut RngNondet::new(seed), MAX_WORD))?;
    }

    #[test]
    fn h_measure_ord_holds(seed in any::<u64>()) {
        ok(h_measure_ord(&mut RngNondet::new(seed)))?;
    }

    #[test]
    fn h_cache_bound_holds(seed in any::<u64>()) {
        ok(h_cache_bound(&mut RngNondet::new(seed), MAX_WORD))?;
    }

    #[test]
    fn h_stable_complete_holds(seed in any::<u64>()) {
        ok(h_stable_complete(&mut RngNondet::new(seed)))?;
    }

    #[test]
    fn h_decide_sound_holds(seed in any::<u64>()) {
        ok(h_decide_sound(&mut RngNondet::new(seed), MAX_WORD))?;
    }

    #[test]
    fn h_recover_sound_holds(seed in any::<u64>()) {
        ok(h_recover_sound(&mut RngNondet::new(seed), MAX_WORD))?;
    }

    #[test]
    fn h_audit_sound_holds(seed in any::<u64>()) {
        ok(h_audit_sound(&mut RngNondet::new(seed), MAX_WORD))?;
    }

    #[test]
    fn h_cost_sound_holds(seed in any::<u64>()) {
        ok(h_cost_sound(&mut RngNondet::new(seed), MAX_WORD))?;
    }

    #[test]
    fn h_incr_lex_sound_holds(seed in any::<u64>()) {
        ok(h_incr_lex_sound(&mut RngNondet::new(seed), 8))?;
    }

    /// Satellite of `H-MEASURE-DEC`: not only does `meas` decrease
    /// lexicographically at every step, each machine step *kind* moves
    /// the component the paper's Lemma 4.2 case analysis says it moves —
    /// consume shrinks `tokens_remaining`, push keeps the token count
    /// and strictly shrinks `stackScore` (the §4.3 exponent race), and
    /// return keeps the token count while shrinking score or height.
    #[test]
    fn measure_components_are_monotone_per_step_kind(seed in any::<u64>()) {
        let mut nd = RngNondet::new(seed);
        let t = grammars::template(nd.choose(grammars::NUM_TEMPLATES));
        let word = grammars::draw_word(&mut nd, t, MAX_WORD);
        let g = &t.grammar;
        let total = word.len();
        let mut cache = SllCache::new();
        let mut machine = Machine::new(g, &t.analysis, &word);
        let mut prev = meas(g, machine.state(), total);
        let mut steps = 0u32;
        loop {
            steps += 1;
            prop_assert!(steps < 100_000, "machine exceeded the step ceiling");
            let before = (machine.state().cursor, machine.state().stack_height());
            match machine.step(&mut cache) {
                StepResult::Cont => {
                    let after = (machine.state().cursor, machine.state().stack_height());
                    let now = meas(g, machine.state(), total);
                    prop_assert!(now < prev, "measure did not decrease: {now} >= {prev}");
                    if after.0 > before.0 {
                        prop_assert!(now.tokens_remaining < prev.tokens_remaining,
                            "consume step did not shrink tokens_remaining");
                    } else if after.1 > before.1 {
                        prop_assert_eq!(now.tokens_remaining, prev.tokens_remaining);
                        prop_assert!(now.stack_score < prev.stack_score,
                            "push step did not shrink stackScore");
                    } else {
                        prop_assert!(after.1 < before.1, "Cont step changed nothing");
                        prop_assert_eq!(now.tokens_remaining, prev.tokens_remaining);
                        prop_assert!(
                            now.stack_score < prev.stack_score
                                || (now.stack_score == prev.stack_score
                                    && now.stack_height < prev.stack_height),
                            "return step shrank neither stackScore nor height");
                    }
                    prev = now;
                }
                _ => break,
            }
        }
    }

    /// Satellite: `BigNat` addition agrees with `u128` arithmetic across
    /// the word-size boundary, with the strategy biased toward the carry
    /// edges (`u64::MAX`, `2⁶³`).
    #[test]
    fn bignat_add_matches_u128_at_word_boundaries(
        a in boundary_u64(), b in boundary_u64()
    ) {
        let mut n = BigNat::from(a);
        n.add_assign(&BigNat::from(b));
        prop_assert_eq!(n, bignat_from_u128(u128::from(a) + u128::from(b)));
    }

    /// Satellite: `BigNat` limb multiplication agrees with `u128`
    /// arithmetic across the word-size boundary, and `Ord` on the results
    /// agrees with the integer order.
    #[test]
    fn bignat_mul_and_ord_match_u128_at_word_boundaries(
        a in boundary_u64(), b in boundary_u64(), f in boundary_u64()
    ) {
        let mut x = BigNat::from(a);
        x.mul_u64_assign(f);
        let mut y = BigNat::from(b);
        y.mul_u64_assign(f);
        let xi = u128::from(a) * u128::from(f);
        let yi = u128::from(b) * u128::from(f);
        prop_assert_eq!(&x, &bignat_from_u128(xi));
        prop_assert_eq!(&y, &bignat_from_u128(yi));
        prop_assert_eq!(x.cmp(&y), xi.cmp(&yi));
    }
}

/// A `u64` strategy weighted toward the carry/overflow edges of the word
/// size, where limb arithmetic bugs live.
fn boundary_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(1u64 << 63),
        Just((1u64 << 63) - 1),
        any::<u64>(),
    ]
}

/// Reference construction of a two-limb `BigNat` from a `u128`, built
/// only from `From<u64>` and the shift-by-2⁶⁴ identity.
fn bignat_from_u128(v: u128) -> BigNat {
    let mut hi = BigNat::from((v >> 64) as u64);
    hi.mul_u64_assign(1 << 32);
    hi.mul_u64_assign(1 << 32);
    hi.add_assign(&BigNat::from(v as u64));
    hi
}

/// Aggregates one harness across a deterministic seed range and returns
/// the combined step-kind counters.
fn aggregate(
    mut run: impl FnMut(&mut RngNondet) -> Result<StepKinds, HarnessViolation>,
) -> StepKinds {
    let mut total = StepKinds::default();
    for seed in 0..512u64 {
        let mut nd = RngNondet::new(seed);
        let kinds = run(&mut nd).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        total.absorb(&kinds);
    }
    total
}

#[test]
fn h_stack_wf_covers_all_step_kinds() {
    let total = aggregate(|nd| h_stack_wf(nd, MAX_WORD));
    assert!(
        total.covers_all_kinds(),
        "H-STACK-WF left a step kind unexercised: {total:?}"
    );
}

#[test]
fn h_measure_dec_covers_all_step_kinds() {
    let total = aggregate(|nd| h_measure_dec(nd, MAX_WORD));
    assert!(
        total.covers_all_kinds(),
        "H-MEASURE-DEC left a step kind unexercised: {total:?}"
    );
}

#[test]
fn h_cost_sound_covers_both_outcomes() {
    let total = aggregate(|nd| h_cost_sound(nd, MAX_WORD));
    assert!(
        total.accepts > 0 && total.rejects > 0,
        "H-COST-SOUND never exercised both accept and reject: {total:?}"
    );
}

/// The deterministic leg of `H-COST-SOUND`: replay the certified bound
/// against real metered parses of all four bundled languages
/// (JSON, XML, DOT, Python), not just templates and sampled grammars.
/// Every corpus file must parse within `CostModel::bound_for(n)` with
/// zero `Event::CostCheck` violations — the same obligation `costar cost`
/// certifies and `--max-steps auto` relies on.
/// The deterministic leg of `H-INCR-LEX-SOUND`: replay edit sessions
/// against the real DFA lexers of all four bundled languages, not just
/// the harness's lexer templates. Each corpus file takes a seeded burst
/// of edits whose replacements are slices copied out of the file itself
/// — some splice cleanly, some fail to lex (exercising error safety) —
/// and after every edit the spliced token vector must be byte-identical
/// to a from-scratch lex. Python participates at the DFA level with
/// newline-free content: its INDENT/DEDENT synthesis sits *above* the
/// lexer this claim is about (`Language::incremental_lexing` is how the
/// CLI routes around it).
#[test]
fn h_incr_lex_sound_replays_on_bundled_languages() {
    use costar::{Edit, EditSession};
    for (lang, generate) in costar_langs::all_languages() {
        for (i, src) in costar_langs::corpus(generate, 0x1EC5, 3, 400)
            .iter()
            .enumerate()
        {
            let src = if lang.incremental_lexing() {
                src.clone()
            } else {
                src.replace('\n', " ")
            };
            let mut session = EditSession::new(lang.lexer(), &src)
                .unwrap_or_else(|e| panic!("{} corpus file {i}: {e}", lang.name));
            let mut nd = RngNondet::new(0x1EC5 ^ i as u64);
            for round in 0..12 {
                // Snap arbitrary offsets down to char boundaries so the
                // edit is well-formed whatever the generator emitted.
                let boundary = |s: &str, mut at: usize| {
                    while !s.is_char_boundary(at) {
                        at -= 1;
                    }
                    at
                };
                let len = session.source().len();
                let start = boundary(session.source(), nd.choose(len + 1));
                let end = boundary(session.source(), start + nd.choose(len - start + 1));
                let from = boundary(session.source(), nd.choose(len + 1));
                let to = boundary(session.source(), from + nd.choose((len - from).min(12) + 1));
                let replacement = session.source()[from..to].to_owned();
                check_incremental_edit(
                    "H-INCR-LEX-SOUND",
                    lang.lexer(),
                    &mut session,
                    &Edit::new(start..end, replacement),
                )
                .unwrap_or_else(|v| panic!("{} file {i}, edit {round}: {v}", lang.name));
            }
        }
    }
}

#[test]
fn h_cost_sound_replays_on_bundled_languages() {
    for (lang, generate) in costar_langs::all_languages() {
        let g = lang.grammar();
        let analysis = GrammarAnalysis::compute(g);
        for (i, src) in costar_langs::corpus(generate, 0xC057, 4, 400)
            .iter()
            .enumerate()
        {
            let word = lang
                .tokenize(src)
                .unwrap_or_else(|e| panic!("{} corpus file {i}: {e}", lang.name));
            check_cost_certificate("H-COST-SOUND", g, &analysis, &word).unwrap_or_else(|v| {
                panic!("{} corpus file {i} ({} tokens): {v}", lang.name, word.len())
            });
        }
    }
}
