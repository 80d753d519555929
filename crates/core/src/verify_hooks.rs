//! Nondeterministic-value constructors for bounded model checking.
//!
//! Compiled only under `cfg(kani)` (i.e. by `cargo kani`, never by plain
//! `cargo`): these helpers let the `costar-verify` proof harnesses draw
//! *core-internal* values — [`BigNat`]s, [`Measure`] triples, suffix
//! frames — directly from the model checker's nondeterministic value
//! space, instead of reconstructing them through the public builder APIs.
//! Every constructor takes explicit bounds and encodes them with
//! `kani::assume`, keeping the symbolic state space small enough for
//! bounded verification to finish.
//!
//! The dual (pseudo-random) constructors for the default build live in
//! `costar-verify`'s `Nondet` abstraction; this module is the Kani side
//! of that pairing.

use crate::bignat::BigNat;
use crate::measure::Measure;
use crate::state::SuffixFrame;
use costar_grammar::{Grammar, ProdId};

/// An arbitrary [`BigNat`] with at most two 64-bit limbs — enough to
/// exercise carry propagation without exploding the state space.
pub fn any_bignat() -> BigNat {
    let mut n = BigNat::from(kani::any::<u64>());
    if kani::any::<bool>() {
        // Shift into the second limb by multiplying through 2^32 twice.
        n.mul_u64_assign(1 << 32);
        n.mul_u64_assign(1 << 32);
        n.add_assign(&BigNat::from(kani::any::<u64>()));
    }
    n
}

/// An arbitrary measure triple with each component bounded.
pub fn any_measure(max_tokens: usize, max_height: usize) -> Measure {
    let tokens_remaining: usize = kani::any();
    kani::assume(tokens_remaining <= max_tokens);
    let stack_height: usize = kani::any();
    kani::assume(stack_height <= max_height);
    Measure {
        tokens_remaining,
        stack_score: any_bignat(),
        stack_height,
    }
}

/// An arbitrary suffix frame naming `prod` (`None`: the bottom frame) of
/// `g`: the dot is nondeterministic but in range.
pub fn any_frame(g: &Grammar, prod: Option<ProdId>) -> SuffixFrame {
    let dot: usize = kani::any();
    kani::assume(dot <= g.frame_rhs(prod).len());
    SuffixFrame { prod, dot }
}
