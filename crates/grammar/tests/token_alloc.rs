//! Allocation accounting for the token hot path.
//!
//! The parser clones one token per consumed input symbol (into the parse
//! tree's leaf). With `Arc<str>` lexemes that clone must be a pure
//! refcount bump: these tests pin the "no allocation per clone" property
//! with a per-thread counting global allocator, so a regression back to owned
//! strings shows up as a test failure rather than a silent slowdown.

use costar_grammar::{tokens, SymbolTable, Token};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Counting per thread keeps other
    /// test threads' allocations out of a measurement; the const
    /// initializer means the counter itself never allocates, so touching
    /// it from inside the allocator cannot recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` fails only while this thread is being torn down,
        // when nothing is being measured.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by the current thread while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    let after = ALLOCATIONS.with(Cell::get);
    (r, after - before)
}

#[test]
fn cloning_tokens_does_not_allocate() {
    let mut tab = SymbolTable::new();
    let word = tokens(
        &mut tab,
        &[("Int", "42"), ("Plus", "+"), ("Int", "1729"), ("Semi", ";")],
    );
    let (clones, allocs) = allocations_during(|| {
        let mut clones = Vec::with_capacity(1024);
        for _ in 0..256 {
            for t in &word {
                clones.push(t.clone());
            }
        }
        clones
    });
    assert_eq!(clones.len(), 1024);
    // The pre-sized Vec backing store is the only permitted allocation.
    assert!(
        allocs <= 1,
        "token clones must not allocate: {allocs} allocations for 1024 clones"
    );
}

#[test]
fn token_construction_allocates_once_per_lexeme() {
    let mut tab = SymbolTable::new();
    let int = tab.terminal("Int");
    let ((), allocs) = allocations_during(|| {
        let t = Token::new(int, "42");
        let _ = t.clone();
        let _ = t.clone();
        let _ = t.clone();
    });
    // One Arc<str> for the lexeme; clones add nothing.
    assert_eq!(
        allocs, 1,
        "expected a single lexeme allocation, got {allocs}"
    );
}
