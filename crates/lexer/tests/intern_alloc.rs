//! Allocation accounting for fixed-lexeme token interning.
//!
//! `LexerSpec::token_literal` rules (keywords, punctuation) match exactly
//! one spelling, so the compiled lexer interns that spelling once and
//! tokenization hands out `Arc` clones. These tests pin the property with
//! a per-thread counting global allocator: lexing N fixed-lexeme tokens performs
//! only the token vector's growth allocations, never one per occurrence.

// Tests are exempt from the crate's panic-freedom discipline
// (crates/lexer/clippy.toml), same as the in-crate test modules.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use costar_grammar::SymbolTable;
use costar_lexer::{Lexer, LexerSpec};
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

fn punct_lexer() -> Lexer {
    let mut spec = LexerSpec::new();
    spec.token_literal("If", "if");
    spec.token_literal("LBrace", "{");
    spec.token_literal("RBrace", "}");
    spec.token_literal("Comma", ",");
    spec.token("Ident", "[a-z]+");
    spec.skip("ws", " +");
    let mut tab = SymbolTable::new();
    Lexer::compile(&spec, &mut tab).unwrap()
}

#[test]
fn lexing_fixed_lexemes_does_not_allocate_per_token() {
    let lexer = punct_lexer();
    // 4096 tokens, all fixed-spelling: `if { } ,` repeated.
    let source = "if { } , ".repeat(1024);
    let (tokens, allocs) = allocations_during(|| lexer.tokenize(&source).unwrap());
    assert_eq!(tokens.len(), 4096);
    // Only the token vector's doubling growth may allocate: ~log2(4096)
    // reallocations plus small constant slack, nowhere near one per token.
    assert!(
        allocs <= 32,
        "interned lexing allocated {allocs} times for {} tokens",
        tokens.len()
    );
    // Every `if` shares one interned allocation.
    let first_if = tokens.iter().find(|t| t.lexeme() == "if").unwrap();
    assert!(tokens
        .iter()
        .filter(|t| t.lexeme() == "if")
        .all(|t| std::ptr::eq(t.lexeme().as_ptr(), first_if.lexeme().as_ptr())));
}

#[test]
fn pattern_tokens_still_allocate_their_lexemes() {
    let lexer = punct_lexer();
    let source = "ab cd ef";
    let (tokens, allocs) = allocations_during(|| lexer.tokenize(source).unwrap());
    assert_eq!(tokens.len(), 3);
    // Three fresh lexemes plus vector growth: must be at least one
    // allocation per pattern-matched token (the interning fast path does
    // not apply to them).
    assert!(allocs >= 3, "expected per-lexeme allocations, got {allocs}");
}
