//! Stepping the stack machine by hand: the paper's Fig. 2 trace.
//!
//! Drives `step` one operation at a time on the grammar and input of
//! Fig. 2, printing after each step the machine's suffix stack, the
//! remaining tokens, the visited set, and the §4 termination measure —
//! watch the measure strictly decrease in the lexicographic order at
//! every step, which is exactly Lemma 4.2.
//!
//! Run with: `cargo run --example machine_trace`

use costar::measure::meas;
use costar::{Machine, SllCache, StepResult};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{GrammarBuilder, Token};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut gb = GrammarBuilder::new();
    gb.rule("S", &["A", "c"]);
    gb.rule("S", &["A", "d"]);
    gb.rule("A", &["a", "A"]);
    gb.rule("A", &["b"]);
    let grammar = gb.start("S").build()?;
    let analysis = GrammarAnalysis::compute(&grammar);

    let symbols = grammar.symbols().clone();
    let tok = |n: &str| Token::new(symbols.lookup_terminal(n).unwrap(), n);
    let word = vec![tok("a"), tok("b"), tok("d")];

    let mut machine = Machine::new(&grammar, &analysis, &word);
    let mut cache = SllCache::new();

    println!("parsing \"abd\" with the Fig. 2 grammar\n");
    println!(
        "{:<4} {:<28} {:<10} {:<12} measure",
        "σ", "suffix stack", "tokens", "visited"
    );
    print_state(&machine, &grammar, &word, 0);

    let mut step = 0usize;
    let tree = loop {
        match machine.step(&mut cache) {
            StepResult::Cont => {
                step += 1;
                print_state(&machine, &grammar, &word, step);
            }
            StepResult::Accept(tree) => break tree,
            other => panic!("unexpected result: {other:?}"),
        }
    };

    println!("\nfinal parse tree:");
    print!("{}", tree.render(grammar.symbols()));
    Ok(())
}

fn print_state(
    machine: &Machine<'_>,
    grammar: &costar_grammar::Grammar,
    word: &[Token],
    step: usize,
) {
    let st = machine.state();
    let symbols = grammar.symbols();

    // Render the suffix stack top-first, each frame as its unprocessed
    // symbols (the paper's presentation).
    let frames: Vec<String> = st
        .suffix
        .iter()
        .rev()
        .map(|f| {
            let syms: Vec<&str> = f
                .unprocessed(grammar)
                .iter()
                .map(|&s| symbols.symbol_name(s))
                .collect();
            format!("[{}]", syms.join(" "))
        })
        .collect();
    let rest: String = word[st.cursor..]
        .iter()
        .map(|t| t.lexeme())
        .collect::<Vec<_>>()
        .join("");
    let visited: Vec<&str> = st
        .visited
        .iter()
        .map(|x| symbols.nonterminal_name(x))
        .collect();
    let m = meas(grammar, st, word.len());
    println!(
        "σ{:<3} {:<28} {:<10} {:<12} {}",
        step,
        frames.join(""),
        if rest.is_empty() { "ε" } else { &rest },
        format!("{{{}}}", visited.join(",")),
        m
    );
}
