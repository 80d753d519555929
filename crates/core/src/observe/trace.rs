//! The trace observer: a bounded ring buffer of structured parse events
//! for post-mortem inspection.

use super::{Event, MachineOp, ParseObserver};
use costar_grammar::{NonTerminal, SymbolTable};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One recorded event: a monotonically increasing sequence number (over
/// *all* structural events seen, including those the ring has since
/// dropped) plus the event itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// 0-based position of this event in the structural event stream.
    pub seq: u64,
    /// The event.
    pub event: Event,
}

impl TraceEvent {
    /// Renders the event on one line, resolving nonterminal names via
    /// `tab` when provided (falling back to `N<index>`).
    pub fn render(&self, tab: Option<&SymbolTable>) -> String {
        let nt_name = |nt: NonTerminal| match tab {
            Some(t) => t.nonterminal_name(nt).to_owned(),
            None => format!("N{}", nt.index()),
        };
        let mut s = format!("[{:>6}] ", self.seq);
        let _ = match self.event {
            Event::Op {
                op,
                cursor,
                stack_height,
            } => {
                let name = match op {
                    MachineOp::Push => "push",
                    MachineOp::Consume => "consume",
                    MachineOp::Return => "return",
                };
                write!(s, "{name} @tok {cursor} depth {stack_height}")
            }
            Event::PredictStart { x, phase } => {
                write!(s, "predict {:?} start {}", phase, nt_name(x))
            }
            Event::PredictEnd { x, phase, outcome } => {
                write!(s, "predict {:?} end {} -> {:?}", phase, nt_name(x), outcome)
            }
            Event::Failover { x } => write!(s, "failover to LL on {}", nt_name(x)),
            Event::CacheEvictions { evicted } => write!(s, "cache evicted {evicted} state(s)"),
            Event::Abort { reason } => write!(s, "ABORT: {reason}"),
            other => write!(s, "{other:?}"),
        };
        s
    }
}

/// A [`ParseObserver`] that keeps the last `capacity` structural events
/// in a ring buffer: machine operations, prediction phase starts and
/// ends, failovers, cache evictions and aborts. Counter-style events
/// (cache hits/misses, lookahead tokens, closure steps, decisions)
/// belong to [`MetricsObserver`](super::MetricsObserver); the trace
/// keeps the *shape* of the parse. With capacity 0 it records nothing
/// (but still counts sequence numbers), so an always-installed trace
/// costs almost nothing until a buffer is requested.
///
/// Intended use: run with a modest capacity, and on abort/reject dump the
/// buffer ([`TraceObserver::dump`]) to see the machine's final moments.
#[derive(Debug, Default)]
pub struct TraceObserver {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
}

impl TraceObserver {
    /// Creates a trace observer retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceObserver {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_seq: 0,
        }
    }

    fn push(&mut self, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceEvent { seq, event });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of retained events (at most the capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events seen, including those the ring has dropped.
    pub fn total_events(&self) -> u64 {
        self.next_seq
    }

    /// Renders the retained events, one per line, oldest first.
    pub fn dump(&self, tab: Option<&SymbolTable>) -> String {
        let mut out = String::new();
        for ev in &self.ring {
            out.push_str(&ev.render(tab));
            out.push('\n');
        }
        out
    }
}

impl ParseObserver for TraceObserver {
    fn on_event(&mut self, e: Event) {
        if matches!(
            e,
            Event::Op { .. }
                | Event::PredictStart { .. }
                | Event::PredictEnd { .. }
                | Event::Failover { .. }
                | Event::CacheEvictions { .. }
                | Event::Abort { .. }
        ) {
            self.push(e);
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::{AbortReason, Budget, ParseOutcome, Parser};
    use costar_grammar::{tokens, GrammarBuilder};

    fn op(cursor: usize) -> Event {
        Event::Op {
            op: MachineOp::Consume,
            cursor,
            stack_height: 1,
        }
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let mut tr = TraceObserver::new(3);
        for i in 0..5 {
            tr.push(op(i));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.total_events(), 5);
        let seqs: Vec<u64> = tr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_records_nothing_but_counts() {
        let mut tr = TraceObserver::new(0);
        tr.push(op(0));
        tr.push(op(1));
        assert!(tr.is_empty());
        assert_eq!(tr.total_events(), 2);
        assert_eq!(tr.dump(None), "");
    }

    #[test]
    fn dump_renders_one_line_per_event() {
        let mut tr = TraceObserver::new(8);
        tr.on_event(Event::Op {
            op: MachineOp::Push,
            cursor: 2,
            stack_height: 3,
        });
        tr.on_event(Event::Failover {
            x: NonTerminal::from_index(0),
        });
        tr.on_event(Event::CacheHit); // counter-style: not traced
        tr.on_event(Event::Abort {
            reason: AbortReason::StepLimit { limit: 9 },
        });
        let dump = tr.dump(None);
        assert_eq!(dump.lines().count(), 3);
        assert_eq!(tr.total_events(), 3);
        assert!(dump.contains("push @tok 2 depth 3"));
        assert!(dump.contains("failover to LL on N0"));
        assert!(dump.contains("ABORT: step budget exhausted (limit 9)"));
    }

    #[test]
    fn failover_then_abort_dump_is_pinned() {
        // The SLL-conflict grammar of the prediction tests: X's SLL phase
        // conflicts (under a one-state cache cap that evicts as it goes),
        // fails over to LL, and the step budget runs out inside LL.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["p", "C1"]);
        gb.rule("S", &["q", "C2"]);
        gb.rule("C1", &["X", "b"]);
        gb.rule("C2", &["X", "a", "b"]);
        gb.rule("X", &["a", "a"]);
        gb.rule("X", &["a"]);
        let mut p = Parser::new(gb.start("S").build().unwrap());
        p.set_budget(
            Budget::unlimited()
                .with_max_steps(10)
                .with_max_cache_entries(1),
        );
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("q", "q"), ("a", "a"), ("a", "a"), ("b", "b")]);
        let mut tr = TraceObserver::new(64);
        let r = p.run(&w, false, &mut tr);
        assert_eq!(
            r.outcome,
            ParseOutcome::Aborted(AbortReason::StepLimit { limit: 10 })
        );
        assert_eq!(
            tr.dump(Some(p.grammar().symbols())),
            "\
[     0] push @tok 0 depth 2
[     1] consume @tok 0 depth 2
[     2] push @tok 1 depth 3
[     3] predict Sll start X
[     4] cache evicted 1 state(s)
[     5] cache evicted 1 state(s)
[     6] predict Sll end X -> Ambig
[     7] failover to LL on X
[     8] predict Ll start X
[     9] ABORT: step budget exhausted (limit 10)
[    10] predict Ll end X -> Abort
"
        );
    }
}
