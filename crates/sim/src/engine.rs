//! The one virtual-time event loop.
//!
//! [`run`] replays a trace against a [`Node`]. It owns the completion heap
//! and the tick and control-epoch cursors, so it alone decides the order
//! of events; what a node does with an event, and what it counts, is the
//! node's. [`crate::sim::Simulation`], [`crate::elastic::run_elastic`],
//! [`crate::cluster::run_cluster`] and the platform emulator are nodes.
//!
//! At one instant `t` the order is: completions due at or before `t`
//! (earliest first, each at its own finish time), then the control epoch
//! due at `t`, then the tick due at `t`, then the arrival at `t`. After
//! the last arrival the engine keeps ticking while [`Node::has_waiting`]
//! holds, then releases the remaining completions without ticks.

use faascache_core::function::FunctionId;
use faascache_trace::record::Trace;
use faascache_util::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Scheduled completions, earliest first (ties in token order).
#[derive(Debug)]
pub struct Completions<T>(BinaryHeap<Reverse<(SimTime, T)>>);

impl<T: Ord> Completions<T> {
    /// Schedules `token` to complete at `at`.
    pub fn push(&mut self, at: SimTime, token: T) {
        self.0.push(Reverse((at, token)));
    }
}

/// What the engine drives: an [`crate::Invoker`], N invokers behind a
/// balancer, an invoker behind an admission queue, a live invoker.
pub trait Node {
    /// Names one scheduled completion.
    type Token: Ord;
    /// An invocation of `function` arrives at `now`.
    fn arrive(&mut self, function: FunctionId, now: SimTime, done: &mut Completions<Self::Token>);
    /// A completion scheduled for `at` fires.
    fn complete(&mut self, token: Self::Token, at: SimTime, done: &mut Completions<Self::Token>);
    /// A housekeeping tick at `now`.
    fn tick(&mut self, now: SimTime, done: &mut Completions<Self::Token>);
    /// A control epoch at `now` (only when [`run`] is given a period).
    fn epoch(&mut self, _now: SimTime) {}
    /// Whether work still waits for a tick once the trace is over.
    fn has_waiting(&self) -> bool {
        false
    }
}

/// Replays `trace` against `node`, ticking every `tick` and, when given,
/// opening a control epoch every `epoch`. Panics if either is zero: its
/// cursor would never advance.
pub fn run<N: Node>(node: &mut N, trace: &Trace, tick: SimDuration, epoch: Option<SimDuration>) {
    assert!(tick > SimDuration::ZERO, "zero tick interval");
    assert!(epoch != Some(SimDuration::ZERO), "zero control period");
    let mut engine = Engine {
        done: Completions(BinaryHeap::new()),
        tick,
        next_tick: SimTime::ZERO + tick,
        epoch: epoch.unwrap_or(SimDuration::ZERO),
        next_epoch: epoch.map_or(SimTime::MAX, |e| SimTime::ZERO + e),
    };
    for inv in trace.invocations() {
        engine.advance(node, inv.time);
        node.arrive(inv.function, inv.time, &mut engine.done);
    }
    while node.has_waiting() {
        engine.advance(node, engine.next_tick);
    }
    engine.drain(node, SimTime::MAX);
}

struct Engine<T> {
    done: Completions<T>,
    tick: SimDuration,
    next_tick: SimTime,
    epoch: SimDuration,
    next_epoch: SimTime,
}

impl<T: Ord> Engine<T> {
    /// Fires every completion, epoch and tick due at or before `upto`.
    fn advance<N: Node<Token = T>>(&mut self, node: &mut N, upto: SimTime) {
        loop {
            let next = self.next_tick.min(self.next_epoch);
            if next > upto {
                break;
            }
            self.drain(node, next);
            if self.next_epoch <= self.next_tick {
                node.epoch(next);
                self.next_epoch += self.epoch;
            } else {
                node.tick(next, &mut self.done);
                self.next_tick += self.tick;
            }
        }
        self.drain(node, upto);
    }

    fn drain<N: Node<Token = T>>(&mut self, node: &mut N, upto: SimTime) {
        while self.done.0.peek().is_some_and(|Reverse((t, _))| *t <= upto) {
            let Reverse((t, token)) = self.done.0.pop().expect("peeked");
            node.complete(token, t, &mut self.done);
        }
    }
}
