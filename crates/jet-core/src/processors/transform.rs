//! Stateless and simple stateful transforms: map / filter / flat-map and the
//! fused stage chain produced by operator fusion (paper §3.1, Fig. 2).
//!
//! The planner fuses consecutive stateless stages into one
//! [`TransformP`] holding a chain of [`Stage`]s, so a
//! `map → filter → flatMap` pipeline costs one tasklet and zero queues
//! between the stages — "it fuses (a.k.a. operator chaining) consecutive
//! stateless operators".

use crate::item::Ts;
use crate::object::BoxedObject;
use crate::processor::{Inbox, Outbox, Processor, ProcessorContext};
use std::sync::Arc;

/// One fused stage: receives an event, pushes zero or more events to `out`.
/// `Arc` so a supplier can hand the same immutable chain to every instance.
pub type Stage = Arc<dyn Fn(Ts, BoxedObject, &mut dyn FnMut(Ts, BoxedObject)) + Send + Sync>;

/// Build a map stage from a typed closure.
pub fn map_stage<I, O, F>(f: F) -> Stage
where
    I: 'static,
    O: Send + Clone + std::fmt::Debug + 'static,
    F: Fn(&I) -> O + Send + Sync + 'static,
{
    Arc::new(move |ts, obj, out| {
        let input = crate::object::downcast_ref::<I>(obj.as_ref());
        out(ts, crate::object::boxed(f(input)));
    })
}

/// Build a filter stage from a typed predicate.
pub fn filter_stage<I, F>(f: F) -> Stage
where
    I: 'static,
    F: Fn(&I) -> bool + Send + Sync + 'static,
{
    Arc::new(move |ts, obj, out| {
        if f(crate::object::downcast_ref::<I>(obj.as_ref())) {
            out(ts, obj);
        }
    })
}

/// Build a flat-map stage from a typed closure returning an iterator.
pub fn flat_map_stage<I, O, It, F>(f: F) -> Stage
where
    I: 'static,
    O: Send + Clone + std::fmt::Debug + 'static,
    It: IntoIterator<Item = O>,
    F: Fn(&I) -> It + Send + Sync + 'static,
{
    Arc::new(move |ts, obj, out| {
        for o in f(crate::object::downcast_ref::<I>(obj.as_ref())) {
            out(ts, crate::object::boxed(o));
        }
    })
}

/// A chain of fused stages executed as one processor.
pub struct TransformP {
    stages: Vec<Stage>,
}

impl TransformP {
    pub fn new(stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "fused chain needs at least one stage");
        TransformP { stages }
    }
}

/// Run one event through `stages` depth-first, in output order; what leaves
/// the last stage goes to the outbox.
fn run_chain(stages: &[Stage], ts: Ts, obj: BoxedObject, outbox: &mut Outbox) {
    match stages.split_first() {
        Some((stage, rest)) => stage(ts, obj, &mut |t, o| run_chain(rest, t, o, outbox)),
        None => outbox.emit(0, ts, obj),
    }
}

impl Processor for TransformP {
    fn process(
        &mut self,
        _ordinal: usize,
        inbox: &mut Inbox,
        outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) {
        while outbox.has_room(0) {
            let Some((ts, obj)) = inbox.take() else {
                return;
            };
            run_chain(&self.stages, ts, obj, outbox);
        }
    }
}

/// Replicates every input event to *all* output edges. The pipeline
/// compiler inserts one when a stage has several downstream consumers
/// (fan-out), since ordinary processors emit to ordinal 0 only.
pub struct FanOutP;

impl Processor for FanOutP {
    // jet-analyze: allow(panic) — fan-out target count is fixed at wiring; the expect is a wiring invariant
    fn process(
        &mut self,
        _ordinal: usize,
        inbox: &mut Inbox,
        outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) {
        while let Some((ts, _)) = inbox.peek() {
            let ts = *ts;
            if !outbox.has_room_all() {
                return;
            }
            let (_, obj) = inbox.take().expect("peeked");
            let ok = outbox.broadcast(crate::item::Item::Event { ts, obj });
            debug_assert!(ok);
        }
    }
}

/// State transition of a stateful map: `(state, event) -> optional output`.
type StepFn<S, I, O> = Arc<dyn Fn(&mut S, &I) -> Option<O> + Send + Sync>;

/// Keyed stateful map (Jet's `mapStateful`): per-key state threaded through
/// a transition function. State lives in a HashMap and is snapshotted —
/// the building block of the "Stateful AI" / chatbot automaton use case
/// (§6).
pub struct StatefulMapP<K, S, I, O> {
    key_fn: Arc<dyn Fn(&I) -> K + Send + Sync>,
    step: StepFn<S, I, O>,
    create: Arc<dyn Fn() -> S + Send + Sync>,
    state: std::collections::HashMap<K, S>,
}

impl<K, S, I, O> StatefulMapP<K, S, I, O>
where
    K: crate::processors::window::WindowKey,
    S: crate::state::Snap + Send + 'static,
    I: 'static,
    O: Send + Clone + std::fmt::Debug + 'static,
{
    pub fn new(
        key_fn: impl Fn(&I) -> K + Send + Sync + 'static,
        create: impl Fn() -> S + Send + Sync + 'static,
        step: impl Fn(&mut S, &I) -> Option<O> + Send + Sync + 'static,
    ) -> Self {
        StatefulMapP {
            key_fn: Arc::new(key_fn),
            step: Arc::new(step),
            create: Arc::new(create),
            state: std::collections::HashMap::new(),
        }
    }
}

impl<K, S, I, O> Processor for StatefulMapP<K, S, I, O>
where
    K: crate::processors::window::WindowKey,
    S: crate::state::Snap + Send + 'static,
    I: 'static,
    O: Send + Clone + std::fmt::Debug + 'static,
{
    // jet-analyze: allow(alloc) — keyed state grows with key cardinality, amortized per batch
    fn process(
        &mut self,
        _ordinal: usize,
        inbox: &mut Inbox,
        outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) {
        while outbox.has_room(0) {
            let Some((ts, obj)) = inbox.take() else {
                return;
            };
            let input = crate::object::downcast_ref::<I>(obj.as_ref());
            let key = (self.key_fn)(input);
            let state = self.state.entry(key).or_insert_with(|| (self.create)());
            if let Some(out) = (self.step)(state, input) {
                outbox.emit(0, ts, crate::object::boxed(out));
            }
        }
    }

    fn save_snapshot(&mut self, _id: u64, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        for (k, s) in &self.state {
            outbox.offer_snapshot(k, s);
        }
        true
    }

    fn restore_from_snapshot(&mut self, key: &[u8], value: &[u8], ctx: &ProcessorContext) {
        let k = K::from_bytes(key).expect("corrupt stateful-map key");
        if !ctx.owns_key_hash(jet_util::seq::hash_of(&k)) {
            return;
        }
        let s = S::from_bytes(value).expect("corrupt stateful-map state");
        self.state.insert(k, s);
    }
}
