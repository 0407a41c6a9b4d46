//! Stateless transforms and operator fusion (paper §3.1, Fig. 2: "it fuses
//! (a.k.a. operator chaining) consecutive stateless operators").
//!
//! A run of `map` / `filter` / `flat_map` stages is a [`Fused`] value whose
//! stage types are known when it is composed. For each processor instance
//! it becomes one [`Chain`] that runs inside the outbox of the vertex
//! feeding it ([`crate::dag::Vertex::fused`]), so the stages cost no
//! tasklet, no queue and no `Object` round trip between them.

use crate::item::{Item, Ts};
use crate::object::{boxed, take};
use crate::processor::{Chain, Cont, Inbox, Outbox, Processor, ProcessorContext};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::Arc;

/// A typed run of fused stages from `T` to `U`: a factory of the
/// continuations one processor instance runs.
pub struct Fused<T, U = T> {
    wrap: Arc<dyn Fn(Cont<U>) -> Cont<T> + Send + Sync>,
}

impl<T: 'static> Default for Fused<T> {
    /// The empty run.
    fn default() -> Self {
        Fused {
            wrap: Arc::new(|next| next),
        }
    }
}

impl<T: 'static, U: 'static> Fused<T, U> {
    /// Append a stage: `stage` turns the continuation for its outputs into
    /// the one for its inputs.
    fn then<V>(self, stage: impl Fn(Cont<V>) -> Cont<U> + Send + Sync + 'static) -> Fused<T, V> {
        let wrap = self.wrap;
        Fused {
            wrap: Arc::new(move |next| wrap(stage(next))),
        }
    }

    pub fn map<V: 'static>(self, f: impl Fn(&U) -> V + Send + Sync + 'static) -> Fused<T, V> {
        let f = Arc::new(f);
        self.then(move |mut next: Cont<V>| -> Cont<U> {
            let f = f.clone();
            Box::new(move |ts, u: U, out: &mut VecDeque<Item>| next(ts, f(&u), out))
        })
    }

    pub fn filter(self, f: impl Fn(&U) -> bool + Send + Sync + 'static) -> Fused<T, U> {
        let f = Arc::new(f);
        self.then(move |mut next: Cont<U>| -> Cont<U> {
            let f = f.clone();
            Box::new(move |ts, u: U, out: &mut VecDeque<Item>| {
                if f(&u) {
                    next(ts, u, out);
                }
            })
        })
    }

    pub fn flat_map<V: 'static, It: IntoIterator<Item = V>>(
        self,
        f: impl Fn(&U) -> It + Send + Sync + 'static,
    ) -> Fused<T, V> {
        let f = Arc::new(f);
        self.then(move |mut next: Cont<V>| -> Cont<U> {
            let f = f.clone();
            Box::new(move |ts, u: U, out: &mut VecDeque<Item>| {
                for v in f(&u) {
                    next(ts, v, out);
                }
            })
        })
    }
}

/// A [`Fused`] run with its types erased, so an untyped planner can splice
/// runs end to end: once per processor instance, never per event.
pub trait Link: Send + Sync {
    /// This run's input continuation (a boxed `Cont<T>`) in front of
    /// `next`, the one of the run after it; `None` makes this run the tail,
    /// which boxes its output into the outbox.
    fn splice(&self, next: Option<Box<dyn Any + Send>>) -> Box<dyn Any + Send>;
    /// The chain with this run at its head and `rest` spliced behind it,
    /// once for each of its two entries.
    fn head(&self, rest: &[Arc<dyn Link>]) -> Chain;
}

impl<T: Any, U: Any + Send + Clone + Debug> Link for Fused<T, U> {
    fn splice(&self, next: Option<Box<dyn Any + Send>>) -> Box<dyn Any + Send> {
        Box::new((self.wrap)(next_or_tail::<U>(next)))
    }

    fn head(&self, rest: &[Arc<dyn Link>]) -> Chain {
        let next = || {
            rest.iter()
                .rev()
                .fold(None, |next, run| Some(run.splice(next)))
        };
        let mut erased = (self.wrap)(next_or_tail::<U>(next()));
        Chain {
            erased: Box::new(move |ts, obj, out| erased(ts, take::<T>(obj), out)),
            typed: self.splice(next()),
        }
    }
}

/// `next` as the `Cont<U>` it holds, or the tail that boxes `U`.
fn next_or_tail<U: Any + Send + Clone + Debug>(next: Option<Box<dyn Any + Send>>) -> Cont<U> {
    match next {
        Some(next) => *next
            .downcast::<Cont<U>>()
            .expect("spliced runs agree on the type between them"),
        None => Box::new(|ts: Ts, u: U, out: &mut VecDeque<Item>| {
            out.push_back(Item::Event { ts, obj: boxed(u) })
        }),
    }
}

/// The chain `runs` make spliced head to tail, for one processor instance.
pub fn splice(runs: &[Arc<dyn Link>]) -> Option<Chain> {
    let (head, rest) = runs.split_first()?;
    Some(head.head(rest))
}

/// Pass-through: every input event is emitted as it is, so it runs through
/// the vertex's chain if it has one and reaches every out-edge. The
/// planner's host for a chain with no producer to ride on, and `merge`.
pub struct TransformP;

impl Processor for TransformP {
    fn process(
        &mut self,
        _ordinal: usize,
        inbox: &mut Inbox,
        outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) {
        while outbox.has_room() {
            let Some((ts, obj)) = inbox.take() else {
                return;
            };
            outbox.emit(ts, obj);
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
        while outbox.has_room() {
            let Some((ts, obj)) = inbox.take() else {
                return;
            };
            let input = crate::object::downcast_ref::<I>(obj.as_ref());
            let key = (self.key_fn)(input);
            let state = self.state.entry(key).or_insert_with(|| (self.create)());
            if let Some(out) = (self.step)(state, input) {
                outbox.emit_value(ts, out);
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
