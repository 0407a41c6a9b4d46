//! Join processors.
//!
//! [`HashJoinP`] implements the hybrid batch/stream hash join of Listing 2:
//! the *build side* (input ordinal 1, wired with higher edge priority) is
//! consumed entirely into a hash table first; then every *probe side* event
//! (ordinal 0) looks up its key and emits joined results. The edge-priority
//! mechanism in the tasklet guarantees no probe event is drained before the
//! build side completes, so the processor never buffers probe input.

use crate::object::downcast_ref;
use crate::processor::{Inbox, Outbox, Processor, ProcessorContext};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Ordinal of the probe (streaming) input.
pub const PROBE_ORDINAL: usize = 0;
/// Ordinal of the build (batch) input.
pub const BUILD_ORDINAL: usize = 1;

/// Joins one probe event with its (possibly absent) build-side matches.
type JoinFn<P, B, R> = Arc<dyn Fn(&P, &[B]) -> Vec<R> + Send + Sync>;

/// Hash join: build side `B` keyed by `K`, probe side `P`, output `R`.
pub struct HashJoinP<K, B, P, R> {
    build_key: Arc<dyn Fn(&B) -> K + Send + Sync>,
    probe_key: Arc<dyn Fn(&P) -> K + Send + Sync>,
    join_fn: JoinFn<P, B, R>,
    table: HashMap<K, Vec<B>>,
    build_done: bool,
}

impl<K, B, P, R> HashJoinP<K, B, P, R>
where
    K: Eq + Hash + Clone + Send + 'static,
    B: Clone + Send + 'static,
    P: 'static,
    R: Clone + Send + std::fmt::Debug + 'static,
{
    pub fn new(
        build_key: impl Fn(&B) -> K + Send + Sync + 'static,
        probe_key: impl Fn(&P) -> K + Send + Sync + 'static,
        join_fn: impl Fn(&P, &[B]) -> Vec<R> + Send + Sync + 'static,
    ) -> Self {
        HashJoinP {
            build_key: Arc::new(build_key),
            probe_key: Arc::new(probe_key),
            join_fn: Arc::new(join_fn),
            table: HashMap::new(),
            build_done: false,
        }
    }

    /// Inner join emitting `(probe, build)` pairs.
    pub fn inner(
        build_key: impl Fn(&B) -> K + Send + Sync + 'static,
        probe_key: impl Fn(&P) -> K + Send + Sync + 'static,
    ) -> HashJoinP<K, B, P, (P, B)>
    where
        P: Clone + Send + std::fmt::Debug + 'static,
        B: std::fmt::Debug,
    {
        HashJoinP::new(build_key, probe_key, |p: &P, matches: &[B]| {
            matches.iter().map(|b| (p.clone(), b.clone())).collect()
        })
    }

    pub fn table_size(&self) -> usize {
        self.table.values().map(|v| v.len()).sum()
    }
}

impl<K, B, P, R> Processor for HashJoinP<K, B, P, R>
where
    K: Eq + Hash + Clone + Send + 'static,
    B: Clone + Send + 'static,
    P: 'static,
    R: Clone + Send + std::fmt::Debug + 'static,
{
    // jet-analyze: allow(alloc, panic) — keyed join state grows with key cardinality; the panic arm is an item-kind invariant
    fn process(
        &mut self,
        ordinal: usize,
        inbox: &mut Inbox,
        outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) {
        match ordinal {
            BUILD_ORDINAL => {
                debug_assert!(!self.build_done, "build input after build completion");
                let (table, build_key) = (&mut self.table, &self.build_key);
                inbox.drain_all(|_ts, obj| {
                    let b = downcast_ref::<B>(obj.as_ref()).clone();
                    let k = build_key(&b);
                    table.entry(k).or_default().push(b);
                });
            }
            PROBE_ORDINAL => {
                debug_assert!(
                    self.build_done,
                    "probe input drained before build side completed; wire the build edge with higher priority"
                );
                while outbox.has_room() {
                    let Some((ts, obj)) = inbox.take() else {
                        return;
                    };
                    let p = downcast_ref::<P>(obj.as_ref());
                    let key = (self.probe_key)(p);
                    let matches = self.table.get(&key).map(|v| v.as_slice()).unwrap_or(&[]);
                    for r in (self.join_fn)(p, matches) {
                        outbox.emit_value(ts, r);
                    }
                }
            }
            other => panic!("hash join has no input ordinal {other}"),
        }
    }

    fn complete_edge(&mut self, ordinal: usize, _: &mut Outbox, _: &ProcessorContext) -> bool {
        if ordinal == BUILD_ORDINAL {
            self.build_done = true;
        }
        true
    }
}
