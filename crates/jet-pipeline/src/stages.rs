//! The typed, fluent Pipeline API (paper §2.1, Listings 1–2).
//!
//! Mirrors Jet's `Pipeline`: `read_from` produces a typed stage; `map` /
//! `filter` / `flat_map` chain transforms (typed runs, fused into the stage
//! that feeds them at compile time);
//! `grouping_key` + `window` + `aggregate` build the two-stage distributed
//! windowed aggregation; `hash_join` joins a stream against a batch build
//! side; `write_to_*` attach sinks. `compile` hands back a Core-API DAG.

use crate::graph::{EdgeSpec, NodeFactory, PInput, PNodeKind, PipelineGraph};
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::processors::agg::{AggregateOp, CoGrouped};
use jet_core::processors::join::HashJoinP;
use jet_core::processors::sink::{
    CollectSink, CountSink, IMapSink, IdempotentSink, LatencySink, TransactionalSink,
};
use jet_core::processors::source::{GeneratorSource, VecSource, WatermarkPolicy};
use jet_core::processors::transform::{Fused, StatefulMapP, TransformP};
use jet_core::processors::window::{
    AccumulateFrameP, CombineFramesP, FrameChunk, SlidingWindowP, WindowDef, WindowKey,
    WindowResult,
};
use jet_core::snapshot::SnapshotRegistry;
use jet_core::state::Snap;
use jet_core::supplier;
use jet_core::{Dag, Recorder, Ts};
use parking_lot::Mutex;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::Arc;

/// A pipeline under construction. Cheap to clone (shared graph).
#[derive(Clone, Default)]
pub struct Pipeline {
    graph: Arc<Mutex<PipelineGraph>>,
}

/// Marker for events of a payload type `T` flowing through a stage.
pub struct StreamStage<T> {
    pipeline: Pipeline,
    node: usize,
    _t: PhantomData<fn() -> T>,
}

/// A finite stage (Listing 2's "build side").
pub struct BatchStage<T> {
    pipeline: Pipeline,
    node: usize,
    _t: PhantomData<fn() -> T>,
}

/// A stage with a grouping key attached.
pub struct KeyedStage<K, T> {
    pipeline: Pipeline,
    node: usize,
    key_fn: Arc<dyn Fn(&T) -> K + Send + Sync>,
    _t: PhantomData<fn() -> (K, T)>,
}

/// A keyed stage with a window definition attached.
pub struct WindowedStage<K, T> {
    keyed: KeyedStage<K, T>,
    wdef: WindowDef,
}

impl Pipeline {
    pub fn create() -> Pipeline {
        Pipeline::default()
    }

    fn add<T>(
        &self,
        name: String,
        kind: PNodeKind,
        inputs: Vec<PInput>,
        source: bool,
    ) -> StreamStage<T> {
        let node = self.graph.lock().add_node(name, kind, inputs, source);
        StreamStage {
            pipeline: self.clone(),
            node,
            _t: PhantomData,
        }
    }

    /// A rate-controlled generator source: `factory(seq, ts)` builds event
    /// `seq` whose occurrence time is `ts` (engine-clock nanos).
    pub fn read_from_generator<T, F>(&self, name: &str, rate: u64, factory: F) -> StreamStage<T>
    where
        T: Send + Clone + Debug + 'static,
        F: Fn(u64, Ts) -> T + Send + Sync + 'static,
    {
        self.read_from_generator_cfg(name, rate, None, WatermarkPolicy::default(), factory)
    }

    /// Generator with an event limit and explicit watermark policy.
    pub fn read_from_generator_cfg<T, F>(
        &self,
        name: &str,
        rate: u64,
        limit: Option<u64>,
        policy: WatermarkPolicy,
        factory: F,
    ) -> StreamStage<T>
    where
        T: Send + Clone + Debug + 'static,
        F: Fn(u64, Ts) -> T + Send + Sync + 'static,
    {
        let factory = Arc::new(factory);
        let make: NodeFactory = Arc::new(move |_lp| {
            let factory = factory.clone();
            let policy = policy.clone();
            supplier(move |_| {
                let f = factory.clone();
                let mut src = GeneratorSource::new(rate, move |seq, ts| f(seq, ts))
                    .with_policy(policy.clone());
                if let Some(l) = limit {
                    src = src.with_limit(l);
                }
                Box::new(src)
            })
        });
        self.add(name.to_string(), PNodeKind::Opaque(make), vec![], true)
    }

    /// A finite in-memory source of `(ts, item)` pairs.
    pub fn read_from_vec<T>(&self, name: &str, items: Vec<(Ts, T)>) -> BatchStage<T>
    where
        T: Send + Sync + Clone + Debug + 'static,
    {
        let items = Arc::new(items);
        let make: NodeFactory = Arc::new(move |_lp| {
            let items = items.clone();
            supplier(move |_i| Box::new(VecSource::new(items.clone())))
        });
        let stage: StreamStage<T> =
            self.add(name.to_string(), PNodeKind::Opaque(make), vec![], true);
        BatchStage {
            pipeline: stage.pipeline,
            node: stage.node,
            _t: PhantomData,
        }
    }

    /// Attach a raw custom vertex (escape hatch to the Core API).
    pub fn read_from_custom<T>(&self, name: &str, make: NodeFactory) -> StreamStage<T> {
        self.add(name.to_string(), PNodeKind::Opaque(make), vec![], true)
    }

    /// Compile into a Core DAG (§2.1: "pipelines are actually translated to
    /// parallel, distributed DAGs of operators at the Core API").
    pub fn compile(&self, default_lp: usize) -> Result<Dag, String> {
        self.graph.lock().compile(default_lp)
    }
}

impl<T: Send + Clone + Debug + 'static> StreamStage<T> {
    fn add_transform<U: Send + Clone + Debug + 'static>(
        &self,
        name: &str,
        stage: Fused<T, U>,
    ) -> StreamStage<U> {
        self.pipeline.add(
            name.to_string(),
            PNodeKind::Transform(Arc::new(stage)),
            vec![PInput {
                from: self.node,
                spec: EdgeSpec::Forward,
            }],
            false,
        )
    }

    /// Pin the parallelism of the stage added last.
    pub fn local_parallelism(self, lp: usize) -> Self {
        self.pipeline.graph.lock().nodes[self.node].local_parallelism = Some(lp.max(1));
        self
    }

    pub fn map<U, F>(&self, f: F) -> StreamStage<U>
    where
        U: Send + Clone + Debug + 'static,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        self.add_transform("map", Fused::default().map(f))
    }

    pub fn filter<F>(&self, f: F) -> StreamStage<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        self.add_transform("filter", Fused::default().filter(f))
    }

    pub fn flat_map<U, It, F>(&self, f: F) -> StreamStage<U>
    where
        U: Send + Clone + Debug + 'static,
        It: IntoIterator<Item = U>,
        F: Fn(&T) -> It + Send + Sync + 'static,
    {
        self.add_transform("flat-map", Fused::default().flat_map(f))
    }

    /// Merge this stream with another of the same type (order across the
    /// two inputs is arbitrary, as in Jet's `merge`). Items pass through
    /// moved, not copied.
    pub fn merge(&self, other: &StreamStage<T>) -> StreamStage<T> {
        let make: NodeFactory = Arc::new(|_lp| supplier(|_| Box::new(TransformP)));
        self.pipeline.add(
            "merge".to_string(),
            PNodeKind::Opaque(make),
            vec![
                PInput {
                    from: self.node,
                    spec: EdgeSpec::Forward,
                },
                PInput {
                    from: other.node,
                    spec: EdgeSpec::Forward,
                },
            ],
            false,
        )
    }

    /// Attach a grouping key — subsequent windowed aggregation partitions by
    /// it (§4.1: state partitioned by record key).
    pub fn grouping_key<K, F>(&self, key_fn: F) -> KeyedStage<K, T>
    where
        K: WindowKey,
        F: Fn(&T) -> K + Send + Sync + 'static,
    {
        KeyedStage {
            pipeline: self.pipeline.clone(),
            node: self.node,
            key_fn: Arc::new(key_fn),
            _t: PhantomData,
        }
    }

    /// Keyed stateful map (per-key state machine; §6 "Stateful AI").
    pub fn map_stateful<K, S, O>(
        &self,
        key_fn: impl Fn(&T) -> K + Send + Sync + 'static,
        create: impl Fn() -> S + Send + Sync + 'static,
        step: impl Fn(&mut S, &T) -> Option<O> + Send + Sync + 'static,
    ) -> StreamStage<O>
    where
        K: WindowKey,
        S: Snap + Send + 'static,
        O: Send + Clone + Debug + 'static,
    {
        let key_for_edge = Arc::new(key_fn);
        let key_for_proc = key_for_edge.clone();
        let create = Arc::new(create);
        let step = Arc::new(step);
        let make: NodeFactory = Arc::new(move |_lp| {
            let key_fn = key_for_proc.clone();
            let create = create.clone();
            let step = step.clone();
            supplier(move |_| {
                let key_fn = key_fn.clone();
                let create = create.clone();
                let step = step.clone();
                Box::new(StatefulMapP::new(
                    move |t: &T| key_fn(t),
                    move || create(),
                    move |s: &mut S, t: &T| step(s, t),
                ))
            })
        });
        let key_hash = Arc::new(move |obj: &dyn jet_core::Object| {
            jet_util::seq::hash_of(&key_for_edge(jet_core::downcast_ref::<T>(obj)))
        });
        self.pipeline.add(
            "map-stateful".to_string(),
            PNodeKind::Opaque(make),
            vec![PInput {
                from: self.node,
                spec: EdgeSpec::Partitioned(key_hash),
            }],
            false,
        )
    }

    /// Hash-join this stream against a batch build side (Listing 2).
    pub fn hash_join<K, B, R>(
        &self,
        build: &BatchStage<B>,
        build_key: impl Fn(&B) -> K + Send + Sync + 'static,
        probe_key: impl Fn(&T) -> K + Send + Sync + 'static,
        join_fn: impl Fn(&T, &[B]) -> Vec<R> + Send + Sync + 'static,
    ) -> StreamStage<R>
    where
        K: Eq + std::hash::Hash + Clone + Send + 'static,
        B: Send + Clone + Debug + 'static,
        R: Send + Clone + Debug + 'static,
    {
        let build_key = Arc::new(build_key);
        let probe_key = Arc::new(probe_key);
        let join_fn = Arc::new(join_fn);
        let make: NodeFactory = Arc::new(move |_lp| {
            let bk = build_key.clone();
            let pk = probe_key.clone();
            let jf = join_fn.clone();
            supplier(move |_| {
                let bk = bk.clone();
                let pk = pk.clone();
                let jf = jf.clone();
                Box::new(HashJoinP::new(
                    move |b: &B| bk(b),
                    move |p: &T| pk(p),
                    move |p: &T, ms: &[B]| jf(p, ms),
                ))
            })
        });
        self.pipeline.add(
            "hash-join".to_string(),
            PNodeKind::Opaque(make),
            vec![
                PInput {
                    from: self.node,
                    spec: EdgeSpec::Forward,
                },
                PInput {
                    from: build.node,
                    spec: EdgeSpec::Broadcast { priority: -1 },
                },
            ],
            false,
        )
    }

    fn add_sink(&self, name: &str, make: NodeFactory) -> StreamStage<()> {
        self.pipeline.add(
            name.to_string(),
            PNodeKind::Opaque(make),
            vec![PInput {
                from: self.node,
                spec: EdgeSpec::Forward,
            }],
            false,
        )
    }

    /// Collect `(ts, item)` into a shared vector (tests/examples).
    pub fn write_to_collect(&self, out: Arc<Mutex<Vec<(Ts, T)>>>) -> StreamStage<()> {
        self.add_sink(
            "collect-sink",
            Arc::new(move |_| {
                let out = out.clone();
                supplier(move |_| Box::new(CollectSink::new(out.clone())))
            }),
        )
    }

    /// Count events into a shared counter.
    pub fn write_to_count(&self, counter: SharedCounter) -> StreamStage<()> {
        self.add_sink(
            "count-sink",
            Arc::new(move |_| {
                let c = counter.clone();
                supplier(move |_| Box::new(CountSink::new(c.clone())))
            }),
        )
    }

    /// Record `now - event_ts` into a shared histogram — the measurement
    /// sink of every experiment (§7.1 latency methodology).
    pub fn write_to_latency(
        &self,
        hist: SharedHistogram,
        counter: SharedCounter,
    ) -> StreamStage<()> {
        self.write_to_latency_recorded(hist, counter, Recorder::disabled())
    }

    /// [`Self::write_to_latency`] with every sample also fed to the flight
    /// recorder: its spike watchdog and its provenance sampler, whichever
    /// are armed (zero virtual-time cost; see `jet_core::flight`).
    pub fn write_to_latency_recorded(
        &self,
        hist: SharedHistogram,
        counter: SharedCounter,
        recorder: Recorder,
    ) -> StreamStage<()> {
        self.add_sink(
            "latency-sink",
            Arc::new(move |_| {
                let h = hist.clone();
                let c = counter.clone();
                let r = recorder.clone();
                supplier(move |_| Box::new(LatencySink::recorded(h.clone(), c.clone(), r.clone())))
            }),
        )
    }

    /// Write entries into a grid map (view maintenance, §6).
    pub fn write_to_imap<K, V>(
        &self,
        map: jet_imdg::IMap<K, V>,
        entry_fn: impl Fn(&T) -> (K, V) + Send + Sync + 'static,
    ) -> StreamStage<()>
    where
        K: Clone + Eq + std::hash::Hash + Send + 'static,
        V: Clone + Send + 'static,
    {
        let entry_fn = Arc::new(entry_fn);
        self.add_sink(
            "imap-sink",
            Arc::new(move |_| {
                let map = map.clone();
                let ef = entry_fn.clone();
                supplier(move |_| {
                    let ef = ef.clone();
                    Box::new(IMapSink::new(map.clone(), move |t: &T| ef(t)))
                })
            }),
        )
    }

    /// Two-phase-commit sink (§4.5): output becomes visible only when the
    /// covering snapshot completes.
    pub fn write_to_transactional(
        &self,
        committed: Arc<Mutex<Vec<(Ts, T)>>>,
        registry: Arc<SnapshotRegistry>,
    ) -> StreamStage<()>
    where
        T: Snap,
    {
        self.add_sink(
            "transactional-sink",
            Arc::new(move |_| {
                let committed = committed.clone();
                let registry = registry.clone();
                supplier(move |_| {
                    Box::new(TransactionalSink::new(committed.clone(), registry.clone()))
                })
            }),
        )
    }

    /// Idempotent sink (§4.5): dedups by record id across replays.
    pub fn write_to_idempotent(
        &self,
        published: Arc<Mutex<std::collections::HashMap<u64, T>>>,
        id_fn: impl Fn(&T) -> u64 + Send + Sync + 'static,
    ) -> StreamStage<()> {
        let id_fn = Arc::new(id_fn);
        self.add_sink(
            "idempotent-sink",
            Arc::new(move |_| {
                let published = published.clone();
                let id_fn = id_fn.clone();
                supplier(move |_| {
                    let id_fn = id_fn.clone();
                    Box::new(IdempotentSink::new(published.clone(), move |t: &T| {
                        id_fn(t)
                    }))
                })
            }),
        )
    }
}

impl<T: Send + Clone + Debug + 'static> BatchStage<T> {
    /// View this batch stage as a stream stage (batch is a special case).
    pub fn as_stream(&self) -> StreamStage<T> {
        StreamStage {
            pipeline: self.pipeline.clone(),
            node: self.node,
            _t: PhantomData,
        }
    }

    pub fn map<U, F>(&self, f: F) -> BatchStage<U>
    where
        U: Send + Clone + Debug + 'static,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        let s = self.as_stream().map(f);
        BatchStage {
            pipeline: s.pipeline,
            node: s.node,
            _t: PhantomData,
        }
    }

    pub fn filter<F>(&self, f: F) -> BatchStage<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let s = self.as_stream().filter(f);
        BatchStage {
            pipeline: s.pipeline,
            node: s.node,
            _t: PhantomData,
        }
    }
}

impl<K: WindowKey, T: Send + Clone + Debug + 'static> KeyedStage<K, T> {
    /// Attach a window definition.
    pub fn window(self, wdef: WindowDef) -> WindowedStage<K, T> {
        WindowedStage { keyed: self, wdef }
    }
}

impl<K: WindowKey, T: Send + Clone + Debug + 'static> WindowedStage<K, T> {
    /// Two-stage windowed aggregation (the default, §3.1: "local partial
    /// results followed by global combining").
    pub fn aggregate<A, R>(&self, op: AggregateOp<A, R>) -> StreamStage<WindowResult<K, R>>
    where
        A: Snap + Clone + Send + Default + Debug + 'static,
        R: Send + Clone + Debug + 'static,
    {
        let wdef = self.wdef;
        let key_fn = self.keyed.key_fn.clone();
        let op1 = op.clone();
        let stage1: NodeFactory = Arc::new(move |_lp| {
            let key_fn = key_fn.clone();
            let op = op1.clone();
            supplier(move |_| {
                let key_fn = key_fn.clone();
                Box::new(AccumulateFrameP::new(
                    wdef,
                    move |t: &T| key_fn(t),
                    op.clone(),
                ))
            })
        });
        let accumulate = self.keyed.pipeline.add::<FrameChunk<K, A>>(
            "window-accumulate".to_string(),
            PNodeKind::Opaque(stage1),
            vec![PInput {
                from: self.keyed.node,
                spec: EdgeSpec::Forward,
            }],
            false,
        );
        let op2 = op.clone();
        let stage2: NodeFactory = Arc::new(move |_lp| {
            let op = op2.clone();
            supplier(move |_| Box::new(CombineFramesP::<K, A, R>::new(wdef, op.clone())))
        });
        let chunk_key = Arc::new(|obj: &dyn jet_core::Object| {
            jet_util::seq::hash_of(&jet_core::downcast_ref::<FrameChunk<K, A>>(obj).key)
        });
        self.keyed.pipeline.add(
            "window-combine".to_string(),
            PNodeKind::Opaque(stage2),
            vec![PInput {
                from: accumulate.node,
                spec: EdgeSpec::Partitioned(chunk_key),
            }],
            false,
        )
    }

    /// Single-stage windowed aggregation: partitions the raw events and
    /// aggregates each window in one stage, with no combine step. Its results
    /// equal [`Self::aggregate`]'s two-stage ones.
    pub fn aggregate_single_stage<A, R>(
        &self,
        op: AggregateOp<A, R>,
    ) -> StreamStage<WindowResult<K, R>>
    where
        A: Snap + Clone + Send + Default + Debug + 'static,
        R: Send + Clone + Debug + 'static,
    {
        let wdef = self.wdef;
        let key_fn = self.keyed.key_fn.clone();
        let key_for_proc = key_fn.clone();
        let make: NodeFactory = Arc::new(move |_lp| {
            let key_fn = key_for_proc.clone();
            let op = op.clone();
            supplier(move |_| {
                let key_fn = key_fn.clone();
                Box::new(SlidingWindowP::new(
                    wdef,
                    move |t: &T| key_fn(t),
                    op.clone(),
                ))
            })
        });
        let key_hash = Arc::new(move |obj: &dyn jet_core::Object| {
            jet_util::seq::hash_of(&key_fn(jet_core::downcast_ref::<T>(obj)))
        });
        self.keyed.pipeline.add(
            "window-single".to_string(),
            PNodeKind::Opaque(make),
            vec![PInput {
                from: self.keyed.node,
                spec: EdgeSpec::Partitioned(key_hash),
            }],
            false,
        )
    }

    /// Windowed stream-stream co-group / join against another keyed stream
    /// with the same key type (NEXMark Q8).
    pub fn cogroup<U>(
        &self,
        other: KeyedStage<K, U>,
    ) -> StreamStage<WindowResult<K, CoGrouped<T, U>>>
    where
        T: Snap,
        U: Snap + Send + Clone + Debug + 'static,
    {
        let wdef = self.wdef;
        let left_key = self.keyed.key_fn.clone();
        let right_key = other.key_fn.clone();
        let op = jet_core::processors::agg::cogroup2::<T, U>();
        let make: NodeFactory = Arc::new(move |_lp| {
            let lk = left_key.clone();
            let rk = right_key.clone();
            let op = op.clone();
            supplier(move |_| {
                let lk = lk.clone();
                let rk = rk.clone();
                Box::new(
                    SlidingWindowP::new(wdef, move |t: &T| lk(t), op.clone())
                        .with_input(move |u: &U| rk(u)),
                )
            })
        });
        let lk = self.keyed.key_fn.clone();
        let left_hash = Arc::new(move |obj: &dyn jet_core::Object| {
            jet_util::seq::hash_of(&lk(jet_core::downcast_ref::<T>(obj)))
        });
        let rk = other.key_fn.clone();
        let right_hash = Arc::new(move |obj: &dyn jet_core::Object| {
            jet_util::seq::hash_of(&rk(jet_core::downcast_ref::<U>(obj)))
        });
        self.keyed.pipeline.add(
            "window-cogroup".to_string(),
            PNodeKind::Opaque(make),
            vec![
                PInput {
                    from: self.keyed.node,
                    spec: EdgeSpec::Partitioned(left_hash),
                },
                PInput {
                    from: other.node,
                    spec: EdgeSpec::Partitioned(right_hash),
                },
            ],
            false,
        )
    }
}
