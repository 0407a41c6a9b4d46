//! # jet-core — the execution engine
//!
//! A Rust reconstruction of Hazelcast Jet's core (VLDB 2021: "Hazelcast Jet:
//! Low-latency Stream Processing at the 99.99th Percentile"). The engine
//! follows the paper's architecture:
//!
//! * **Dataflow DAGs** ([`dag`]) of vertices and edges with explicit
//!   routing (unicast / isolated / partitioned / broadcast), priorities and
//!   queue sizes — the Core API of §2.2.
//! * **Processors** ([`processor`], [`processors`]) with inbox/outbox and a
//!   strictly non-blocking cooperative contract — §3.2.
//! * **Tasklets** ([`tasklet`]) driving processors through snapshot
//!   barriers, watermark coalescing, edge priorities and completion — the
//!   coroutine-like units that share worker threads.
//! * **Executors** ([`exec`]): cooperative worker threads with progressive
//!   backoff (the paper's design), a deterministic sequential driver, and
//!   the thread-per-operator baseline used by the ablation benches.
//! * **Event time** ([`watermark`]): allowed-lag watermarks, idle-source
//!   handling, min-coalescing.
//! * **Snapshots** ([`snapshot`]): Chandy-Lamport aligned barriers with
//!   exactly-once and at-least-once modes (§4.4), persisted in the
//!   replicated in-memory grid (`jet-imdg`).
//! * **Flow-controlled distributed edges** ([`network`]): the adaptive
//!   receive-window protocol of §3.3.
//!
//! Single-member wiring lives in [`plan`]; multi-member wiring, recovery and
//! scaling live in the `jet-cluster` crate.

pub mod dag;
pub mod exec;
pub mod fairness;
pub mod flight;
pub mod item;
pub mod log;
pub mod metrics;
pub mod network;
pub mod object;
pub mod outbound;
pub mod plan;
pub mod processor;
pub mod processors;
pub mod snapshot;
pub mod state;
pub mod tasklet;
pub mod trace;
pub mod watermark;

pub use dag::{Dag, Edge, Kind, Routing, Vertex, VertexId};
pub use fairness::{JobQuotas, Round, Schedule};
pub use flight::Recorder;
pub use item::{Barrier, Item, SnapshotId, Ts};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use object::{boxed, downcast, downcast_ref, BoxedObject, Object};
pub use processor::{
    supplier, Guarantee, Inbox, Outbox, Processor, ProcessorContext, ProcessorSupplier,
};
pub use snapshot::SnapshotRegistry;
pub use tasklet::{InputConveyor, ProcessorTasklet, Tasklet};
pub use trace::{SpanRecord, TraceData, TraceKind, TraceWriter, Tracer};
