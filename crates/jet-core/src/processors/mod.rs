//! Built-in processors: the operator library of the execution engine
//! (paper §2.3 — "implementations of very efficient operators for
//! partitioning, window aggregation, joins, as well as the base source and
//! sink operators").

pub mod agg;
pub mod join;
pub mod sink;
pub mod source;
pub mod transform;
pub mod window;

pub use agg::{averaging, cogroup2, counting, maxing, summing, AggregateOp};
pub use join::HashJoinP;
pub use sink::{CollectSink, CountSink, IMapSink, IdempotentSink, LatencySink, TransactionalSink};
pub use source::{GeneratorSource, JournalSource, VecSource, WatermarkPolicy, GENERATOR_SHARDS};
pub use transform::{Fused, Link, StatefulMapP, TransformP};
pub use window::{
    AccumulateFrameP, CombineFramesP, FrameChunk, SlidingWindowP, WindowDef, WindowKey,
    WindowResult,
};
