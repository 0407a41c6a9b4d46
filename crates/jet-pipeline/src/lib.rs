//! # jet-pipeline — the typed Pipeline API
//!
//! The primary user-facing API of the paper (§2.1): a fluent, type-safe
//! builder that "very much resembles Java streams" and compiles down to the
//! Core API's parallel, distributed DAG — with operator fusion (Fig. 2) and
//! two-stage windowed aggregation (§3.1) applied by the planner.
//!
//! ```
//! use jet_pipeline::{Pipeline, WindowDef};
//! use jet_core::processors::agg::counting;
//!
//! let p = Pipeline::create();
//! p.read_from_generator("trades", 10_000, |seq, _ts| (seq % 100, seq))
//!     .filter(|(_sym, qty)| qty % 2 == 0)
//!     .grouping_key(|(sym, _)| *sym)
//!     .window(WindowDef::sliding(1_000_000_000, 100_000_000))
//!     .aggregate(counting::<(u64, u64)>());
//! let dag = p.compile(4).unwrap();
//! // The filter rides on the source: source, accumulate, combine.
//! assert_eq!(dag.vertices().len(), 3);
//! ```

pub mod graph;
pub mod stages;

pub use graph::{EdgeSpec, NodeFactory, PipelineGraph};
pub use jet_core::processors::window::{WindowDef, WindowResult};
pub use stages::{BatchStage, KeyedStage, Pipeline, StreamStage, WindowedStage};
