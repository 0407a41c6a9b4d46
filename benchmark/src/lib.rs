//! Wall-clock NEXMark benchmark of the jet-rs engine on real threads.
//!
//! Four workloads run through the engine's public API — `Pipeline` →
//! `compile` → `build_local` / `build_cluster_execution` → `spawn_threaded`
//! on a system clock — and are measured from outside: end-to-end metrics
//! with tracing off, per-layer metrics from a second, traced run. See
//! `README.md` for why each workload, rate and estimator was chosen.

pub mod clock;
pub mod estimator;
pub mod phases;
pub mod probes;
pub mod reference;
pub mod report;
pub mod run;
pub mod timed;
pub mod workloads;
