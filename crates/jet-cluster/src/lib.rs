//! # jet-cluster — multi-member job execution
//!
//! Deploys a jet-core DAG across a cluster of members (paper §3.1, Fig. 3):
//! every member runs the complete dataflow, partitioned edges route by the
//! grid's partition table (aligning compute with IMDG state placement,
//! §4.1), and member boundaries are crossed through the flow-controlled
//! sender/receiver exchange pair (§3.3).
//!
//! * [`wiring`] — the multi-member entry to the planner, which lives in
//!   `jet_core::plan` and wires local jobs too.
//! * [`runtime`] — job lifecycle on the virtual-time simulator: periodic
//!   snapshots, failure + recovery (§4.4), elastic rescaling (§4.3).
//! * [`coordinator`] — heartbeat failure detection and recovery
//!   orchestration: suspect/fence with grace, bounded-backoff retry,
//!   documented degradation to cold restart (§4.4).
//! * [`active_active`] — the §4.6 alternative to snapshots: run the job
//!   twice, fail over by switching consumers.

pub mod active_active;
pub mod coordinator;
pub mod diagnostics;
pub mod runtime;
pub mod wiring;

pub use active_active::{ActiveActive, ActiveSide};
pub use coordinator::{ClusterEvent, Coordinator, CoordinatorConfig, MemberHealth};
pub use runtime::{SimCluster, SimClusterConfig};
pub use wiring::{build_cluster_execution, ClusterConfig, ClusterExecution, MemberExecution};
