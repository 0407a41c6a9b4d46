//! Multi-member execution wiring (paper §3.1, Fig. 3 + §3.3), re-exported
//! from [`jet_core::plan`], the one planner: a cluster job and a local job
//! are wired by the same code, the local one as the one-member case.

pub use jet_core::plan::{
    build_cluster_execution, ClusterConfig, ClusterExecution, CountedTasklet, MemberExecution,
};
