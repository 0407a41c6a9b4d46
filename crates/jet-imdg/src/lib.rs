//! In-memory data grid — the substrate Jet stores its state in (paper §2.4,
//! §4).
//!
//! Hazelcast IMDG is "a distributed, in-memory object store" whose key
//! property for Jet is that data is **partitioned** (271 partitions by
//! default) and **replicated** (each partition has a primary replica and one
//! or more backups on other members). Jet aligns its own partitioning with
//! the grid's so that state reads/writes stay node-local, and recovers from
//! member failure by *promoting* backup replicas to primary (Fig. 6).
//!
//! This crate is a faithful in-process reconstruction:
//!
//! * [`ring`] — consistent-hash ring used to assign partitions to members
//!   with minimal migration on membership change (§4.3 cites Chord \[30\]).
//! * [`partition_table`] — the replica assignment (primary + backups per
//!   partition), its invariants, promotion on failure, rebalancing on join,
//!   and a migration planner that computes which partitions move.
//! * [`grid`] — the cluster of member nodes holding the actual data, with
//!   membership changes, synchronous backup replication, member kill
//!   (data on that node is lost, backups take over) and re-replication.
//! * [`imap`] — the typed `IMap` handle: `put`/`get`/`remove`, predicate
//!   scans and removal in place, and a per-partition **event journal** (the
//!   replayable change stream behind the CDC / view-maintenance use case of
//!   §6).
//! * [`snapshot_store`] — the job snapshot storage Jet layers over IMaps
//!   (§4.4): one entry per chunk of state records, keyed by `(job, snapshot
//!   id, vertex, writing tasklet, chunk sequence)`.
//!
//! Everything is in-process: a "member" is a data structure, not an OS
//! process, but the replication, promotion, and migration logic is real and
//! is what the fault-tolerance experiments exercise.

pub mod grid;
pub mod imap;
pub mod partition_table;
pub mod ring;
pub mod ringbuffer;
pub mod snapshot_store;
pub mod types;

pub use grid::Grid;
pub use imap::IMap;
pub use partition_table::PartitionTable;
pub use ringbuffer::Ringbuffer;
pub use snapshot_store::{SnapshotStore, StoreFaults};
pub use types::{MemberId, PartitionId, DEFAULT_PARTITION_COUNT};
