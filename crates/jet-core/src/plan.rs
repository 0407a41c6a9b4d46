//! Execution planning: turning a [`Dag`] into wired tasklets for one member.
//!
//! Jet "deploys the *complete* dataflow graph on every available CPU core"
//! (§3.1, Fig. 3): each vertex gets `local_parallelism` processor instances
//! (default: one per cooperative thread), and every edge becomes a mesh of
//! SPSC queues — producer instance i owns lane i of every consumer's
//! conveyor. Multi-member wiring (distributed edges through the
//! flow-controlled sender/receiver pair) is layered on top by `jet-cluster`,
//! reusing these primitives.

use crate::dag::{Dag, Routing};
use crate::item::{Item, SnapshotId};
use crate::outbound::OutboundCollector;
use crate::processor::{Guarantee, ProcessorContext};
use crate::snapshot::SnapshotRegistry;
use crate::tasklet::{InputConveyor, ProcessorTasklet, Tasklet, DEFAULT_BATCH};
use jet_imdg::snapshot_store::{Records, SnapshotStore};
use jet_queue::{Conveyor, Producer};
use jet_util::clock::SharedClock;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Configuration for a single-member execution.
#[derive(Clone)]
pub struct LocalConfig {
    /// Cooperative worker threads; also the default vertex parallelism.
    pub threads: usize,
    /// Inbox batch size per tasklet timeslice.
    pub batch: usize,
    pub guarantee: Guarantee,
    pub clock: SharedClock,
    /// Key partition space (defaults to IMDG's 271).
    pub partition_count: u32,
}

impl LocalConfig {
    pub fn new(threads: usize) -> Self {
        LocalConfig {
            threads: threads.max(1),
            batch: DEFAULT_BATCH,
            guarantee: Guarantee::None,
            clock: jet_util::clock::system_clock(),
            partition_count: jet_imdg::DEFAULT_PARTITION_COUNT,
        }
    }

    pub fn with_guarantee(mut self, g: Guarantee) -> Self {
        self.guarantee = g;
        self
    }

    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

/// A fully wired single-member execution, ready to hand to an executor.
pub struct LocalExecution {
    pub tasklets: Vec<Box<dyn Tasklet>>,
    pub cancelled: Arc<AtomicBool>,
}

/// The state records `vertex` restores from, when the execution restores at
/// all. A snapshot that does not decode is an error for the caller's retry
/// and fallback logic, never a panic or a partial restore.
pub fn restore_records(
    restore: Option<(&SnapshotStore, SnapshotId)>,
    vertex: &str,
) -> Result<Option<Records>, String> {
    restore
        .map(|(store, id)| {
            store
                .read_vertex(id, vertex)
                .map_err(|e| format!("snapshot {id}, vertex {vertex}: {e}"))
        })
        .transpose()
}

/// Wire `dag` into tasklets for a single member. When `restore` is given,
/// every processor is fed the vertex's records from that snapshot before
/// execution starts (§4.4 recovery).
pub fn build_local(
    dag: &Dag,
    cfg: &LocalConfig,
    registry: &Arc<SnapshotRegistry>,
    restore: Option<(&SnapshotStore, SnapshotId)>,
) -> Result<LocalExecution, String> {
    dag.validate()?;
    for e in dag.edges() {
        if e.distributed {
            return Err(
                "distributed edge in single-member plan; use jet-cluster for multi-member jobs"
                    .into(),
            );
        }
    }
    let nv = dag.vertices().len();
    let lp: Vec<usize> = dag
        .vertices()
        .iter()
        .map(|v| v.local_parallelism.unwrap_or(cfg.threads))
        .collect();

    // Per (consumer vertex, instance): input conveyors in ordinal order.
    let mut inputs: HashMap<(usize, usize), Vec<InputConveyor>> = HashMap::new();
    // Per (producer vertex, instance, position in the producer's
    // `out_edges`): one producer handle per consumer instance.
    let mut out_handles: HashMap<(usize, usize, usize), Vec<Producer<Item>>> = HashMap::new();
    let mut out_position = vec![0usize; nv];

    for e in dag.edges() {
        let position = out_position[e.from];
        out_position[e.from] += 1;
        let producers = lp[e.from];
        let consumers = lp[e.to];
        for j in 0..consumers {
            let (conveyor, handles) = Conveyor::new(producers, e.queue_capacity);
            inputs.entry((e.to, j)).or_default().push(InputConveyor {
                ordinal: e.to_ordinal,
                priority: e.priority,
                conveyor,
            });
            for (i, h) in handles.into_iter().enumerate() {
                out_handles
                    .entry((e.from, i, position))
                    .or_default()
                    .push(h);
            }
        }
    }

    let cancelled = Arc::new(AtomicBool::new(false));
    let mut tasklets: Vec<Box<dyn Tasklet>> = Vec::new();
    let mut participants = 0usize;

    for v in 0..nv {
        let vertex = &dag.vertices()[v];
        let out_edges = dag.out_edges(v);
        let parallelism = lp[v];
        let restore_records = restore_records(restore, &vertex.name)?;
        for i in 0..parallelism {
            // Ownership: partitioned edges route partition p to instance
            // p % parallelism (single member).
            let owned: Vec<bool> = (0..cfg.partition_count)
                .map(|p| (p as usize) % parallelism == i)
                .collect();
            let ctx = ProcessorContext {
                vertex: vertex.name.clone(),
                global_index: i,
                total_parallelism: parallelism,
                member: 0,
                clock: cfg.clock.clone(),
                guarantee: cfg.guarantee,
                cancelled: cancelled.clone(),
                partition_count: cfg.partition_count,
                owned_partitions: Arc::new(owned),
            };
            let mut processor = (vertex.supplier)(i);
            if let Some(records) = &restore_records {
                for (k, val) in records {
                    processor.restore_from_snapshot(k, val, &ctx);
                }
                processor.finish_snapshot_restore(&ctx);
            }
            // Build collectors in `out_edges` order.
            let mut collectors = Vec::new();
            for (position, e) in out_edges.iter().enumerate() {
                let targets = out_handles
                    .remove(&(v, i, position))
                    .ok_or_else(|| format!("missing out wiring for {}:{}", vertex.name, i))?;
                let consumers = lp[e.to];
                let ptt: Vec<u16> = match &e.routing {
                    Routing::Partitioned(_) => (0..cfg.partition_count)
                        .map(|p| ((p as usize) % consumers) as u16)
                        .collect(),
                    _ => Vec::new(),
                };
                collectors.push(OutboundCollector::new(
                    e.routing.clone(),
                    targets,
                    ptt,
                    cfg.partition_count,
                    i.min(consumers - 1),
                ));
            }
            let ins = inputs.remove(&(v, i)).unwrap_or_default();
            let tasklet = ProcessorTasklet::new(
                processor,
                vertex.chain(),
                ctx,
                ins,
                collectors,
                registry.clone(),
                cfg.batch,
            );
            participants += 1;
            tasklets.push(Box::new(tasklet));
        }
    }
    registry.set_participants(participants);
    Ok(LocalExecution {
        tasklets,
        cancelled,
    })
}
