//! Execution planning: the one code path that turns a [`Dag`] into wired
//! tasklets (paper §3.1, Fig. 3 + §3.3).
//!
//! Jet "deploys the *complete* dataflow graph on every available CPU core"
//! of every member: each vertex gets `local_parallelism` processor
//! instances *per member* (default: one per core), and on each member every
//! edge becomes a mesh of SPSC queues — local producer instance i owns
//! lane i of every local consumer's conveyor. Edges route as follows:
//!
//! * **Unicast / Isolated** — always member-local (Jet "keeps data exchange
//!   local to the machine as much as possible").
//! * **Partitioned** — routed by the grid's partition table: partition `p`
//!   belongs to the member owning `p`'s primary replica (aligning compute
//!   with IMDG state placement, §4.1), and within that member to local
//!   instance `p % lp`. Remote partitions travel through a
//!   [`SenderTasklet`]/[`ReceiverTasklet`] pair per (edge, member pair) with
//!   the adaptive receive-window flow control of §3.3.
//! * **Broadcast** — delivered to every instance on every member (local
//!   consumers directly, remote ones via the senders).
//!
//! A single-member job is the one-member case: [`build_local`] plans on
//! member 0, which owns every partition, with no transport, hence no
//! exchange tasklets, and no metrics registry, hence no instruments.
//! [`build_cluster_execution`] passes the transport and one registry per
//! member.

use crate::dag::{Dag, Routing};
use crate::item::{Item, SnapshotId};
use crate::metrics::{tags, MetricsRegistry, TaskletCounters};
use crate::network::{ChannelId, ChannelMetrics, ReceiverTasklet, SenderTasklet, Transport};
use crate::outbound::OutboundCollector;
use crate::processor::{Guarantee, ProcessorContext};
use crate::snapshot::SnapshotRegistry;
use crate::state::StateProbe;
use crate::tasklet::{InputConveyor, ProcessorTasklet, Tasklet, DEFAULT_BATCH};
use crate::trace::Tracer;
use crate::watermark::NO_WATERMARK;
use jet_imdg::partition_table::PartitionTable;
use jet_imdg::snapshot_store::{Records, SnapshotStore};
use jet_imdg::{MemberId, PartitionId};
use jet_queue::{Conveyor, DepthProbe, Producer};
use jet_util::clock::SharedClock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Cluster execution configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Cores (cooperative threads / virtual cores) per member; also the
    /// default vertex parallelism per member.
    pub cores_per_member: usize,
    pub batch: usize,
    pub guarantee: Guarantee,
    pub clock: SharedClock,
    /// Ablation A4: disable the adaptive receive window and always grant
    /// this fixed amount.
    pub fixed_receive_window: Option<u64>,
    /// Execution tracing: every processor/sender/receiver tasklet gets its
    /// own trace writer. Disabled by default (no rings, no records).
    pub tracer: Tracer,
}

impl ClusterConfig {
    pub fn new(cores_per_member: usize, clock: SharedClock) -> Self {
        ClusterConfig {
            cores_per_member: cores_per_member.max(1),
            batch: DEFAULT_BATCH,
            guarantee: Guarantee::None,
            clock,
            fixed_receive_window: None,
            tracer: Tracer::disabled(),
        }
    }

    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    pub fn with_guarantee(mut self, g: Guarantee) -> Self {
        self.guarantee = g;
        self
    }

    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

/// A runnable tasklet paired with its counters (for the simulator's cost
/// accounting); control tasklets have no counters.
pub type CountedTasklet = (Box<dyn Tasklet>, Option<Arc<TaskletCounters>>);

/// One member's share of a wired cluster execution.
pub struct MemberExecution {
    pub member: MemberId,
    pub tasklets: Vec<CountedTasklet>,
    /// This member's metrics registry (default tag `member`), populated by
    /// the wiring with per-vertex event counters, per-lane queue-depth
    /// gauges, and distributed-channel instruments.
    pub metrics: Arc<MetricsRegistry>,
}

/// A fully wired cluster execution.
pub struct ClusterExecution {
    pub members: Vec<MemberExecution>,
    pub cancelled: Arc<AtomicBool>,
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
    let one = ClusterConfig::new(cfg.threads, cfg.clock.clone())
        .with_guarantee(cfg.guarantee)
        .with_batch(cfg.batch);
    let owner_of = vec![0; cfg.partition_count as usize];
    let (mut members, cancelled) = plan(dag, &owner_of, None, &one, registry, restore)?;
    let tasklets = members.remove(0).into_iter().map(|(t, _)| t).collect();
    Ok(LocalExecution {
        tasklets,
        cancelled,
    })
}

/// Wire `dag` across `members` (their ids must come from the grid whose
/// partition `table` is passed). Restore state from `restore` if given.
pub fn build_cluster_execution(
    dag: &Dag,
    members: &[MemberId],
    table: &PartitionTable,
    transport: Arc<dyn Transport>,
    cfg: &ClusterConfig,
    registry: &Arc<SnapshotRegistry>,
    restore: Option<(&SnapshotStore, SnapshotId)>,
) -> Result<ClusterExecution, String> {
    assert!(!members.is_empty());
    // One metrics registry per member; every instrument the plan creates
    // registers into the owning member's registry, tagged with its scope.
    let metrics: Vec<Arc<MetricsRegistry>> = members
        .iter()
        .map(|m| {
            Arc::new(MetricsRegistry::with_tags(tags(&[(
                "member",
                &m.0.to_string(),
            )])))
        })
        .collect();
    // Partition -> owning member index (primary replica owner among the
    // job's members; partitions owned by non-participating members fall
    // back by modulo, which only happens in tests that shrink the grid).
    let owner_of: Vec<usize> = (0..table.partition_count())
        .map(|p| {
            table
                .primary(PartitionId(p))
                .and_then(|m| members.iter().position(|&x| x == m))
                .unwrap_or((p as usize) % members.len())
        })
        .collect();
    let cluster = Cluster {
        members,
        transport,
        metrics: &metrics,
    };
    let (tasklets, cancelled) = plan(dag, &owner_of, Some(&cluster), cfg, registry, restore)?;
    let members = members
        .iter()
        .zip(tasklets)
        .zip(metrics)
        .map(|((&member, tasklets), metrics)| MemberExecution {
            member,
            tasklets,
            metrics,
        })
        .collect();
    Ok(ClusterExecution { members, cancelled })
}

/// What only a cluster plan has: its members, the transport that
/// distributed edges cross, and one metrics registry per member that every
/// instrument registers into. A plan without them runs on member 0.
struct Cluster<'a> {
    members: &'a [MemberId],
    transport: Arc<dyn Transport>,
    metrics: &'a [Arc<MetricsRegistry>],
}

/// The instance of a vertex with `parallelism` instances per member that
/// partition `p` goes to on its owning member. Routing and the ownership a
/// restore filters state by both follow this one rule.
fn instance_of(p: u32, parallelism: usize) -> usize {
    (p as usize) % parallelism
}

/// Index into `0..n` of the `slot`-th member other than `mi`, and back:
/// remote members are numbered in member order, skipping `mi`.
fn remote(mi: usize, slot: usize) -> usize {
    slot + usize::from(slot >= mi)
}

fn slot_of(mi: usize, remote: usize) -> usize {
    remote - usize::from(remote > mi)
}

/// Wire `dag` on the cluster's members, or on member 0 alone, where
/// partition `p` belongs to member `owner_of[p]` (an index into the
/// members). Returns each member's tasklets: processor instances by vertex,
/// then the member's exchange tasklets.
fn plan(
    dag: &Dag,
    owner_of: &[usize],
    cluster: Option<&Cluster>,
    cfg: &ClusterConfig,
    registry: &Arc<SnapshotRegistry>,
    restore: Option<(&SnapshotStore, SnapshotId)>,
) -> Result<(Vec<Vec<CountedTasklet>>, Arc<AtomicBool>), String> {
    dag.validate()?;
    let members = cluster.map_or(&[MemberId(0)][..], |c| c.members);
    let n_members = members.len();
    let partition_count = owner_of.len() as u32;
    let nv = dag.vertices().len();
    let lp: Vec<usize> = dag
        .vertices()
        .iter()
        .map(|v| v.local_parallelism.unwrap_or(cfg.cores_per_member))
        .collect();

    // Per (member, consumer vertex, instance): input conveyors.
    let mut inputs: HashMap<(usize, usize, usize), Vec<InputConveyor>> = HashMap::new();
    // Per (member, producer vertex, instance, position in the producer's
    // `out_edges`): the targets, and the target each partition goes to.
    type OutWiring = (Vec<Producer<Item>>, Vec<u16>);
    let mut out_wiring: HashMap<(usize, usize, usize, usize), OutWiring> = HashMap::new();
    let mut out_position = vec![0usize; nv];
    // Per member: the sender/receiver tasklets of the edges it crosses.
    let mut exchange: Vec<Vec<CountedTasklet>> = (0..n_members).map(|_| Vec::new()).collect();

    for (edge_idx, e) in dag.edges().iter().enumerate() {
        let position = out_position[e.from];
        out_position[e.from] += 1;
        let producers = lp[e.from];
        let consumers = lp[e.to];
        if matches!(e.routing, Routing::Isolated) && producers != consumers {
            return Err("isolated edge with mismatched parallelism".into());
        }
        let partitioned = matches!(e.routing, Routing::Partitioned(_));
        let crossing = cluster
            .filter(|_| n_members > 1 && (partitioned || matches!(e.routing, Routing::Broadcast)));
        let remotes = if crossing.is_some() { n_members - 1 } else { 0 };
        for mi in 0..n_members {
            // Consumer-side conveyors on member mi: one lane per local
            // producer, then one per remote member's receiver. `targets[l]`
            // collects lane l's handle into every local consumer.
            let mut targets: Vec<Vec<Producer<Item>>> = (0..producers + remotes)
                .map(|_| Vec::with_capacity(consumers + remotes))
                .collect();
            for j in 0..consumers {
                let (conveyor, handles) = Conveyor::new(producers + remotes, e.queue_capacity);
                for (lane, h) in handles.into_iter().enumerate() {
                    targets[lane].push(h);
                }
                inputs
                    .entry((mi, e.to, j))
                    .or_default()
                    .push(InputConveyor {
                        ordinal: e.to_ordinal,
                        priority: e.priority,
                        conveyor,
                    });
            }
            let receiver_targets = targets.split_off(producers);
            if let Some(c) = crossing {
                let metrics = &c.metrics[mi];
                let to = members[mi].0;
                // Receivers: one per remote member, routing into the local
                // consumers.
                for (slot, targets) in receiver_targets.into_iter().enumerate() {
                    let from = members[remote(mi, slot)].0;
                    let channel = ChannelId {
                        edge: edge_idx as u32,
                        from,
                        to,
                    };
                    let ptt: Vec<u16> = if partitioned {
                        (0..partition_count)
                            .map(|p| instance_of(p, consumers) as u16)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let collector =
                        OutboundCollector::new(e.routing.clone(), targets, ptt, partition_count, 0);
                    let label = format!("m{to}/recv-e{edge_idx}-m{from}");
                    let mut receiver = ReceiverTasklet::new(
                        channel,
                        c.transport.clone(),
                        cfg.clock.clone(),
                        collector,
                    )
                    .with_metrics(ChannelMetrics::receiver_side(metrics, channel))
                    .with_trace(cfg.tracer.writer(to, &label));
                    if let Some(w) = cfg.fixed_receive_window {
                        receiver = receiver.with_fixed_window(w);
                    }
                    exchange[mi].push((Box::new(receiver), None));
                }
                // Senders: one per remote member, fed by the local
                // producers; producer i's lane into the sender for slot s is
                // its target `consumers + s`.
                for slot in 0..remotes {
                    let channel = ChannelId {
                        edge: edge_idx as u32,
                        from: members[mi].0,
                        to: members[remote(mi, slot)].0,
                    };
                    let (conveyor, handles) = Conveyor::new(producers, e.queue_capacity);
                    let scope = [
                        ("edge", channel.edge.to_string()),
                        ("from", channel.from.to_string()),
                        ("to", channel.to.to_string()),
                    ];
                    lane_gauges(metrics, &scope, conveyor.probes());
                    for (i, h) in handles.into_iter().enumerate() {
                        targets[i].push(h);
                    }
                    let label = format!("m{}/send-e{edge_idx}-m{}", channel.from, channel.to);
                    let sender =
                        SenderTasklet::new(channel, c.transport.clone(), conveyor, cfg.guarantee)
                            .with_metrics(ChannelMetrics::sender_side(metrics, channel))
                            .with_trace(cfg.tracer.writer(channel.from, &label), cfg.clock.clone());
                    exchange[mi].push((Box::new(sender), None));
                }
            }
            // A partition owned here goes to its local instance; any other
            // to the sender for its owner.
            let ptt: Vec<u16> = if partitioned {
                (0..partition_count)
                    .map(|p| match owner_of[p as usize] {
                        owner if owner == mi => instance_of(p, consumers) as u16,
                        owner => (consumers + slot_of(mi, owner)) as u16,
                    })
                    .collect()
            } else {
                Vec::new()
            };
            for (i, targets) in targets.into_iter().enumerate() {
                out_wiring.insert((mi, e.from, i, position), (targets, ptt.clone()));
            }
        }
    }

    let cancelled = Arc::new(AtomicBool::new(false));
    let mut tasklets: Vec<Vec<CountedTasklet>> = (0..n_members).map(|_| Vec::new()).collect();
    let mut participants = 0usize;
    for (v, vertex) in dag.vertices().iter().enumerate() {
        let out_edges = dag.out_edges(v);
        let parallelism = lp[v];
        let restored = restore_records(restore, &vertex.name)?;
        for mi in 0..n_members {
            for i in 0..parallelism {
                let global_index = mi * parallelism + i;
                let owned: Vec<bool> = (0..partition_count)
                    .map(|p| owner_of[p as usize] == mi && instance_of(p, parallelism) == i)
                    .collect();
                let ctx = ProcessorContext {
                    vertex: vertex.name.clone(),
                    global_index,
                    total_parallelism: parallelism * n_members,
                    member: members[mi].0,
                    clock: cfg.clock.clone(),
                    guarantee: cfg.guarantee,
                    cancelled: cancelled.clone(),
                    partition_count,
                    owned_partitions: Arc::new(owned),
                };
                let mut processor = (vertex.supplier)(global_index);
                if let Some(records) = &restored {
                    for (k, val) in records {
                        processor.restore_from_snapshot(k, val, &ctx);
                    }
                    processor.finish_snapshot_restore(&ctx);
                }
                let state = processor.state_probe();
                let mut collectors = Vec::with_capacity(out_edges.len());
                for (position, e) in out_edges.iter().enumerate() {
                    let (targets, ptt) = out_wiring
                        .remove(&(mi, v, i, position))
                        .expect("every out-edge of every instance is wired");
                    collectors.push(OutboundCollector::new(
                        e.routing.clone(),
                        targets,
                        ptt,
                        partition_count,
                        i.min(lp[e.to] - 1),
                    ));
                }
                let ins = inputs.remove(&(mi, v, i)).unwrap_or_default();
                let mut tasklet = ProcessorTasklet::new(
                    processor,
                    vertex.chain(),
                    vertex.kind,
                    vertex.job,
                    ctx,
                    ins,
                    collectors,
                    registry.clone(),
                    cfg.batch,
                );
                if let Some(c) = cluster {
                    let id = (members[mi].0, i, global_index);
                    tasklet = instrument(tasklet, state, &c.metrics[mi], cfg, &vertex.name, id);
                }
                let counters = tasklet.counters();
                participants += 1;
                tasklets[mi].push((Box::new(tasklet), Some(counters)));
            }
        }
    }
    for (member, exchange) in tasklets.iter_mut().zip(exchange) {
        member.extend(exchange);
    }
    registry.set_participants(participants);
    Ok((tasklets, cancelled))
}

/// The state records `vertex` restores from, when the execution restores at
/// all. A snapshot that does not decode is an error for the caller's retry
/// and fallback logic, never a panic or a partial restore.
fn restore_records(
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

/// Attach the instruments of processor instance `(member, local index,
/// global index)` of `vertex`: a trace track, and in `metrics` its input
/// lanes' queue gauges, event counters, bulk-transfer sizes, watermark
/// positions, per-edge stalls and, for keyed state, the `state` probe.
fn instrument(
    tasklet: ProcessorTasklet,
    state: Option<Arc<StateProbe>>,
    metrics: &MetricsRegistry,
    cfg: &ClusterConfig,
    vertex: &str,
    (member, i, global_index): (u32, usize, usize),
) -> ProcessorTasklet {
    for (ordinal, probes) in tasklet.input_probes() {
        let scope = [
            ("vertex", vertex.to_string()),
            ("ordinal", ordinal.to_string()),
            ("instance", i.to_string()),
        ];
        lane_gauges(metrics, &scope, probes);
    }
    let label = format!("m{member}/{vertex}#{global_index}");
    let instance = global_index.to_string();
    let ct = tags(&[("vertex", vertex), ("instance", &instance)]);
    // Keyed-state processors export a probe: late-event drops and resident
    // keyed-state footprint (plus, for a window's stage 1, its
    // hold-or-forward decision), refreshed on the processor's own tick (no
    // lock on the hot path). The job tag rides in at the job-registry level
    // like every other per-vertex metric.
    if let Some(sp) = state {
        let p = sp.clone();
        metrics.counter_fn("jet_window_late_events_total", ct.clone(), move || {
            p.late_events.load(Ordering::Relaxed)
        });
        let p = sp.clone();
        metrics.gauge_fn("jet_state_resident_bytes", ct.clone(), move || {
            p.resident_bytes.load(Ordering::Relaxed) as i64
        });
        if let Some(b) = &sp.bypass {
            let f = b.clone();
            metrics.counter_fn("jet_window_bypassed_frames_total", ct.clone(), move || {
                f.frames.load(Ordering::Relaxed)
            });
            let r = b.clone();
            metrics.gauge_fn(
                "jet_window_events_per_key_milli_ratio",
                ct.clone(),
                move || r.events_per_key_milli.load(Ordering::Relaxed) as i64,
            );
        }
        metrics.gauge_fn("jet_state_keys_records", ct.clone(), move || {
            sp.resident_keys.load(Ordering::Relaxed) as i64
        });
    }
    let tasklet = tasklet
        .with_trace(cfg.tracer.writer(member, &label), cfg.clock.clone())
        .with_batch_histogram(metrics.histogram("jet_edge_batch_size", ct.clone()));
    let counters = tasklet.counters();
    let c = counters.clone();
    metrics.counter_fn("jet_events_in_total", ct.clone(), move || {
        c.events_in.load(Ordering::Relaxed)
    });
    metrics.counter_fn("jet_events_out_total", ct.clone(), move || {
        counters.events_out.load(Ordering::Relaxed)
    });
    // Watermark position: highest seen on any input vs. the coalesced
    // output (`-1` until a watermark arrives).
    let probe = tasklet.watermark_probe();
    let p = probe.clone();
    metrics.gauge_fn(
        "jet_vertex_watermark_seen_nanos",
        ct.clone(),
        move || match p.last_seen() {
            NO_WATERMARK => -1,
            w => w,
        },
    );
    metrics.gauge_fn(
        "jet_vertex_watermark_coalesced_nanos",
        ct,
        move || match probe.coalesced() {
            NO_WATERMARK => -1,
            w => w,
        },
    );
    // Backpressure: queue-full stalls per output edge.
    let stalls = tasklet.stall_counters();
    for ei in 0..stalls.len() {
        let st = tags(&[
            ("vertex", vertex),
            ("instance", &instance),
            ("ordinal", &ei.to_string()),
        ]);
        let stalls = stalls.clone();
        metrics.counter_fn("jet_backpressure_stalls_total", st, move || {
            stalls[ei].load(Ordering::Relaxed)
        });
    }
    tasklet
}

/// A capacity and a depth gauge for each lane of one conveyor, tagged with
/// `scope` and the lane.
fn lane_gauges(metrics: &MetricsRegistry, scope: &[(&str, String)], probes: Vec<DepthProbe>) {
    for (lane, probe) in probes.into_iter().enumerate() {
        let mut t: Vec<(String, String)> = scope
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        t.push(("lane".into(), lane.to_string()));
        metrics
            .gauge("jet_queue_capacity", t.clone())
            .set(probe.capacity() as i64);
        metrics.gauge_fn("jet_queue_depth", t, move || probe.depth() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Edge;
    use crate::network::InMemoryTransport;
    use crate::processor::{supplier, Inbox, Outbox, Processor};

    struct Nop;
    impl Processor for Nop {
        fn process(&mut self, _: usize, _: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {}
    }

    #[test]
    fn isolated_edge_with_mismatched_parallelism_is_rejected_by_both_entries() {
        // One source instance, and a sink that defaults to one instance per
        // core: an isolated edge cannot pair them up.
        let mut dag = Dag::new();
        let src = dag.vertex_with_parallelism("src", 1, supplier(|_| Box::new(Nop)));
        let sink = dag.vertex("sink", supplier(|_| Box::new(Nop)));
        dag.edge(Edge::between(src, sink).isolated());
        let registry = Arc::new(SnapshotRegistry::disabled());
        let expected = "isolated edge with mismatched parallelism";

        let local = build_local(&dag, &LocalConfig::new(2), &registry, None);
        assert_eq!(local.err().as_deref(), Some(expected));

        let members = [MemberId(0)];
        let table = PartitionTable::assign(&members, jet_imdg::DEFAULT_PARTITION_COUNT, 0);
        let clock = jet_util::clock::system_clock();
        let transport = Arc::new(InMemoryTransport::new(clock.clone(), 0));
        let cfg = ClusterConfig::new(2, clock);
        let cluster =
            build_cluster_execution(&dag, &members, &table, transport, &cfg, &registry, None);
        assert_eq!(cluster.err().as_deref(), Some(expected));
    }
}
