//! Multi-member execution wiring (paper §3.1, Fig. 3 + §3.3).
//!
//! Every member deploys the complete DAG: each vertex gets
//! `local_parallelism` processor instances *per member*. Edges become:
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

use jet_core::dag::{Dag, Routing};
use jet_core::item::Item;
use jet_core::metrics::{tags, MetricsRegistry, TaskletCounters};
use jet_core::network::{ChannelId, ChannelMetrics, ReceiverTasklet, SenderTasklet, Transport};
use jet_core::outbound::OutboundCollector;
use jet_core::processor::{Guarantee, ProcessorContext};
use jet_core::snapshot::SnapshotRegistry;
use jet_core::tasklet::{InputConveyor, ProcessorTasklet, Tasklet};
use jet_core::trace::Tracer;
use jet_core::watermark::NO_WATERMARK;
use jet_core::SnapshotId;
use jet_imdg::partition_table::PartitionTable;
use jet_imdg::{MemberId, SnapshotStore};
use jet_queue::{Conveyor, Producer};
use jet_util::clock::SharedClock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cluster execution configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Cores (cooperative threads / virtual cores) per member; also the
    /// default vertex parallelism per member.
    pub cores_per_member: usize,
    pub batch: usize,
    pub guarantee: Guarantee,
    pub clock: SharedClock,
    pub partition_count: u32,
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
            batch: jet_core::tasklet::DEFAULT_BATCH,
            guarantee: Guarantee::None,
            clock,
            partition_count: jet_imdg::DEFAULT_PARTITION_COUNT,
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

/// Wire `dag` across `members` (their ids must come from the grid whose
/// partition `table` is passed). Restore state from `restore` if given.
#[allow(clippy::too_many_arguments)]
pub fn build_cluster_execution(
    dag: &Dag,
    members: &[MemberId],
    table: &PartitionTable,
    transport: Arc<dyn Transport>,
    cfg: &ClusterConfig,
    registry: &Arc<SnapshotRegistry>,
    restore: Option<(&SnapshotStore, SnapshotId)>,
) -> Result<ClusterExecution, String> {
    dag.validate()?;
    assert!(!members.is_empty());
    if table.partition_count() != cfg.partition_count {
        return Err(format!(
            "config partition count {} does not match the grid's table ({})",
            cfg.partition_count,
            table.partition_count()
        ));
    }
    let n_members = members.len();
    // One metrics registry per member; everything the wiring creates below
    // registers into the owning member's registry, tagged with its scope.
    let registries: Vec<Arc<MetricsRegistry>> = members
        .iter()
        .map(|m| {
            Arc::new(MetricsRegistry::with_tags(tags(&[(
                "member",
                &m.0.to_string(),
            )])))
        })
        .collect();
    let member_index: HashMap<MemberId, usize> =
        members.iter().enumerate().map(|(i, &m)| (m, i)).collect();
    // Partition -> owning member index (primary replica owner among the
    // job's members; partitions owned by non-participating members fall
    // back by modulo, which only happens in tests that shrink the grid).
    let owner_of: Vec<usize> = (0..cfg.partition_count)
        .map(|p| {
            table
                .primary(jet_imdg::PartitionId(p))
                .and_then(|m| member_index.get(&m).copied())
                .unwrap_or((p as usize) % n_members)
        })
        .collect();

    let nv = dag.vertices().len();
    let lp: Vec<usize> = dag
        .vertices()
        .iter()
        .map(|v| v.local_parallelism.unwrap_or(cfg.cores_per_member))
        .collect();

    // Per (member, consumer vertex, instance): input conveyors.
    let mut inputs: HashMap<(usize, usize, usize), Vec<InputConveyor>> = HashMap::new();
    // Per (member, producer vertex, instance, position in the producer's
    // `out_edges`): targets.
    struct OutWiring {
        targets: Vec<Producer<Item>>,
        partition_to_target: Vec<u16>,
    }
    let mut out_wiring: HashMap<(usize, usize, usize, usize), OutWiring> = HashMap::new();
    let mut out_position = vec![0usize; nv];
    // Sender/receiver tasklets created per distributed edge.
    let mut exchange_tasklets: Vec<(usize, Box<dyn Tasklet>)> = Vec::new();

    for (edge_idx, e) in dag.edges().iter().enumerate() {
        let position = out_position[e.from];
        out_position[e.from] += 1;
        let producers = lp[e.from];
        let consumers = lp[e.to];
        let crosses_members =
            n_members > 1 && matches!(e.routing, Routing::Partitioned(_) | Routing::Broadcast);
        if matches!(e.routing, Routing::Isolated) && producers != consumers {
            return Err("isolated edge with mismatched parallelism".into());
        }
        for (mi, _m) in members.iter().enumerate() {
            // Consumer-side conveyors on member mi: one lane per local
            // producer, plus one lane per remote member's receiver when the
            // edge crosses members.
            let remote_lanes = if crosses_members { n_members - 1 } else { 0 };
            let mut consumer_handles: Vec<Vec<Producer<Item>>> = Vec::with_capacity(consumers);
            for j in 0..consumers {
                let (conveyor, handles) = Conveyor::new(producers + remote_lanes, e.queue_capacity);
                let vname = &dag.vertices()[e.to].name;
                for (lane, probe) in conveyor.probes().into_iter().enumerate() {
                    let qt = tags(&[
                        ("vertex", vname),
                        ("ordinal", &e.to_ordinal.to_string()),
                        ("instance", &j.to_string()),
                        ("lane", &lane.to_string()),
                    ]);
                    registries[mi]
                        .gauge("jet_queue_capacity", qt.clone())
                        .set(probe.capacity() as i64);
                    registries[mi].gauge_fn("jet_queue_depth", qt, move || probe.depth() as i64);
                }
                inputs
                    .entry((mi, e.to, j))
                    .or_default()
                    .push(InputConveyor {
                        ordinal: e.to_ordinal,
                        priority: e.priority,
                        conveyor,
                    });
                consumer_handles.push(handles);
            }
            // consumer_handles[j][lane]: lanes 0..producers are local
            // producers; lanes producers.. are receivers (one per remote).
            // Local producer i's direct targets: handle j of each consumer.
            let mut local_targets: Vec<Vec<Producer<Item>>> = (0..producers)
                .map(|_| Vec::with_capacity(consumers))
                .collect();
            let mut receiver_targets: Vec<Vec<Producer<Item>>> = (0..remote_lanes)
                .map(|_| Vec::with_capacity(consumers))
                .collect();
            for handles in consumer_handles {
                // handles is Vec<Producer> indexed by lane, consumed in order.
                for (lane, h) in handles.into_iter().enumerate() {
                    if lane < producers {
                        local_targets[lane].push(h);
                    } else {
                        receiver_targets[lane - producers].push(h);
                    }
                }
            }
            // Receivers: one per remote member, routing into local consumers.
            if crosses_members {
                for (ri, targets) in receiver_targets.into_iter().enumerate() {
                    // Remote member index for receiver slot ri.
                    let from_mi = (0..n_members).filter(|&x| x != mi).nth(ri).expect("slot");
                    let channel = ChannelId {
                        edge: edge_idx as u32,
                        from: members[from_mi].0,
                        to: members[mi].0,
                    };
                    let ptt: Vec<u16> = match &e.routing {
                        Routing::Partitioned(_) => (0..cfg.partition_count)
                            .map(|p| ((p as usize) % consumers) as u16)
                            .collect(),
                        _ => Vec::new(),
                    };
                    let routing = match &e.routing {
                        Routing::Broadcast => Routing::Broadcast,
                        other => other.clone(),
                    };
                    let collector =
                        OutboundCollector::new(routing, targets, ptt, cfg.partition_count, 0);
                    let mut receiver = ReceiverTasklet::new(
                        channel,
                        transport.clone(),
                        cfg.clock.clone(),
                        collector,
                    )
                    .with_metrics(ChannelMetrics::receiver_side(&registries[mi], channel))
                    .with_trace(cfg.tracer.writer(
                        members[mi].0,
                        &format!(
                            "m{}/recv-e{}-m{}",
                            members[mi].0, channel.edge, channel.from
                        ),
                    ));
                    if let Some(w) = cfg.fixed_receive_window {
                        receiver = receiver.with_fixed_window(w);
                    }
                    exchange_tasklets.push((mi, Box::new(receiver)));
                }
            }
            // Sender conveyors: on member mi, one sender per remote member,
            // fed by the local producers.
            let mut sender_handles: Vec<Vec<Producer<Item>>> = Vec::new();
            if crosses_members {
                for r in 0..n_members - 1 {
                    let to_mi = (0..n_members).filter(|&x| x != mi).nth(r).expect("slot");
                    let (conveyor, handles) = Conveyor::new(producers, e.queue_capacity);
                    let channel = ChannelId {
                        edge: edge_idx as u32,
                        from: members[mi].0,
                        to: members[to_mi].0,
                    };
                    for (lane, probe) in conveyor.probes().into_iter().enumerate() {
                        let qt = tags(&[
                            ("edge", &channel.edge.to_string()),
                            ("from", &channel.from.to_string()),
                            ("to", &channel.to.to_string()),
                            ("lane", &lane.to_string()),
                        ]);
                        registries[mi]
                            .gauge("jet_queue_capacity", qt.clone())
                            .set(probe.capacity() as i64);
                        registries[mi]
                            .gauge_fn("jet_queue_depth", qt, move || probe.depth() as i64);
                    }
                    let sender =
                        SenderTasklet::new(channel, transport.clone(), conveyor, cfg.guarantee)
                            .with_metrics(ChannelMetrics::sender_side(&registries[mi], channel))
                            .with_trace(
                                cfg.tracer.writer(
                                    members[mi].0,
                                    &format!(
                                        "m{}/send-e{}-m{}",
                                        members[mi].0, channel.edge, channel.to
                                    ),
                                ),
                                cfg.clock.clone(),
                            );
                    exchange_tasklets.push((mi, Box::new(sender)));
                    sender_handles.push(handles);
                }
            }
            // Producer-side wiring: targets = local consumers ++ senders.
            for i in 0..producers {
                let mut targets: Vec<Producer<Item>> =
                    Vec::with_capacity(consumers + n_members - 1);
                targets.append(&mut local_targets[i].drain(..).collect());
                for handles in &mut sender_handles {
                    // handles[i] is producer i's lane into this sender.
                    targets.push(std::mem::replace(&mut handles[i], dead_producer()));
                }
                let ptt: Vec<u16> = match &e.routing {
                    Routing::Partitioned(_) => (0..cfg.partition_count)
                        .map(|p| {
                            let owner = owner_of[p as usize];
                            if owner == mi {
                                ((p as usize) % consumers) as u16
                            } else {
                                // Sender slot for that member.
                                let slot = (0..n_members)
                                    .filter(|&x| x != mi)
                                    .position(|x| x == owner)
                                    .expect("remote owner");
                                (consumers + slot) as u16
                            }
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                out_wiring.insert(
                    (mi, e.from, i, position),
                    OutWiring {
                        targets,
                        partition_to_target: ptt,
                    },
                );
            }
        }
    }

    // Build processor tasklets per member.
    let cancelled = Arc::new(AtomicBool::new(false));
    let mut member_execs: Vec<MemberExecution> = members
        .iter()
        .zip(&registries)
        .map(|(&m, reg)| MemberExecution {
            member: m,
            tasklets: Vec::new(),
            metrics: reg.clone(),
        })
        .collect();
    let mut participants = 0usize;

    for v in 0..nv {
        let vertex = &dag.vertices()[v];
        let out_edges = dag.out_edges(v);
        let parallelism = lp[v];
        let restore_records = jet_core::plan::restore_records(restore, &vertex.name)?;
        for (mi, _m) in members.iter().enumerate() {
            for i in 0..parallelism {
                let global_index = mi * parallelism + i;
                let owned: Vec<bool> = (0..cfg.partition_count)
                    .map(|p| owner_of[p as usize] == mi && (p as usize) % parallelism == i)
                    .collect();
                let ctx = ProcessorContext {
                    vertex: vertex.name.clone(),
                    global_index,
                    total_parallelism: parallelism * n_members,
                    member: members[mi].0,
                    clock: cfg.clock.clone(),
                    guarantee: cfg.guarantee,
                    cancelled: cancelled.clone(),
                    partition_count: cfg.partition_count,
                    owned_partitions: Arc::new(owned),
                };
                let mut processor = (vertex.supplier)(global_index);
                if let Some(records) = &restore_records {
                    for (k, val) in records {
                        processor.restore_from_snapshot(k, val, &ctx);
                    }
                    processor.finish_snapshot_restore(&ctx);
                }
                // Keyed-state processors export a probe: late-event drops
                // and resident keyed-state footprint (plus, for a window's
                // stage 1, its hold-or-forward decision), refreshed on the
                // processor's own tick (no lock on the hot path).
                if let Some(sp) = processor.state_probe() {
                    // The job tag rides in at the job-registry level like
                    // every other per-vertex metric.
                    let kt = tags(&[
                        ("vertex", &vertex.name),
                        ("instance", &global_index.to_string()),
                    ]);
                    let p = sp.clone();
                    registries[mi].counter_fn(
                        "jet_window_late_events_total",
                        kt.clone(),
                        move || p.late_events.load(Ordering::Relaxed),
                    );
                    let p = sp.clone();
                    registries[mi].gauge_fn("jet_state_resident_bytes", kt.clone(), move || {
                        p.resident_bytes.load(Ordering::Relaxed) as i64
                    });
                    // Stage 1 of a two-stage window also reports which
                    // path its frames took (hold or forward at once).
                    if let Some(b) = &sp.bypass {
                        let f = b.clone();
                        registries[mi].counter_fn(
                            "jet_window_bypassed_frames_total",
                            kt.clone(),
                            move || f.frames.load(Ordering::Relaxed),
                        );
                        let r = b.clone();
                        registries[mi].gauge_fn(
                            "jet_window_events_per_key_milli_ratio",
                            kt.clone(),
                            move || r.events_per_key_milli.load(Ordering::Relaxed) as i64,
                        );
                    }
                    registries[mi].gauge_fn("jet_state_keys_records", kt, move || {
                        sp.resident_keys.load(Ordering::Relaxed) as i64
                    });
                }
                let mut collectors = Vec::new();
                for (position, e) in out_edges.iter().enumerate() {
                    let wiring = out_wiring
                        .remove(&(mi, v, i, position))
                        .ok_or_else(|| format!("missing wiring {}:{}:{}", mi, vertex.name, i))?;
                    let consumers = lp[e.to];
                    collectors.push(OutboundCollector::new(
                        e.routing.clone(),
                        wiring.targets,
                        wiring.partition_to_target,
                        cfg.partition_count,
                        i.min(consumers - 1),
                    ));
                }
                let ins = inputs.remove(&(mi, v, i)).unwrap_or_default();
                let tasklet = ProcessorTasklet::new(
                    processor,
                    vertex.chain(),
                    ctx,
                    ins,
                    collectors,
                    registry.clone(),
                    cfg.batch,
                )
                .with_trace(
                    cfg.tracer.writer(
                        members[mi].0,
                        &format!("m{}/{}#{}", members[mi].0, vertex.name, global_index),
                    ),
                    cfg.clock.clone(),
                );
                let counters = tasklet.counters();
                let ct = tags(&[
                    ("vertex", &vertex.name),
                    ("instance", &global_index.to_string()),
                ]);
                // Achieved bulk-transfer sizes on this instance's queue hops.
                let tasklet = tasklet.with_batch_histogram(
                    registries[mi].histogram("jet_edge_batch_size", ct.clone()),
                );
                let c_in = counters.clone();
                registries[mi].counter_fn("jet_events_in_total", ct.clone(), move || {
                    c_in.events_in.load(Ordering::Relaxed)
                });
                let c_out = counters.clone();
                registries[mi].counter_fn("jet_events_out_total", ct.clone(), move || {
                    c_out.events_out.load(Ordering::Relaxed)
                });
                // Watermark position: highest seen on any input vs. the
                // coalesced output (`-1` until a watermark arrives).
                let probe = tasklet.watermark_probe();
                let p = probe.clone();
                registries[mi].gauge_fn("jet_vertex_watermark_seen_nanos", ct.clone(), move || {
                    match p.last_seen() {
                        NO_WATERMARK => -1,
                        w => w,
                    }
                });
                registries[mi].gauge_fn("jet_vertex_watermark_coalesced_nanos", ct, move || {
                    match probe.coalesced() {
                        NO_WATERMARK => -1,
                        w => w,
                    }
                });
                // Backpressure: queue-full stalls per output edge.
                let stalls = tasklet.stall_counters();
                for ei in 0..out_edges.len() {
                    let st = tags(&[
                        ("vertex", &vertex.name),
                        ("instance", &global_index.to_string()),
                        ("ordinal", &ei.to_string()),
                    ]);
                    let stalls = stalls.clone();
                    registries[mi].counter_fn("jet_backpressure_stalls_total", st, move || {
                        stalls[ei].load(Ordering::Relaxed)
                    });
                }
                participants += 1;
                member_execs[mi]
                    .tasklets
                    .push((Box::new(tasklet), Some(counters)));
            }
        }
    }
    for (mi, t) in exchange_tasklets {
        member_execs[mi].tasklets.push((t, None));
    }
    registry.set_participants(participants);
    Ok(ClusterExecution {
        members: member_execs,
        cancelled,
    })
}

/// A producer handle whose consumer is dropped immediately — used only as a
/// placeholder when moving handles out of a vec.
fn dead_producer() -> Producer<Item> {
    let (p, _c) = jet_queue::spsc_channel(2);
    p
}
