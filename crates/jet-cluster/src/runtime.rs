//! Cluster job runtime over the virtual-time simulator: job start, periodic
//! snapshots, member failure + recovery (§4.4), and elastic rescaling
//! (§4.3).
//!
//! Recovery follows the paper exactly: "Jet will stop processing in all
//! nodes and vertices, reload the latest state snapshots from IMDG recorded
//! at the latest checkpoint, spawn a new instance to substitute the one
//! that failed, and ask the input sources to replay the input data
//! following the latest checkpoint." Here that is: kill the member in the
//! grid (backups get promoted, Fig. 6), drop every tasklet (in-flight data
//! is lost with them), rebuild the execution from the latest complete
//! snapshot over the surviving members, and resume on the same virtual
//! clock.

use crate::coordinator::{ClusterEvent, Coordinator, CoordinatorConfig};
use crate::wiring::{build_cluster_execution, ClusterConfig, ClusterExecution};
use jet_core::fairness::JobQuotas;
use jet_core::flight::{IncidentReport, Recorder};
use jet_core::metrics::{tags, MetricsRegistry, MetricsSnapshot};
use jet_core::network::{ChannelChaos, InMemoryTransport, NetworkFaults};
use jet_core::processor::Guarantee;
use jet_core::snapshot::SnapshotRegistry;
use jet_core::trace::{TraceKind, TraceWriter, Tracer};
use jet_core::Dag;
use jet_imdg::{Grid, MemberId, SnapshotStore, StoreFaults};
use jet_sim::{CostModel, FaultEvent, FaultKind, FaultPlan, SimTick, Simulator};
use jet_util::backoff::backoff_delay;
use jet_util::clock::{ManualClock, SharedClock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Virtual nanos between two drains of the recorder's tracer into its span
/// ring while a run is in progress.
const SPAN_DRAIN_PERIOD: u64 = 10_000_000;

/// Simulation-mode cluster configuration.
#[derive(Clone)]
pub struct SimClusterConfig {
    pub members: usize,
    pub cores_per_member: usize,
    pub partition_count: u32,
    /// Backup replicas per partition in the grid.
    pub backup_count: usize,
    pub guarantee: Guarantee,
    /// Snapshot interval in virtual nanos; 0 disables snapshots.
    pub snapshot_interval: u64,
    /// One-way network latency between members, virtual nanos.
    pub network_latency: u64,
    pub cost_model: CostModel,
    /// Simulation time step.
    pub quantum: u64,
    pub batch: usize,
    /// GC pause injection (§5 / ablation A2).
    pub gc: Option<jet_sim::GcModel>,
    /// Ablation A4: fixed (non-adaptive) receive window.
    pub fixed_receive_window: Option<u64>,
    /// Deterministic fault script applied from the per-quantum hook.
    pub fault_plan: Option<FaultPlan>,
    /// Heartbeat failure detection + self-healing recovery. `None` (the
    /// default) wires no coordinator at all: no heartbeat traffic, no
    /// detector state, zero cost on fault-free runs.
    pub coordinator: Option<CoordinatorConfig>,
    /// Multi-tenant fairness (§7.7): per-job scheduling quotas applied to
    /// every virtual core (a tasklet's job is its vertex's `job`). `None`
    /// (the default) keeps the original tasklet-level round-robin
    /// bit-identically.
    pub quotas: Option<JobQuotas>,
    /// Flight recorder, the job's one telemetry handle. With its span ring
    /// armed every tasklet records spans through the recorder's tracer,
    /// the runtime drains them into the ring, and the diagnostics dump
    /// gains trace and blame sections; with its timeline armed the runtime
    /// samples the job-wide metrics snapshot at the timeline's cadence and
    /// the dump gains a sparkline section. Disabled by default: zero cost,
    /// identical virtual timeline either way.
    pub recorder: Recorder,
}

impl Default for SimClusterConfig {
    fn default() -> Self {
        SimClusterConfig {
            members: 1,
            cores_per_member: 12, // paper: 12 cooperative threads per node
            partition_count: jet_imdg::DEFAULT_PARTITION_COUNT,
            backup_count: 1,
            guarantee: Guarantee::None,
            snapshot_interval: 0,
            network_latency: 500_000, // 0.5 ms, same-AZ EC2 ballpark
            cost_model: CostModel::default(),
            quantum: 20_000, // 20 µs
            batch: jet_core::tasklet::DEFAULT_BATCH,
            gc: None,
            fixed_receive_window: None,
            fault_plan: None,
            coordinator: None,
            quotas: None,
            recorder: Recorder::disabled(),
        }
    }
}

/// Applies a [`FaultPlan`] on the virtual timeline: consumes events through
/// a cursor and re-asserts crash/stall masks every quantum so they survive
/// execution rebuilds.
struct FaultDriver {
    events: Vec<FaultEvent>,
    cursor: usize,
    crashed: HashSet<u32>,
    /// member → stalled-until (expired entries are pruned).
    stalled: HashMap<u32, u64>,
    tw: TraceWriter,
}

impl FaultDriver {
    fn new(plan: Option<&FaultPlan>, tracer: &Tracer) -> FaultDriver {
        FaultDriver {
            events: plan.map(|p| p.events().to_vec()).unwrap_or_default(),
            cursor: 0,
            crashed: HashSet::new(),
            stalled: HashMap::new(),
            tw: tracer.writer(0xFA17, "fault-injector"),
        }
    }

    /// Apply events due at `tick.now` and (re-)enforce the crash/stall
    /// masks on the current execution's cores.
    fn drive(&mut self, tick: &mut SimTick, net: &NetworkFaults, store: &StoreFaults) {
        while self.cursor < self.events.len() && self.events[self.cursor].at <= tick.now {
            let ev = self.events[self.cursor].clone();
            self.cursor += 1;
            let name = self.tw.intern(&ev.kind.label());
            let arg = match &ev.kind {
                FaultKind::Crash { member } | FaultKind::Stall { member, .. } => *member as i64,
                _ => -1,
            };
            self.tw
                .record(TraceKind::FaultInject, tick.now, 0, name, arg);
            match ev.kind {
                FaultKind::Crash { member } => {
                    self.crashed.insert(member);
                }
                FaultKind::Stall { member, until } => {
                    let e = self.stalled.entry(member).or_insert(0);
                    *e = (*e).max(until);
                }
                FaultKind::PartitionStart { id, side } => net.start_partition(id, side),
                FaultKind::PartitionEnd { id } => net.end_partition(id),
                FaultKind::ChaosStart {
                    drop_millionths,
                    max_extra_delay_nanos,
                } => net.set_chaos(ChannelChaos::new(drop_millionths, max_extra_delay_nanos)),
                FaultKind::ChaosEnd => net.clear_chaos(),
                FaultKind::StoreWriteFailStart => store.set_fail_writes(true),
                FaultKind::StoreWriteFailEnd => store.set_fail_writes(false),
                FaultKind::StoreReadFailStart => store.set_fail_reads(true),
                FaultKind::StoreReadFailEnd => store.set_fail_reads(false),
            }
        }
        let now = tick.now;
        for &m in &self.crashed {
            tick.halt_member(m);
        }
        self.stalled.retain(|_, &mut until| until > now);
        for (&m, &until) in &self.stalled {
            tick.stall_member(m, until);
        }
    }

    /// Can `m` run right now? The simulation — not the detector — knows a
    /// crashed or frozen member cannot execute its heartbeat task.
    fn member_ok(&self, m: u32, now: u64) -> bool {
        !self.crashed.contains(&m) && self.stalled.get(&m).is_none_or(|&until| until <= now)
    }
}

/// In-progress recovery attempt state (retry with bounded backoff).
struct PendingRecovery {
    member: u32,
    attempt: u32,
    /// Earliest virtual instant the next attempt may run.
    next_at: u64,
    /// When the member was fenced (start of the recovery clock).
    fenced_at: u64,
}

/// A running (or restartable) cluster job on the simulator.
pub struct SimCluster {
    cfg: SimClusterConfig,
    dag: Dag,
    grid: Grid,
    clock: Arc<ManualClock>,
    shared_clock: SharedClock,
    store: SnapshotStore,
    registry: Arc<SnapshotRegistry>,
    sim: Simulator,
    cancelled: Arc<AtomicBool>,
    job_id: u64,
    /// One metrics registry per live member, rebuilt with the execution.
    member_metrics: Vec<Arc<MetricsRegistry>>,
    /// Transport of the current execution (fault hooks attached).
    transport: Arc<InMemoryTransport>,
    /// Shared across rebuilds: partitions/chaos persist through recovery.
    net_faults: Arc<NetworkFaults>,
    /// Cluster-level registry (detector + fault-injection counters);
    /// survives execution rebuilds, merged into [`Self::job_metrics`].
    cluster_metrics: Arc<MetricsRegistry>,
    coordinator: Option<Coordinator>,
    fault_driver: FaultDriver,
    pending_recovery: Option<PendingRecovery>,
    /// Set when recovery exhausted its attempts: the job is lost.
    job_failed: Option<String>,
}

impl SimCluster {
    /// Build the grid, wire the job, and place tasklets on virtual cores.
    /// Rejects an invalid coordinator configuration up front.
    pub fn start(dag: Dag, cfg: SimClusterConfig) -> Result<SimCluster, String> {
        if let Some(c) = &cfg.coordinator {
            c.validate()
                .map_err(|e| format!("coordinator config: {e}"))?;
        }
        let grid = Grid::with_partition_count(cfg.members, cfg.backup_count, cfg.partition_count);
        let clock = Arc::new(ManualClock::new());
        let shared_clock: SharedClock = clock.clone();
        let store = SnapshotStore::new(&grid, 1);
        let registry = if cfg.snapshot_interval > 0 {
            Arc::new(SnapshotRegistry::new(store.clone(), 0))
        } else {
            Arc::new(SnapshotRegistry::disabled())
        };
        let seed = cfg.fault_plan.as_ref().map(|p| p.seed).unwrap_or(0);
        let net_faults = Arc::new(NetworkFaults::new(seed));
        let cluster_metrics = Arc::new(MetricsRegistry::with_tags(tags(&[("member", "cluster")])));
        // Cluster-level instruments exist only when fault injection or the
        // coordinator is wired: fault-free jobs keep their exact metric set.
        if cfg.fault_plan.is_some() || cfg.coordinator.is_some() {
            let nf = net_faults.clone();
            cluster_metrics.counter_fn(
                "jet_cluster_heartbeats_dropped_total",
                tags(&[]),
                move || nf.heartbeats_dropped(),
            );
            let nf = net_faults.clone();
            cluster_metrics.counter_fn(
                "jet_cluster_batches_retransmitted_total",
                tags(&[]),
                move || nf.batches_retransmitted(),
            );
            let sf = store.faults();
            cluster_metrics.counter_fn(
                "jet_cluster_store_write_failures_total",
                tags(&[]),
                move || sf.write_failures(),
            );
            let sf = store.faults();
            cluster_metrics.counter_fn(
                "jet_cluster_store_read_failures_total",
                tags(&[]),
                move || sf.read_failures(),
            );
        }
        // Flight-recorder fidelity is itself observable: with the span ring
        // armed, ring drops and recorder retention surface as first-class
        // metrics in the same renderers as everything else. (Registered
        // only then, so untraced jobs keep their exact metric set.)
        if cfg.recorder.records_spans() {
            let r = cfg.recorder.clone();
            cluster_metrics.counter_fn("jet_trace_ring_dropped_total", tags(&[]), move || {
                r.stats().ring_dropped
            });
            let r = cfg.recorder.clone();
            cluster_metrics.counter_fn("jet_flight_spans_evicted_total", tags(&[]), move || {
                r.stats().spans_evicted
            });
            let r = cfg.recorder.clone();
            cluster_metrics.gauge_fn("jet_flight_spans_retained_records", tags(&[]), move || {
                r.stats().spans_retained as i64
            });
        }
        if cfg.recorder.samples_metrics() {
            let r = cfg.recorder.clone();
            cluster_metrics.counter_fn("jet_timeline_samples_total", tags(&[]), move || {
                r.stats().samples
            });
            let r = cfg.recorder.clone();
            cluster_metrics.gauge_fn("jet_timeline_series_records", tags(&[]), move || {
                r.stats().series as i64
            });
            let r = cfg.recorder.clone();
            cluster_metrics.counter_fn("jet_timeline_ticks_evicted_total", tags(&[]), move || {
                r.stats().ticks_evicted
            });
        }
        let member_ids: Vec<u32> = grid.members().iter().map(|m| m.0).collect();
        let tracer = cfg.recorder.tracer();
        let coordinator = cfg
            .coordinator
            .clone()
            .map(|c| Coordinator::new(c, &member_ids, 0, &cluster_metrics, &tracer));
        let fault_driver = FaultDriver::new(cfg.fault_plan.as_ref(), &tracer);
        let mut me = SimCluster {
            cfg,
            dag,
            grid,
            clock: clock.clone(),
            shared_clock,
            store,
            registry,
            sim: Simulator::new(Arc::new(ManualClock::new()), CostModel::default(), 1),
            cancelled: Arc::new(AtomicBool::new(false)),
            job_id: 1,
            member_metrics: Vec::new(),
            transport: Arc::new(InMemoryTransport::new(clock, 0)),
            net_faults,
            cluster_metrics,
            coordinator,
            fault_driver,
            pending_recovery: None,
            job_failed: None,
        };
        me.build_execution(None)?;
        Ok(me)
    }

    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            cores_per_member: self.cfg.cores_per_member,
            batch: self.cfg.batch,
            guarantee: self.cfg.guarantee,
            clock: self.shared_clock.clone(),
            fixed_receive_window: self.cfg.fixed_receive_window,
            tracer: self.cfg.recorder.tracer(),
        }
    }

    /// (Re)build the execution — used at start, after failure, and after
    /// rescaling. `restore` names the snapshot to reload.
    fn build_execution(&mut self, restore: Option<u64>) -> Result<(), String> {
        // Restoring needs the snapshot store: if reads are unavailable the
        // commit must fail up front rather than rebuild from a store it
        // cannot actually read (the caller retries or rolls back).
        if restore.is_some() && !self.store.read_available() {
            return Err("snapshot store reads unavailable".into());
        }
        let members = self.grid.members();
        let transport = Arc::new(
            InMemoryTransport::new(self.shared_clock.clone(), self.cfg.network_latency)
                .with_faults(self.net_faults.clone()),
        );
        self.transport = transport.clone();
        // A fresh registry per execution (acks from the old execution must
        // not leak in), sharing the same durable store.
        self.registry = if self.cfg.snapshot_interval > 0 {
            // Torn snapshots a dead execution left behind must not merge
            // with the same ids when this execution reuses them.
            self.store.purge_newer_than(restore.unwrap_or(0));
            let r = Arc::new(SnapshotRegistry::new(self.store.clone(), 0));
            // Continue snapshot ids after the restored one.
            if let Some(id) = restore {
                r.fast_forward_to(id);
            }
            r
        } else {
            Arc::new(SnapshotRegistry::disabled())
        };
        let table = self.grid.table();
        let restore_pair = restore.map(|id| (&self.store, id));
        let exec: ClusterExecution = build_cluster_execution(
            &self.dag,
            &members,
            &table,
            transport,
            &self.cluster_config(),
            &self.registry,
            match &restore_pair {
                Some((s, id)) => Some((s, *id)),
                None => None,
            },
        )
        .inspect_err(|_| {
            // A generation that does not decode will not heal by retrying:
            // retire it, so that the caller's next attempt — every caller
            // re-reads `latest_complete` — restores from the older retained
            // generation, or cold-restarts when that is gone too.
            if let Some(id) = restore {
                self.store.discard_if_corrupt(id);
            }
        })?;
        self.cancelled = exec.cancelled.clone();
        self.member_metrics = exec.members.iter().map(|m| m.metrics.clone()).collect();
        // Fresh simulator on the SAME clock: virtual time continues across
        // recoveries, so latency measurements span the outage.
        let mut sim = Simulator::new(self.clock.clone(), self.cfg.cost_model, self.cfg.quantum);
        if let Some(gc) = self.cfg.gc.clone() {
            sim = sim.with_gc(gc);
        }
        sim = sim.with_tracer(self.cfg.recorder.tracer());
        for (mi, member_exec) in exec.members.into_iter().enumerate() {
            let base = mi * self.cfg.cores_per_member;
            let pid = members[mi].0;
            for c in 0..self.cfg.cores_per_member {
                sim.add_core_labeled(pid, &format!("m{}/core-{}", pid, c));
            }
            for (k, (tasklet, counters)) in member_exec.tasklets.into_iter().enumerate() {
                sim.assign(base + (k % self.cfg.cores_per_member), tasklet, counters);
            }
        }
        if let Some(q) = &self.cfg.quotas {
            sim.set_job_quotas(q);
        }
        self.sim = sim;
        Ok(())
    }

    pub fn registry(&self) -> Arc<SnapshotRegistry> {
        self.registry.clone()
    }

    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    pub fn clock(&self) -> Arc<ManualClock> {
        self.clock.clone()
    }

    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    pub fn live_tasklets(&self) -> usize {
        self.sim.live_tasklets()
    }

    /// Busy virtual nanos per core since execution (re)build — utilization
    /// diagnostics for calibration.
    pub fn busy_nanos(&self) -> Vec<u64> {
        self.sim.busy_nanos()
    }

    /// Per-member metrics registries of the current execution.
    pub fn member_metrics(&self) -> &[Arc<MetricsRegistry>] {
        &self.member_metrics
    }

    /// Aggregate every member's registry into one job-level snapshot,
    /// stamped with the `job` tag.
    pub fn job_metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for reg in &self.member_metrics {
            snap.merge(&reg.snapshot());
        }
        snap.merge(&self.cluster_metrics.snapshot());
        snap.with_tag("job", &self.job_id.to_string())
    }

    /// Prometheus text exposition of [`Self::job_metrics`].
    pub fn prometheus(&self) -> String {
        self.job_metrics().render_prometheus()
    }

    /// Per-tasklet (core, name, state, in, out) diagnostics.
    pub fn tasklet_details(&self) -> Vec<(usize, String, &'static str, u64, u64)> {
        self.sim.tasklet_details()
    }

    /// Render the plain-text job diagnostics dump. Its trace lines come
    /// from the recorder's retained spans, and render `n/a` when the span
    /// ring is not armed. Cluster health renders from the coordinator when
    /// one is wired, `n/a` otherwise.
    pub fn diagnostics_dump(&self) -> String {
        let mut dump = crate::diagnostics::render_dump(
            self.job_id,
            self.now(),
            &self.job_metrics(),
            &self.tasklet_details(),
            &self.cfg.recorder,
            self.coordinator.as_ref(),
        );
        if self.cfg.recorder.records_spans() {
            dump.push_str(&crate::diagnostics::render_blame(&self.spike_forensics()));
        }
        if self.cfg.recorder.samples_metrics() {
            dump.push_str(&crate::diagnostics::render_timeline(&self.cfg.recorder));
        }
        dump
    }

    /// Run spike forensics over every frozen incident window: decompose
    /// each detected p99.99 excursion into named causes on the critical
    /// path. The network latency hint comes from this cluster's configured
    /// one-way latency so NetSend/NetRecv intervals match the simulation.
    pub fn spike_forensics(&self) -> Vec<IncidentReport> {
        self.cfg.recorder.forensics(self.cfg.network_latency.max(1))
    }

    /// Advance the job by `duration` virtual nanos, auto-triggering
    /// snapshots at the configured interval, applying the fault plan, and
    /// running heartbeat detection + self-healing recovery when a
    /// coordinator is configured. Returns true if the job finished.
    pub fn run_for(&mut self, duration: u64) -> bool {
        self.run_for_with(duration, |_| {})
    }

    /// Run with a custom per-quantum hook in addition to snapshot triggers
    /// and fault/detector driving. With the recorder's span ring armed, the
    /// tracer's rings drain into it on the first quantum, every 10 ms of
    /// virtual time after that, and once more when the call returns —
    /// between quanta, so at zero virtual cost.
    pub fn run_for_with(&mut self, duration: u64, mut hook: impl FnMut(u64)) -> bool {
        let recorder = self.cfg.recorder.clone();
        let mut next_drain = 0u64;
        let done = self.run_quanta(duration, |now| {
            if now >= next_drain {
                recorder.drain_spans();
                next_drain = now + SPAN_DRAIN_PERIOD;
            }
            hook(now);
        });
        recorder.drain_spans();
        done
    }

    fn run_quanta(&mut self, duration: u64, mut hook: impl FnMut(u64)) -> bool {
        enum Action {
            Fence(u32),
            RetryRecovery,
        }
        let end = self.now() + duration;
        loop {
            if self.job_failed.is_some() {
                return false;
            }
            let remaining = end.saturating_sub(self.now());
            if remaining == 0 {
                return self.sim.live_tasklets() == 0;
            }
            // With a metrics timeline armed, chunk the run at its sampling
            // deadline: samples are taken *between* simulator calls, so they
            // cost zero virtual time and the executed schedule is identical
            // to an unchunked run.
            let mut chunk = remaining;
            if let Some(gap) = self.cfg.recorder.next_sample_in(self.now()) {
                chunk = chunk.min(gap.max(1));
            }
            let mut action: Option<Action> = None;
            // Triggering a snapshot while the job is torn down for recovery
            // would only wedge on acks that can never arrive.
            let interval = if self.pending_recovery.is_some() {
                0
            } else {
                self.cfg.snapshot_interval
            };
            let registry = self.registry.clone();
            let transport = self.transport.clone();
            let net = self.net_faults.clone();
            let store_faults = self.store.faults();
            let retry_at = self.pending_recovery.as_ref().map(|p| p.next_at);
            // Disjoint borrows of self for the tick closure.
            let driver = &mut self.fault_driver;
            let coordinator = &mut self.coordinator;
            let done = self.sim.run_for_ctl(chunk, |tick| {
                if interval > 0 {
                    registry.maybe_trigger(tick.now, interval);
                }
                driver.drive(tick, &net, &store_faults);
                if let Some(coord) = coordinator.as_mut() {
                    let now = tick.now;
                    let ok = |m: u32| driver.member_ok(m, now);
                    if let Some(fenced) = coord.tick(now, transport.as_ref(), ok) {
                        action = Some(Action::Fence(fenced));
                        return false;
                    }
                }
                if let Some(at) = retry_at {
                    if tick.now >= at {
                        action = Some(Action::RetryRecovery);
                        return false;
                    }
                }
                hook(tick.now);
                true
            });
            let now = self.now();
            if self.cfg.recorder.next_sample_in(now) == Some(0) {
                self.cfg.recorder.sample(now, &self.job_metrics());
            }
            match action {
                None => {
                    if done || self.now() >= end {
                        return done;
                    }
                    // Chunk boundary only — keep running until `end`.
                }
                Some(Action::Fence(member)) => self.handle_fence(member),
                Some(Action::RetryRecovery) => self.attempt_recovery(),
            }
        }
    }

    /// The failure detector fenced `member`: remove it from the cluster
    /// (promoting backup partition replicas, Fig. 6) and start self-healing
    /// recovery.
    fn handle_fence(&mut self, member: u32) {
        if let Some(coord) = self.coordinator.as_mut() {
            coord.remove_member(member);
        }
        // The grid may have already lost the member (e.g. fenced twice); a
        // kill error is not fatal to recovery.
        let _ = self.grid.kill_member(MemberId(member));
        self.cfg.members = self.grid.members().len();
        let now = self.now();
        self.pending_recovery = Some(PendingRecovery {
            member,
            attempt: 0,
            next_at: now,
            fenced_at: now,
        });
        self.attempt_recovery();
    }

    /// One recovery attempt: gate on snapshot-store availability, rebuild
    /// from the latest complete snapshot (cold restart if none exists), and
    /// on failure re-arm with bounded exponential backoff — up to
    /// `max_recovery_attempts`, after which the job is declared lost.
    fn attempt_recovery(&mut self) {
        let Some(mut pending) = self.pending_recovery.take() else {
            return;
        };
        pending.attempt += 1;
        let now = self.now();
        if let Some(coord) = self.coordinator.as_mut() {
            coord.record_recovery_started(pending.member, pending.attempt, now);
        }
        let failure: Option<String> = if !self.store.read_available() {
            Some("snapshot store reads unavailable".to_string())
        } else {
            let latest = self.store.latest_complete();
            match self.build_execution(latest) {
                Ok(()) => {
                    if let Some(coord) = self.coordinator.as_mut() {
                        coord.record_recovery_completed(
                            latest,
                            pending.attempt,
                            pending.fenced_at,
                            now,
                        );
                    }
                    return;
                }
                Err(e) => Some(format!("execution rebuild failed: {e}")),
            }
        };
        let cause = failure.unwrap();
        if let Some(coord) = self.coordinator.as_mut() {
            coord.record_recovery_failed(pending.attempt, now, &cause);
        }
        let ccfg = self.cfg.coordinator.clone().unwrap_or_default();
        if pending.attempt >= ccfg.max_recovery_attempts {
            self.job_failed = Some(format!(
                "recovery gave up after {} attempts: {cause}",
                pending.attempt
            ));
            self.pending_recovery = None;
        } else {
            // Bounded exponential backoff, unit-tested in jet-util.
            pending.next_at = now
                + backoff_delay(
                    ccfg.recovery_backoff_base,
                    ccfg.recovery_backoff_max,
                    pending.attempt,
                );
            self.pending_recovery = Some(pending);
        }
    }

    /// Why the job was declared lost, if recovery exhausted its attempts.
    pub fn failed(&self) -> Option<&str> {
        self.job_failed.as_deref()
    }

    /// The coordinator's event log (empty when no coordinator configured).
    pub fn cluster_events(&self) -> Vec<ClusterEvent> {
        self.coordinator
            .as_ref()
            .map(|c| c.events().to_vec())
            .unwrap_or_default()
    }

    /// The failure detector / recovery orchestrator, when configured.
    pub fn coordinator(&self) -> Option<&Coordinator> {
        self.coordinator.as_ref()
    }

    /// Cooperatively stop the job and drain.
    pub fn cancel(&self) {
        // ordering: SeqCst — rare control action, totally ordered with the
        // drain loop's checks for simple shutdown reasoning.
        self.cancelled
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Kill `member` abruptly and recover from the latest complete snapshot
    /// (§4.4). Returns the snapshot id recovered from (None = cold restart).
    ///
    /// This is the *API-kill* path (the caller already knows the member is
    /// gone); with a [`CoordinatorConfig`] configured, crashes injected via
    /// a [`FaultPlan`] instead go through heartbeat detection + fencing.
    pub fn kill_member_and_recover(&mut self, member: MemberId) -> Result<Option<u64>, String> {
        self.grid.kill_member(member).map_err(|e| e.to_string())?;
        if let Some(coord) = self.coordinator.as_mut() {
            coord.remove_member(member.0);
        }
        // In-flight state dies with the execution.
        let latest = self.store.latest_complete();
        self.cfg.members = self.grid.members().len();
        self.rebuild_or_arm_recovery(latest, member.0)?;
        let now = self.now();
        if let Some(coord) = self.coordinator.as_mut() {
            coord.refresh(now);
        }
        Ok(latest)
    }

    /// Rebuild on the current topology from `restore`; if even that fails
    /// (e.g. the snapshot store went dark mid-rollback), arm the standard
    /// recovery retry machinery instead of leaving a wedged execution —
    /// the bounded-backoff ladder keeps retrying until the store heals or
    /// the job is declared lost. `member` only labels the recovery in the
    /// event log (rescale rollbacks have no fenced member; pass the member
    /// the rescale touched, or 0 for job-level).
    fn rebuild_or_arm_recovery(&mut self, restore: Option<u64>, member: u32) -> Result<(), String> {
        let r = self.build_execution(restore);
        if r.is_err() && self.pending_recovery.is_none() {
            let now = self.now();
            self.pending_recovery = Some(PendingRecovery {
                member,
                attempt: 0,
                next_at: now,
                fenced_at: now,
            });
        }
        r
    }

    /// Refuse a rescale before it touches the grid: it rides the
    /// terminal-snapshot path, so it needs snapshots, and it must not race
    /// a pending recovery or restart a job that is already lost.
    fn check_rescale(&self) -> Result<(), String> {
        if self.cfg.snapshot_interval == 0 {
            return Err("rescaling requires snapshots enabled".into());
        }
        if let Some(cause) = &self.job_failed {
            return Err(format!("rescale refused, the job is lost: {cause}"));
        }
        if self.pending_recovery.is_some() {
            return Err("rescale refused while a recovery is pending".into());
        }
        Ok(())
    }

    /// Run the job a few quanta while a rescale waits on a snapshot.
    fn rescale_wait_step(&mut self) -> Result<(), String> {
        self.run_for(self.cfg.quantum * 16);
        match &self.job_failed {
            Some(cause) => Err(format!("job failed during rescale: {cause}")),
            None => Ok(()),
        }
    }

    /// Take a terminal snapshot for a rescale and wait for it (bounded by
    /// `max_wait`). Returns the snapshot id to restore from on success; on
    /// timeout the in-flight snapshot is aborted and the job rebuilt on the
    /// current topology so the half-snapshotted execution never lingers.
    /// The terminal snapshot starts only once a periodic one in flight has
    /// completed; if that misses the deadline, the rescale fails with
    /// nothing to abort.
    ///
    /// A member may crash *during* the wait: the heartbeat path fences it,
    /// recovery rebuilds from the latest complete snapshot, and periodic
    /// snapshots resume — so by the time the wait finishes, complete
    /// snapshots *newer* than the terminal id may exist. The returned
    /// restore id is the newest complete one; restoring the stale terminal
    /// id would purge those newer complete snapshots as if they were torn.
    fn terminal_snapshot_for_rescale(&mut self, max_wait: u64) -> Result<u64, String> {
        let deadline = self.now() + max_wait;
        // A periodic snapshot may be in flight: the terminal one can only
        // start once it is done.
        let id = loop {
            if let Some(id) = self.registry.trigger_terminal() {
                break id;
            }
            if self.now() >= deadline {
                return Err("the snapshot in flight did not complete in time".into());
            }
            self.rescale_wait_step()?;
        };
        while self.registry.completed() < id && self.now() < deadline {
            self.rescale_wait_step()?;
        }
        if self.registry.completed() < id {
            // Unwedge: abandon the torn terminal snapshot (it can never be
            // restored from) and resume on the pre-rescale topology from
            // the last complete snapshot. The rebuild purges every record
            // newer than that snapshot, including the torn terminal ones.
            self.registry.abort_in_flight();
            let latest = self.store.latest_complete();
            return Err(match self.rebuild_or_arm_recovery(latest, 0) {
                Ok(()) => "terminal snapshot did not complete in time".into(),
                Err(e) => format!(
                    "terminal snapshot did not complete in time; rebuild \
                     deferred to recovery: {e}"
                ),
            });
        }
        // Acks alone are not enough: a store write outage poisons the
        // snapshot — its barriers drain (so the registry's `completed`
        // advances) but no durable completion marker exists and its records
        // are partial. Restoring from it would silently cold-restart the
        // job disguised as a warm rescale. Demand a durable complete
        // snapshot at or after the terminal id (a member may crash during
        // the wait, in which case recovery + resumed periodic snapshots can
        // legitimately leave the newest complete id *past* the terminal
        // one — restore from that, never purge it).
        match self.store.latest_complete().filter(|l| *l >= id) {
            Some(restore) => Ok(restore),
            None => {
                let latest = self.store.latest_complete();
                Err(match self.rebuild_or_arm_recovery(latest, 0) {
                    Ok(()) => "terminal snapshot was poisoned by a store write failure".into(),
                    Err(e) => format!(
                        "terminal snapshot was poisoned by a store write \
                         failure; rebuild deferred to recovery: {e}"
                    ),
                })
            }
        }
    }

    /// Gracefully add a member and rescale: terminal snapshot, rebuild with
    /// the larger cluster from it (§4.3). Cluster size is an operator
    /// input: the call is refused with `Err`, before the grid is touched,
    /// when snapshots are disabled, while a recovery is pending, or once
    /// the job is lost.
    ///
    /// If the terminal snapshot misses `max_wait`, the in-flight snapshot
    /// is aborted and the job is rebuilt from the last complete snapshot,
    /// so the registry keeps triggering and the half-snapshotted execution
    /// does not linger — the rescale itself fails with `Err`. If the
    /// topology commit itself fails (e.g. the snapshot store goes dark
    /// between snapshot-complete and commit), the grid mutation is rolled
    /// back and the job resumes on the pre-rescale topology — a failed
    /// rescale must never leave a wedged half-scaled cluster.
    pub fn add_member_and_rescale(&mut self, max_wait: u64) -> Result<MemberId, String> {
        self.check_rescale()?;
        let restore = self.terminal_snapshot_for_rescale(max_wait)?;
        let new_member = self.grid.add_member();
        self.cfg.members = self.grid.members().len();
        if let Err(commit) = self.build_execution(Some(restore)) {
            // Roll back: migrate the partitions the rebalance just moved
            // onto the new member gracefully off it again, then resume on
            // the pre-rescale topology.
            let rollback = self
                .grid
                .shutdown_member(new_member)
                .map_err(|e| e.to_string());
            self.cfg.members = self.grid.members().len();
            let latest = self.store.latest_complete();
            let rebuilt = self.rebuild_or_arm_recovery(latest, new_member.0);
            return Err(match (rollback, rebuilt) {
                (Ok(()), Ok(())) => {
                    format!("rescale topology commit failed, rolled back: {commit}")
                }
                (r, b) => format!(
                    "rescale topology commit failed ({commit}); rollback degraded \
                     (shutdown: {r:?}, rebuild: {b:?})"
                ),
            });
        }
        let now = self.now();
        if let Some(coord) = self.coordinator.as_mut() {
            coord.add_member(new_member.0, now);
        }
        Ok(new_member)
    }

    /// Gracefully remove the highest-id member and rescale onto the smaller
    /// cluster: terminal snapshot, migrate the member's partitions away
    /// (no data loss even at backup_count 0), rebuild from the snapshot.
    /// Mirrors [`Self::add_member_and_rescale`] including the abort and
    /// rollback paths.
    pub fn remove_member_and_rescale(&mut self, max_wait: u64) -> Result<MemberId, String> {
        self.check_rescale()?;
        if self.grid.members().len() <= 1 {
            return Err("cannot scale below one member".into());
        }
        let restore = self.terminal_snapshot_for_rescale(max_wait)?;
        let victim = *self.grid.members().last().ok_or("cluster has no members")?;
        if let Err(e) = self.grid.shutdown_member(victim) {
            // Grid refused (nothing mutated): resume on the old topology.
            self.rebuild_or_arm_recovery(Some(restore), victim.0)?;
            return Err(format!("scale-in shutdown failed: {e}"));
        }
        self.cfg.members = self.grid.members().len();
        if let Err(commit) = self.build_execution(Some(restore)) {
            // Roll back the shrink: restore capacity with a fresh member
            // (the victim's partitions were already migrated away, so no
            // state is at risk) and resume on the old cluster size.
            let replacement = self.grid.add_member();
            self.cfg.members = self.grid.members().len();
            let latest = self.store.latest_complete();
            let rebuilt = self.rebuild_or_arm_recovery(latest, victim.0);
            let now = self.now();
            if let Some(coord) = self.coordinator.as_mut() {
                coord.remove_member(victim.0);
                coord.add_member(replacement.0, now);
            }
            return Err(match rebuilt {
                Ok(()) => format!("scale-in topology commit failed, rolled back: {commit}"),
                Err(b) => format!(
                    "scale-in topology commit failed ({commit}); rollback rebuild \
                     also failed: {b}"
                ),
            });
        }
        if let Some(coord) = self.coordinator.as_mut() {
            coord.remove_member(victim.0);
        }
        Ok(victim)
    }
}
