//! The virtual-time executor: N virtual cores round-robining real tasklets,
//! with time advanced by a cost model instead of a wall clock.
//!
//! This is the substitution that reproduces the paper's cluster-scale
//! experiments on a 1-CPU container (DESIGN.md §2): queueing, backpressure,
//! barrier alignment, and scheduling delay all arise from the *same engine
//! code* the threaded executor runs — the scheduler included: a core polls
//! its tasklets through the same [`Schedule`] a worker thread does, under
//! the contract `jet_core::exec` states (weighted round-robin over job
//! groups, one group when no quotas are set; a round polls every live
//! tasklet; `Done` removes on the spot). Only the clock is virtual. The
//! simulation is time-stepped: every core receives a `quantum` of budget and
//! polls rounds until the budget is spent or a round makes no progress —
//! where a worker thread would back off, the rest of the quantum simply
//! evaporates — then the global [`ManualClock`] advances by the quantum.

use crate::cost::{CostModel, CostedTasklet};
use crate::gc::GcModel;
use jet_core::fairness::{JobQuotas, Round, Schedule};
use jet_core::metrics::TaskletCounters;
use jet_core::tasklet::Tasklet;
use jet_core::trace::{TraceWriter, Tracer};
use jet_util::clock::{Clock, ManualClock};
use jet_util::progress::Progress;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Index of a virtual core.
pub type CoreId = usize;

struct SimCore {
    /// Member id this core belongs to (fault injection targets members).
    pid: u32,
    schedule: Schedule<CostedTasklet>,
    /// Virtual nanos this core actually computed (utilization metric).
    busy_nanos: u64,
    /// Virtual nanos the core is stalled for (GC pause injection).
    stalled_until: u64,
    /// Work charged beyond the last quantum's budget: a tasklet timeslice is
    /// not preemptible, so its cost can overrun the quantum; the overrun is
    /// paid back before the core runs again (otherwise every quantum would
    /// hand out one free oversized timeslice and inflate core capacity).
    debt: u64,
    /// Execution-trace writer for this virtual core (no-op when untraced).
    trace: TraceWriter,
}

impl SimCore {
    /// Poll rounds until `budget` is spent or a round makes no progress; a
    /// quantum always starts a new round. `now` is the quantum's virtual
    /// start time, used to stamp call spans.
    fn run_quantum(&mut self, budget: u64, now: u64) {
        if self.debt >= budget {
            self.debt -= budget;
            self.busy_nanos += budget;
            return;
        }
        let debt = std::mem::take(&mut self.debt);
        let budget = budget - debt;
        let mut spent = 0u64;
        let trace = &mut self.trace;
        let traced = trace.enabled();
        loop {
            let round = self.schedule.run_round(|t| {
                let (p, cost) = t.run();
                // Progressing timeslices become spans on the virtual
                // timeline; NoProgress polls are elided (they would drown
                // every ring in idle-spin noise).
                if traced && p != Progress::NoProgress {
                    trace.record_call(now + debt + spent, cost.max(1), t.trace_name);
                }
                spent += cost;
                if spent >= budget {
                    ControlFlow::Break(p)
                } else {
                    ControlFlow::Continue(p)
                }
            });
            match round {
                Round::Progressed => {}
                // The core idles the rest of the quantum.
                Round::Fruitless => break,
                Round::Cut => {
                    self.debt = spent - budget;
                    break;
                }
            }
        }
        self.busy_nanos += spent.min(budget);
    }

    fn is_done(&self) -> bool {
        self.schedule.is_empty()
    }
}

/// The virtual-time simulator.
pub struct Simulator {
    clock: Arc<ManualClock>,
    cores: Vec<SimCore>,
    model: CostModel,
    quantum: u64,
    gc: Option<GcModel>,
    tracer: Tracer,
}

impl Simulator {
    /// `quantum` is the time-step granularity in virtual nanos (20 µs is a
    /// good default: fine enough for millisecond latencies, coarse enough
    /// to simulate seconds of cluster time quickly).
    pub fn new(clock: Arc<ManualClock>, model: CostModel, quantum: u64) -> Self {
        assert!(quantum > 0);
        Simulator {
            clock,
            cores: Vec::new(),
            model,
            quantum,
            gc: None,
            tracer: Tracer::disabled(),
        }
    }

    pub fn with_gc(mut self, gc: GcModel) -> Self {
        self.gc = Some(gc);
        self
    }

    /// Install an execution tracer: cores added afterwards record their
    /// tasklets' timeslices as spans on the virtual timeline.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    pub fn add_core(&mut self) -> CoreId {
        let id = self.cores.len();
        self.add_core_labeled(0, &format!("core-{id}"))
    }

    /// Add a core with an explicit trace identity: `pid` groups cores by
    /// member in the timeline viewer, `label` names the track.
    pub fn add_core_labeled(&mut self, pid: u32, label: &str) -> CoreId {
        self.cores.push(SimCore {
            pid,
            schedule: Schedule::new(None),
            busy_nanos: 0,
            stalled_until: 0,
            debt: 0,
            trace: self.tracer.writer(pid, label),
        });
        self.cores.len() - 1
    }

    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Assign a tasklet to a core. Pass the tasklet's counters when
    /// available so the cost model can charge per item.
    pub fn assign(
        &mut self,
        core: CoreId,
        tasklet: Box<dyn Tasklet>,
        counters: Option<Arc<TaskletCounters>>,
    ) {
        let mut costed = CostedTasklet::new(tasklet, counters, &self.model);
        costed.trace_name = self.cores[core].trace.intern(costed.name());
        let job = costed.job();
        self.cores[core].schedule.push(costed, job);
    }

    /// Install per-job fairness quotas (§7.7): every core's round-robin
    /// becomes a weighted round-robin over the job groups of its tasklets,
    /// those assigned so far and those assigned later.
    pub fn set_job_quotas(&mut self, quotas: &JobQuotas) {
        for core in &mut self.cores {
            let flat = std::mem::replace(&mut core.schedule, Schedule::new(Some(quotas.clone())));
            for t in flat.into_tasklets() {
                let job = t.job();
                core.schedule.push(t, job);
            }
        }
    }

    /// Live tasklets across all cores.
    pub fn live_tasklets(&self) -> usize {
        self.cores.iter().map(|c| c.schedule.len()).sum()
    }

    /// Busy virtual nanos per core (utilization).
    pub fn busy_nanos(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.busy_nanos).collect()
    }

    /// Per-tasklet (core, name, state, events_in, events_out) — the richer
    /// variant behind the diagnostics dump. Finished tasklets have already
    /// left their core and are not listed.
    pub fn tasklet_details(&self) -> Vec<(usize, String, &'static str, u64, u64)> {
        let mut out = Vec::new();
        for (ci, core) in self.cores.iter().enumerate() {
            for t in core.schedule.iter() {
                let (i, o) = t.stats();
                out.push((ci, t.name().to_string(), t.state(), i, o));
            }
        }
        out
    }

    pub fn now(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Advance the simulation by `duration` virtual nanos. `on_tick(now)`
    /// runs once per quantum — the hook for snapshot triggers, failure
    /// injection, and rate changes. Returns true when every tasklet
    /// finished before the duration elapsed.
    pub fn run_for(&mut self, duration: u64, mut on_tick: impl FnMut(u64)) -> bool {
        self.run_for_ctl(duration, |tick| {
            on_tick(tick.now);
            true
        })
    }

    /// As [`Self::run_for`], but the hook receives a [`SimTick`] control
    /// handle (member stall/halt injection) and may return `false` to break
    /// out before the duration elapses — used by the cluster runtime when a
    /// failure-detector decision requires rebuilding the execution, which
    /// cannot happen from inside the tick closure.
    pub fn run_for_ctl(
        &mut self,
        duration: u64,
        mut on_tick: impl FnMut(&mut SimTick) -> bool,
    ) -> bool {
        let end = self.clock.now_nanos() + duration;
        while self.clock.now_nanos() < end {
            let now = self.clock.now_nanos();
            let mut tick = SimTick {
                now,
                cores: &mut self.cores,
            };
            if !on_tick(&mut tick) {
                return self.cores.iter().all(|c| c.is_done());
            }
            if let Some(gc) = &mut self.gc {
                gc.apply(
                    now,
                    &mut self.cores.iter_mut().map(|c| &mut c.stalled_until),
                );
            }
            for core in &mut self.cores {
                if core.stalled_until > now {
                    continue; // GC pause: whole quantum lost
                }
                core.run_quantum(self.quantum, now);
            }
            self.clock.advance(self.quantum);
            if self.cores.iter().all(|c| c.is_done()) {
                return true;
            }
        }
        self.cores.iter().all(|c| c.is_done())
    }

    /// Run until all tasklets complete or `max_duration` virtual nanos pass.
    pub fn run_until_done(&mut self, max_duration: u64) -> bool {
        self.run_for(max_duration, |_| {})
    }
}

/// Per-quantum control handle handed to [`Simulator::run_for_ctl`] hooks:
/// inspect the current virtual time and inject member-level stalls/halts.
pub struct SimTick<'a> {
    /// Virtual time of this quantum's start.
    pub now: u64,
    cores: &'a mut Vec<SimCore>,
}

impl SimTick<'_> {
    /// Freeze all cores of member `pid` until virtual time `until`
    /// (straggler injection). Extends, never shortens, existing stalls.
    pub fn stall_member(&mut self, pid: u32, until: u64) {
        for c in self.cores.iter_mut().filter(|c| c.pid == pid) {
            c.stalled_until = c.stalled_until.max(until);
        }
    }

    /// Permanently halt member `pid` (crash). Its tasklets are kept — a
    /// crashed member must not count as "finished" — but never run again;
    /// only rebuilding the execution removes them.
    pub fn halt_member(&mut self, pid: u32) {
        self.stall_member(pid, u64::MAX);
    }

    /// Is any core of member `pid` currently stalled past `now`?
    pub fn member_stalled(&self, pid: u32) -> bool {
        self.cores
            .iter()
            .any(|c| c.pid == pid && c.stalled_until > self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Emitter {
        remaining: u32,
    }
    impl Tasklet for Emitter {
        fn call(&mut self) -> Progress {
            if self.remaining == 0 {
                return Progress::Done;
            }
            self.remaining -= 1;
            Progress::MadeProgress
        }
        fn name(&self) -> &str {
            "emitter"
        }
    }

    fn sim(quantum: u64) -> Simulator {
        let clock = Arc::new(ManualClock::new());
        Simulator::new(
            clock,
            CostModel {
                call_cost: 100,
                per_item: 0,
                snapshot_record_cost: 0,
                snapshot_chunk_cost: 0,
                queue_hop_cost: 0,
                per_vertex: vec![],
            },
            quantum,
        )
    }

    #[test]
    fn time_advances_by_quanta() {
        let mut s = sim(1_000);
        let c = s.add_core();
        s.assign(
            c,
            Box::new(Emitter {
                remaining: 1_000_000,
            }),
            None,
        );
        assert!(!s.run_for(10_000, |_| {}));
        assert_eq!(s.now(), 10_000);
    }

    #[test]
    fn completion_is_detected() {
        let mut s = sim(1_000);
        let c = s.add_core();
        s.assign(c, Box::new(Emitter { remaining: 5 }), None);
        assert!(s.run_until_done(1_000_000));
        assert_eq!(s.live_tasklets(), 0);
        assert!(s.now() < 1_000_000);
    }

    #[test]
    fn the_quantum_in_which_the_last_tasklet_finishes_is_charged() {
        let mut s = sim(1_000);
        let c = s.add_core();
        s.assign(c, Box::new(Emitter { remaining: 5 }), None);
        assert!(s.run_until_done(1_000_000));
        // 5 progressing calls + the Done call, 100 each, in one quantum.
        assert_eq!(s.busy_nanos()[0], 600);
    }

    #[test]
    fn budget_bounds_work_per_quantum() {
        // call cost 100, quantum 1000 -> at most ~10 calls per quantum.
        let mut s = sim(1_000);
        let c = s.add_core();
        s.assign(c, Box::new(Emitter { remaining: 100 }), None);
        s.run_for(1_000, |_| {});
        // 100 calls would need 10 quanta; after 1 quantum the tasklet lives.
        assert_eq!(s.live_tasklets(), 1);
        assert!(s.run_until_done(100_000));
    }

    #[test]
    fn on_tick_fires_every_quantum() {
        let mut s = sim(500);
        let c = s.add_core();
        s.assign(
            c,
            Box::new(Emitter {
                remaining: u32::MAX,
            }),
            None,
        );
        let mut ticks = 0;
        s.run_for(5_000, |_| ticks += 1);
        assert_eq!(ticks, 10);
    }

    #[test]
    fn traced_simulation_records_spans_on_the_virtual_timeline() {
        use jet_core::flight::{Recorder, RecorderConfig};
        use jet_core::trace::{TraceKind, CALL_SAMPLE_SHIFT};
        let clock = Arc::new(ManualClock::new());
        let recorder = Recorder::new(RecorderConfig {
            provenance: true,
            ..RecorderConfig::default()
        });
        let mut s = Simulator::new(
            clock,
            CostModel {
                call_cost: 100,
                per_item: 0,
                snapshot_record_cost: 0,
                snapshot_chunk_cost: 0,
                queue_hop_cost: 0,
                per_vertex: vec![],
            },
            1_000,
        )
        .with_tracer(recorder.tracer());
        let c = s.add_core_labeled(3, "m3/core-0");
        s.assign(c, Box::new(Emitter { remaining: 63 }), None);
        assert!(s.run_until_done(1_000_000));
        recorder.drain_spans();
        let data = recorder.trace().expect("span ring armed");
        let calls: Vec<_> = data.of_kind(TraceKind::Call).collect();
        // 63 progressing timeslices + the final Done timeslice, one in 16
        // sampled.
        assert_eq!(calls.len(), 64 >> CALL_SAMPLE_SHIFT);
        // Spans sit on the virtual timeline: back to back at the call cost,
        // crossing quantum boundaries seamlessly (10 calls per 1µs quantum),
        // so the `16k`-th call starts at `(16k - 1) × 100`.
        for (i, e) in calls.iter().enumerate() {
            let nth = (i as u64 + 1) << CALL_SAMPLE_SHIFT;
            assert_eq!(e.rec.ts, (nth - 1) * 100, "call {nth} misplaced");
            assert_eq!(e.rec.dur, 100);
        }
        assert_eq!(data.name(calls[0].rec.name), "emitter");
        assert_eq!(data.tracks[0].pid, 3);
        assert_eq!(data.tracks[0].label, "m3/core-0");
    }

    #[test]
    fn stalled_member_freezes_and_resumes() {
        let mut s = sim(1_000);
        let c = s.add_core_labeled(7, "m7/core-0");
        s.assign(
            c,
            Box::new(Emitter {
                remaining: u32::MAX,
            }),
            None,
        );
        // Stall member 7 for the first half of the run.
        s.run_for_ctl(10_000, |tick| {
            if tick.now == 0 {
                tick.stall_member(7, 5_000);
            }
            true
        });
        let busy = s.busy_nanos()[0];
        assert!(busy <= 5_000, "stalled member ran: busy={busy}");
        assert!(busy >= 4_000, "member never resumed: busy={busy}");
    }

    #[test]
    fn halted_member_never_finishes() {
        let mut s = sim(1_000);
        let c = s.add_core_labeled(2, "m2/core-0");
        s.assign(c, Box::new(Emitter { remaining: 1 }), None);
        let done = s.run_for_ctl(20_000, |tick| {
            if tick.now == 0 {
                tick.halt_member(2);
            }
            assert!(tick.member_stalled(2));
            true
        });
        assert!(!done, "halted member reported completion");
        assert_eq!(s.live_tasklets(), 1, "halted tasklets must be kept");
    }

    #[test]
    fn ctl_hook_can_break_early() {
        let mut s = sim(1_000);
        let c = s.add_core();
        s.assign(
            c,
            Box::new(Emitter {
                remaining: u32::MAX,
            }),
            None,
        );
        s.run_for_ctl(100_000, |tick| tick.now < 5_000);
        assert_eq!(s.now(), 5_000, "break leaves the clock at the break tick");
    }

    #[test]
    fn job_quotas_split_a_core_by_weight_not_tasklet_count() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Counting {
            job: u32,
            calls: Arc<AtomicU64>,
        }
        impl Tasklet for Counting {
            fn call(&mut self) -> Progress {
                self.calls.fetch_add(1, Ordering::Relaxed);
                Progress::MadeProgress
            }
            fn name(&self) -> &str {
                "counting"
            }
            fn job(&self) -> u32 {
                self.job
            }
        }
        let mut s = sim(1_000);
        let c = s.add_core();
        let critical = Arc::new(AtomicU64::new(0));
        let noisy = Arc::new(AtomicU64::new(0));
        s.assign(
            c,
            Box::new(Counting {
                job: 1,
                calls: critical.clone(),
            }),
            None,
        );
        for _ in 0..9 {
            s.assign(
                c,
                Box::new(Counting {
                    job: 2,
                    calls: noisy.clone(),
                }),
                None,
            );
        }
        s.set_job_quotas(&JobQuotas::new().with_weight(1, 9));
        s.run_for(100_000, |_| {});
        let crit = critical.load(Ordering::Relaxed);
        let rest = noisy.load(Ordering::Relaxed);
        // Cycle = 9 job-1 turns + 1 job-2 turn: the critical tenant holds
        // 90% of the core despite owning 10% of the tasklets.
        assert!(
            crit >= rest * 8 && crit <= rest * 10,
            "critical={crit} noisy={rest}"
        );
    }

    #[test]
    fn quota_scheduled_cores_still_finish_and_pay_debt() {
        let mut s = sim(1_000);
        let c = s.add_core();
        s.assign(c, Box::new(Emitter { remaining: 50 }), None);
        s.assign(c, Box::new(Emitter { remaining: 5 }), None);
        s.set_job_quotas(&JobQuotas::new());
        assert!(s.run_until_done(1_000_000));
        assert_eq!(s.live_tasklets(), 0);
    }

    #[test]
    fn a_tasklet_assigned_after_the_quotas_is_scheduled() {
        let mut s = sim(1_000);
        let c = s.add_core();
        s.assign(c, Box::new(Emitter { remaining: 50 }), None);
        s.set_job_quotas(&JobQuotas::new());
        s.assign(c, Box::new(Emitter { remaining: 5 }), None);
        assert!(s.run_until_done(1_000_000));
        assert_eq!(s.live_tasklets(), 0);
    }

    #[test]
    fn idle_cores_skip_their_budget() {
        struct Idle;
        impl Tasklet for Idle {
            fn call(&mut self) -> Progress {
                Progress::NoProgress
            }
            fn name(&self) -> &str {
                "idle"
            }
        }
        let mut s = sim(1_000);
        let c = s.add_core();
        s.assign(c, Box::new(Idle), None);
        s.run_for(100_000, |_| {});
        // An idle tasklet costs one cheap poll per quantum.
        assert!(
            s.busy_nanos()[0] < 5_000,
            "idle core burned {}",
            s.busy_nanos()[0]
        );
    }
}
