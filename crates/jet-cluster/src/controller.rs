//! Elastic autoscaling controller (§4.3, §7.7): closes the control loop
//! from the stall/occupancy/receive-window telemetry to live rescale
//! decisions.
//!
//! The controller watches three job-wide signals on a fixed virtual-time
//! cadence — per-vertex backpressure-stall counters, worker occupancy
//! (busy vs idle scheduling rounds), and the adaptive receive-window floor —
//! and drives `add_member_and_rescale` / `remove_member_and_rescale`
//! through an explicit decision state machine:
//!
//! ```text
//!            window full & outside hysteresis band
//!   Steady ────────────────────────────────────────▶ (rescale runs)
//!     ▲                                               │         │
//!     │ cooldown expires                      success │         │ failure
//!     │                                               ▼         ▼
//!   Cooldown ◀────────────────────────────────────── ok      Backoff
//!     ▲                                                         │
//!     │ backoff expires (ladder doubles per failure, capped)    │
//!     └────────────────────────────────────────◀────────────────┤
//!                                   failures ≥ max ─────────────▶ Degraded
//! ```
//!
//! Three rules keep it from flapping:
//!
//! * **Hysteresis** — scale up only above `scale_up_occupancy`, down only
//!   below `scale_down_occupancy`; the band between them is dead. Config
//!   validation rejects an empty band.
//! * **Cooldown** — after any completed rescale the controller holds its
//!   fire for `cooldown` and discards its sample window (the old topology's
//!   signals say nothing about the new one).
//! * **Degrade instead of flap** — a failed rescale arms a bounded
//!   exponential [`BackoffLadder`]; after `max_rescale_failures` the
//!   controller parks itself in `Degraded` and the job keeps running on the
//!   topology it has. A later success resets the ladder.
//!
//! Decisions read **only** the windowed sample ring filled by
//! [`Controller::observe`] — never an instantaneous gauge — so a single
//! noisy quantum cannot trigger a rescale (jet-analyze's `raw-gauge` check
//! enforces this split). Every transition lands in a
//! deterministic [`ControllerEvent`] log: same seed + same fault plan ⇒
//! bit-for-bit the same decision timeline, which the chaos lane's no-flap
//! and replay oracles check at 100 seeds.

use jet_core::metrics::{tags, MetricsRegistry, MetricsSnapshot, SharedCounter, SharedGauge};
use jet_core::trace::{TraceKind, TraceWriter, Tracer};
use jet_util::backoff::BackoffLadder;
use std::collections::VecDeque;

/// Autoscaling tuning. All times are virtual nanos; occupancy thresholds
/// are millionths (1_000_000 = every worker round did work).
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Telemetry sampling cadence.
    pub cadence: u64,
    /// Samples per decision window; a decision needs a full window.
    pub window: usize,
    /// Windowed occupancy above which the cluster scales up.
    pub scale_up_occupancy: u32,
    /// Windowed occupancy below which the cluster scales down (must sit
    /// strictly below `scale_up_occupancy`; the gap is the hysteresis band).
    pub scale_down_occupancy: u32,
    /// Windowed backpressure-stall rate (stalls/second) above which the
    /// cluster scales up even at moderate occupancy.
    pub scale_up_stall_rate: u64,
    /// Receive-window floor (items): a windowed average at or below this
    /// corroborates up-pressure. 0 disables the signal.
    pub scale_up_receive_window: i64,
    /// Hold-off after a completed rescale.
    pub cooldown: u64,
    /// First retry delay after a failed rescale; doubles per failure.
    pub backoff_base: u64,
    /// Ceiling for the failure backoff.
    pub backoff_max: u64,
    /// Jitter applied to the failure backoff (millionths of the delay).
    pub backoff_jitter_millionths: u32,
    /// Consecutive rescale failures before the controller degrades.
    pub max_rescale_failures: u32,
    /// Never scale below / above these cluster sizes.
    pub min_members: usize,
    pub max_members: usize,
    /// Terminal-snapshot deadline handed to the rescale call.
    pub rescale_max_wait: u64,
    /// Seed for the backoff jitter stream (replay determinism).
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            cadence: 5_000_000, // 5 ms
            window: 4,
            scale_up_occupancy: 850_000,
            scale_down_occupancy: 300_000,
            scale_up_stall_rate: 2_000,
            scale_up_receive_window: 0,
            cooldown: 50_000_000, // 50 ms
            backoff_base: 10_000_000,
            backoff_max: 160_000_000,
            backoff_jitter_millionths: 0,
            max_rescale_failures: 4,
            min_members: 1,
            max_members: 8,
            rescale_max_wait: 200_000_000,
            seed: 0,
        }
    }
}

impl ControllerConfig {
    /// Reject configurations that would misbehave silently: an inverted or
    /// empty hysteresis band flaps on every window; a cooldown shorter than
    /// the cadence makes the cooldown a no-op; a zero window can never
    /// decide.
    pub fn validate(&self) -> Result<(), String> {
        if self.cadence == 0 {
            return Err("controller cadence must be positive".into());
        }
        if self.window < 2 {
            return Err(format!(
                "controller window must hold at least 2 samples (got {}): a \
                 single sample has no delta to aggregate over",
                self.window
            ));
        }
        if self.scale_up_occupancy <= self.scale_down_occupancy {
            return Err(format!(
                "hysteresis band is empty: scale_up_occupancy ({}) must \
                 exceed scale_down_occupancy ({}), otherwise every window \
                 outside one threshold violates the other and the \
                 controller flaps",
                self.scale_up_occupancy, self.scale_down_occupancy
            ));
        }
        if self.scale_up_occupancy > 1_000_000 {
            return Err(format!(
                "scale_up_occupancy ({}) is in millionths and cannot exceed \
                 1_000_000",
                self.scale_up_occupancy
            ));
        }
        if self.cooldown < self.cadence {
            return Err(format!(
                "cooldown ({} ns) must be at least the sampling cadence \
                 ({} ns), or the very next sample after a rescale can \
                 trigger another one",
                self.cooldown, self.cadence
            ));
        }
        if self.backoff_base == 0 {
            return Err("backoff_base must be positive".into());
        }
        if self.backoff_max < self.backoff_base {
            return Err(format!(
                "backoff_max ({}) is below backoff_base ({})",
                self.backoff_max, self.backoff_base
            ));
        }
        if self.min_members == 0 {
            return Err("min_members must be at least 1".into());
        }
        if self.max_members < self.min_members {
            return Err(format!(
                "max_members ({}) is below min_members ({})",
                self.max_members, self.min_members
            ));
        }
        Ok(())
    }
}

/// Which way a rescale decision points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Up,
    Down,
}

impl Direction {
    pub fn name(&self) -> &'static str {
        match self {
            Direction::Up => "up",
            Direction::Down => "down",
        }
    }
}

/// Decision state machine phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Watching; free to decide once the window fills.
    Steady,
    /// Post-rescale hold-off.
    Cooldown { until: u64 },
    /// Post-failure hold-off (bounded exponential).
    Backoff { until: u64 },
    /// Rescaling gave up; the job runs on whatever topology it has.
    Degraded,
}

impl Phase {
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Steady => "steady",
            Phase::Cooldown { .. } => "cooldown",
            Phase::Backoff { .. } => "backoff",
            Phase::Degraded => "degraded",
        }
    }
}

/// One windowed telemetry sample (cumulative counters; deltas between
/// samples are what decisions aggregate over).
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: u64,
    /// Cumulative busy virtual nanos summed over the execution's cores
    /// (resets on rebuild — the runtime discards the window then).
    busy_nanos: u64,
    /// Cores in the execution at sampling time.
    cores: usize,
    bp_stalls: u64,
    /// Smallest advertised receive window across channels (i64::MAX when
    /// the job has no distributed edges).
    recv_window_min: i64,
}

/// One entry in the controller's decision timeline. Deterministic for a
/// given seed + fault plan — the chaos replay oracle compares these logs
/// bit for bit, and the bench reports embed them in `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerEvent {
    /// A full window crossed a threshold and a rescale was ordered.
    Decided {
        at: u64,
        direction: Direction,
        /// Windowed occupancy (millionths) that drove the decision.
        occupancy: u32,
        /// Windowed stall rate (stalls/second).
        stall_rate: u64,
        /// Cluster size when the decision was made.
        members: usize,
    },
    RescaleCompleted {
        at: u64,
        direction: Direction,
        members: usize,
    },
    RescaleFailed {
        at: u64,
        direction: Direction,
        failures: u32,
        cause: String,
    },
    CooldownEntered {
        at: u64,
        until: u64,
    },
    BackoffEntered {
        at: u64,
        until: u64,
        failures: u32,
    },
    Degraded {
        at: u64,
        failures: u32,
    },
}

impl ControllerEvent {
    pub fn at(&self) -> u64 {
        match self {
            ControllerEvent::Decided { at, .. }
            | ControllerEvent::RescaleCompleted { at, .. }
            | ControllerEvent::RescaleFailed { at, .. }
            | ControllerEvent::CooldownEntered { at, .. }
            | ControllerEvent::BackoffEntered { at, .. }
            | ControllerEvent::Degraded { at, .. } => *at,
        }
    }

    /// Stable machine-readable kind tag (schema `controller.events[].kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            ControllerEvent::Decided { .. } => "decided",
            ControllerEvent::RescaleCompleted { .. } => "rescale-completed",
            ControllerEvent::RescaleFailed { .. } => "rescale-failed",
            ControllerEvent::CooldownEntered { .. } => "cooldown",
            ControllerEvent::BackoffEntered { .. } => "backoff",
            ControllerEvent::Degraded { .. } => "degraded",
        }
    }

    pub fn label(&self) -> String {
        match self {
            ControllerEvent::Decided {
                direction,
                occupancy,
                stall_rate,
                members,
                ..
            } => format!(
                "decided scale-{} (occupancy {:.1}%, {} stalls/s, {} members)",
                direction.name(),
                *occupancy as f64 / 10_000.0,
                stall_rate,
                members
            ),
            ControllerEvent::RescaleCompleted {
                direction, members, ..
            } => format!("scale-{} completed, {} members", direction.name(), members),
            ControllerEvent::RescaleFailed {
                direction,
                failures,
                cause,
                ..
            } => format!(
                "scale-{} failed (failure {}): {}",
                direction.name(),
                failures,
                cause
            ),
            ControllerEvent::CooldownEntered { until, .. } => {
                format!("cooldown until {until}")
            }
            ControllerEvent::BackoffEntered {
                until, failures, ..
            } => format!("backoff until {until} after {failures} failure(s)"),
            ControllerEvent::Degraded { failures, .. } => {
                format!("degraded after {failures} rescale failures")
            }
        }
    }
}

/// The autoscaling decision engine. The runtime owns one (when configured),
/// feeds it metric snapshots on its cadence via [`Controller::observe`],
/// asks [`Controller::decide`] between simulator chunks, and reports the
/// rescale outcome back via [`Controller::rescale_completed`] /
/// [`Controller::rescale_failed`].
pub struct Controller {
    cfg: ControllerConfig,
    phase: Phase,
    samples: VecDeque<Sample>,
    last_sample_at: Option<u64>,
    ladder: BackoffLadder,
    events: Vec<ControllerEvent>,
    // Metrics (cluster-level registry, merged into the job snapshot).
    samples_taken: SharedCounter,
    decisions_up: SharedCounter,
    decisions_down: SharedCounter,
    rescales: SharedCounter,
    rescale_failures: SharedCounter,
    cluster_size: SharedGauge,
    // Trace plumbing (no-ops when the tracer is disabled).
    tw: TraceWriter,
    n_decide: u32,
    n_rescale: u32,
    n_fail: u32,
}

impl Controller {
    /// Track id used for controller spans in trace exports.
    pub const TRACE_PID: u32 = 0x5CA1;

    pub fn new(
        cfg: ControllerConfig,
        members: usize,
        registry: &MetricsRegistry,
        tracer: &Tracer,
    ) -> Controller {
        let ladder = BackoffLadder::new(cfg.backoff_base, cfg.backoff_max)
            .with_jitter(cfg.backoff_jitter_millionths, cfg.seed);
        let tw = tracer.writer(Self::TRACE_PID, "autoscaler");
        let n_decide = tw.intern("decide");
        let n_rescale = tw.intern("rescale");
        let n_fail = tw.intern("rescale-failed");
        let cluster_size = registry.gauge("jet_controller_cluster_size", tags(&[]));
        cluster_size.set(members as i64);
        Controller {
            cfg,
            phase: Phase::Steady,
            samples: VecDeque::new(),
            last_sample_at: None,
            ladder,
            events: Vec::new(),
            samples_taken: registry.counter("jet_controller_samples_total", tags(&[])),
            decisions_up: registry.counter("jet_controller_decisions_up_total", tags(&[])),
            decisions_down: registry.counter("jet_controller_decisions_down_total", tags(&[])),
            rescales: registry.counter("jet_controller_rescales_total", tags(&[])),
            rescale_failures: registry.counter("jet_controller_rescale_failures_total", tags(&[])),
            cluster_size,
            tw,
            n_decide,
            n_rescale,
            n_fail,
        }
    }

    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Full decision timeline (chronological).
    pub fn events(&self) -> &[ControllerEvent] {
        &self.events
    }

    /// Virtual nanos until the next sample is due (None when a sample is
    /// due right now). Mirrors the timeline/flight-recorder chunking
    /// contract so sampling costs zero virtual time.
    pub fn next_sample_in(&self, now: u64) -> Option<u64> {
        match self.last_sample_at {
            None => None,
            Some(last) => {
                let next = last + self.cfg.cadence;
                if now >= next {
                    None
                } else {
                    Some(next - now)
                }
            }
        }
    }

    /// Is a sample due at `now`?
    pub fn sample_due(&self, now: u64) -> bool {
        self.next_sample_in(now).is_none()
    }

    /// Ingest one telemetry sample into the window: the job-wide metrics
    /// snapshot (stall counters, receive-window gauges) plus the
    /// simulator's cumulative busy nanos over `cores` virtual cores. This
    /// is the *only* place the controller reads instantaneous values; every
    /// decision below works on deltas between these samples.
    // jet-analyze: allow(raw-gauge) — the cadenced ingestion point itself; decisions aggregate deltas across the window
    pub fn observe(
        &mut self,
        now: u64,
        snap: &MetricsSnapshot,
        busy_nanos: u64,
        cores: usize,
        members: usize,
    ) {
        self.last_sample_at = Some(now);
        self.samples_taken.add(1);
        self.cluster_size.set(members as i64);
        let recv_window_min = snap
            .get_all("jet_channel_receive_window")
            .filter_map(|m| m.as_gauge())
            .min()
            .unwrap_or(i64::MAX);
        self.samples.push_back(Sample {
            at: now,
            busy_nanos,
            cores: cores.max(1),
            bp_stalls: snap.counter_total("jet_backpressure_stalls_total", &[]),
            recv_window_min,
        });
        while self.samples.len() > self.cfg.window {
            self.samples.pop_front();
        }
    }

    /// Discard the sample window — after a topology change (rescale *or*
    /// recovery rebuild) the old execution's cumulative signals say nothing
    /// about the new one. The runtime calls this whenever it rebuilds the
    /// execution outside the controller's own rescales.
    pub fn discard_samples(&mut self) {
        self.samples.clear();
    }

    /// Windowed aggregates over the full sample ring: (occupancy
    /// millionths, stalls/second, average receive-window floor). None until
    /// the window is full.
    fn window_aggregate(&self) -> Option<(u32, u64, i64)> {
        if self.samples.len() < self.cfg.window {
            return None;
        }
        let first = self.samples.front()?;
        let last = self.samples.back()?;
        let span = last.at.saturating_sub(first.at);
        if span == 0 {
            return None;
        }
        let busy = last.busy_nanos.saturating_sub(first.busy_nanos);
        let capacity = span as u128 * last.cores as u128;
        let occupancy = ((busy as u128 * 1_000_000) / capacity).min(1_000_000) as u32;
        let stalls = last.bp_stalls.saturating_sub(first.bp_stalls);
        let stall_rate = ((stalls as u128 * 1_000_000_000) / span as u128) as u64;
        let n = self.samples.len() as i64;
        let recv_avg = self
            .samples
            .iter()
            .map(|s| s.recv_window_min.min(i64::MAX / n.max(1)))
            .sum::<i64>()
            / n;
        Some((occupancy, stall_rate, recv_avg))
    }

    /// Run the decision state machine at `now`. Returns the rescale to
    /// execute, if any. Reads only the windowed aggregates — never a live
    /// gauge.
    pub fn decide(&mut self, now: u64, members: usize) -> Option<Direction> {
        // Phase transitions on the clock.
        match self.phase {
            Phase::Degraded => return None,
            Phase::Cooldown { until } | Phase::Backoff { until } => {
                if now < until {
                    return None;
                }
                self.phase = Phase::Steady;
            }
            Phase::Steady => {}
        }
        let (occupancy, stall_rate, recv_avg) = self.window_aggregate()?;
        let recv_pressure = self.cfg.scale_up_receive_window > 0
            && recv_avg != i64::MAX
            && recv_avg <= self.cfg.scale_up_receive_window;
        let up = occupancy >= self.cfg.scale_up_occupancy
            || stall_rate >= self.cfg.scale_up_stall_rate
            || recv_pressure;
        let down = occupancy <= self.cfg.scale_down_occupancy
            && stall_rate < self.cfg.scale_up_stall_rate
            && !recv_pressure;
        let direction = if up && members < self.cfg.max_members {
            Direction::Up
        } else if down && members > self.cfg.min_members {
            Direction::Down
        } else {
            return None;
        };
        match direction {
            Direction::Up => self.decisions_up.add(1),
            Direction::Down => self.decisions_down.add(1),
        }
        self.push_event(ControllerEvent::Decided {
            at: now,
            direction,
            occupancy,
            stall_rate,
            members,
        });
        self.tw.record(
            TraceKind::Detect,
            now,
            0,
            self.n_decide,
            match direction {
                Direction::Up => 1,
                Direction::Down => -1,
            },
        );
        Some(direction)
    }

    /// The rescale ordered by [`Controller::decide`] committed: reset the
    /// failure ladder, discard stale samples, and enter cooldown.
    pub fn rescale_completed(&mut self, now: u64, direction: Direction, members: usize) {
        self.rescales.add(1);
        self.cluster_size.set(members as i64);
        self.ladder.reset();
        self.discard_samples();
        self.push_event(ControllerEvent::RescaleCompleted {
            at: now,
            direction,
            members,
        });
        let until = now + self.cfg.cooldown;
        self.phase = Phase::Cooldown { until };
        self.push_event(ControllerEvent::CooldownEntered { at: now, until });
        self.tw
            .record(TraceKind::Recovery, now, 0, self.n_rescale, members as i64);
    }

    /// The rescale failed (and the runtime rolled back to the pre-rescale
    /// topology): climb the backoff ladder, degrade once it tops out.
    pub fn rescale_failed(&mut self, now: u64, direction: Direction, cause: &str) {
        self.rescale_failures.add(1);
        self.discard_samples();
        let delay = self.ladder.next_delay();
        let failures = self.ladder.attempt();
        self.push_event(ControllerEvent::RescaleFailed {
            at: now,
            direction,
            failures,
            cause: cause.to_string(),
        });
        self.tw
            .record(TraceKind::Recovery, now, 0, self.n_fail, failures as i64);
        if failures >= self.cfg.max_rescale_failures {
            self.phase = Phase::Degraded;
            self.push_event(ControllerEvent::Degraded { at: now, failures });
        } else {
            let until = now + delay;
            self.phase = Phase::Backoff { until };
            self.push_event(ControllerEvent::BackoffEntered {
                at: now,
                until,
                failures,
            });
        }
    }

    /// Appends to the decision timeline, which is chronological and never
    /// reports an empty cluster.
    fn push_event(&mut self, e: ControllerEvent) {
        debug_assert!(
            self.events.last().is_none_or(|prev| prev.at() <= e.at()),
            "controller event at {} precedes the previous one: {e:?}",
            e.at()
        );
        debug_assert!(
            !matches!(
                e,
                ControllerEvent::Decided { members: 0, .. }
                    | ControllerEvent::RescaleCompleted { members: 0, .. }
            ),
            "controller event reports 0 members: {e:?}"
        );
        self.events.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jet_core::metrics::MetricsRegistry;

    const MS: u64 = 1_000_000;

    fn snap(stalls: u64) -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter("jet_backpressure_stalls_total", tags(&[]))
            .add(stalls);
        r.snapshot()
    }

    fn controller(cfg: ControllerConfig) -> Controller {
        let reg = MetricsRegistry::new();
        Controller::new(cfg, 1, &reg, &Tracer::disabled())
    }

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            cadence: 1_000_000,
            window: 3,
            cooldown: 10_000_000,
            ..ControllerConfig::default()
        }
    }

    /// Feed a full window ending at `t0 + 2 ms` on one core whose busy
    /// nanos advance at `busy_millionths` of wall time.
    fn fill_window(
        c: &mut Controller,
        t0: u64,
        busy_millionths: u64,
        stalls_per_ms: u64,
        members: usize,
    ) {
        for i in 0..3u64 {
            let t = t0 + i * MS;
            let busy = t / 1_000_000 * busy_millionths; // per-ms busy nanos
            c.observe(t, &snap(t / MS * stalls_per_ms), busy, 1, members);
        }
    }

    #[test]
    fn validation_rejects_misconfigurations() {
        assert!(ControllerConfig::default().validate().is_ok());
        let bad = |f: fn(&mut ControllerConfig), needle: &str| {
            let mut c = ControllerConfig::default();
            f(&mut c);
            let err = c.validate().expect_err(needle);
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        };
        bad(|c| c.cadence = 0, "cadence");
        bad(|c| c.window = 1, "window");
        bad(
            |c| {
                c.scale_up_occupancy = 200_000;
                c.scale_down_occupancy = 200_000;
            },
            "hysteresis",
        );
        bad(|c| c.scale_up_occupancy = 2_000_000, "millionths");
        bad(|c| c.cooldown = 0, "cooldown");
        bad(|c| c.backoff_base = 0, "backoff_base");
        bad(|c| c.backoff_max = 1, "backoff_max");
        bad(|c| c.min_members = 0, "min_members");
        bad(|c| c.max_members = 0, "max_members");
    }

    #[test]
    fn no_decision_until_window_full() {
        let mut c = controller(cfg());
        c.observe(0, &snap(0), 0, 1, 1);
        c.observe(MS, &snap(0), MS, 1, 1);
        assert_eq!(c.decide(MS, 1), None, "2 of 3 samples");
        c.observe(2 * MS, &snap(0), 2 * MS, 1, 1);
        assert_eq!(c.decide(2 * MS, 1), Some(Direction::Up));
    }

    #[test]
    fn hysteresis_band_is_dead() {
        let mut c = controller(cfg());
        // 50% occupancy: between down (30%) and up (85%) thresholds.
        fill_window(&mut c, 0, 500_000, 0, 2);
        assert_eq!(c.decide(2 * MS, 2), None);
        assert!(c.events().is_empty());
    }

    #[test]
    fn stall_rate_triggers_scale_up_at_moderate_occupancy() {
        let mut c = controller(cfg());
        // 50% occupancy but a torrent of backpressure stalls (1000/ms).
        fill_window(&mut c, 0, 500_000, 1_000, 1);
        assert_eq!(c.decide(2 * MS, 1), Some(Direction::Up));
    }

    #[test]
    fn idle_cluster_scales_down_but_not_below_min() {
        let mut c = controller(cfg());
        fill_window(&mut c, 0, 10_000, 0, 2); // 1% busy
        assert_eq!(c.decide(2 * MS, 2), Some(Direction::Down));
        let mut c = controller(cfg());
        fill_window(&mut c, 0, 10_000, 0, 1);
        assert_eq!(c.decide(2 * MS, 1), None, "already at min_members");
    }

    #[test]
    fn saturated_cluster_respects_max_members() {
        let mut c = controller(ControllerConfig {
            max_members: 2,
            ..cfg()
        });
        fill_window(&mut c, 0, 1_000_000, 0, 2);
        assert_eq!(c.decide(2 * MS, 2), None);
    }

    #[test]
    fn cooldown_blocks_decisions_then_expires() {
        let mut c = controller(cfg());
        fill_window(&mut c, 0, 1_000_000, 0, 1);
        assert_eq!(c.decide(2 * MS, 1), Some(Direction::Up));
        c.rescale_completed(3 * MS, Direction::Up, 2);
        assert!(matches!(c.phase(), Phase::Cooldown { .. }));
        // Saturated samples during cooldown: still no decision.
        fill_window(&mut c, 4 * MS, 1_000_000, 0, 2);
        assert_eq!(c.decide(6 * MS, 2), None);
        // Past cooldown (13 ms = 3 + 10) with a full fresh window: decides.
        fill_window(&mut c, 14 * MS, 1_000_000, 0, 2);
        assert_eq!(c.decide(16 * MS, 2), Some(Direction::Up));
    }

    #[test]
    fn failures_climb_the_ladder_then_degrade() {
        let mut c = controller(ControllerConfig {
            max_rescale_failures: 2,
            backoff_base: 4 * MS,
            backoff_max: 64 * MS,
            ..cfg()
        });
        fill_window(&mut c, 0, 1_000_000, 0, 1);
        assert_eq!(c.decide(2 * MS, 1), Some(Direction::Up));
        c.rescale_failed(3 * MS, Direction::Up, "terminal snapshot timed out");
        let Phase::Backoff { until } = c.phase() else {
            panic!("expected backoff, got {:?}", c.phase());
        };
        assert_eq!(until, 3 * MS + 4 * MS);
        // Window was cleared; refill after the backoff expires.
        fill_window(&mut c, 8 * MS, 1_000_000, 0, 1);
        assert_eq!(c.decide(10 * MS, 1), Some(Direction::Up));
        c.rescale_failed(11 * MS, Direction::Up, "still wedged");
        assert_eq!(c.phase(), Phase::Degraded);
        fill_window(&mut c, 20 * MS, 1_000_000, 0, 1);
        assert_eq!(c.decide(22 * MS, 1), None, "degraded never decides");
        // The timeline recorded the whole episode in order.
        let kinds: Vec<&str> = c.events().iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "decided",
                "rescale-failed",
                "backoff",
                "decided",
                "rescale-failed",
                "degraded"
            ]
        );
        let ats: Vec<u64> = c.events().iter().map(|e| e.at()).collect();
        let mut sorted = ats.clone();
        sorted.sort_unstable();
        assert_eq!(ats, sorted, "timeline must be chronological");
    }

    #[test]
    fn success_resets_the_failure_ladder() {
        let mut c = controller(ControllerConfig {
            max_rescale_failures: 3,
            ..cfg()
        });
        c.rescale_failed(MS, Direction::Up, "boom");
        c.rescale_failed(2 * MS, Direction::Up, "boom");
        c.rescale_completed(3 * MS, Direction::Up, 2);
        // Two more failures after the success: still below the limit of 3
        // because the ladder reset.
        c.rescale_failed(20 * MS, Direction::Up, "boom");
        c.rescale_failed(21 * MS, Direction::Up, "boom");
        assert_ne!(c.phase(), Phase::Degraded);
    }

    #[test]
    fn sampling_cadence_mirrors_the_timeline_contract() {
        let mut c = controller(cfg());
        assert!(c.sample_due(0), "first sample is always due");
        c.observe(0, &snap(0), 0, 1, 1);
        assert_eq!(c.next_sample_in(0), Some(MS));
        assert_eq!(c.next_sample_in(MS / 2), Some(MS / 2));
        assert!(c.sample_due(MS));
        assert!(c.sample_due(2 * MS));
    }

    #[test]
    fn receive_window_pressure_corroborates_scale_up() {
        let pinned = |c: &mut Controller| {
            // Moderate occupancy, no stalls, but the receive window is
            // pinned at the floor.
            for i in 0..3u64 {
                let t = i * MS;
                let r = MetricsRegistry::new();
                r.gauge("jet_channel_receive_window", tags(&[("edge", "0")]))
                    .set(512);
                c.observe(t, &r.snapshot(), t / 2, 1, 1);
            }
        };
        let mut c = controller(ControllerConfig {
            scale_up_receive_window: 1024,
            ..cfg()
        });
        pinned(&mut c);
        assert_eq!(c.decide(2 * MS, 1), Some(Direction::Up));
        // Signal disabled (0): the same telemetry makes no decision.
        let mut c = controller(cfg());
        pinned(&mut c);
        assert_eq!(c.decide(2 * MS, 1), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedes the previous one")]
    fn event_times_never_go_backwards() {
        let mut c = controller(cfg());
        c.rescale_completed(5 * MS, Direction::Up, 2);
        c.rescale_failed(4 * MS, Direction::Up, "late");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reports 0 members")]
    fn events_never_report_an_empty_cluster() {
        let mut c = controller(cfg());
        c.rescale_completed(MS, Direction::Down, 0);
    }
}
