//! Running one job from spawn to `Done` while the main thread plays the
//! roles the engine leaves to its embedder: epoch snapshots of the latency
//! histogram, the snapshot coordinator, and the watchdog.

use crate::estimator::{epoch_diff, Epoch};
use crate::reference::Digest;
use crate::timed::{now_ns, PhaseTrace, StatsSink};
use crate::workloads::{build, Collected, Deploy, JobPlan, Workload};
use jet_util::Histogram;
use std::time::{Duration, Instant};

/// Main-thread polling period while a job runs. Bounds the error of every
/// epoch boundary, snapshot duration and end-of-job timestamp.
const POLL: Duration = Duration::from_millis(1);
/// Period of receive-window samples (cluster jobs).
const WINDOW_SAMPLE: Duration = Duration::from_millis(20);

pub struct PhaseOutcome {
    pub events: u64,
    /// `build` + `spawn`: the set-up path.
    pub setup: Duration,
    /// Spawn to every tasklet `Done`.
    pub wall: Duration,
    /// Sink latency between consecutive requested boundaries.
    pub epochs: Vec<Epoch>,
    /// Sink latency between the first and the last boundary.
    pub measured: Histogram,
    /// Trigger-to-completion time of every completed state snapshot.
    pub snapshot_durations: Vec<Duration>,
    /// Records in the largest retained snapshot generation.
    pub snapshot_records: u64,
    pub receive_window_min: Option<i64>,
    pub rss_before_kb: u64,
    pub rss_peak_kb: u64,
    pub digest: Digest,
    pub emit_lag: Histogram,
    pub items_sent: u64,
    pub bytes_sent: u64,
    pub trace: Option<PhaseTrace>,
    pub collected: Collected,
}

impl PhaseOutcome {
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64()
    }
}

/// `VmRSS` / `VmHWM` of this process in kB.
pub fn rss_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// When to copy the sink's cumulative latency histogram. Consecutive copies
/// bound one epoch; of a copy only its difference to the one before is kept.
#[derive(Clone, Copy)]
pub struct Epochs {
    /// First copy: this long after spawn (the warm-up).
    pub from: Duration,
    /// No copy later than this.
    pub until: Duration,
    /// Epoch length. A job that takes state snapshots instead ends an epoch
    /// at every snapshot trigger, so that each epoch holds exactly one whole
    /// snapshot cycle however the cycle drifts against the wall clock.
    pub len: Duration,
}

pub struct PhasePlan {
    pub job: JobPlan,
    pub epochs: Option<Epochs>,
    pub traced: bool,
    /// State-snapshot trigger period (exactly-once workloads).
    pub snapshot_interval: Duration,
    /// Cancel the job and fail the phase after this long.
    pub timeout: Duration,
}

/// Build, spawn, monitor and join one job.
pub fn run_phase(w: &Workload, seed: u64, plan: &PhasePlan) -> Result<PhaseOutcome, String> {
    let rss_before_kb = rss_kb("VmRSS");
    let stats = plan.traced.then(StatsSink::default);
    let setup_start = Instant::now();
    let mut job = build(w, seed, &plan.job)?;
    let workers = job.workers();
    let handles = job.spawn(stats.as_ref());
    let setup = setup_start.elapsed();
    let start = Instant::now();
    let start_ns = now_ns();

    let mut epochs = Vec::new();
    // The sink's cumulative latency at the first and at the latest boundary.
    let mut boundaries: Option<(Histogram, Histogram)> = None;
    let mut next_boundary = 0u32;
    let mut snapshot_durations = Vec::new();
    let mut in_flight: Option<(u64, Instant)> = None;
    let mut receive_window_min: Option<i64> = None;
    let mut next_window_sample = Duration::ZERO;
    let sample_windows = plan.traced && w.deploy == Deploy::Cluster;
    let finished = loop {
        let finished = handles.iter().all(|h| h.is_finished());
        let elapsed = start.elapsed();
        let mut triggered = false;
        if job.store.is_some() && !finished {
            if let Some((id, at)) = in_flight {
                if job.registry.completed() >= id {
                    snapshot_durations.push(at.elapsed());
                    in_flight = None;
                }
            }
            if in_flight.is_none() {
                let interval = plan.snapshot_interval.as_nanos() as u64;
                if let Some(id) = job.registry.maybe_trigger(job.clock.now_nanos(), interval) {
                    in_flight = Some((id, Instant::now()));
                    triggered = true;
                }
            }
        }
        if let Some(e) = plan.epochs.filter(|e| elapsed >= e.from) {
            // Index of the scheduled boundary `elapsed` has reached. A late
            // wake-up of this thread makes one longer epoch, never an empty one.
            let reached = ((elapsed - e.from).as_nanos() / e.len.as_nanos()) as u32;
            let boundary = if job.store.is_some() {
                triggered
            } else {
                reached >= next_boundary
            };
            if boundary && e.from + e.len * next_boundary <= e.until {
                let now = job.probes.latency.snapshot();
                boundaries = Some(match boundaries.take() {
                    None => (now.clone(), now),
                    Some((first, last)) => {
                        epochs.push(Epoch::of(&epoch_diff(&now, &last)));
                        (first, now)
                    }
                });
                next_boundary = reached + 1;
            }
        }
        if finished {
            break true;
        }
        if elapsed > plan.timeout {
            handles.iter().for_each(|h| h.cancel());
            break false;
        }
        if sample_windows && elapsed >= next_window_sample {
            next_window_sample = elapsed + WINDOW_SAMPLE;
            for m in &job.member_metrics {
                for g in m.snapshot().get_all("jet_channel_receive_window") {
                    // 0 is the gauge's value before the first grant.
                    if let Some(v) = g.as_gauge().filter(|&v| v > 0) {
                        receive_window_min = Some(receive_window_min.map_or(v, |m| m.min(v)));
                    }
                }
            }
        }
        std::thread::sleep(POLL);
    };
    let wall = start.elapsed();
    handles.into_iter().for_each(|h| h.join());
    let end_ns = now_ns();
    if !finished {
        return Err(format!(
            "{}: job did not reach Done within {:?}",
            w.name, plan.timeout
        ));
    }

    let completed = job.registry.completed();
    let snapshot_records = job.store.as_ref().map_or(0, |s| {
        // The store keeps the current and the prior generation; the very
        // last one may have been taken while the job was already draining.
        (completed.saturating_sub(1)..=completed)
            .map(|id| s.record_count(id) as u64)
            .max()
            .unwrap_or(0)
    });
    let (mut items_sent, mut bytes_sent) = (0, 0);
    for m in &job.member_metrics {
        let snap = m.snapshot();
        items_sent += snap.counter_total("jet_channel_items_sent_total", &[]);
        bytes_sent += snap.counter_total("jet_channel_bytes_sent_total", &[]);
    }
    let trace = stats.map(|s| PhaseTrace {
        tasklets: std::mem::take(&mut *s.lock()),
        workers,
        start_ns,
        end_ns,
    });
    Ok(PhaseOutcome {
        events: plan.job.events,
        setup,
        wall,
        epochs,
        measured: boundaries.map_or_else(Histogram::latency, |(first, last)| {
            epoch_diff(&last, &first)
        }),
        snapshot_durations,
        snapshot_records,
        receive_window_min,
        rss_before_kb,
        rss_peak_kb: rss_kb("VmHWM"),
        digest: job.probes.tally.digest(),
        emit_lag: job.probes.emit_lag.snapshot(),
        items_sent,
        bytes_sent,
        trace,
        collected: job.probes.collected.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    #[test]
    fn rss_fields_are_read() {
        assert!(rss_kb("VmRSS") > 0);
        assert!(rss_kb("VmHWM") >= rss_kb("VmRSS"));
        assert_eq!(rss_kb("NoSuchField"), 0);
    }

    #[test]
    fn a_job_that_cannot_finish_in_time_fails_the_phase() {
        // 1 000 000 events paced at 100k/s need 10 s; the watchdog allows 50 ms.
        let w = by_name("q5-snapshot").unwrap();
        let plan = PhasePlan {
            job: JobPlan::paced(1_000_000, false),
            epochs: None,
            traced: false,
            snapshot_interval: Duration::from_secs(1),
            timeout: Duration::from_millis(50),
        };
        let err = run_phase(w, 1, &plan).err().expect("must time out");
        assert!(err.contains("did not reach Done"), "{err}");
    }
}
