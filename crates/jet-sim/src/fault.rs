//! Deterministic fault injection on the virtual timeline.
//!
//! A [`FaultPlan`] is a time-sorted script of fault events — member crashes,
//! transient stalls, network partitions, channel chaos (seeded drop/delay),
//! snapshot-store outages — scheduled in virtual nanos. The plan only
//! *describes* faults; the cluster runtime applies them from its per-quantum
//! hook, so a plan replays bit-for-bit under the same seed: the simulation
//! is single-threaded on a manual clock and every random decision flows from
//! [`SimRng`].
//!
//! Plans can be written by hand (benchmarks use a single scripted crash) or
//! drawn from a seeded distribution via [`FaultPlan::random`] — the chaos
//! suite's generator.

use jet_util::rng::SimRng;

/// One fault to apply at a point in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Member dies abruptly: its cores stop forever and its heartbeats
    /// cease. Recovery requires detection + rebuild.
    Crash {
        member: u32,
    },
    /// Member freezes (GC-like straggler) until `until`; it resumes
    /// afterwards. Within the detector's grace this must NOT cause a kill.
    Stall {
        member: u32,
        until: u64,
    },
    /// Network partition `id` begins: members in `side` cannot exchange
    /// messages with members outside it until [`FaultKind::PartitionEnd`].
    PartitionStart {
        id: u32,
        side: Vec<u32>,
    },
    /// Partition `id` heals; parked traffic delivers (TCP retransmit).
    PartitionEnd {
        id: u32,
    },
    /// Channel chaos begins: every data batch gets up to
    /// `max_extra_delay_nanos` of seeded jitter, and with probability
    /// `drop_millionths`/1e6 a batch is "dropped" — modeled as a retransmit
    /// delay, never a real loss (the engine assumes a reliable transport).
    /// Heartbeats ARE really dropped at that probability.
    ChaosStart {
        drop_millionths: u32,
        max_extra_delay_nanos: u64,
    },
    ChaosEnd,
    /// Snapshot-store writes fail until the matching end event: snapshots
    /// taken in the window are poisoned and never become recovery points.
    StoreWriteFailStart,
    StoreWriteFailEnd,
    /// Snapshot-store reads fail until the matching end event: recovery
    /// attempts in the window fail and must retry with backoff.
    StoreReadFailStart,
    StoreReadFailEnd,
}

impl FaultKind {
    /// Short stable label (trace args, logs, determinism digests).
    pub fn label(&self) -> String {
        match self {
            FaultKind::Crash { member } => format!("crash(m{member})"),
            FaultKind::Stall { member, until } => format!("stall(m{member},until={until})"),
            FaultKind::PartitionStart { id, side } => format!("partition-start({id},{side:?})"),
            FaultKind::PartitionEnd { id } => format!("partition-end({id})"),
            FaultKind::ChaosStart {
                drop_millionths,
                max_extra_delay_nanos,
            } => format!("chaos-start(drop={drop_millionths}ppm,delay<={max_extra_delay_nanos})"),
            FaultKind::ChaosEnd => "chaos-end".to_string(),
            FaultKind::StoreWriteFailStart => "store-write-fail-start".to_string(),
            FaultKind::StoreWriteFailEnd => "store-write-fail-end".to_string(),
            FaultKind::StoreReadFailStart => "store-read-fail-start".to_string(),
            FaultKind::StoreReadFailEnd => "store-read-fail-end".to_string(),
        }
    }
}

/// A fault scheduled at virtual time `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub at: u64,
    pub kind: FaultKind,
}

/// Time-sorted fault script plus the seed for in-flight randomness (channel
/// chaos draws). Consumed through a cursor by the cluster runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Seed for the transport's chaos RNG; the schedule above is fixed, this
    /// only drives per-message drop/jitter draws.
    pub seed: u64,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            events: Vec::new(),
            seed,
        }
    }

    pub fn push(&mut self, at: u64, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
        self
    }

    pub fn crash(&mut self, at: u64, member: u32) -> &mut Self {
        self.push(at, FaultKind::Crash { member })
    }

    pub fn stall(&mut self, at: u64, member: u32, duration: u64) -> &mut Self {
        self.push(
            at,
            FaultKind::Stall {
                member,
                until: at + duration,
            },
        )
    }

    /// Partition `side` away from the rest of the cluster for `duration`.
    pub fn partition(&mut self, at: u64, duration: u64, side: Vec<u32>) -> &mut Self {
        let id = self.events.len() as u32;
        self.push(at, FaultKind::PartitionStart { id, side });
        self.push(at + duration, FaultKind::PartitionEnd { id })
    }

    pub fn chaos(
        &mut self,
        at: u64,
        duration: u64,
        drop_millionths: u32,
        max_extra_delay_nanos: u64,
    ) -> &mut Self {
        self.push(
            at,
            FaultKind::ChaosStart {
                drop_millionths,
                max_extra_delay_nanos,
            },
        );
        self.push(at + duration, FaultKind::ChaosEnd)
    }

    pub fn store_write_outage(&mut self, at: u64, duration: u64) -> &mut Self {
        self.push(at, FaultKind::StoreWriteFailStart);
        self.push(at + duration, FaultKind::StoreWriteFailEnd)
    }

    pub fn store_read_outage(&mut self, at: u64, duration: u64) -> &mut Self {
        self.push(at, FaultKind::StoreReadFailStart);
        self.push(at + duration, FaultKind::StoreReadFailEnd)
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Stable one-line-per-event digest, used by determinism tests to assert
    /// two runs drew the identical schedule.
    pub fn digest(&self) -> String {
        self.events
            .iter()
            .map(|e| format!("{}:{}", e.at, e.kind.label()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Draw a random plan from `spec` under `seed`. Same seed + same spec =>
    /// identical plan, bit for bit.
    pub fn random(seed: u64, spec: &RandomFaultSpec) -> FaultPlan {
        let mut rng = SimRng::new(seed);
        let mut plan = FaultPlan::new(seed);
        assert!(spec.members >= 2, "fault plans need at least 2 members");
        assert!(spec.crash_floor < spec.horizon);

        // At most `max_crashes` members die; victims are distinct.
        let mut victims: Vec<u32> = Vec::new();
        let crashes = rng.below(spec.max_crashes as u64 + 1) as usize;
        for _ in 0..crashes {
            let m = rng.below(spec.members as u64) as u32;
            if victims.contains(&m) {
                continue;
            }
            let at = rng.range(spec.crash_floor, spec.horizon);
            plan.crash(at, m);
            victims.push(m);
            // A read outage overlapping the crash exercises recovery retry.
            if spec.recovery_read_outage_millionths > 0
                && rng.chance(spec.recovery_read_outage_millionths)
            {
                let dur = rng.range(spec.read_outage_min, spec.read_outage_max);
                plan.store_read_outage(at, dur);
            }
        }

        if rng.chance(spec.stall_millionths) {
            let m = rng.below(spec.members as u64) as u32;
            let at = rng.range(spec.crash_floor / 2, spec.horizon);
            let dur = rng.range(spec.stall_min, spec.stall_max);
            plan.stall(at, m, dur);
        }

        if rng.chance(spec.partition_millionths) {
            let m = rng.below(spec.members as u64) as u32;
            let at = rng.range(spec.crash_floor / 2, spec.horizon);
            let dur = rng.range(spec.partition_min, spec.partition_max);
            plan.partition(at, dur, vec![m]);
        }

        if rng.chance(spec.chaos_millionths) {
            let at = rng.range(0, spec.horizon / 2);
            let dur = rng.range(spec.horizon / 4, spec.horizon);
            let drop = rng.below(spec.chaos_drop_max_millionths as u64 + 1) as u32;
            let delay = rng.below(spec.chaos_delay_max + 1);
            plan.chaos(at, dur, drop, delay);
        }

        if rng.chance(spec.store_write_outage_millionths) {
            let at = rng.range(spec.crash_floor / 2, spec.horizon);
            let dur = rng.range(spec.write_outage_min, spec.write_outage_max);
            plan.store_write_outage(at, dur);
        }

        plan
    }

    /// Draw a random plan whose fault *onsets* all land inside `[lo, hi)` —
    /// the ordered-rescale chaos lane uses this to aim crash/stall/
    /// partition/store-outage faults at the window its rescales are ordered
    /// in, rather than spraying them over the whole run. Windowed
    /// faults (stalls, partitions, outages) may extend past `hi`; only
    /// their start instant is constrained. Same seed + same spec + same
    /// window => identical plan, bit for bit.
    pub fn random_in_window(seed: u64, spec: &RandomFaultSpec, lo: u64, hi: u64) -> FaultPlan {
        assert!(lo < hi, "empty fault window");
        let mut rng = SimRng::new(seed);
        let mut plan = FaultPlan::new(seed);
        assert!(spec.members >= 2, "fault plans need at least 2 members");

        let mut victims: Vec<u32> = Vec::new();
        let crashes = rng.below(spec.max_crashes as u64 + 1) as usize;
        for _ in 0..crashes {
            let m = rng.below(spec.members as u64) as u32;
            if victims.contains(&m) {
                continue;
            }
            plan.crash(rng.range(lo, hi), m);
            victims.push(m);
        }

        if rng.chance(spec.stall_millionths) {
            let m = rng.below(spec.members as u64) as u32;
            let at = rng.range(lo, hi);
            let dur = rng.range(spec.stall_min, spec.stall_max);
            plan.stall(at, m, dur);
        }

        if rng.chance(spec.partition_millionths) {
            let m = rng.below(spec.members as u64) as u32;
            let at = rng.range(lo, hi);
            let dur = rng.range(spec.partition_min, spec.partition_max);
            plan.partition(at, dur, vec![m]);
        }

        if rng.chance(spec.store_write_outage_millionths) {
            let at = rng.range(lo, hi);
            let dur = rng.range(spec.write_outage_min, spec.write_outage_max);
            plan.store_write_outage(at, dur);
        }

        plan
    }
}

/// Distribution a random fault schedule is drawn from. Times in virtual
/// nanos; probabilities in millionths.
#[derive(Debug, Clone)]
pub struct RandomFaultSpec {
    pub members: usize,
    /// Events are scheduled before this time.
    pub horizon: u64,
    /// No crash before this time (lets the first snapshots complete so a
    /// recovery point exists — the cold-restart path is tested separately).
    pub crash_floor: u64,
    pub max_crashes: usize,
    pub stall_millionths: u32,
    pub stall_min: u64,
    pub stall_max: u64,
    pub partition_millionths: u32,
    pub partition_min: u64,
    pub partition_max: u64,
    pub chaos_millionths: u32,
    pub chaos_drop_max_millionths: u32,
    pub chaos_delay_max: u64,
    pub store_write_outage_millionths: u32,
    pub write_outage_min: u64,
    pub write_outage_max: u64,
    /// Chance a crash is paired with a store read outage starting at the
    /// crash instant (recovery must retry with backoff until it lifts).
    pub recovery_read_outage_millionths: u32,
    pub read_outage_min: u64,
    pub read_outage_max: u64,
}

const MS: u64 = 1_000_000;

impl Default for RandomFaultSpec {
    fn default() -> Self {
        RandomFaultSpec {
            members: 3,
            horizon: 80 * MS,
            crash_floor: 25 * MS,
            max_crashes: 1,
            stall_millionths: 500_000,
            stall_min: MS,
            // Stall and partition can hit the same member back to back; their
            // combined dark window plus heartbeat delivery tail must stay
            // under the detector's default 10 ms fence grace so pure-delay
            // faults never fence (3 + 3 + ~2.5 ms of interval/latency/jitter).
            stall_max: 3 * MS,
            partition_millionths: 400_000,
            partition_min: MS,
            partition_max: 3 * MS,
            chaos_millionths: 700_000,
            chaos_drop_max_millionths: 200_000,
            chaos_delay_max: MS,
            store_write_outage_millionths: 300_000,
            write_outage_min: 5 * MS,
            write_outage_max: 15 * MS,
            recovery_read_outage_millionths: 300_000,
            read_outage_min: 10 * MS,
            read_outage_max: 20 * MS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_time_sorted() {
        let mut p = FaultPlan::new(1);
        p.crash(50, 0);
        p.stall(10, 1, 5);
        p.partition(30, 100, vec![2]);
        let times: Vec<u64> = p.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn windowed_helpers_expand_to_start_end_pairs() {
        let mut p = FaultPlan::new(0);
        p.chaos(100, 50, 1000, 200);
        p.store_write_outage(10, 5);
        assert_eq!(p.events().len(), 4);
        assert!(matches!(p.events()[0].kind, FaultKind::StoreWriteFailStart));
        assert_eq!(p.events()[1].at, 15);
        assert!(matches!(p.events()[3].kind, FaultKind::ChaosEnd));
        assert_eq!(p.events()[3].at, 150);
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let spec = RandomFaultSpec::default();
        for seed in 0..50 {
            let a = FaultPlan::random(seed, &spec);
            let b = FaultPlan::random(seed, &spec);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn random_plans_differ_across_seeds() {
        let spec = RandomFaultSpec::default();
        let distinct: std::collections::HashSet<String> = (0..100)
            .map(|s| FaultPlan::random(s, &spec).digest())
            .collect();
        assert!(
            distinct.len() > 50,
            "only {} distinct plans",
            distinct.len()
        );
    }

    #[test]
    fn windowed_random_plans_start_inside_the_window() {
        let spec = RandomFaultSpec::default();
        let (lo, hi) = (40 * MS, 55 * MS);
        for seed in 0..200 {
            let p = FaultPlan::random_in_window(seed, &spec, lo, hi);
            for e in p.events() {
                let onset = match &e.kind {
                    // End events of windowed faults may land past `hi`.
                    FaultKind::PartitionEnd { .. }
                    | FaultKind::ChaosEnd
                    | FaultKind::StoreWriteFailEnd
                    | FaultKind::StoreReadFailEnd => continue,
                    _ => e.at,
                };
                assert!(
                    (lo..hi).contains(&onset),
                    "seed {seed}: onset {onset} outside [{lo},{hi})"
                );
            }
        }
    }

    #[test]
    fn windowed_random_plans_are_deterministic_per_seed() {
        let spec = RandomFaultSpec::default();
        for seed in 0..50 {
            let a = FaultPlan::random_in_window(seed, &spec, 10 * MS, 20 * MS);
            let b = FaultPlan::random_in_window(seed, &spec, 10 * MS, 20 * MS);
            assert_eq!(a, b, "seed {seed} not reproducible");
        }
    }

    #[test]
    fn random_crashes_respect_floor_and_count() {
        let spec = RandomFaultSpec {
            max_crashes: 1,
            ..RandomFaultSpec::default()
        };
        for seed in 0..200 {
            let p = FaultPlan::random(seed, &spec);
            let crashes: Vec<&FaultEvent> = p
                .events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::Crash { .. }))
                .collect();
            assert!(crashes.len() <= 1);
            for c in crashes {
                assert!(c.at >= spec.crash_floor, "seed {seed} crash too early");
                assert!(c.at < spec.horizon);
            }
        }
    }
}
