//! Multi-tenant fairness: per-job scheduling quotas on shared workers
//! (paper §7.7).
//!
//! The paper's multi-tenancy result rests on two properties: idle jobs cost
//! (almost) nothing (the idle strategy, PR 1), and *busy* neighbours cannot
//! crowd a latency-critical job off the cores. Plain round-robin gives every
//! tasklet one timeslice per round, so a tenant's share of a worker is
//! proportional to its tasklet count — a hundred small jobs starve the one
//! that matters. [`JobQuotas`] replaces that with weighted round-robin over
//! *job groups*: each scheduling cycle hands every job `weight` timeslice
//! turns regardless of how many tasklets it deploys, and the cycle
//! interleaves turns (heavy jobs appear in every slot, not as one burst) so
//! latency-critical turns are never far away.
//!
//! Jobs are identified by [`Tasklet::job`](crate::tasklet::Tasklet::job);
//! a processor tasklet takes its vertex's [`job`](crate::dag::Vertex::job).
//! [`Schedule`] is the one scheduler both executors run: it owns a worker's
//! tasklets, the polling order, the removal of finished tasklets and the
//! detection of a round in which nothing progressed. With no quotas
//! configured it is the weighted order's one-group case, which is plain
//! tasklet-level round-robin.

use jet_util::progress::Progress;
use std::ops::ControlFlow;

/// Per-job scheduling weights. A job's weight is the number of timeslice
/// turns it receives per scheduling cycle; unlisted jobs get
/// `default_weight`. Weights are clamped to at least 1 (a zero weight would
/// silently never schedule a job — starvation must be impossible by
/// construction).
#[derive(Debug, Clone)]
pub struct JobQuotas {
    weights: Vec<(u32, u32)>,
    default_weight: u32,
}

impl Default for JobQuotas {
    fn default() -> Self {
        JobQuotas::new()
    }
}

impl JobQuotas {
    pub fn new() -> JobQuotas {
        JobQuotas {
            weights: Vec::new(),
            default_weight: 1,
        }
    }

    /// Set `job`'s turns per scheduling cycle.
    pub fn with_weight(mut self, job: u32, weight: u32) -> JobQuotas {
        self.weights.retain(|(j, _)| *j != job);
        self.weights.push((job, weight.max(1)));
        self
    }

    /// Turns per cycle for jobs without an explicit weight.
    pub fn with_default_weight(mut self, weight: u32) -> JobQuotas {
        self.default_weight = weight.max(1);
        self
    }

    pub fn weight(&self, job: u32) -> u32 {
        self.weights
            .iter()
            .find(|(j, _)| *j == job)
            .map(|(_, w)| *w)
            .unwrap_or(self.default_weight)
            .max(1)
    }
}

struct Group<T> {
    job: u32,
    /// Turns this group receives per cycle (= its job's weight).
    turns: u32,
    /// The job's live tasklets, in the order they were pushed.
    tasklets: Vec<T>,
    /// Round-robin cursor within the group: the next tasklet to poll.
    rr: usize,
}

/// How a [`Schedule::run_round`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// At least one poll returned `MadeProgress` or `Done`.
    Progressed,
    /// Every live tasklet was polled and none progressed (or none is live):
    /// nothing can run until something outside this worker changes.
    Fruitless,
    /// The caller's poll function broke the round off (a spent time budget).
    Cut,
}

/// The scheduler shared by every executor: the tasklets of one worker (a
/// thread, or a virtual core of the simulator) and the order they are
/// polled in.
///
/// The order is weighted round-robin over *job groups*. One scheduling
/// cycle has one slot per turn of every job; slot order interleaves jobs —
/// for turn `t` in `0..max_weight`, every job with `weight > t` appears
/// once, jobs ascending — so a high-weight job is polled throughout the
/// cycle rather than in one burst. A slot polls the next tasklet of its
/// group, in the order they were pushed. Without quotas every tasklet is in
/// one group of weight 1 whatever its job id, which makes the order plain
/// tasklet round-robin (§3.2): push order, every live tasklet once a round.
///
/// A *round* is [`Schedule::round_len`] consecutive polls, enough for every
/// live tasklet to be polled at least once. A tasklet returning `Done` is
/// removed on the spot and its group's cursor stays on its successor, so
/// nothing is skipped; the round keeps the length it started with.
pub struct Schedule<T> {
    quotas: Option<JobQuotas>,
    /// Ascending by job; a group stays, empty, when its last tasklet is done.
    groups: Vec<Group<T>>,
    /// Group index per slot, one full cycle.
    slots: Vec<usize>,
    cursor: usize,
    len: usize,
    round_len: usize,
}

impl<T> Schedule<T> {
    pub fn new(quotas: Option<JobQuotas>) -> Schedule<T> {
        Schedule {
            quotas,
            groups: Vec::new(),
            slots: Vec::new(),
            cursor: 0,
            len: 0,
            round_len: 0,
        }
    }

    /// Add a tasklet of tenant job `job`
    /// ([`Tasklet::job`](crate::tasklet::Tasklet::job)); it is polled from
    /// the next round. The first tasklet of a job starts the cycle over.
    // jet-analyze: allow(alloc) — tasklets are placed at execution start, not per record
    pub fn push(&mut self, tasklet: T, job: u32) {
        let (job, turns) = match &self.quotas {
            Some(q) => (job, q.weight(job)),
            None => (0, 1),
        };
        let gi = match self.groups.binary_search_by_key(&job, |g| g.job) {
            Ok(gi) => gi,
            Err(gi) => {
                let group = Group {
                    job,
                    turns,
                    tasklets: Vec::new(),
                    rr: 0,
                };
                self.groups.insert(gi, group);
                let max_weight = self.groups.iter().map(|g| g.turns).max().unwrap_or(0);
                self.slots.clear();
                for turn in 0..max_weight {
                    for (gi, g) in self.groups.iter().enumerate() {
                        if g.turns > turn {
                            self.slots.push(gi);
                        }
                    }
                }
                self.cursor = 0;
                gi
            }
        };
        self.groups[gi].tasklets.push(tasklet);
        self.len += 1;
        self.round_len = self.coverage_polls();
    }

    /// Live tasklets.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live tasklets: jobs ascending, each job's in the order they were
    /// pushed (without quotas: in the order they were pushed).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.groups.iter().flat_map(|g| &g.tasklets)
    }

    /// Take the live tasklets back, in [`Schedule::iter`] order.
    // jet-analyze: cold — ends the schedule: runs once, after its last round
    pub fn into_tasklets(self) -> Vec<T> {
        self.groups.into_iter().flat_map(|g| g.tasklets).collect()
    }

    /// Slots in one scheduling cycle (= sum of the jobs' weights).
    pub fn cycle_len(&self) -> usize {
        self.slots.len()
    }

    /// Polls in the next round: the cycle length times the cycles the group
    /// needing the most of them takes to cover its tasklets
    /// (`ceil(tasklets / turns)`). Without quotas, the live tasklet count.
    pub fn round_len(&self) -> usize {
        self.round_len
    }

    /// Poll one round: call `poll` on [`Schedule::round_len`] tasklets in
    /// schedule order, removing each that returns `Done`. `poll` returns
    /// `Break` with its result to cut the round short after that poll.
    pub fn run_round(
        &mut self,
        mut poll: impl FnMut(&mut T) -> ControlFlow<Progress, Progress>,
    ) -> Round {
        let mut progressed = false;
        for _ in 0..self.round_len {
            let Some(gi) = self.next_group() else {
                break;
            };
            let g = &mut self.groups[gi];
            if g.rr >= g.tasklets.len() {
                g.rr = 0;
            }
            let flow = poll(&mut g.tasklets[g.rr]);
            let (ControlFlow::Continue(p) | ControlFlow::Break(p)) = flow;
            if p == Progress::Done {
                // The successor moves into the cursor's place.
                g.tasklets.remove(g.rr);
                self.len -= 1;
                self.round_len = self.coverage_polls();
            } else {
                g.rr += 1;
            }
            progressed |= p != Progress::NoProgress;
            if flow.is_break() {
                return Round::Cut;
            }
        }
        if progressed {
            Round::Progressed
        } else {
            Round::Fruitless
        }
    }

    /// The group whose turn it is: advance at most one full cycle of slots,
    /// skipping emptied groups; `None` means no tasklet is live.
    fn next_group(&mut self) -> Option<usize> {
        for _ in 0..self.slots.len() {
            let gi = self.slots[self.cursor];
            self.cursor += 1;
            if self.cursor == self.slots.len() {
                self.cursor = 0;
            }
            if !self.groups[gi].tasklets.is_empty() {
                return Some(gi);
            }
        }
        None
    }

    fn coverage_polls(&self) -> usize {
        let cycles = self
            .groups
            .iter()
            .map(|g| g.tasklets.len().div_ceil(g.turns as usize))
            .max()
            .unwrap_or(0);
        cycles * self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_default_and_clamp() {
        let q = JobQuotas::new().with_weight(1, 8).with_weight(2, 0);
        assert_eq!(q.weight(1), 8);
        assert_eq!(q.weight(2), 1, "zero weight clamps to 1");
        assert_eq!(q.weight(99), 1, "default weight");
        let q = q.with_default_weight(3);
        assert_eq!(q.weight(99), 3);
    }

    /// A schedule whose tasklets are their own push index, so a poll can
    /// report which one it was.
    fn schedule_of(jobs: &[u32], quotas: Option<JobQuotas>) -> Schedule<usize> {
        let mut s = Schedule::new(quotas);
        for (i, &job) in jobs.iter().enumerate() {
            s.push(i, job);
        }
        s
    }

    /// The tasklets one round polls, none of them finishing.
    fn round_order(s: &mut Schedule<usize>) -> Vec<usize> {
        let mut order = Vec::new();
        s.run_round(|t| {
            order.push(*t);
            ControlFlow::Continue(Progress::MadeProgress)
        });
        order
    }

    #[test]
    fn heavy_job_gets_weight_share_of_slots() {
        // Job 1 weight 4, jobs 2..=4 weight 1: cycle = 4 + 3 slots, and
        // job 1 holds 4 of the 7.
        let jobs = [1, 2, 3, 4];
        let q = JobQuotas::new().with_weight(1, 4);
        let mut s = schedule_of(&jobs, Some(q));
        assert_eq!(s.cycle_len(), 7);
        assert_eq!(s.round_len(), 7);
        let mut counts = [0usize; 5];
        for _ in 0..10 {
            for t in round_order(&mut s) {
                counts[jobs[t] as usize] += 1;
            }
        }
        assert_eq!(counts[1], 40);
        assert_eq!(counts[2], 10);
    }

    #[test]
    fn turns_interleave_rather_than_burst() {
        let mut s = schedule_of(&[1, 2], Some(JobQuotas::new().with_weight(1, 3)));
        // Cycle: turn 0 -> [job1, job2], turns 1,2 -> [job1]: 0 1 0 0.
        assert_eq!(round_order(&mut s), vec![0, 1, 0, 0]);
    }

    #[test]
    fn group_rr_covers_all_members_of_a_job() {
        // Job 1 has 3 tasklets at weight 1; job 2 has 1.
        let mut s = schedule_of(&[1, 1, 1, 2], Some(JobQuotas::new()));
        // One round = ceil(3/1) cycles * 2 slots = 6 polls.
        assert_eq!(s.round_len(), 6);
        let seen: std::collections::HashSet<usize> = round_order(&mut s).into_iter().collect();
        assert_eq!(seen.len(), 4, "every tasklet polled within a round");
    }

    #[test]
    fn no_quotas_is_index_order_whatever_the_job_ids() {
        let mut s = schedule_of(&[7, 3, 7, 0], None);
        assert_eq!(s.cycle_len(), 1);
        assert_eq!(round_order(&mut s), vec![0, 1, 2, 3]);
        assert_eq!(round_order(&mut s), vec![0, 1, 2, 3]);
    }

    #[test]
    fn done_removes_on_the_spot_and_skips_emptied_groups() {
        let mut s = schedule_of(&[1, 2, 2], Some(JobQuotas::new()));
        // Tasklet 0 is all of job 1: it finishes on its first poll.
        let mut order = Vec::new();
        let round = s.run_round(|t| {
            order.push(*t);
            ControlFlow::Continue(if *t == 0 {
                Progress::Done
            } else {
                Progress::NoProgress
            })
        });
        assert_eq!(round, Round::Progressed);
        // Round = ceil(2/1) cycles * 2 slots; job 1's slot is skipped once
        // it is empty, so job 2's members fill the rest alternately.
        assert_eq!(order, vec![0, 1, 2, 1]);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        let round = s.run_round(|_| ControlFlow::Continue(Progress::Done));
        assert_eq!(round, Round::Progressed);
        assert!(s.is_empty());
        assert_eq!(s.round_len(), 0);
        let round = s.run_round(|_| unreachable!("nothing is live"));
        assert_eq!(round, Round::Fruitless);
    }

    #[test]
    fn a_cut_round_resumes_at_the_successor() {
        let mut s = schedule_of(&[0, 0, 0], None);
        let mut order = Vec::new();
        let round = s.run_round(|t| {
            order.push(*t);
            ControlFlow::Break(Progress::NoProgress)
        });
        assert_eq!(round, Round::Cut);
        order.extend(round_order(&mut s));
        assert_eq!(order, vec![0, 1, 2, 0]);
    }

    #[test]
    fn a_tasklet_of_a_new_job_pushed_later_joins_the_cycle() {
        let mut s = schedule_of(&[1, 1], Some(JobQuotas::new().with_weight(2, 2)));
        assert_eq!(round_order(&mut s), vec![0, 1]);
        s.push(2, 2);
        assert_eq!(s.cycle_len(), 3);
        // Round = ceil(2/1) cycles of [job1, job2, job2].
        assert_eq!(round_order(&mut s), vec![0, 2, 2, 1, 2, 2]);
    }
}
