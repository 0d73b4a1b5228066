//! The deterministic multi-queue fairness policy the online gateway
//! ([`dmi_agent::gateway`] downstream) admits tenants with.
//!
//! Many lanes (tenants) contend for a fixed number of service slots, and
//! the pick must be a *pure function of queue state* so fairness can
//! shape latency without ever shaping bytes. [`FairQueue`] implements
//! that policy:
//!
//! 1. **Urgent first.** Lanes with urgent work (a task handed back
//!    unserved) win outright, rotated round-robin among themselves.
//! 2. **Greatest weight next.** Among backlogged lanes, the pop serves
//!    the lane with the greatest weight. The weight is **cost-aware**:
//!    `depth × EWMA(task latency)` — the lane's reported remaining depth
//!    (queued tenant tasks) scaled by an exponentially weighted moving
//!    average of its recently observed per-task latency, i.e. an
//!    estimate of *remaining work seconds*, not remaining task count.
//!    Until a lane has any latency observations its EWMA reads the
//!    queue-wide mean of the *primed* lanes' averages — an unmeasured
//!    lane is assumed as expensive as the measured ones. With no primed
//!    lane anywhere the fallback is 1.0, a depth-only policy.
//! 3. **Ties round-robin.** A rotating cursor breaks exact weight ties,
//!    so equal lanes interleave instead of starving.
//!
//! The policy is deterministic *given* the latency observations, and the
//! per-task run traces layered on top are byte-identical under **every**
//! service order; the serve trace-identity oracle in `tests/identity.rs`
//! gates exactly that.

use std::collections::VecDeque;

/// An exponentially weighted moving average of per-task latency seconds.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    /// Smoothing factor in `(0, 1]`: the weight of the newest sample.
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A fresh average with the given smoothing factor.
    pub fn new(alpha: f64) -> Ewma {
        Ewma { alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0), value: None }
    }

    /// Folds one latency sample in (non-finite or negative samples are
    /// ignored — a wall clock that jumped backwards must not poison the
    /// average).
    pub fn observe(&mut self, secs: f64) {
        if !secs.is_finite() || secs < 0.0 {
            return;
        }
        self.value = Some(match self.value {
            None => secs,
            Some(v) => v + self.alpha * (secs - v),
        });
    }

    /// The current average, or `default` before any sample landed.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Whether any sample has been folded in.
    pub fn primed(&self) -> bool {
        self.value.is_some()
    }
}

impl Default for Ewma {
    /// The default smoothing (α = 0.2) reacts within a handful of tasks
    /// without chasing single outliers.
    fn default() -> Ewma {
        Ewma::new(0.2)
    }
}

/// One lane of the multi-queue.
struct Lane<T> {
    tasks: VecDeque<T>,
    /// Tasks at the lane front a consumer is blocked on right now.
    urgent: usize,
    /// Lane-reported remaining depth (queued tenant tasks).
    depth: u64,
    /// Observed per-task latency average (cost model).
    ewma: Ewma,
}

impl<T> Lane<T> {
    /// The cost-aware fairness weight: estimated remaining work seconds.
    /// `default_cost` seeds the estimate while the lane's own EWMA is
    /// unprimed (see [`FairQueue::default_cost`]).
    fn weight(&self, default_cost: f64) -> f64 {
        self.depth as f64 * self.ewma.value_or(default_cost)
    }
}

/// A deterministic multi-queue: one sub-queue per lane, popped under the
/// urgent-first / greatest-weight / round-robin-ties policy.
pub struct FairQueue<T> {
    lanes: Vec<Lane<T>>,
    /// Round-robin cursor breaking weight ties deterministically.
    rr: usize,
}

impl<T> FairQueue<T> {
    /// An empty multi-queue with `lanes` sub-queues.
    pub fn new(lanes: usize) -> FairQueue<T> {
        FairQueue {
            lanes: (0..lanes)
                .map(|_| Lane {
                    tasks: VecDeque::new(),
                    urgent: 0,
                    depth: 0,
                    ewma: Ewma::default(),
                })
                .collect(),
            rr: 0,
        }
    }

    /// Queued tasks in one lane.
    pub fn lane_len(&self, lane: usize) -> usize {
        self.lanes[lane].tasks.len()
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.tasks.is_empty())
    }

    /// Enqueues a must-run-next task at the front of its lane, preferred
    /// over every backlog.
    pub fn push_front(&mut self, lane: usize, task: T) {
        let l = &mut self.lanes[lane];
        l.tasks.push_front(task);
        l.urgent += 1;
    }

    /// Enqueues a task behind its lane's backlog.
    pub fn push_back(&mut self, lane: usize, task: T) {
        self.lanes[lane].tasks.push_back(task);
    }

    /// Updates a lane's reported remaining depth (the count half of the
    /// cost-aware weight).
    pub fn set_depth(&mut self, lane: usize, depth: u64) {
        self.lanes[lane].depth = depth;
    }

    /// Folds one observed per-task latency into the lane's cost model
    /// (the seconds half of the cost-aware weight).
    pub fn observe_latency(&mut self, lane: usize, secs: f64) {
        self.lanes[lane].ewma.observe(secs);
    }

    /// The cold-start cost estimate for unprimed lanes: the mean of the
    /// primed lanes' EWMAs, i.e. completed tasks anywhere in the queue
    /// seed the cost model of lanes that have not finished one yet.
    /// Before *any* task completes it is 1.0, degrading to the depth-only
    /// policy.
    fn default_cost(&self) -> f64 {
        let (sum, n) = self
            .lanes
            .iter()
            .filter(|l| l.ewma.primed())
            .fold((0.0f64, 0u32), |(s, n), l| (s + l.ewma.value_or(0.0), n + 1));
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }

    /// Pops the next task under the policy: urgent lanes first
    /// (round-robin), then the non-empty lane with the greatest
    /// cost-aware weight, exact ties resolved by the rotating cursor.
    pub fn pop(&mut self) -> Option<T> {
        let n = self.lanes.len();
        for off in 0..n {
            let i = (self.rr + off) % n;
            if self.lanes[i].urgent > 0 {
                self.lanes[i].urgent -= 1;
                self.rr = (i + 1) % n;
                return self.lanes[i].tasks.pop_front();
            }
        }
        let dc = self.default_cost();
        let mut best: Option<usize> = None;
        for off in 0..n {
            let i = (self.rr + off) % n;
            if self.lanes[i].tasks.is_empty() {
                continue;
            }
            if best.is_none_or(|b| self.lanes[i].weight(dc) > self.lanes[b].weight(dc)) {
                best = Some(i);
            }
        }
        let i = best?;
        self.rr = (i + 1) % n;
        self.lanes[i].tasks.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urgent_tasks_win_over_any_backlog() {
        let mut q: FairQueue<&str> = FairQueue::new(2);
        q.push_back(0, "backlog-a");
        q.set_depth(0, 100);
        q.push_front(1, "urgent-b");
        assert_eq!(q.pop(), Some("urgent-b"));
        assert_eq!(q.pop(), Some("backlog-a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn unprimed_lanes_fall_back_to_depth_order() {
        let mut q: FairQueue<u32> = FairQueue::new(3);
        q.push_back(0, 0);
        q.push_back(1, 1);
        q.push_back(2, 2);
        q.set_depth(0, 1);
        q.set_depth(1, 9);
        q.set_depth(2, 4);
        assert_eq!(q.pop(), Some(1), "deepest lane first when no latency is observed");
    }

    #[test]
    fn cost_awareness_prefers_expensive_lanes_at_equal_depth() {
        let mut q: FairQueue<u32> = FairQueue::new(2);
        q.push_back(0, 0);
        q.push_back(1, 1);
        q.set_depth(0, 4);
        q.set_depth(1, 4);
        // Lane 1's tasks take 10x longer: it holds more remaining *work*
        // at equal depth, so it is served first.
        q.observe_latency(0, 0.1);
        q.observe_latency(1, 1.0);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(0));
    }

    #[test]
    fn cost_awareness_can_invert_depth_order() {
        let mut q: FairQueue<u32> = FairQueue::new(2);
        q.push_back(0, 0);
        q.push_back(1, 1);
        // Lane 0 is shallower but far slower per task.
        q.set_depth(0, 2);
        q.set_depth(1, 6);
        q.observe_latency(0, 9.0);
        q.observe_latency(1, 1.0);
        assert_eq!(q.pop(), Some(0), "2 tasks x 9s outweigh 6 tasks x 1s");
    }

    #[test]
    fn exact_ties_rotate_round_robin() {
        let mut q: FairQueue<u32> = FairQueue::new(2);
        for round in 0..3u32 {
            q.push_back(0, round * 10);
            q.push_back(1, round * 10 + 1);
        }
        q.set_depth(0, 5);
        q.set_depth(1, 5);
        let picks: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(picks, vec![0, 1, 10, 11, 20, 21], "equal lanes interleave");
    }

    #[test]
    fn ewma_tracks_and_rejects_garbage() {
        let mut e = Ewma::new(0.5);
        assert!(!e.primed());
        assert_eq!(e.value_or(1.0), 1.0);
        e.observe(4.0);
        assert_eq!(e.value_or(1.0), 4.0, "first sample adopted directly");
        e.observe(2.0);
        assert_eq!(e.value_or(1.0), 3.0);
        e.observe(f64::NAN);
        e.observe(-5.0);
        assert_eq!(e.value_or(1.0), 3.0, "non-finite and negative samples ignored");
    }

    #[test]
    fn cold_start_seeds_unprimed_lanes_from_completed_tasks() {
        let mut q: FairQueue<u32> = FairQueue::new(2);
        q.push_back(0, 0);
        q.push_back(1, 1);
        q.set_depth(0, 4);
        q.set_depth(1, 5);
        // Lane 0 has completed tasks at 10s each; lane 1 has none yet.
        // The old constant-1.0 fallback scored lane 1 at 5.0 against lane
        // 0's 40.0 — a fresh lane was starved purely for being
        // unmeasured. Seeded from the observed costs, lane 1 reads
        // 5 x 10 = 50 > 40 and is served first.
        q.observe_latency(0, 10.0);
        assert_eq!(q.default_cost(), 10.0);
        assert_eq!(q.pop(), Some(1), "unmeasured lane assumed as expensive as measured ones");
        assert_eq!(q.pop(), Some(0));
    }

    #[test]
    fn default_cost_is_the_mean_of_primed_lanes_and_one_before_any() {
        let mut q: FairQueue<u32> = FairQueue::new(3);
        assert_eq!(q.default_cost(), 1.0, "no observations anywhere: depth-only policy");
        q.observe_latency(0, 2.0);
        q.observe_latency(2, 6.0);
        assert_eq!(q.default_cost(), 4.0, "mean of the primed lanes only");
    }
}
