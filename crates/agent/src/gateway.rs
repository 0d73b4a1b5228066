//! The multi-tenant agent gateway: fleet-style online serving over
//! shared ripped UNGs.
//!
//! The *offline* phase (ripping the UNG) is provably deterministic; this
//! module is the online half — many concurrent agent tasks, from many
//! tenants, served against a handful of shared application models:
//!
//! - **Fairness policy.** Admission runs on [`FairQueue`]
//!   ([`dmi_core::parallel::fairness`]): one lane per tenant,
//!   urgent-first, then greatest cost-aware weight (queued backlog ×
//!   EWMA of the tenant's *simulated* task latency), ties round-robin.
//!   Because the serve EWMA is fed from deterministic simulated seconds
//!   (not wall clocks), the entire admission schedule is a pure function
//!   of the request list — reproducible run to run.
//! - **Pooled sessions.** Each app brings one *donor* session holding
//!   its pristine launch image. Tenant sessions are checked out of a
//!   per-app pool: an idle session is [`Session::recycle`]d back to
//!   launch state under the new tenant's instability model, or a fresh
//!   [`Session::fork_from_pristine`] fork is taken while the pool is
//!   under its cap. Every session keeps its own capture caches; none
//!   are shared across tenants. An app that cannot fork serves at
//!   capacity one on its donor; a session that cannot attest a pristine
//!   reset is forfeited, never reused.
//! - **Suspension at LLM-call boundaries.** Tasks run as resumable
//!   [`TaskState`] machines. Each scheduling round steps every in-flight
//!   task exactly once (on the worker pool when `workers > 1`, inline
//!   otherwise) and suspends it at the next LLM-call boundary. The
//!   round's calls form one [`LlmBatch`]: simulated model latency
//!   overlaps across tenants — the round costs its slowest call, not the
//!   sum — which is what turns N sequential task-times into a served
//!   throughput curve.
//! - **Deterministic virtual timeline.** Throughput and latency are
//!   accounted on a virtual clock advanced by `max` per round. Real
//!   thread completion order never feeds the clock, the fairness state,
//!   or any trace: the reported tasks/sec, p50/p99, and every per-task
//!   [`RunTrace`] are identical at every worker count and every
//!   concurrency level.
//!
//! # Trace-identity determinism argument
//!
//! A task's trace is a fold over its own LLM stream (seeded from the
//! task id and run seed alone) and its own session. The gateway changes
//! *where* the session comes from (pool instead of launch) and *when*
//! steps run (interleaved instead of back to back), but neither input:
//! recycling restores launch state under the tenant's own instability
//! model, and suspension points hold no RNG. Hence each task's
//! [`RunTrace`] is byte-identical to its single-session sequential run
//! at every concurrency level — the release-gated serve oracle in
//! `tests/identity.rs` asserts exactly this, and the fuzz harness drives
//! a drifting tenant through the same pools to prove failure stays
//! contained.

use crate::runner::{RunConfig, StepStatus, TaskState};
use crate::task::AgentTask;
use crate::trace::RunTrace;
use dmi_core::parallel::FairQueue;
use dmi_core::{Dmi, DmiBuildConfig};
use dmi_gui::Session;
use dmi_llm::LlmBatch;
use dmi_store::{Store, StoreError};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One served application: its identifier, the donor session holding the
/// pristine launch image tenant sessions fork from, and the shared
/// offline model every tenant of the app reads.
pub struct ServeApp {
    /// App identifier requests name via [`ServeRequest::app`].
    pub id: String,
    /// The donor session (pristine launch state).
    pub donor: Session,
    /// The ripped offline model, shared by reference across tenants.
    pub dmi: Option<Arc<Dmi>>,
}

impl ServeApp {
    /// Wraps a launched session as a servable app.
    pub fn new(id: impl Into<String>, donor: Session, dmi: Option<Arc<Dmi>>) -> ServeApp {
        ServeApp { id: id.into(), donor, dmi }
    }

    /// Warm-boots a servable app from a persistent [`Store`]: the DMI is
    /// rebuilt from the stored UNG (no rip).
    ///
    /// The stored rip's pristine signature must structurally match the
    /// live donor ([`StoreError::PristineMismatch`] otherwise): serving a
    /// model ripped from a different build would silently desynchronize
    /// traces from a rip-booted gateway. A missing or unreadable rip is
    /// the load's typed error ([`StoreError::Io`], `Truncated`,
    /// `Corrupt`, ...), never a panic.
    pub fn from_store(
        id: impl Into<String>,
        store: &Store,
        mut donor: Session,
        config: &DmiBuildConfig,
    ) -> Result<ServeApp, StoreError> {
        let id = id.into();
        let stored = store.load_rip(&id)?;
        if dmi_core::pristine_signature(&mut donor) != stored.pristine {
            return Err(StoreError::PristineMismatch { app: id });
        }
        let (dmi, _) = Dmi::from_ung(stored.ung, config);
        Ok(ServeApp { id, donor, dmi: Some(Arc::new(dmi)) })
    }
}

/// One tenant request: run `task` against `app` under `cfg`.
#[derive(Clone)]
pub struct ServeRequest {
    /// Tenant identifier (the fairness lane).
    pub tenant: String,
    /// Which [`ServeApp`] to run against.
    pub app: String,
    /// The task, shared so thousands of requests can reuse one
    /// definition.
    pub task: Arc<AgentTask>,
    /// The per-run configuration (profile, mode, seed, instability).
    pub cfg: RunConfig,
}

/// Gateway sizing.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Worker threads stepping suspended tasks. `0` or `1` steps inline
    /// on the caller thread (byte-identical results either way).
    pub workers: usize,
    /// Session-pool cap per app: the most tenant sessions one app keeps
    /// live at once.
    pub sessions_per_app: usize,
    /// Admission cap: the most tasks in flight at once (defaults to
    /// `4 × workers` when zero).
    pub max_in_flight: usize,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig { workers: 2, sessions_per_app: 4, max_in_flight: 0 }
    }
}

impl GatewayConfig {
    fn in_flight_cap(&self) -> usize {
        if self.max_in_flight > 0 {
            self.max_in_flight
        } else {
            self.workers.max(1) * 4
        }
    }
}

/// One request's result.
pub struct ServeOutcome {
    /// Tenant the task ran for.
    pub tenant: String,
    /// App it ran against.
    pub app: String,
    /// The run trace — byte-identical to the task's sequential run.
    /// `None` when the task could not produce one (panic, no session).
    pub trace: Option<RunTrace>,
    /// The contained fault when the task died without a trace: a worker
    /// panic payload or an admission error.
    pub fault: Option<String>,
    /// Virtual-clock admission time (requests all arrive at 0; the gap
    /// is queueing delay under admission control).
    pub admit_vt: f64,
    /// Virtual-clock completion time. Per-task serving latency is
    /// `finish_vt` itself, queueing included.
    pub finish_vt: f64,
}

/// Aggregate gateway counters for one [`Gateway::serve`] call.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests served (outcome count).
    pub tasks: usize,
    /// Requests that produced a trace.
    pub completed: usize,
    /// Requests that died to a contained fault.
    pub faulted: usize,
    /// Sessions forked fresh from a donor's pristine image.
    pub session_forks: usize,
    /// Sessions served from the pool via recycle.
    pub session_reuses: usize,
    /// Always 0. It remains only because the frozen benchmark
    /// (`dmibench/src/serve.rs`) reads it, and goes with that benchmark's
    /// next change.
    pub capture_pool_hits: u64,
    /// Always 0, like [`ServeStats::capture_pool_hits`].
    pub capture_pool_misses: u64,
    /// Scheduling rounds executed.
    pub rounds: usize,
    /// Virtual makespan: LLM latency with per-round batching overlap.
    pub virtual_secs: f64,
    /// The same calls run back to back (the no-overlap baseline).
    pub serialized_secs: f64,
    /// Real wall-clock seconds spent serving.
    pub wall_secs: f64,
}

impl ServeStats {
    /// Tasks per simulated second at the virtual makespan.
    pub fn tasks_per_sec(&self) -> f64 {
        if self.virtual_secs > 0.0 {
            self.completed as f64 / self.virtual_secs
        } else {
            0.0
        }
    }

    /// Session-pool hit rate: reuses over all checkouts.
    pub fn session_reuse_rate(&self) -> f64 {
        let total = self.session_forks + self.session_reuses;
        if total > 0 {
            self.session_reuses as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// The result of one [`Gateway::serve`] call: per-request outcomes in
/// request order plus aggregate counters.
pub struct ServeReport {
    /// One outcome per request, in the order requests were submitted.
    pub outcomes: Vec<ServeOutcome>,
    /// Aggregate counters.
    pub stats: ServeStats,
}

impl ServeReport {
    /// The `p`-th percentile (0–100) of per-task serving latency
    /// (virtual seconds, queueing included) over completed tasks.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let mut lat: Vec<f64> =
            self.outcomes.iter().filter(|o| o.trace.is_some()).map(|o| o.finish_vt).collect();
        if lat.is_empty() {
            return 0.0;
        }
        lat.sort_by(|a, b| a.total_cmp(b));
        let idx = ((p / 100.0) * (lat.len() - 1) as f64).round() as usize;
        lat[idx.min(lat.len() - 1)]
    }
}

/// The per-app session pool behind the gateway (see module docs).
struct AppPool {
    dmi: Option<Arc<Dmi>>,
    /// The fork source. `None` once lent to an unforkable checkout.
    donor: Option<Session>,
    /// Parked sessions awaiting recycle.
    idle: Vec<Session>,
    /// Sessions currently checked out.
    live: usize,
    cap: usize,
    forks: usize,
    reuses: usize,
}

impl AppPool {
    fn new(app: ServeApp, cap: usize) -> AppPool {
        AppPool {
            dmi: app.dmi,
            donor: Some(app.donor),
            idle: Vec::new(),
            live: 0,
            cap: cap.max(1),
            forks: 0,
            reuses: 0,
        }
    }

    /// Checks a session out for a tenant, preferring recycle over fork.
    /// `None` when the app is at capacity (try again when a flight
    /// lands).
    fn checkout(&mut self, cfg: &RunConfig) -> Option<Session> {
        while let Some(mut s) = self.idle.pop() {
            if s.recycle(cfg.instability_model()) {
                self.reuses += 1;
                self.live += 1;
                return Some(s);
            }
            // No pristine attestation: nothing proves the next tenant
            // would start from launch state. Forfeit the session.
        }
        if self.live >= self.cap {
            return None;
        }
        if let Some(donor) = &self.donor {
            if let Some(mut fork) = donor.fork_from_pristine() {
                // The fork inherited the donor's instability model;
                // retarget the still-undriven session to the tenant's.
                fork.set_instability(cfg.instability_model());
                self.forks += 1;
                self.live += 1;
                return Some(fork);
            }
        }
        // Unforkable app: lend the donor itself — capacity one, returned
        // through the idle pool and recycled like any other session. The
        // lend recycles too (the donor carries whatever model it was
        // built with); a donor that cannot attest pristine is forfeited
        // like any pooled session.
        if let Some(mut donor) = self.donor.take() {
            if donor.recycle(cfg.instability_model()) {
                self.live += 1;
                return Some(donor);
            }
        }
        None
    }

    /// Returns a finished session to the pool.
    fn checkin(&mut self, session: Session) {
        self.live -= 1;
        self.idle.push(session);
    }

    /// A checked-out session died with its task (worker panic).
    fn forfeit(&mut self) {
        self.live -= 1;
    }

    /// Whether a checkout could *ever* succeed again.
    fn exhausted(&self) -> bool {
        self.live == 0 && self.idle.is_empty() && self.donor.is_none()
    }
}

/// One queued request (its outcome slot rides along).
struct Pending {
    slot: usize,
    lane: usize,
    req: ServeRequest,
}

/// One in-flight task.
struct Flight {
    slot: usize,
    lane: usize,
    tenant: String,
    app: String,
    task: Arc<AgentTask>,
    state: Option<TaskState>,
    admit_vt: f64,
    sim_before: f64,
}

/// A step job shipped to a worker thread.
struct StepJob {
    pos: usize,
    state: TaskState,
    task: Arc<AgentTask>,
    dmi: Option<Arc<Dmi>>,
}

type StepReply = (usize, Result<(TaskState, StepStatus), String>);

fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

fn run_step(job: StepJob) -> StepReply {
    let StepJob { pos, mut state, task, dmi } = job;
    let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let status = state.step(&task, dmi.as_deref());
        (state, status)
    }));
    match stepped {
        Ok(ok) => (pos, Ok(ok)),
        Err(payload) => (pos, Err(panic_payload(payload.as_ref()))),
    }
}

fn worker_loop(jobs: Arc<Mutex<Receiver<StepJob>>>, replies: Sender<StepReply>) {
    loop {
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        if replies.send(run_step(job)).is_err() {
            return;
        }
    }
}

/// The multi-tenant gateway: holds the per-app session pools and serves
/// request batches against them.
pub struct Gateway {
    pools: BTreeMap<String, AppPool>,
    config: GatewayConfig,
}

impl Gateway {
    /// Builds a gateway over the given apps.
    pub fn new(apps: Vec<ServeApp>, config: GatewayConfig) -> Gateway {
        let cap = config.sessions_per_app;
        let pools = apps.into_iter().map(|a| (a.id.clone(), AppPool::new(a, cap))).collect();
        Gateway { pools, config }
    }

    /// Serves a batch of concurrent requests to completion, returning
    /// per-request outcomes (request order) and aggregate stats. All
    /// requests are considered to arrive at virtual time zero; admission
    /// control and fairness decide who waits.
    pub fn serve(&mut self, requests: Vec<ServeRequest>) -> ServeReport {
        let wall_start = Instant::now();
        let n = requests.len();
        let _serve_span = dmi_obs::span(dmi_obs::Cat::Gateway, "serve", n as u64);

        // Tenant lanes in first-appearance order (deterministic).
        let mut lane_of: BTreeMap<String, usize> = BTreeMap::new();
        let mut lanes = 0usize;
        let lane_ids: Vec<usize> = requests
            .iter()
            .map(|r| {
                *lane_of.entry(r.tenant.clone()).or_insert_with(|| {
                    lanes += 1;
                    lanes - 1
                })
            })
            .collect();
        let mut queue: FairQueue<Pending> = FairQueue::new(lanes);
        for (slot, (req, lane)) in requests.into_iter().zip(lane_ids).enumerate() {
            queue.push_back(lane, Pending { slot, lane, req });
            queue.set_depth(lane, queue.lane_len(lane) as u64);
        }

        let mut outcomes: Vec<Option<ServeOutcome>> = (0..n).map(|_| None).collect();
        let mut stats = ServeStats { tasks: n, ..ServeStats::default() };
        let mut in_flight: Vec<Flight> = Vec::new();
        let mut batch = LlmBatch::new();
        let mut vt = 0.0f64;

        // Worker pool (inline when 0/1 — identical results, see module
        // docs).
        let threaded = self.config.workers > 1;
        let (job_tx, reply_rx, worker_handles) = if threaded {
            let (jtx, jrx) = channel::<StepJob>();
            let (rtx, rrx) = channel::<StepReply>();
            let jrx = Arc::new(Mutex::new(jrx));
            let handles: Vec<_> = (0..self.config.workers)
                .map(|_| {
                    let jrx = Arc::clone(&jrx);
                    let rtx = rtx.clone();
                    std::thread::spawn(move || worker_loop(jrx, rtx))
                })
                .collect();
            (Some(jtx), Some(rrx), handles)
        } else {
            (None, None, Vec::new())
        };

        let cap = self.config.in_flight_cap();
        loop {
            // Admission: pop under the fairness policy while slots are
            // free; requests whose app is saturated go back to their
            // lane front (urgent — they were next in line).
            let mut blocked: Vec<Pending> = Vec::new();
            while in_flight.len() < cap {
                let Some(p) = queue.pop() else { break };
                queue.set_depth(p.lane, queue.lane_len(p.lane) as u64);
                let Some(pool) = self.pools.get_mut(&p.req.app) else {
                    outcomes[p.slot] = Some(ServeOutcome {
                        tenant: p.req.tenant.clone(),
                        app: p.req.app.clone(),
                        trace: None,
                        fault: Some(format!("unknown app `{}`", p.req.app)),
                        admit_vt: vt,
                        finish_vt: vt,
                    });
                    stats.faulted += 1;
                    continue;
                };
                match pool.checkout(&p.req.cfg) {
                    Some(session) => {
                        dmi_obs::tally("gateway.admitted", 1);
                        let state = TaskState::with_session(&p.req.task, session, &p.req.cfg);
                        let sim_before = state.sim_secs();
                        in_flight.push(Flight {
                            slot: p.slot,
                            lane: p.lane,
                            tenant: p.req.tenant.clone(),
                            app: p.req.app.clone(),
                            task: Arc::clone(&p.req.task),
                            state: Some(state),
                            admit_vt: vt,
                            sim_before,
                        });
                    }
                    None if pool.exhausted() => {
                        outcomes[p.slot] = Some(ServeOutcome {
                            tenant: p.req.tenant.clone(),
                            app: p.req.app.clone(),
                            trace: None,
                            fault: Some(format!(
                                "app `{}` has no serviceable sessions left",
                                p.req.app
                            )),
                            admit_vt: vt,
                            finish_vt: vt,
                        });
                        stats.faulted += 1;
                    }
                    None => blocked.push(p),
                }
            }
            for p in blocked.into_iter().rev() {
                let lane = p.lane;
                queue.push_front(lane, p);
                queue.set_depth(lane, queue.lane_len(lane) as u64);
            }

            if in_flight.is_empty() {
                if queue.is_empty() {
                    break;
                }
                // Backlog remains but nothing is in flight and nothing
                // could be admitted: every remaining app is wedged.
                while let Some(p) = queue.pop() {
                    outcomes[p.slot] = Some(ServeOutcome {
                        tenant: p.req.tenant.clone(),
                        app: p.req.app.clone(),
                        trace: None,
                        fault: Some(format!(
                            "app `{}` has no serviceable sessions left",
                            p.req.app
                        )),
                        admit_vt: vt,
                        finish_vt: vt,
                    });
                    stats.faulted += 1;
                }
                break;
            }

            // One scheduling round: step every in-flight task once,
            // suspending each at its next LLM-call boundary. The round's
            // calls batch — virtual time advances by the slowest.
            stats.rounds += 1;
            let round_start = dmi_obs::now_us();
            let mut replies: Vec<StepReply> = Vec::with_capacity(in_flight.len());
            if threaded {
                let tx = job_tx.as_ref().expect("job channel");
                let rx = reply_rx.as_ref().expect("reply channel");
                let mut sent = 0usize;
                for (pos, f) in in_flight.iter_mut().enumerate() {
                    let state = f.state.take().expect("state present between rounds");
                    f.sim_before = state.sim_secs();
                    let dmi = self.pools.get(&f.app).and_then(|p| p.dmi.clone());
                    tx.send(StepJob { pos, state, task: Arc::clone(&f.task), dmi })
                        .expect("workers alive");
                    sent += 1;
                }
                for _ in 0..sent {
                    replies.push(rx.recv().expect("worker reply"));
                }
            } else {
                for (pos, f) in in_flight.iter_mut().enumerate() {
                    let state = f.state.take().expect("state present between rounds");
                    f.sim_before = state.sim_secs();
                    let dmi = self.pools.get(&f.app).and_then(|p| p.dmi.clone());
                    replies.push(run_step(StepJob { pos, state, task: Arc::clone(&f.task), dmi }));
                }
            }
            // Deterministic settlement order regardless of worker timing.
            replies.sort_by_key(|(pos, _)| *pos);

            let mut finished: Vec<(usize, Result<TaskState, String>)> = Vec::new();
            for (pos, reply) in replies {
                match reply {
                    Ok((state, status)) => {
                        batch.push(state.sim_secs() - in_flight[pos].sim_before);
                        if status == StepStatus::Finished {
                            finished.push((pos, Ok(state)));
                        } else {
                            in_flight[pos].state = Some(state);
                        }
                    }
                    Err(payload) => finished.push((pos, Err(payload))),
                }
            }
            let (overlapped, serialized) = batch.settle();
            let vt_before = vt;
            vt += overlapped;
            stats.virtual_secs += overlapped;
            stats.serialized_secs += serialized;
            dmi_obs::complete_span(
                dmi_obs::Cat::Gateway,
                "round",
                stats.rounds as u64,
                round_start,
                dmi_obs::now_us(),
            );
            dmi_obs::vt_span(dmi_obs::Cat::Gateway, "round.vt", stats.rounds as u64, vt_before, vt);

            // Land finished flights (descending position keeps
            // swap_remove indices valid).
            finished.sort_by_key(|(pos, _)| std::cmp::Reverse(*pos));
            for (pos, result) in finished {
                let f = in_flight.swap_remove(pos);
                match result {
                    Ok(state) => {
                        let (trace, session) = state.finish(&f.task);
                        let pool = self.pools.get_mut(&f.app).expect("pool exists");
                        pool.checkin(session);
                        // Feed the tenant's cost model from deterministic
                        // simulated latency.
                        queue.observe_latency(f.lane, trace.sim_secs);
                        stats.completed += 1;
                        dmi_obs::tally("gateway.completed", 1);
                        dmi_obs::vt_span(
                            dmi_obs::Cat::Gateway,
                            "task",
                            f.lane as u64,
                            f.admit_vt,
                            vt,
                        );
                        outcomes[f.slot] = Some(ServeOutcome {
                            tenant: f.tenant.clone(),
                            app: f.app.clone(),
                            trace: Some(trace),
                            fault: None,
                            admit_vt: f.admit_vt,
                            finish_vt: vt,
                        });
                    }
                    Err(payload) => {
                        // The session died mid-unwind with its task; the
                        // pool shrinks, sibling tenants are untouched.
                        let pool = self.pools.get_mut(&f.app).expect("pool exists");
                        pool.forfeit();
                        stats.faulted += 1;
                        dmi_obs::tally("gateway.faulted", 1);
                        dmi_obs::instant(dmi_obs::Cat::Gateway, "task.fault", f.lane as u64);
                        outcomes[f.slot] = Some(ServeOutcome {
                            tenant: f.tenant.clone(),
                            app: f.app.clone(),
                            trace: None,
                            fault: Some(payload),
                            admit_vt: f.admit_vt,
                            finish_vt: vt,
                        });
                    }
                }
            }
        }

        drop(job_tx);
        for h in worker_handles {
            let _ = h.join();
        }

        for pool in self.pools.values_mut() {
            stats.session_forks += pool.forks;
            stats.session_reuses += pool.reuses;
            pool.forks = 0;
            pool.reuses = 0;
        }
        stats.wall_secs = wall_start.elapsed().as_secs_f64();

        let outcomes: Vec<ServeOutcome> = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.unwrap_or_else(|| panic!("request {i} produced no outcome")))
            .collect();
        ServeReport { outcomes, stats }
    }
}
