//! The multi-tenant agent gateway: online serving over shared ripped
//! UNGs.
//!
//! The *offline* phase (ripping the UNG) is provably deterministic; this
//! module is the online half — many concurrent agent tasks, from many
//! tenants, served against a handful of shared application models. One
//! inline loop on the caller thread does all of it:
//!
//! - **Admission in request order.** Requests wait in one queue in the
//!   order they were submitted. While the in-flight cap has room, the
//!   loop admits from the front; a request whose app has no free session
//!   is passed over and keeps its place at the front for the next round.
//!   A request whose task targets a different Office app than the pool's
//!   donor, or a GUI+DMI request to an app served without a DMI model, is
//!   rejected here, before any session is checked out.
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
//!   [`TaskState`] machines. Each round steps every in-flight task once,
//!   in place and under `catch_unwind`, and suspends it at the next
//!   LLM-call boundary. A task's setup and its closing verification run
//!   under `catch_unwind` too, so no task's panic reaches its siblings.
//!   The round's calls share one simulated provider round: model
//!   latency overlaps across tenants, so the round costs its slowest
//!   call, not the sum. That is what turns N sequential task-times into
//!   a served throughput curve.
//! - **Deterministic virtual timeline.** Throughput and latency are
//!   accounted on a virtual clock that the loop advances by the round's
//!   slowest step. The clock, the admission order and every per-task
//!   [`RunTrace`] are pure functions of the request list.
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
use dmi_apps::AppKind;
use dmi_core::panic_payload;
use dmi_core::{Dmi, DmiBuildConfig};
use dmi_gui::Session;
use dmi_store::{Store, StoreError};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
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
    /// Tenant identifier, echoed back in the outcome. Admission does not
    /// read it: requests are served in submission order.
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
    /// Ignored: every round is stepped inline on the caller thread. It
    /// remains only because the frozen benchmark (`dmibench/src/serve.rs`)
    /// sets it, and goes with that benchmark's next change.
    pub workers: usize,
    /// Session-pool cap per app: the most tenant sessions one app keeps
    /// live at once.
    pub sessions_per_app: usize,
    /// Admission cap: the most tasks in flight at once (at least 1).
    pub max_in_flight: usize,
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
    /// The contained fault when the task died without a trace: a step's
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
    /// The Office app the donor runs; `None` for any other app, whose
    /// requests are not checked against the task's target.
    kind: Option<AppKind>,
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
            kind: AppKind::of(app.donor.app()),
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
            if let Some(fork) = donor.fork_from_pristine(cfg.instability_model()) {
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

    /// A checked-out session died with its task (a step panicked).
    fn forfeit(&mut self) {
        self.live -= 1;
    }

    /// Whether a checkout could *ever* succeed again.
    fn exhausted(&self) -> bool {
        self.live == 0 && self.idle.is_empty() && self.donor.is_none()
    }
}

/// One in-flight task: its request, its outcome slot and its suspended
/// state.
struct Flight {
    slot: usize,
    req: ServeRequest,
    state: TaskState,
    admit_vt: f64,
}

/// The outcome of a request that died without a trace.
fn fault_outcome(req: ServeRequest, fault: String, admit_vt: f64, finish_vt: f64) -> ServeOutcome {
    ServeOutcome {
        tenant: req.tenant,
        app: req.app,
        trace: None,
        fault: Some(fault),
        admit_vt,
        finish_vt,
    }
}

fn no_sessions_left(app: &str) -> String {
    format!("app `{app}` has no serviceable sessions left")
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
    /// requests are considered to arrive at virtual time zero; they are
    /// admitted in request order as in-flight slots and sessions free up.
    pub fn serve(&mut self, requests: Vec<ServeRequest>) -> ServeReport {
        let wall_start = Instant::now();
        let n = requests.len();
        let _serve_span = dmi_obs::span(dmi_obs::Cat::Gateway, "serve", n as u64);

        let mut queue: VecDeque<(usize, ServeRequest)> = requests.into_iter().enumerate().collect();
        let mut outcomes: Vec<Option<ServeOutcome>> = (0..n).map(|_| None).collect();
        let mut stats = ServeStats { tasks: n, ..ServeStats::default() };
        let mut in_flight: Vec<Flight> = Vec::new();
        let mut vt = 0.0f64;
        let cap = self.config.max_in_flight.max(1);

        loop {
            // Admission in request order while slots are free. A request
            // whose app is saturated is passed over and keeps its place
            // at the front of the queue.
            let mut blocked: Vec<(usize, ServeRequest)> = Vec::new();
            while in_flight.len() < cap {
                let Some((slot, req)) = queue.pop_front() else { break };
                let fault = match self.pools.get_mut(&req.app) {
                    None => format!("unknown app `{}`", req.app),
                    Some(AppPool { kind: Some(kind), .. }) if *kind != req.task.app => format!(
                        "app `{}` runs {kind}, but task `{}` targets {}",
                        req.app, req.task.id, req.task.app
                    ),
                    Some(pool) if req.cfg.mode.has_dmi() && pool.dmi.is_none() => {
                        format!("app `{}` has no DMI model for a GUI+DMI request", req.app)
                    }
                    Some(pool) => match pool.checkout(&req.cfg) {
                        Some(session) => {
                            let setup = catch_unwind(AssertUnwindSafe(|| {
                                TaskState::with_session(&req.task, session, &req.cfg)
                            }));
                            match setup {
                                Ok(state) => {
                                    dmi_obs::tally("gateway.admitted", 1);
                                    in_flight.push(Flight { slot, req, state, admit_vt: vt });
                                    continue;
                                }
                                // The session died with the task's setup.
                                Err(payload) => {
                                    pool.forfeit();
                                    panic_payload(payload.as_ref())
                                }
                            }
                        }
                        None if pool.exhausted() => no_sessions_left(&req.app),
                        None => {
                            blocked.push((slot, req));
                            continue;
                        }
                    },
                };
                outcomes[slot] = Some(fault_outcome(req, fault, vt, vt));
                stats.faulted += 1;
            }
            for p in blocked.into_iter().rev() {
                queue.push_front(p);
            }

            if in_flight.is_empty() {
                // Backlog may remain with nothing in flight and nothing
                // admitted: every remaining app is wedged.
                for (slot, req) in queue.drain(..) {
                    let fault = no_sessions_left(&req.app);
                    outcomes[slot] = Some(fault_outcome(req, fault, vt, vt));
                    stats.faulted += 1;
                }
                break;
            }

            // One round: step every in-flight task once, suspending each
            // at its next LLM-call boundary. The round's calls overlap, so
            // virtual time advances by the slowest step.
            stats.rounds += 1;
            let round_start = dmi_obs::now_us();
            let (mut calls, mut overlapped, mut serialized) = (0u64, 0.0f64, 0.0f64);
            let mut landed: Vec<(usize, Option<String>)> = Vec::new();
            for (pos, f) in in_flight.iter_mut().enumerate() {
                let dmi = self.pools[&f.req.app].dmi.as_deref();
                let before = f.state.sim_secs();
                match catch_unwind(AssertUnwindSafe(|| f.state.step(&f.req.task, dmi))) {
                    Ok(status) => {
                        let secs = f.state.sim_secs() - before;
                        calls += 1;
                        overlapped = overlapped.max(secs);
                        serialized += secs;
                        if status == StepStatus::Finished {
                            landed.push((pos, None));
                        }
                    }
                    Err(payload) => landed.push((pos, Some(panic_payload(payload.as_ref())))),
                }
            }
            if calls > 0 {
                dmi_obs::tally("llm.calls", calls);
                dmi_obs::tally("llm.overlapped_us", (overlapped * 1e6).round() as u64);
                dmi_obs::tally("llm.serialized_us", (serialized * 1e6).round() as u64);
                dmi_obs::instant(dmi_obs::Cat::Llm, "batch.settle", calls);
            }
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
            // swap_remove indices valid). Verification runs the task's own
            // verifier, so it is contained like a step.
            for (pos, fault) in landed.into_iter().rev() {
                let Flight { slot, req, state, admit_vt } = in_flight.swap_remove(pos);
                let pool = self.pools.get_mut(&req.app).expect("pool exists");
                let finished = match fault {
                    None => catch_unwind(AssertUnwindSafe(|| state.finish(&req.task)))
                        .map_err(|payload| panic_payload(payload.as_ref())),
                    Some(payload) => Err(payload),
                };
                match finished {
                    Ok((trace, session)) => {
                        pool.checkin(session);
                        stats.completed += 1;
                        dmi_obs::tally("gateway.completed", 1);
                        dmi_obs::vt_span(dmi_obs::Cat::Gateway, "task", slot as u64, admit_vt, vt);
                        outcomes[slot] = Some(ServeOutcome {
                            tenant: req.tenant,
                            app: req.app,
                            trace: Some(trace),
                            fault: None,
                            admit_vt,
                            finish_vt: vt,
                        });
                    }
                    Err(payload) => {
                        // The session died mid-unwind with its task; the
                        // pool shrinks, sibling tenants are untouched.
                        pool.forfeit();
                        stats.faulted += 1;
                        dmi_obs::tally("gateway.faulted", 1);
                        dmi_obs::instant(dmi_obs::Cat::Gateway, "task.fault", slot as u64);
                        outcomes[slot] = Some(fault_outcome(req, payload, admit_vt, vt));
                    }
                }
            }
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
