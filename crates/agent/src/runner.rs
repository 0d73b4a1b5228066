//! The top-level task runner: UFO-2 skeleton around the mode-specific
//! agent loops, producing a [`RunTrace`] per `(task, mode, profile, seed)`.
//!
//! The skeleton is a resumable state machine, [`TaskState`]: each
//! [`TaskState::step`] performs one bounded quantum of work ending at an
//! LLM-call boundary — the HostAgent call, one AppAgent turn, one
//! verification call — and returns control to the caller. The sequential
//! [`run_task`] drives the machine to completion on one thread; the
//! multi-tenant gateway ([`crate::gateway`]) suspends tasks between
//! steps to overlap simulated model latency across tenants. Both paths
//! execute the identical step sequence against the identical per-task
//! RNG stream, so their [`RunTrace`]s are byte-identical by
//! construction — the serve oracle in `tests/identity.rs` gates it.

use crate::dmi_agent;
use crate::task::AgentTask;
use crate::trace::RunTrace;
use crate::ufo;
use dmi_core::{tokens, Dmi};
use dmi_gui::{InstabilityModel, Session};
use dmi_llm::{CapabilityProfile, FailureCause, InterfaceMode, SimLlm};
use std::sync::Arc;

/// Configuration for one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The LLM capability profile.
    pub profile: CapabilityProfile,
    /// The interface condition.
    pub mode: InterfaceMode,
    /// Run seed (the paper averages 3 runs).
    pub seed: u64,
    /// Step cap (paper: 30).
    pub step_cap: usize,
    /// Launch small app instances (fast tests) instead of full-size.
    pub small_apps: bool,
    /// UI instability: (late-load probability, name-variation
    /// probability).
    pub instability: (f64, f64),
}

impl RunConfig {
    /// The evaluation defaults (§5.1 methodology).
    pub fn evaluation(profile: CapabilityProfile, mode: InterfaceMode, seed: u64) -> Self {
        RunConfig {
            profile,
            mode,
            seed,
            step_cap: 30,
            small_apps: false,
            instability: (0.06, 0.02),
        }
    }

    /// Fast test configuration on small apps.
    pub fn test(profile: CapabilityProfile, mode: InterfaceMode, seed: u64) -> Self {
        RunConfig { profile, mode, seed, step_cap: 30, small_apps: true, instability: (0.0, 0.0) }
    }

    /// The instability model a run under this configuration applies to
    /// its session — the single definition shared by the sequential
    /// runner's launch and the gateway's per-task fork, so both paths
    /// perturb the UI identically.
    pub fn instability_model(&self) -> InstabilityModel {
        InstabilityModel::new(self.seed.wrapping_add(17), self.instability.0, self.instability.1)
    }
}

/// HostAgent prompt cost.
const HOST_PROMPT_TOKENS: usize = 600;
/// Verification prompt cost (AppAgent + HostAgent closing calls).
const VERIFY_PROMPT_TOKENS: usize = 800;

/// What a [`TaskState::step`] left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// More steps remain; the task can be suspended here.
    Running,
    /// The run ended — call [`TaskState::finish`].
    Finished,
}

/// The phase the resumable skeleton is suspended in.
enum Phase {
    /// Before the HostAgent decomposition call.
    Host,
    /// In the GUI (or GUI+forest) AppAgent loop.
    Gui(ufo::GuiState),
    /// In the DMI AppAgent loop.
    Dmi(dmi_agent::DmiState),
    /// The two closing verification calls (0 = AppAgent, 1 = HostAgent).
    Verify(u8),
    Done,
}

/// One suspended agent task: the per-task simulated LLM (its RNG stream,
/// token ledger, and latency clock), the GUI session it drives, and the
/// phase to resume in.
pub struct TaskState {
    llm: SimLlm,
    session: Session,
    phase: Phase,
    /// `(failure, completed, fallback_used)` from the AppAgent loop.
    outcome: (Option<FailureCause>, bool, bool),
    cfg: RunConfig,
}

impl TaskState {
    /// Builds a fresh task: launches the app, applies the configured
    /// instability, runs the task's setup. No LLM work happens here.
    pub fn new(task: &AgentTask, cfg: &RunConfig) -> TaskState {
        let app = if cfg.small_apps { task.app.launch_small() } else { task.app.launch() };
        let session = Session::with_instability(app, cfg.instability_model());
        TaskState::with_session(task, session, cfg)
    }

    /// Builds a task on a caller-provided session — the gateway's fresh
    /// fork of the app's donor. The session must be indistinguishable
    /// from a fresh launch of the task's app with
    /// [`RunConfig::instability_model`] applied
    /// (`Session::fork_from_pristine` establishes exactly that); the
    /// serve trace-identity oracle gates the equivalence end to end.
    pub fn with_session(task: &AgentTask, mut session: Session, cfg: &RunConfig) -> TaskState {
        let llm = SimLlm::new(cfg.profile.clone(), cfg.mode, &task.id, cfg.seed);
        if let Some(setup) = task.setup {
            setup(&mut session);
        }
        TaskState {
            llm,
            session,
            phase: Phase::Host,
            outcome: (None, false, false),
            cfg: cfg.clone(),
        }
    }

    /// Simulated seconds of model latency accumulated so far.
    pub fn sim_secs(&self) -> f64 {
        self.llm.clock_secs
    }

    /// Performs one quantum of work, stopping at the next LLM-call
    /// boundary.
    ///
    /// `dmi` must be the offline model for the task's app when the mode
    /// uses forest knowledge or the declarative interfaces — the same
    /// shared [`Arc`] every tenant of the app reads.
    pub fn step(&mut self, task: &AgentTask, dmi: Option<&Dmi>) -> StepStatus {
        match &mut self.phase {
            Phase::Host => {
                // Step 1: HostAgent decomposes the task and activates the
                // app, then the AppAgent prepares its plan (the first
                // RNG consumption — order is part of the trace identity).
                self.llm.record_call(HOST_PROMPT_TOKENS + tokens::count(&task.description), 60);
                self.phase = match self.cfg.mode {
                    InterfaceMode::GuiOnly | InterfaceMode::GuiPlusForest => {
                        let forest_tokens = if self.cfg.mode.has_forest_knowledge() {
                            dmi.map(|d| d.core_tokens()).unwrap_or(0)
                        } else {
                            0
                        };
                        Phase::Gui(ufo::GuiState::plan(task, &mut self.llm, forest_tokens))
                    }
                    InterfaceMode::GuiPlusDmi => {
                        Phase::Dmi(dmi_agent::DmiState::plan(task, &mut self.llm))
                    }
                };
                StepStatus::Running
            }
            Phase::Gui(state) => {
                match state.turn(&mut self.session, &mut self.llm, self.cfg.step_cap) {
                    None => StepStatus::Running,
                    Some(r) => {
                        self.outcome = (r.failure, r.completed, false);
                        self.phase = Phase::Verify(0);
                        StepStatus::Running
                    }
                }
            }
            Phase::Dmi(state) => {
                let d = dmi.expect("GUI+DMI requires the offline DMI model");
                match state.step(&mut self.session, &mut self.llm, d, self.cfg.step_cap) {
                    None => StepStatus::Running,
                    Some(r) => {
                        self.outcome = (r.failure, r.completed, r.fallback_used);
                        self.phase = Phase::Verify(0);
                        StepStatus::Running
                    }
                }
            }
            // Steps n-1, n: AppAgent result verification, HostAgent
            // completion verification (the fixed framework overhead,
            // §5.3).
            Phase::Verify(0) => {
                self.llm.record_call(VERIFY_PROMPT_TOKENS, 40);
                self.phase = Phase::Verify(1);
                StepStatus::Running
            }
            Phase::Verify(_) => {
                self.llm.record_call(VERIFY_PROMPT_TOKENS, 40);
                self.phase = Phase::Done;
                StepStatus::Finished
            }
            Phase::Done => StepStatus::Finished,
        }
    }

    /// Verifies the task outcome, attributes the root cause, and builds
    /// the [`RunTrace`]. Also returns the session, which the gateway
    /// drops; the pair remains only because the frozen benchmark
    /// (`dmibench/src/agent.rs`) destructures it, and goes with that
    /// benchmark's next change.
    pub fn finish(self, task: &AgentTask) -> (RunTrace, Session) {
        let (failure, completed, fallback_used) = self.outcome;
        let verified = completed && failure.is_none() && (task.verify)(&self.session);
        // Root-cause attribution follows the paper's methodology (§5.6):
        // execution results combined with the LLM's own chain-of-thought
        // summary — a corrupted plan is the root cause even when a
        // mechanism error also surfaced downstream.
        let failure = if verified {
            None
        } else {
            self.llm.injected.or(failure).or(Some(FailureCause::SubtleTaskSemantics))
        };
        let trace = RunTrace {
            task_id: task.id.clone(),
            mode: self.cfg.mode,
            profile: self.cfg.profile.label(),
            seed: self.cfg.seed,
            success: verified,
            llm_calls: self.llm.calls(),
            core_calls: self.llm.calls().saturating_sub(3),
            sim_secs: self.llm.clock_secs,
            prompt_tokens: self.llm.ledger.total_prompt(),
            output_tokens: self.llm.ledger.total_output(),
            failure,
            fallback_used,
        };
        (trace, self.session)
    }
}

/// Runs one task under one configuration, start to finish, on the
/// calling thread.
///
/// `dmi` must be the offline model for the task's app when the mode uses
/// forest knowledge or the declarative interfaces. It is taken as a
/// shared [`Arc`] so one ripped forest serves every caller — the
/// sequential runner here, all tenants of the gateway — without clones.
pub fn run_task(task: &AgentTask, dmi: Option<&Arc<Dmi>>, cfg: &RunConfig) -> RunTrace {
    let mut state = TaskState::new(task, cfg);
    let dmi = dmi.map(Arc::as_ref);
    while state.step(task, dmi) == StepStatus::Running {}
    state.finish(task).0
}
