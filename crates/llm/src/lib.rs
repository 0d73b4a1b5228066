//! Simulated LLM: capability profiles, failure injection, token and
//! latency accounting.
//!
//! This crate is the substrate substitution for GPT-5 / GPT-5-mini (see
//! `DESIGN.md`). The paper's comparative results derive from *which
//! failure modes each OS interface exposes an LLM to*; the simulator
//! injects exactly the paper's §5.6 taxonomy at calibrated rates, with all
//! stochasticity seeded for reproducibility:
//!
//! - [`profile::CapabilityProfile`]: policy error, grounding error,
//!   composite-interaction error, recovery, instruction-following noise,
//!   bundling horizon, and the latency model;
//! - [`plan`]: semantic oracle plans in both DMI and GUI lowerings, plus
//!   the plausible-but-wrong [`plan::PlanMutation`]s verifiers catch;
//! - [`sim::SimLlm`]: the per-run simulator with its token/latency ledger;
//! - [`failure::FailureCause`]: Figure 6's policy/mechanism taxonomy.

pub mod failure;
pub mod latency;
pub mod plan;
pub mod profile;
pub mod sim;

pub use failure::{FailureCause, FailureLevel};
pub use latency::{LatencyModel, ReasoningEffort};
pub use plan::{GuiStep, PlanMutation, PlanStep, TargetQuery, TaskPlan, VisitTarget};
pub use profile::CapabilityProfile;
pub use sim::{InterfaceMode, SimLlm};
