//! The GUI+DMI agent.
//!
//! Prompts instruct the LLM to prefer DMI (§5.1): `visit` calls carry
//! whole batches of declarative commands resolved against the navigation
//! forest (global planning — targets need not be visible), state and
//! observation declarations each take one turn (mixing with `visit` in
//! the same turn is disallowed, §3.4), and imperative GUI primitives
//! remain as the slow-path fallback (§6).
//!
//! Imperfect instruction following is simulated per §3.4: calls sometimes
//! include navigation nodes (filtered by DMI, harmless) or omit the entry
//! reference for shared-subtree targets (structured error, one extra
//! round trip).

use crate::grounding::ground;
use crate::task::AgentTask;
use dmi_core::interface::{observe as obs, state, Observed};
use dmi_core::screen::alpha_label;
use dmi_core::topology::Forest;
use dmi_core::{tokens, Dmi, LabeledScreen};
use dmi_gui::Session;
use dmi_llm::{FailureCause, PlanStep, SimLlm, TargetQuery, VisitTarget};
use serde_json::json;

/// Fixed prompt cost of the DMI system prompt (interface docs, rules).
pub const DMI_BASE_PROMPT_TOKENS: usize = 1300;

/// Result of the DMI agent loop.
pub struct DmiRunResult {
    /// Failure that ended the run, if any.
    pub failure: Option<FailureCause>,
    /// Whether every plan step executed.
    pub completed: bool,
    /// Whether the GUI fallback was used.
    pub fallback_used: bool,
}

/// Resolves a semantic target against the forest: the functional-leaf id
/// plus the entry references needed for shared subtrees.
pub fn resolve_target(forest: &Forest, q: &TargetQuery) -> Option<(u64, Vec<u64>)> {
    let names_match = |path: &[usize], u: &str| path.iter().any(|&a| forest.nodes[a].name == u);
    let mut fallback: Option<(u64, Vec<u64>)> = None;
    for n in &forest.nodes {
        if n.name != q.name || !forest.is_functional_leaf(n.id) {
            continue;
        }
        match forest.in_shared_subtree(n.id) {
            None => {
                let path = forest.path_to(n.id);
                match &q.under {
                    Some(u) if !names_match(&path, u) => {
                        if fallback.is_none() {
                            fallback = Some((n.id as u64, Vec::new()));
                        }
                    }
                    _ => return Some((n.id as u64, Vec::new())),
                }
            }
            Some(root) => {
                let refs = forest.references_to(root);
                let inner = forest.path_to(n.id);
                // The disambiguator may name a node inside the subtree
                // (e.g. "Fill Color" inside the Format Background dialog)
                // or along one entry's chain (e.g. "Page Color" leading to
                // the shared Colors dialog) — both are how an LLM reads
                // the description plus entry map (§3.3).
                let ref_match = q.under.as_deref().and_then(|u| {
                    refs.iter().copied().find(|&r| names_match(&forest.path_to(r), u))
                });
                let inner_ok = match &q.under {
                    Some(u) => names_match(&inner, u),
                    None => true,
                };
                if let Some(r) = ref_match {
                    return Some((n.id as u64, vec![r as u64]));
                }
                if inner_ok {
                    if let Some(&r0) = refs.first() {
                        return Some((n.id as u64, vec![r0 as u64]));
                    }
                }
                if fallback.is_none() {
                    if let Some(&r0) = refs.first() {
                        fallback = Some((n.id as u64, vec![r0 as u64]));
                    }
                }
            }
        }
    }
    fallback
}

fn visit_json(
    targets: &[(u64, Vec<u64>, &VisitTarget)],
    with_nav_noise: Option<u64>,
    omit_entries: bool,
) -> String {
    let mut cmds = Vec::new();
    if let Some(nav) = with_nav_noise {
        // Imperfect instruction following: a navigational node sneaks in.
        cmds.push(json!({ "id": nav }));
    }
    for (id, entries, t) in targets {
        let mut obj = serde_json::Map::new();
        obj.insert("id".into(), json!(id));
        if !entries.is_empty() && !omit_entries {
            obj.insert("entry_ref_id".into(), json!(entries));
        }
        if let Some(text) = &t.text {
            obj.insert("text".into(), json!(text));
        }
        cmds.push(serde_json::Value::Object(obj));
        if let Some(k) = &t.then_shortcut {
            cmds.push(json!({ "shortcut_key": k }));
        }
    }
    serde_json::to_string(&cmds).expect("visit commands serialize")
}

/// The DMI prompt on a fresh capture: system prompt, labeled screen,
/// core topology and passive `get_texts()` view.
fn prompt_tokens(session: &mut Session, observed: &mut Observed, dmi: &Dmi) -> usize {
    observed.capture(session);
    DMI_BASE_PROMPT_TOKENS
        + observed.screen_tokens()
        + dmi.core_tokens()
        + observed.passive_tokens()
}

/// The resumable AppAgent loop state: the prepared declarative plan plus
/// the cursor into it. One [`DmiState::step`] executes exactly one plan
/// step (a `visit` batch or one state/observation declaration) and
/// returns at the LLM-call boundary — the suspension point the gateway
/// uses to overlap simulated model latency across tenants. The
/// sequential [`crate::run_task`] drives the same state machine to
/// completion, so both paths execute byte-identical traces by
/// construction.
pub struct DmiState {
    plan: Vec<PlanStep>,
    idx: usize,
    queried: bool,
    fallback_used: bool,
    observed: Observed,
}

impl DmiState {
    /// Prepares the declarative plan (the LLM's first planning pass —
    /// this consumes RNG and must happen exactly once, right after the
    /// HostAgent call).
    pub fn plan(task: &AgentTask, llm: &mut SimLlm) -> DmiState {
        DmiState {
            plan: llm.prepare_plan(&task.plan, &task.mutations).dmi,
            idx: 0,
            queried: false,
            fallback_used: false,
            observed: Observed::default(),
        }
    }

    /// One plan step. Returns `None` while more steps remain,
    /// `Some(result)` when the run ended (plan exhausted, failure, or
    /// step cap).
    pub fn step(
        &mut self,
        session: &mut Session,
        llm: &mut SimLlm,
        dmi: &Dmi,
        step_cap: usize,
    ) -> Option<DmiRunResult> {
        if self.idx >= self.plan.len() {
            return Some(DmiRunResult {
                failure: None,
                completed: true,
                fallback_used: self.fallback_used,
            });
        }
        if llm.calls() + 2 >= step_cap {
            return Some(DmiRunResult {
                failure: Some(FailureCause::StepLimitExceeded),
                completed: false,
                fallback_used: self.fallback_used,
            });
        }
        let observed = &mut self.observed;
        let outcome = match &self.plan[self.idx] {
            PlanStep::Visit(targets) => run_visit(
                session,
                llm,
                observed,
                dmi,
                targets,
                &mut self.queried,
                &mut self.fallback_used,
            ),
            PlanStep::StateScrollbar { surface, percent } => {
                run_state(session, llm, observed, dmi, |s, screen| {
                    state::set_scrollbar_pos(s, screen, &label_of(screen, surface)?, *percent)
                        .map_err(|_| FailureCause::TopologyInaccuracy)
                })
            }
            PlanStep::StateSelectLines { surface, start, end } => {
                run_state(session, llm, observed, dmi, |s, screen| {
                    state::select_lines(s, screen, &label_of(screen, surface)?, *start, *end)
                        .map_err(|_| FailureCause::TopologyInaccuracy)
                })
            }
            PlanStep::StateSelectControls { names } => {
                run_state(session, llm, observed, dmi, |s, screen| {
                    state::select_controls(s, screen, &labels_of(screen, names)?)
                        .map_err(|_| FailureCause::TopologyInaccuracy)
                })
            }
            PlanStep::StateToggle { name, on } => {
                run_state(session, llm, observed, dmi, |s, screen| {
                    state::set_toggle_state(s, screen, &label_of(screen, name)?, *on)
                        .map_err(|_| FailureCause::TopologyInaccuracy)
                })
            }
            PlanStep::ObserveTexts { names } => {
                run_state(session, llm, observed, dmi, |s, screen| {
                    obs::get_texts_active(s, screen, &labels_of(screen, names)?)
                        .map_err(|_| FailureCause::TopologyInaccuracy)
                })
            }
        };
        if let Err(cause) = outcome {
            return Some(DmiRunResult {
                failure: Some(cause),
                completed: false,
                fallback_used: self.fallback_used,
            });
        }
        self.idx += 1;
        None
    }
}

/// The label of the control named `name` on the labeled screen, or
/// `WeakVisualSemantic` when no such control is on it.
fn label_of(screen: &LabeledScreen, name: &str) -> Result<String, FailureCause> {
    screen.find_by_name(name).map(alpha_label).ok_or(FailureCause::WeakVisualSemantic)
}

/// [`label_of`] for each of `names`.
fn labels_of(screen: &LabeledScreen, names: &[String]) -> Result<Vec<String>, FailureCause> {
    names.iter().map(|n| label_of(screen, n)).collect()
}

/// One state/observation declaration turn.
fn run_state<T>(
    session: &mut Session,
    llm: &mut SimLlm,
    observed: &mut Observed,
    dmi: &Dmi,
    f: impl FnOnce(&mut Session, &LabeledScreen) -> Result<T, FailureCause>,
) -> Result<(), FailureCause> {
    let prompt = prompt_tokens(session, observed, dmi);
    llm.record_call(prompt, 30);
    let screen = observed.capture(session);
    f(session, screen).map(drop)
}

/// One (or more, after chunking/noise) `visit` turns.
fn run_visit(
    session: &mut Session,
    llm: &mut SimLlm,
    observed: &mut Observed,
    dmi: &Dmi,
    targets: &[VisitTarget],
    queried: &mut bool,
    fallback_used: &mut bool,
) -> Result<(), FailureCause> {
    // Resolve every target against the forest (the LLM reading the
    // topology text).
    let mut resolved: Vec<(u64, Vec<u64>, &VisitTarget)> = Vec::new();
    let mut unresolved: Vec<&VisitTarget> = Vec::new();
    for t in targets {
        match resolve_target(&dmi.forest, &t.query) {
            Some((id, refs)) => resolved.push((id, refs, t)),
            None => unresolved.push(t),
        }
    }

    // The pruned core may hide some targets: one further_query round
    // fetches the needed branches (§3.3 query on demand).
    if !*queried && resolved.iter().any(|(id, _, _)| !dmi.core_includes(*id as usize)) {
        *queried = true;
        let prompt = prompt_tokens(session, observed, dmi);
        llm.record_call(prompt, 16);
        let out = dmi.visit_json(session, r#"[{"further_query": [-1]}]"#);
        debug_assert!(out.ok());
    }

    // Chunk by the model's bundling horizon.
    let chunks: Vec<&[(u64, Vec<u64>, &VisitTarget)]> =
        resolved.chunks(llm.profile.bundle_limit.max(1)).collect();
    for chunk in chunks {
        let prompt = prompt_tokens(session, observed, dmi);
        // Imperfect instruction following (§3.4).
        let (nav_noise, omit_entries) = if llm.sample_instruction_noise() {
            if llm.coin() {
                // Include a navigational node: DMI filters it.
                let nav = chunk
                    .first()
                    .and_then(|(id, _, _)| dmi.forest.nodes[*id as usize].parent)
                    .map(|p| p as u64);
                (nav, false)
            } else {
                // Omit entry references: DMI reports a structured error.
                (None, chunk.iter().any(|(_, e, _)| !e.is_empty()))
            }
        } else {
            (None, false)
        };
        let json = visit_json(chunk, nav_noise, omit_entries);
        llm.record_call(prompt, tokens::count(&json));
        let mut outcome = dmi.visit_json(session, &json);
        if let Some(dmi_core::DmiError::AmbiguousEntry { .. }) = outcome.error {
            // Structured feedback consumed: reissue with entries.
            let prompt = prompt_tokens(session, observed, dmi);
            let json = visit_json(chunk, None, false);
            llm.record_call(prompt, tokens::count(&json));
            outcome = dmi.visit_json(session, &json);
        }
        if outcome.error.is_some() {
            // One retry turn on transient UI errors, then the GUI
            // fallback for the failing chunk (§6 fast-path/slow-path).
            let prompt = prompt_tokens(session, observed, dmi);
            let json = visit_json(chunk, None, false);
            llm.record_call(prompt, tokens::count(&json));
            let retry = dmi.visit_json(session, &json);
            if retry.error.is_some() {
                *fallback_used = true;
                gui_fallback_chunk(session, llm, observed, chunk)?;
            }
        }
    }

    // Targets DMI could not resolve at all (e.g. dynamically renamed
    // controls missing from the topology): GUI fallback.
    if !unresolved.is_empty() {
        *fallback_used = true;
        let prompt = prompt_tokens(session, observed, dmi);
        llm.record_call(prompt, 40);
        for t in unresolved {
            let Some((_, entry)) = ground(observed.capture(session), &t.query) else {
                return Err(FailureCause::TopologyInaccuracy);
            };
            let wid = session.widget_of(entry.runtime_id);
            if session.click(wid).is_err() {
                return Err(FailureCause::TopologyInaccuracy);
            }
            if let Some(text) = &t.text {
                if session.type_text(text).is_err() {
                    return Err(FailureCause::TopologyInaccuracy);
                }
            }
            if let Some(k) = &t.then_shortcut {
                let _ = session.press(k);
            }
        }
    }
    Ok(())
}

/// Imperative fallback for one failed chunk: navigate by clicking the
/// modeled path elements that are visible, like the baseline would.
fn gui_fallback_chunk(
    session: &mut Session,
    llm: &mut SimLlm,
    observed: &mut Observed,
    chunk: &[(u64, Vec<u64>, &VisitTarget)],
) -> Result<(), FailureCause> {
    let prompt = DMI_BASE_PROMPT_TOKENS;
    llm.record_call(prompt, 30);
    for (_, _, t) in chunk {
        let Some((_, entry)) = ground(observed.capture(session), &t.query) else {
            return Err(FailureCause::TopologyInaccuracy);
        };
        let wid = session.widget_of(entry.runtime_id);
        if session.click(wid).is_err() {
            return Err(FailureCause::TopologyInaccuracy);
        }
    }
    Ok(())
}
