//! The GUI-only baseline agent (UFO2-as).
//!
//! Each AppAgent turn sends the labeled accessibility tree to the LLM and
//! receives an *action sequence* — as many upcoming imperative actions as
//! are (a) within the model's planning horizon and (b) grounded on
//! currently visible controls (the UFO2-as constraint; §5.1). Actions
//! execute with per-action mechanism-error sampling: visual grounding
//! errors for clicks, composite-interaction errors for drags. Recovered
//! errors cost an extra round trip; unrecovered errors fail the task with
//! a mechanism-level cause (§5.6).

use crate::grounding::ground;
use crate::task::AgentTask;
use dmi_core::screen::{label_screen, LabeledScreen};
use dmi_core::tokens;
use dmi_gui::Session;
use dmi_llm::{FailureCause, GuiStep, SimLlm};
use dmi_uia::Snapshot;

/// Fixed prompt cost of the GUI system prompt (instructions, few-shot).
pub const GUI_BASE_PROMPT_TOKENS: usize = 900;

/// Output tokens per planned action, plus a fixed envelope.
fn output_tokens(batch_len: usize) -> usize {
    24 + 18 * batch_len
}

/// Result of the core GUI loop.
pub struct GuiRunResult {
    /// Mechanism failure, if one ended the run.
    pub failure: Option<FailureCause>,
    /// Whether every plan action executed.
    pub completed: bool,
}

fn observe(session: &mut Session) -> (std::sync::Arc<Snapshot>, LabeledScreen) {
    let snap = session.snapshot();
    let screen = label_screen(&snap);
    (snap, screen)
}

/// The resumable AppAgent loop state: the prepared plan plus the cursor
/// into it. One [`GuiState::turn`] performs exactly one planning round
/// trip (plus any recovery round trip inside it) and returns to the
/// caller at the LLM-call boundary — the suspension point the gateway
/// uses to overlap simulated model latency across tenants. The
/// sequential [`crate::run_task`] drives the same state machine to
/// completion, so both paths execute byte-identical traces by
/// construction.
pub struct GuiState {
    plan: Vec<GuiStep>,
    cursor: usize,
    /// Navigation-forest prompt knowledge (§5.5 ablation), fixed at plan
    /// time.
    forest_tokens: usize,
}

impl GuiState {
    /// Prepares the imperative plan (the LLM's first planning pass —
    /// this consumes RNG and must happen exactly once, right after the
    /// HostAgent call).
    pub fn plan(task: &AgentTask, llm: &mut SimLlm, forest_tokens: usize) -> GuiState {
        GuiState {
            plan: llm.prepare_plan(&task.plan, &task.mutations).gui,
            cursor: 0,
            forest_tokens,
        }
    }

    /// One AppAgent turn: observe, plan an action sequence, execute it.
    /// Returns `None` while more turns remain, `Some(result)` when the
    /// run ended (plan exhausted, failure, or step cap).
    pub fn turn(
        &mut self,
        session: &mut Session,
        llm: &mut SimLlm,
        step_cap: usize,
    ) -> Option<GuiRunResult> {
        if self.cursor >= self.plan.len() {
            return Some(GuiRunResult { failure: None, completed: true });
        }
        // Reserve the two verification calls within the cap.
        if llm.calls() + 2 >= step_cap {
            return Some(GuiRunResult {
                failure: Some(FailureCause::StepLimitExceeded),
                completed: false,
            });
        }
        let (snap, screen) = observe(session);
        // The baseline observation carries the full exposed accessibility
        // tree (§5.1), not just the on-screen subset.
        let prompt = GUI_BASE_PROMPT_TOKENS
            + tokens::count(&dmi_core::screen::full_tree_prompt_text(&snap))
            + self.forest_tokens;

        // Plan an action sequence: the maximal prefix of remaining actions
        // whose targets are all currently visible, within the horizon.
        let mut batch = 0usize;
        while self.cursor + batch < self.plan.len() && batch < llm.profile.gui_bundle_limit {
            if step_groundable(&screen, &self.plan[self.cursor + batch]) {
                batch += 1;
            } else {
                break;
            }
        }
        llm.record_call(prompt, output_tokens(batch.max(1)));

        if batch == 0 {
            // The next target is not on screen: mis-aligned state. Try to
            // re-orient (close popups/dialogs) and re-plan, or give up.
            if llm.sample_recover() {
                let _ = session.press("Esc");
                let _ = session.press("Esc");
                return None;
            }
            return Some(GuiRunResult {
                failure: Some(FailureCause::ControlLocalization),
                completed: false,
            });
        }

        // Execute the sequence, re-grounding each action on a fresh
        // snapshot (the screen the LLM planned on goes stale mid-batch).
        for _ in 0..batch {
            let step = &self.plan[self.cursor];
            match execute_step(session, llm, step) {
                Exec::Ok => {
                    self.cursor += 1;
                }
                Exec::Stale => {
                    // Prior actions changed the UI; re-plan next turn.
                    break;
                }
                Exec::RecoveredError => {
                    // Wrong interaction, noticed: dismiss, take a
                    // re-orientation round trip (observe the damage), and
                    // retry the same action next turn.
                    let _ = session.press("Esc");
                    let (snap, _) = observe(session);
                    let prompt = GUI_BASE_PROMPT_TOKENS
                        + tokens::count(&dmi_core::screen::full_tree_prompt_text(&snap))
                        + self.forest_tokens;
                    llm.record_call(prompt, 20);
                    break;
                }
                Exec::Failed(cause) => {
                    return Some(GuiRunResult { failure: Some(cause), completed: false });
                }
            }
            if session.is_trapped() {
                return Some(GuiRunResult {
                    failure: Some(FailureCause::ControlLocalization),
                    completed: false,
                });
            }
        }
        None
    }
}

fn step_groundable(screen: &LabeledScreen, step: &GuiStep) -> bool {
    match step {
        GuiStep::Click(q) | GuiStep::ClickAndType { target: q, .. } => ground(screen, q).is_some(),
        GuiStep::Press(_) => true,
        GuiStep::DragScrollbarTo { name, .. } => {
            ground(screen, &dmi_llm::TargetQuery::name(name.clone())).is_some()
        }
        GuiStep::DragSelectLines { surface, .. } => {
            ground(screen, &dmi_llm::TargetQuery::name(surface.clone())).is_some()
        }
    }
}

enum Exec {
    Ok,
    Stale,
    RecoveredError,
    Failed(FailureCause),
}

fn execute_step(session: &mut Session, llm: &mut SimLlm, step: &GuiStep) -> Exec {
    let (_snap, screen) = observe(session);
    match step {
        GuiStep::Click(q) => click_with_grounding(session, llm, &screen, q, None),
        GuiStep::ClickAndType { target, text } => {
            click_with_grounding(session, llm, &screen, target, Some(text))
        }
        GuiStep::Press(k) => match session.press(k) {
            Ok(()) => Exec::Ok,
            Err(_) => Exec::Stale,
        },
        GuiStep::DragScrollbarTo { name, percent } => {
            let q = dmi_llm::TargetQuery::name(name.clone());
            let Some((_, entry)) = ground(&screen, &q) else {
                return Exec::Stale;
            };
            let r = entry.rect;
            let pct = if llm.sample_composite_error() {
                // Misjudged drop point: off by a visually plausible margin.
                let off = if llm.coin() { 30.0 } else { -30.0 };
                let wrong = (percent + off).clamp(0.0, 100.0);
                if !llm.sample_recover() {
                    let y = r.y + (r.h as f64 * wrong / 100.0) as i32;
                    let _ = session.drag(r.center(), (r.center().0, y));
                    return Exec::Failed(FailureCause::CompositeInteraction);
                }
                let y = r.y + (r.h as f64 * wrong / 100.0) as i32;
                let _ = session.drag(r.center(), (r.center().0, y));
                return Exec::RecoveredError;
            } else {
                *percent
            };
            let y = r.y + (r.h as f64 * pct / 100.0) as i32;
            match session.drag(r.center(), (r.center().0, y)) {
                Ok(()) => Exec::Ok,
                Err(_) => Exec::Stale,
            }
        }
        GuiStep::DragSelectLines { surface, start, end } => {
            let q = dmi_llm::TargetQuery::name(surface.clone());
            let Some((_, entry)) = ground(&screen, &q) else {
                return Exec::Stale;
            };
            let r = entry.rect;
            let (mut s, mut e) = (*start, *end);
            if llm.sample_composite_error() {
                // Off-by-one row on either end (precise coordinates are
                // exactly what LLMs are bad at, §2.1).
                s += 1;
                e += 1;
                if !llm.sample_recover() {
                    let _ = drag_rows(session, r, s, e);
                    return Exec::Failed(FailureCause::CompositeInteraction);
                }
                let _ = drag_rows(session, r, s, e);
                return Exec::RecoveredError;
            }
            match drag_rows(session, r, s, e) {
                Ok(()) => Exec::Ok,
                Err(_) => Exec::Stale,
            }
        }
    }
}

fn drag_rows(
    session: &mut Session,
    r: dmi_uia::Rect,
    start: usize,
    end: usize,
) -> Result<(), dmi_gui::AppError> {
    let row_h = dmi_gui::layout::ROW_H;
    let y0 = r.y + 2 + start as i32 * row_h;
    let y1 = r.y + 2 + end as i32 * row_h;
    // The x offset lands inside the surface's child rows (indented one
    // level), so rows beyond the first still hit the document.
    session.drag((r.x + 12, y0), (r.x + 12, y1))
}

fn click_with_grounding(
    session: &mut Session,
    llm: &mut SimLlm,
    screen: &LabeledScreen,
    q: &dmi_llm::TargetQuery,
    text: Option<&str>,
) -> Exec {
    let Some((idx, _)) = ground(screen, q) else {
        return Exec::Stale;
    };
    let target_idx = if llm.sample_grounding_error() {
        // Visual mis-grounding: a different visible control is clicked.
        llm.wrong_index(screen.entries.len(), idx)
    } else {
        idx
    };
    let entry = &screen.entries[target_idx];
    let wid = session.widget_of(entry.runtime);
    let click = session.click(wid);
    if target_idx != idx {
        // Wrong control was activated; can the model tell?
        return if llm.sample_recover() {
            Exec::RecoveredError
        } else {
            Exec::Failed(FailureCause::ControlLocalization)
        };
    }
    match click {
        Ok(()) => {
            if let Some(t) = text {
                if session.type_text(t).is_err() {
                    return Exec::Stale;
                }
            }
            Exec::Ok
        }
        Err(_) => Exec::Stale,
    }
}
