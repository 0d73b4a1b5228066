//! Semantic task plans: the policy layer.
//!
//! A [`TaskPlan`] is the oracle decomposition of a benchmark task into
//! semantic steps, in two lowerings: the declarative DMI form (one
//! [`PlanStep`] per LLM turn) and the imperative GUI form (a flat action
//! list the baseline must schedule over *visible* controls). Plans are
//! what the simulated LLM "knows"; error injection corrupts them through
//! [`PlanMutation`]s, producing the verifiable wrong behaviours of §5.6.

/// How the LLM names an intended control (resolved against the topology
/// under DMI or against the screen under GUI).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetQuery {
    /// Control name as the LLM would write it.
    pub name: String,
    /// Optional ancestor-name disambiguator ("Blue" under "Font Color").
    pub under: Option<String>,
}

impl TargetQuery {
    /// A query by bare name.
    pub fn name(n: impl Into<String>) -> Self {
        TargetQuery { name: n.into(), under: None }
    }

    /// A query disambiguated by an ancestor name.
    pub fn under(n: impl Into<String>, anc: impl Into<String>) -> Self {
        TargetQuery { name: n.into(), under: Some(anc.into()) }
    }
}

/// One `visit` target with optional text input.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitTarget {
    /// The control.
    pub query: TargetQuery,
    /// Text for access-and-input commands.
    pub text: Option<String>,
    /// Follow with this shortcut (e.g. `"Enter"` to commit an edit).
    pub then_shortcut: Option<String>,
}

impl VisitTarget {
    /// A plain access target.
    pub fn click(q: TargetQuery) -> Self {
        VisitTarget { query: q, text: None, then_shortcut: None }
    }

    /// An access-and-input target.
    pub fn input(q: TargetQuery, text: impl Into<String>) -> Self {
        VisitTarget { query: q, text: Some(text.into()), then_shortcut: None }
    }

    /// An access-and-input target committed with Enter.
    pub fn input_enter(q: TargetQuery, text: impl Into<String>) -> Self {
        VisitTarget { query: q, text: Some(text.into()), then_shortcut: Some("Enter".into()) }
    }
}

/// One DMI-mode LLM turn.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// One `visit([...])` call (multiple commands bundled).
    Visit(Vec<VisitTarget>),
    /// `set_scrollbar_pos` on a named scrollbar/surface.
    StateScrollbar {
        /// Scrollbar or surface name on screen.
        surface: String,
        /// Target position percent.
        percent: f64,
    },
    /// `select_lines` on a named text surface.
    StateSelectLines {
        /// Surface name.
        surface: String,
        /// First line.
        start: usize,
        /// Last line (inclusive).
        end: usize,
    },
    /// `select_controls` over named on-screen controls.
    StateSelectControls {
        /// Control names to select (multi-select when several).
        names: Vec<String>,
    },
    /// `set_toggle_state` on a named control.
    StateToggle {
        /// Control name.
        name: String,
        /// Desired state.
        on: bool,
    },
    /// Active `get_texts` over named controls (observation round).
    ObserveTexts {
        /// Control names to read.
        names: Vec<String>,
    },
}

/// One imperative GUI action (the baseline's vocabulary).
#[derive(Debug, Clone, PartialEq)]
pub enum GuiStep {
    /// Click a control located visually.
    Click(TargetQuery),
    /// Click an edit control and type text.
    ClickAndType {
        /// The edit control.
        target: TargetQuery,
        /// Text to type.
        text: String,
    },
    /// Press a key combination.
    Press(String),
    /// Drag a scrollbar to a position (composite interaction).
    DragScrollbarTo {
        /// Scrollbar name.
        name: String,
        /// Target percent.
        percent: f64,
    },
    /// Drag-select a line range on a text surface (composite).
    DragSelectLines {
        /// Surface name.
        surface: String,
        /// First viewport row.
        start: usize,
        /// Last viewport row.
        end: usize,
    },
}

impl GuiStep {
    /// Whether the action is a composite interaction (exposed to the
    /// composite-error rate rather than the grounding-error rate).
    pub fn is_composite(&self) -> bool {
        matches!(self, GuiStep::DragScrollbarTo { .. } | GuiStep::DragSelectLines { .. })
    }
}

/// The two lowerings of a task's oracle plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskPlan {
    /// Declarative steps (one LLM turn each).
    pub dmi: Vec<PlanStep>,
    /// Imperative actions (scheduled over visibility by the baseline).
    pub gui: Vec<GuiStep>,
}

impl TaskPlan {
    /// Number of `visit` targets across the DMI plan.
    pub fn dmi_targets(&self) -> usize {
        self.dmi
            .iter()
            .map(|s| match s {
                PlanStep::Visit(v) => v.len(),
                _ => 0,
            })
            .sum()
    }
}

/// A plausible-but-wrong plan edit, used to inject policy failures the
/// verifier can catch (§5.6 failure analysis).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanMutation {
    /// Replace every target named `from` with `to` (a real control with
    /// the wrong semantics, e.g. the Find & Replace subscript).
    ReplaceTarget {
        /// Intended control name.
        from: String,
        /// Wrong control name.
        to: String,
    },
    /// Drop the DMI step / GUI action that references this name.
    DropStepWith {
        /// Name referenced by the dropped step.
        name: String,
    },
    /// Drop the final step/action (incomplete task).
    DropLast,
    /// Perturb a numeric argument (scroll percent, line index) by delta.
    PerturbNumber {
        /// Added to percents; line ranges shift by its sign.
        delta: f64,
    },
    /// Re-point a target's ancestor disambiguator — the exact §5.6
    /// failure where a control with the *same name* under a different
    /// path has different semantics (Find & Replace's Subscript).
    RetargetUnder {
        /// Target name whose `under` changes.
        name: String,
        /// The wrong ancestor.
        under: String,
    },
    /// Replace a text payload (misread value; weak visual-semantic
    /// understanding of structured data).
    ReplaceText {
        /// Intended text.
        from: String,
        /// Wrong text.
        to: String,
    },
}

fn mutate_query(q: &mut TargetQuery, from: &str, to: &str) {
    if q.name == from {
        q.name = to.to_string();
    }
}

/// Applies a mutation to both lowerings of a plan.
pub fn apply_mutation(plan: &mut TaskPlan, m: &PlanMutation) {
    match m {
        PlanMutation::ReplaceTarget { from, to } => {
            for step in &mut plan.dmi {
                match step {
                    PlanStep::Visit(targets) => {
                        for t in targets {
                            mutate_query(&mut t.query, from, to);
                        }
                    }
                    PlanStep::StateToggle { name, .. } if name == from => {
                        *name = to.clone();
                    }
                    PlanStep::StateSelectControls { names } | PlanStep::ObserveTexts { names } => {
                        for n in names {
                            if n == from {
                                *n = to.clone();
                            }
                        }
                    }
                    _ => {}
                }
            }
            for a in &mut plan.gui {
                match a {
                    GuiStep::Click(q) | GuiStep::ClickAndType { target: q, .. } => {
                        mutate_query(q, from, to)
                    }
                    _ => {}
                }
            }
        }
        PlanMutation::DropStepWith { name } => {
            plan.dmi.retain(|s| !step_mentions(s, name));
            plan.gui.retain(|a| !action_mentions(a, name));
        }
        PlanMutation::DropLast => {
            plan.dmi.pop();
            plan.gui.pop();
        }
        PlanMutation::RetargetUnder { name, under } => {
            for step in &mut plan.dmi {
                if let PlanStep::Visit(targets) = step {
                    for t in targets {
                        if t.query.name == *name {
                            t.query.under = Some(under.clone());
                        }
                    }
                }
            }
            for a in &mut plan.gui {
                if let GuiStep::Click(q) | GuiStep::ClickAndType { target: q, .. } = a {
                    if q.name == *name {
                        q.under = Some(under.clone());
                    }
                }
            }
        }
        PlanMutation::ReplaceText { from, to } => {
            for step in &mut plan.dmi {
                if let PlanStep::Visit(targets) = step {
                    for t in targets {
                        if t.text.as_deref() == Some(from.as_str()) {
                            t.text = Some(to.clone());
                        }
                    }
                }
            }
            for a in &mut plan.gui {
                if let GuiStep::ClickAndType { text, .. } = a {
                    if text == from {
                        *text = to.clone();
                    }
                }
            }
        }
        PlanMutation::PerturbNumber { delta } => {
            for step in &mut plan.dmi {
                match step {
                    PlanStep::StateScrollbar { percent, .. } => {
                        *percent = (*percent + delta).clamp(0.0, 100.0)
                    }
                    PlanStep::StateSelectLines { start, end, .. } => {
                        if *delta >= 0.0 {
                            *start += 1;
                            *end += 1;
                        } else {
                            *start = start.saturating_sub(1);
                            *end = end.saturating_sub(1);
                        }
                    }
                    _ => {}
                }
            }
            for a in &mut plan.gui {
                match a {
                    GuiStep::DragScrollbarTo { percent, .. } => {
                        *percent = (*percent + delta).clamp(0.0, 100.0)
                    }
                    GuiStep::DragSelectLines { start, end, .. } => {
                        if *delta >= 0.0 {
                            *start += 1;
                            *end += 1;
                        } else {
                            *start = start.saturating_sub(1);
                            *end = end.saturating_sub(1);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

fn step_mentions(s: &PlanStep, name: &str) -> bool {
    match s {
        PlanStep::Visit(ts) => ts.iter().any(|t| t.query.name == name),
        PlanStep::StateToggle { name: n, .. } => n == name,
        PlanStep::StateScrollbar { surface, .. } | PlanStep::StateSelectLines { surface, .. } => {
            surface == name
        }
        PlanStep::StateSelectControls { names } | PlanStep::ObserveTexts { names } => {
            names.iter().any(|n| n == name)
        }
    }
}

fn action_mentions(a: &GuiStep, name: &str) -> bool {
    match a {
        GuiStep::Click(q) | GuiStep::ClickAndType { target: q, .. } => q.name == name,
        GuiStep::DragScrollbarTo { name: n, .. } => n == name,
        GuiStep::DragSelectLines { surface, .. } => surface == name,
        GuiStep::Press(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> TaskPlan {
        TaskPlan {
            dmi: vec![
                PlanStep::StateSelectLines { surface: "Document".into(), start: 2, end: 4 },
                PlanStep::Visit(vec![
                    VisitTarget::click(TargetQuery::under("Blue", "Font Color")),
                    VisitTarget::click(TargetQuery::name("Bold")),
                ]),
            ],
            gui: vec![
                GuiStep::DragSelectLines { surface: "Document".into(), start: 2, end: 4 },
                GuiStep::Click(TargetQuery::name("Font Color")),
                GuiStep::Click(TargetQuery::under("Blue", "Font Color")),
                GuiStep::Click(TargetQuery::name("Bold")),
            ],
        }
    }

    #[test]
    fn replace_target_hits_both_lowerings() {
        let mut p = sample_plan();
        apply_mutation(
            &mut p,
            &PlanMutation::ReplaceTarget { from: "Bold".into(), to: "Italic".into() },
        );
        match &p.dmi[1] {
            PlanStep::Visit(ts) => assert_eq!(ts[1].query.name, "Italic"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(&p.gui[3], GuiStep::Click(q) if q.name == "Italic"));
    }

    #[test]
    fn drop_last_shortens_both() {
        let mut p = sample_plan();
        apply_mutation(&mut p, &PlanMutation::DropLast);
        assert_eq!(p.dmi.len(), 1);
        assert_eq!(p.gui.len(), 3);
    }

    #[test]
    fn perturb_number_shifts_ranges() {
        let mut p = sample_plan();
        apply_mutation(&mut p, &PlanMutation::PerturbNumber { delta: 1.0 });
        match &p.dmi[0] {
            PlanStep::StateSelectLines { start, end, .. } => assert_eq!((*start, *end), (3, 5)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drop_step_with_name() {
        let mut p = sample_plan();
        apply_mutation(&mut p, &PlanMutation::DropStepWith { name: "Document".into() });
        assert_eq!(p.dmi.len(), 1);
        assert!(matches!(&p.dmi[0], PlanStep::Visit(_)));
    }

    #[test]
    fn dmi_targets_counts_visits() {
        assert_eq!(sample_plan().dmi_targets(), 2);
    }

    #[test]
    fn composite_classification() {
        assert!(GuiStep::DragScrollbarTo { name: "V".into(), percent: 50.0 }.is_composite());
        assert!(!GuiStep::Click(TargetQuery::name("X")).is_composite());
    }
}
