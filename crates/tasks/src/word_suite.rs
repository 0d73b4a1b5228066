//! Word tasks: text editing, formatting, find & replace, page setup.

use crate::verify::word;
use dmi_agent::AgentTask;
use dmi_apps::AppKind;
use dmi_llm::{GuiStep, PlanMutation, PlanStep, TargetQuery, TaskPlan, VisitTarget};

fn q(name: &str) -> TargetQuery {
    TargetQuery::name(name)
}

fn qu(name: &str, under: &str) -> TargetQuery {
    TargetQuery::under(name, under)
}

/// The nine Word scenarios.
pub fn tasks() -> Vec<AgentTask> {
    vec![
        AgentTask {
            id: "word-bold-range".into(),
            app: AppKind::Word,
            description: "Make paragraphs 2 through 4 bold.".into(),
            setup: None,
            verify: |s| {
                let d = &word(s).doc;
                d.paragraphs[2].format.bold
                    && d.paragraphs[3].format.bold
                    && d.paragraphs[4].format.bold
                    && !d.paragraphs[1].format.bold
                    && !d.paragraphs[5].format.bold
            },
            plan: TaskPlan {
                dmi: vec![
                    PlanStep::StateSelectLines { surface: "Document".into(), start: 2, end: 4 },
                    PlanStep::Visit(vec![VisitTarget::click(qu("Bold", "Font"))]),
                ],
                gui: vec![
                    GuiStep::DragSelectLines { surface: "Document".into(), start: 2, end: 4 },
                    GuiStep::Click(qu("Bold", "Font")),
                ],
            },
            mutations: vec![
                PlanMutation::PerturbNumber { delta: 1.0 },
                PlanMutation::ReplaceTarget { from: "Bold".into(), to: "Italic".into() },
            ],
        },
        AgentTask {
            id: "word-font-color-blue".into(),
            app: AppKind::Word,
            description: "Set the font color of the first paragraph to blue.".into(),
            setup: None,
            verify: |s| {
                let d = &word(s).doc;
                &*d.paragraphs[0].format.color == "Blue"
                    && &*d.paragraphs[1].format.color == "Black"
            },
            plan: TaskPlan {
                dmi: vec![
                    PlanStep::StateSelectLines { surface: "Document".into(), start: 0, end: 0 },
                    PlanStep::Visit(vec![VisitTarget::click(qu("Blue", "Font Color"))]),
                ],
                gui: vec![
                    GuiStep::DragSelectLines { surface: "Document".into(), start: 0, end: 0 },
                    GuiStep::Click(q("Font Color")),
                    GuiStep::Click(qu("Blue", "Font Color")),
                ],
            },
            mutations: vec![
                PlanMutation::ReplaceTarget { from: "Blue".into(), to: "Dark Blue".into() },
                PlanMutation::DropStepWith { name: "Document".into() },
            ],
        },
        AgentTask {
            id: "word-replace-all".into(),
            app: AppKind::Word,
            description: "Replace every occurrence of 'fox' with 'cat'.".into(),
            setup: None,
            verify: |s| {
                let d = &word(s).doc;
                d.last_replace_count > 0
                    && d.paragraphs.iter().all(|p| !p.text.contains("fox"))
                    && d.paragraphs.iter().any(|p| p.text.contains("cat"))
            },
            plan: TaskPlan {
                dmi: vec![PlanStep::Visit(vec![
                    VisitTarget::input_enter(q("Find what"), "fox"),
                    VisitTarget::input_enter(q("Replace with"), "cat"),
                    VisitTarget::click(qu("Replace All", "Find and Replace")),
                ])],
                gui: vec![
                    GuiStep::Click(qu("Replace", "Editing")),
                    GuiStep::ClickAndType { target: q("Find what"), text: "fox".into() },
                    GuiStep::Press("Enter".into()),
                    GuiStep::ClickAndType { target: q("Replace with"), text: "cat".into() },
                    GuiStep::Press("Enter".into()),
                    GuiStep::Click(q("Replace All")),
                ],
            },
            mutations: vec![
                PlanMutation::DropStepWith { name: "Replace All".into() },
                PlanMutation::ReplaceText { from: "fox".into(), to: "Fox".into() },
            ],
        },
        AgentTask {
            id: "word-margins-narrow".into(),
            app: AppKind::Word,
            description: "Switch the page margins to the Narrow preset.".into(),
            setup: None,
            verify: |s| word(s).doc.page.margins == (0.5, 0.5, 0.5, 0.5),
            plan: TaskPlan {
                dmi: vec![PlanStep::Visit(vec![VisitTarget::click(qu("Narrow", "Margins"))])],
                gui: vec![
                    GuiStep::Click(q("Layout")),
                    GuiStep::Click(q("Margins")),
                    GuiStep::Click(qu("Narrow", "Margins")),
                ],
            },
            mutations: vec![
                PlanMutation::ReplaceTarget { from: "Narrow".into(), to: "Moderate".into() },
                PlanMutation::DropLast,
            ],
        },
        AgentTask {
            id: "word-margin-top-2in".into(),
            app: AppKind::Word,
            description: "Set the top margin to exactly 2 inches.".into(),
            setup: None,
            verify: |s| (word(s).doc.page.margins.0 - 2.0).abs() < 1e-9,
            plan: TaskPlan {
                dmi: vec![PlanStep::Visit(vec![
                    VisitTarget::input_enter(qu("Top", "Page Setup"), "2"),
                    VisitTarget::click(qu("OK", "Page Setup")),
                ])],
                gui: vec![
                    GuiStep::Click(q("Layout")),
                    GuiStep::Click(q("Page Setup")),
                    GuiStep::ClickAndType { target: q("Top"), text: "2".into() },
                    GuiStep::Press("Enter".into()),
                    GuiStep::Click(q("OK")),
                ],
            },
            mutations: vec![
                PlanMutation::ReplaceTarget { from: "Top".into(), to: "Bottom".into() },
                PlanMutation::ReplaceText { from: "2".into(), to: "0.2".into() },
            ],
        },
        AgentTask {
            id: "word-watermark-draft".into(),
            app: AppKind::Word,
            description: "Add a DRAFT watermark to the document.".into(),
            setup: None,
            verify: |s| word(s).doc.watermark.as_deref().is_some_and(|w| w.contains("DRAFT")),
            plan: TaskPlan {
                dmi: vec![PlanStep::Visit(vec![VisitTarget::click(qu("DRAFT 1", "Watermark"))])],
                gui: vec![
                    GuiStep::Click(q("Design")),
                    GuiStep::Click(q("Watermark")),
                    GuiStep::Click(q("DRAFT 1")),
                ],
            },
            mutations: vec![
                PlanMutation::ReplaceTarget { from: "DRAFT 1".into(), to: "SAMPLE 1".into() },
                PlanMutation::DropLast,
            ],
        },
        AgentTask {
            id: "word-page-color-green".into(),
            app: AppKind::Word,
            description: "Set the page background color to green.".into(),
            setup: None,
            verify: |s| word(s).doc.page.background.as_deref() == Some("Green"),
            plan: TaskPlan {
                dmi: vec![PlanStep::Visit(vec![VisitTarget::click(qu("Green", "Page Color"))])],
                gui: vec![
                    GuiStep::Click(q("Design")),
                    GuiStep::Click(q("Page Color")),
                    GuiStep::Click(qu("Green", "Page Color")),
                ],
            },
            mutations: vec![
                // The merge-node hazard: same cell name under the wrong
                // picker changes the font, not the page.
                PlanMutation::RetargetUnder { name: "Green".into(), under: "Font Color".into() },
                PlanMutation::ReplaceTarget { from: "Green".into(), to: "Blue".into() },
            ],
        },
        AgentTask {
            id: "word-subscript-para3".into(),
            app: AppKind::Word,
            description: "Format the third paragraph as subscript.".into(),
            setup: None,
            verify: |s| {
                let a = word(s);
                a.doc.paragraphs[2].format.subscript && !a.find_subscript
            },
            plan: TaskPlan {
                dmi: vec![
                    PlanStep::StateSelectLines { surface: "Document".into(), start: 2, end: 2 },
                    PlanStep::Visit(vec![VisitTarget::click(qu("Subscript", "Font"))]),
                ],
                gui: vec![
                    GuiStep::DragSelectLines { surface: "Document".into(), start: 2, end: 2 },
                    GuiStep::Click(qu("Subscript", "Font")),
                ],
            },
            mutations: vec![
                // §5.6's exact example: the Find & Replace subscript applies
                // to the find pattern, not the selection.
                PlanMutation::RetargetUnder { name: "Subscript".into(), under: "Format".into() },
                PlanMutation::PerturbNumber { delta: 1.0 },
            ],
        },
        AgentTask {
            id: "word-scroll-end".into(),
            app: AppKind::Word,
            description: "Scroll the document to show the area close to the end.".into(),
            setup: None,
            verify: |s| {
                let a = word(s);
                s.app().tree().widget(a.doc_surface()).scroll_pos >= 80.0
            },
            plan: TaskPlan {
                dmi: vec![PlanStep::StateScrollbar {
                    surface: "Vertical Scroll Bar".into(),
                    percent: 90.0,
                }],
                // The imperative lowering is the §2.1 drag-observe loop:
                // coarse drag, observe, correct, observe, settle.
                gui: vec![
                    GuiStep::DragScrollbarTo { name: "Vertical Scroll Bar".into(), percent: 55.0 },
                    GuiStep::DragScrollbarTo { name: "Vertical Scroll Bar".into(), percent: 78.0 },
                    GuiStep::DragScrollbarTo { name: "Vertical Scroll Bar".into(), percent: 90.0 },
                ],
            },
            mutations: vec![PlanMutation::PerturbNumber { delta: -50.0 }],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_word_tasks() {
        assert_eq!(tasks().len(), 9);
        assert!(tasks().iter().all(|t| t.app == AppKind::Word));
    }

    #[test]
    fn scroll_task_is_table1_task2_shaped() {
        // One declarative state call replaces the drag-observe loop.
        let t = tasks().into_iter().find(|t| t.id == "word-scroll-end").unwrap();
        assert_eq!(t.plan.dmi.len(), 1);
        assert!(matches!(t.plan.dmi[0], PlanStep::StateScrollbar { .. }));
    }
}
