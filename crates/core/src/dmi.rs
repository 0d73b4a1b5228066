//! The [`Dmi`] facade: one object bundling the offline model (forest +
//! descriptions) with the online interfaces (`visit`, state, observation).
//!
//! # Examples
//!
//! ```no_run
//! use dmi_core::{Dmi, DmiBuildConfig};
//! use dmi_gui::Session;
//! use dmi_apps::AppKind;
//!
//! let mut session = Session::new(AppKind::Word.launch());
//! let (dmi, stats) = Dmi::build(&mut session, &DmiBuildConfig::office("Word"));
//! println!("modeled {} controls", stats.rip_nodes);
//! println!("core topology: {} tokens", dmi.core_tokens());
//! let outcome = dmi.visit_json(&mut session, r#"[{"id": 42}]"#);
//! assert!(outcome.error.is_none() || outcome.error.is_some());
//! ```

use crate::describe::{self, DescribeConfig, Description};
use crate::error::DmiError;
use crate::graph::Ung;
use crate::interface::{executor, visit, ExecutorConfig, FilteredCommand, VisitCommand};
use crate::ripper::{self, RipConfig, RipStats};
use crate::topology::{build_forest, decycle, DecycleStats, Forest, ForestConfig, ForestStats};
use dmi_gui::Session;
use std::sync::{Arc, OnceLock};

/// Configuration for the full offline pipeline.
#[derive(Debug, Clone, Default)]
pub struct DmiBuildConfig {
    /// Ripper options.
    pub rip: RipConfig,
    /// Forest transformation options.
    pub forest: ForestConfig,
    /// Description options.
    pub describe: DescribeConfig,
}

impl DmiBuildConfig {
    /// The configuration used for the Office case studies.
    pub fn office(app: &str) -> DmiBuildConfig {
        DmiBuildConfig {
            rip: RipConfig::office(app),
            forest: ForestConfig::default(),
            describe: DescribeConfig::default(),
        }
    }
}

/// Statistics from the offline phase (§5.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct DmiBuildStats {
    /// Ripper stats.
    pub rip: RipStats,
    /// Nodes in the raw UNG.
    pub rip_nodes: usize,
    /// Edges in the raw UNG.
    pub rip_edges: usize,
    /// Decycle stats.
    pub decycle: DecycleStats,
    /// Forest stats.
    pub forest: ForestStats,
    /// Tokens in the core topology description.
    pub core_tokens: usize,
    /// Tokens in the full forest description.
    pub full_tokens: usize,
    /// Controls included in the core topology.
    pub core_controls: usize,
}

/// Outcome of one `visit` call.
#[derive(Debug, Clone, Default)]
pub struct VisitOutcome {
    /// Human-readable log of executed commands.
    pub executed: Vec<String>,
    /// Commands removed by the navigation filter (§3.4).
    pub filtered: Vec<FilteredCommand>,
    /// First error (aborts remaining commands).
    pub error: Option<DmiError>,
    /// Response to a `further_query` command.
    pub query_result: Option<Arc<str>>,
}

impl VisitOutcome {
    /// Whether the call completed without error.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// The Declarative Model Interface for one modeled application.
#[derive(Debug, Clone)]
pub struct Dmi {
    /// The path-unambiguous navigation topology.
    pub forest: Forest,
    /// Description options.
    pub describe: DescribeConfig,
    /// Executor options.
    pub executor: ExecutorConfig,
    core: Description,
    /// Tokens in `core`, counted once: every DMI prompt carries them.
    core_tokens: usize,
    /// The full forest description, rendered at most once per model and
    /// shared by every `further_query` that asks for it (clones share it).
    full: OnceLock<Arc<str>>,
}

impl Dmi {
    /// Runs the full offline phase against a live session: rip → decycle →
    /// forest → core description.
    pub fn build(session: &mut Session, config: &DmiBuildConfig) -> (Dmi, DmiBuildStats) {
        let (g, rip_stats) = ripper::rip(session, &config.rip);
        session.restart();
        let (dmi, mut stats) = Dmi::from_ung(g, config);
        stats.rip = rip_stats;
        (dmi, stats)
    }

    /// Runs the post-rip half of the offline pipeline (decycle → forest →
    /// core description) on an existing UNG — the warm-boot path for
    /// graphs loaded from a persistent store. The pipeline is a pure
    /// function of the graph bytes, so a byte-identical stored UNG yields
    /// a model identical to the one its original rip built.
    pub fn from_ung(mut g: Ung, config: &DmiBuildConfig) -> (Dmi, DmiBuildStats) {
        let mut stats = DmiBuildStats {
            rip_nodes: g.node_count(),
            rip_edges: g.edge_count(),
            ..Default::default()
        };
        stats.decycle = decycle(&mut g);
        let (forest, fstats) = build_forest(&g, &config.forest);
        stats.forest = fstats;
        let dmi = Dmi::from_forest(forest, config.describe.clone());
        stats.core_tokens = dmi.core_tokens;
        stats.core_controls = dmi.core.included.len();
        stats.full_tokens = crate::tokens::count(&dmi.full_text());
        (dmi, stats)
    }

    /// Wraps an already-built forest. The full description is rendered
    /// later, by the first call that needs it.
    pub fn from_forest(forest: Forest, describe_cfg: DescribeConfig) -> Dmi {
        let core = describe::core_description(&forest, &describe_cfg);
        let core_tokens = core.tokens();
        Dmi {
            forest,
            describe: describe_cfg,
            executor: ExecutorConfig::default(),
            core,
            core_tokens,
            full: OnceLock::new(),
        }
    }

    /// Serializes the offline model (forest + description options) to
    /// JSON. JSON is an output format only: a model comes back in through
    /// the `dmi-store` crate, which stores the rip checksummed and keyed by
    /// the application build (§5.2), then [`Dmi::from_ung`].
    pub fn to_json(&self) -> String {
        #[derive(serde::Serialize)]
        struct Saved<'a> {
            forest: &'a Forest,
            describe: &'a DescribeConfig,
        }
        serde_json::to_string(&Saved { forest: &self.forest, describe: &self.describe })
            .expect("model serializes")
    }

    /// The core topology text included in every prompt (§3.3).
    pub fn core_text(&self) -> &str {
        &self.core.text
    }

    /// Token cost of the core topology, counted when the model was built.
    pub fn core_tokens(&self) -> usize {
        self.core_tokens
    }

    /// Whether a node is fully described in the core topology (callers
    /// needing pruned nodes must `further_query` first, §3.3).
    pub fn core_includes(&self, id: usize) -> bool {
        self.core.included.contains(&id)
    }

    /// The complete forest description (`further_query` mode (b)),
    /// rendered on first use and then shared.
    fn full_text(&self) -> Arc<str> {
        let full = self
            .full
            .get_or_init(|| describe::full_description(&self.forest, &self.describe).text.into());
        Arc::clone(full)
    }

    /// Handles a `further_query` request (§3.3). An id list holding `-1`
    /// asks for the complete forest: every such answer is the same shared
    /// text, rendered at most once per model (by [`Dmi::from_ung`], which
    /// counts its tokens, or else by the first such query) and kept by
    /// clones of the model. Any other list expands the named branches,
    /// rendered afresh on each call (see [`describe::further_query`]).
    pub fn further_query(&self, ids: &[i64]) -> Arc<str> {
        if ids.contains(&-1) {
            return self.full_text();
        }
        describe::further_query(&self.forest, &self.describe, ids).text.into()
    }

    /// Executes a `visit` call given raw JSON from the LLM.
    pub fn visit_json(&self, session: &mut Session, json: &str) -> VisitOutcome {
        match visit::parse_commands(json) {
            Ok(cmds) => self.visit(session, cmds),
            Err(e) => VisitOutcome { error: Some(e), ..Default::default() },
        }
    }

    /// Executes parsed `visit` commands: filters navigational targets,
    /// then runs each command in order, stopping at the first error.
    pub fn visit(&self, session: &mut Session, commands: Vec<VisitCommand>) -> VisitOutcome {
        let (kept, filtered) = visit::filter_non_leaf(&self.forest, commands);
        let mut outcome = VisitOutcome { filtered, ..Default::default() };
        for cmd in kept {
            let result = match &cmd {
                VisitCommand::Access { id, entry_ref_id, .. } => {
                    executor::access(session, &self.forest, &self.executor, *id, entry_ref_id, None)
                        .map(|()| format!("accessed #{id}"))
                }
                VisitCommand::AccessInput { id, entry_ref_id, text } => executor::access(
                    session,
                    &self.forest,
                    &self.executor,
                    *id,
                    entry_ref_id,
                    Some(text),
                )
                .map(|()| format!("accessed #{id} and input {} chars", text.len())),
                VisitCommand::Shortcut { keys } => {
                    session.press(keys).map(|()| format!("pressed {keys}")).map_err(DmiError::from)
                }
                VisitCommand::FurtherQuery { ids } => {
                    dmi_obs::tally("visit.further_queries", 1);
                    outcome.query_result = Some(self.further_query(ids));
                    Ok(format!("queried {ids:?}"))
                }
            };
            match result {
                Ok(log) => outcome.executed.push(log),
                Err(e) => {
                    outcome.error = Some(e);
                    break;
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_apps::AppKind;
    use std::any::Any;

    fn build_word() -> (Session, Dmi, DmiBuildStats) {
        static STATS: std::sync::OnceLock<()> = std::sync::OnceLock::new();
        let _ = STATS;
        let s = Session::new(AppKind::Word.launch_small());
        let forest = crate::testutil::small_forest(AppKind::Word).clone();
        let dmi = Dmi::from_forest(forest, crate::describe::DescribeConfig::default());
        let stats = DmiBuildStats {
            core_tokens: dmi.core_tokens(),
            core_controls: dmi.core.included.len(),
            full_tokens: crate::describe::full_description(&dmi.forest, &dmi.describe).tokens(),
            ..Default::default()
        };
        (s, dmi, stats)
    }

    #[test]
    fn build_produces_core_smaller_than_full() {
        let (_s, dmi, stats) = build_word();
        assert!(stats.core_tokens > 0);
        assert!(stats.core_tokens < stats.full_tokens);
        assert!(stats.core_controls < dmi.forest.len());
        assert!(dmi.core_text().contains("#main-tree"));
    }

    #[test]
    fn visit_json_end_to_end_bold() {
        let (mut s, dmi, _) = build_word();
        // Select a line via the model (stand-in for a state declaration).
        let surf = s.app().tree().find_by_automation_id("Body").unwrap();
        s.select_lines(surf, 0, 2).unwrap();
        let bold = dmi
            .forest
            .nodes
            .iter()
            .find(|n| n.name == "Bold" && dmi.forest.is_functional_leaf(n.id))
            .unwrap()
            .id;
        let out = dmi.visit_json(&mut s, &format!(r#"[{{"id": {bold}}}]"#));
        assert!(out.ok(), "{:?}", out.error);
        let w = (s.app() as &dyn Any).downcast_ref::<dmi_apps::WordApp>().unwrap();
        assert!(w.doc.paragraphs[0].format.bold);
    }

    #[test]
    fn visit_filters_navigational_targets_and_continues() {
        let (mut s, dmi, _) = build_word();
        let home = dmi.forest.nodes.iter().find(|n| n.name == "Home").unwrap().id;
        let surf = s.app().tree().find_by_automation_id("Body").unwrap();
        s.select_lines(surf, 0, 0).unwrap();
        let italic = dmi
            .forest
            .nodes
            .iter()
            .find(|n| n.name == "Italic" && dmi.forest.is_functional_leaf(n.id))
            .unwrap()
            .id;
        let json = format!(r#"[{{"id": {home}}}, {{"id": {italic}}}]"#);
        let out = dmi.visit_json(&mut s, &json);
        assert!(out.ok());
        assert_eq!(out.filtered.len(), 1);
        assert_eq!(out.executed.len(), 1);
        let w = (s.app() as &dyn Any).downcast_ref::<dmi_apps::WordApp>().unwrap();
        assert!(w.doc.paragraphs[0].format.italic);
    }

    #[test]
    fn further_query_returns_expansion() {
        let (mut s, dmi, _) = build_word();
        let out = dmi.visit_json(&mut s, r#"[{"further_query": [-1]}]"#);
        assert!(out.ok());
        let q = out.query_result.unwrap();
        assert!(q.contains("#main-tree"));
        assert!(crate::tokens::count(&q) >= dmi.core_tokens());
        // The full text is rendered once and shared: by a second query,
        // by a clone of the model, and by a list that also names a branch.
        let again = dmi.visit_json(&mut s, r#"[{"further_query": [-1]}]"#).query_result.unwrap();
        assert!(Arc::ptr_eq(&q, &again));
        assert!(Arc::ptr_eq(&q, &dmi.clone().further_query(&[-1])));
        assert_eq!(*q, describe::full_description(&dmi.forest, &dmi.describe).text);
        let home = dmi.forest.nodes.iter().find(|n| n.name == "Home").unwrap().id;
        assert!(Arc::ptr_eq(&q, &dmi.further_query(&[home as i64, -1])));
        // `from_ung` counts the very text the queries share.
        let (built, stats) = Dmi::from_ung(
            crate::testutil::small_rip(AppKind::Word).0.clone(),
            &DmiBuildConfig::office("Word"),
        );
        assert_eq!(stats.full_tokens, crate::tokens::count(&built.further_query(&[-1])));
        assert!(Arc::ptr_eq(&built.further_query(&[-1]), &built.further_query(&[-1])));
    }

    #[test]
    fn malformed_json_reports_error() {
        let (mut s, dmi, _) = build_word();
        let out = dmi.visit_json(&mut s, "[{]");
        assert!(matches!(out.error, Some(DmiError::Malformed { .. })));
    }

    #[test]
    fn multi_command_single_call() {
        // The Table 1 pattern: several commands in one visit call.
        let mut s = Session::new(AppKind::PowerPoint.launch_small());
        let forest = crate::testutil::small_forest(AppKind::PowerPoint).clone();
        let dmi = Dmi::from_forest(forest, crate::describe::DescribeConfig::default());
        let blue = dmi
            .forest
            .nodes
            .iter()
            .find(|n| {
                n.name == "Blue"
                    && dmi.forest.is_functional_leaf(n.id)
                    && dmi
                        .forest
                        .path_to(n.id)
                        .iter()
                        .any(|&a| dmi.forest.nodes[a].name == "Fill Color")
            })
            .expect("Blue under Fill Color")
            .id;
        let apply = dmi
            .forest
            .nodes
            .iter()
            .find(|n| n.name == "Apply to All" && dmi.forest.is_functional_leaf(n.id))
            .unwrap()
            .id;
        let entry_blue = entry_for(&dmi, blue);
        let entry_apply = entry_for(&dmi, apply);
        let json = format!(r#"[{{"id": {blue}{entry_blue}}}, {{"id": {apply}{entry_apply}}}]"#);
        let out = dmi.visit_json(&mut s, &json);
        assert!(out.ok(), "{:?}", out.error);
        let ppt = (s.app() as &dyn Any).downcast_ref::<dmi_apps::PowerPointApp>().unwrap();
        assert!(ppt.deck.slides.iter().all(|sl| sl.background.as_deref() == Some("Blue")));
    }

    fn entry_for(dmi: &Dmi, id: usize) -> String {
        match dmi.forest.in_shared_subtree(id) {
            Some(root) => {
                let refs = dmi.forest.references_to(root);
                format!(r#", "entry_ref_id": [{}]"#, refs[0])
            }
            None => String::new(),
        }
    }
}
