//! The `visit` command set (§3.4): JSON wire format, parsing, and the
//! non-leaf filter that lets DMI take over all navigation.

use crate::error::{DmiError, DmiResult};
use crate::topology::Forest;
use serde_json::Value;

/// One command accepted by the `visit` interface.
#[derive(Debug, Clone, PartialEq)]
pub enum VisitCommand {
    /// Control access: navigate to the target and click it.
    Access {
        /// Numeric topology id.
        id: u64,
        /// Entry reference ids for targets in shared subtrees.
        entry_ref_id: Vec<u64>,
        /// Bypass the non-leaf filter (§5.7 "Explicit navigation-node
        /// access"): the caller explicitly asks to click a navigation
        /// node.
        enforced: bool,
    },
    /// Access an Edit control and input text.
    AccessInput {
        /// Numeric topology id.
        id: u64,
        /// Entry reference ids.
        entry_ref_id: Vec<u64>,
        /// Text to input.
        text: String,
    },
    /// Auxiliary keyboard shortcut (e.g. committing an edit with ENTER).
    Shortcut {
        /// Key combination (e.g. `"Enter"`, `"Ctrl+B"`).
        keys: String,
    },
    /// Request additional topology (exclusive; `-1` = the whole forest).
    FurtherQuery {
        /// Node ids to expand, or `[-1]`.
        ids: Vec<i64>,
    },
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(n) => n.as_u64(),
        Value::String(s) => s.trim().parse().ok(),
        _ => None,
    }
}

fn as_i64(v: &Value) -> Option<i64> {
    match v {
        Value::Number(n) => n.as_i64(),
        Value::String(s) => s.trim().parse().ok(),
        _ => None,
    }
}

/// Parses the JSON array the LLM emits into commands.
///
/// Accepts ids as numbers or numeric strings (imperfect instruction
/// following); enforces `further_query` exclusivity.
pub fn parse_commands(json: &str) -> DmiResult<Vec<VisitCommand>> {
    let v = serde_json::parse_value(json)
        .map_err(|e| DmiError::Malformed { message: format!("invalid JSON: {e}") })?;
    let arr = v
        .as_array()
        .ok_or_else(|| DmiError::Malformed { message: "expected a JSON array".into() })?;
    let mut out = Vec::with_capacity(arr.len());
    for (i, item) in arr.iter().enumerate() {
        let obj = item.as_object().ok_or_else(|| DmiError::Malformed {
            message: format!("command {i} is not an object"),
        })?;
        if let Some(q) = obj.get("further_query") {
            let ids: Vec<i64> = match q {
                Value::Array(items) => items.iter().filter_map(as_i64).collect(),
                single => as_i64(single).into_iter().collect(),
            };
            out.push(VisitCommand::FurtherQuery { ids });
        } else if let Some(k) = obj.get("shortcut_key") {
            let keys = k
                .as_str()
                .ok_or_else(|| DmiError::Malformed {
                    message: format!("command {i}: shortcut_key must be a string"),
                })?
                .to_string();
            out.push(VisitCommand::Shortcut { keys });
        } else if let Some(idv) = obj.get("id") {
            let id = as_u64(idv).ok_or_else(|| DmiError::Malformed {
                message: format!("command {i}: id must be a non-negative integer"),
            })?;
            let entry_ref_id: Vec<u64> = match obj.get("entry_ref_id") {
                Some(Value::Array(items)) => items.iter().filter_map(as_u64).collect(),
                Some(single) => as_u64(single).into_iter().collect(),
                None => Vec::new(),
            };
            let enforced = obj.get("enforced").and_then(Value::as_bool).unwrap_or(false);
            match obj.get("text") {
                Some(t) => {
                    let text = t
                        .as_str()
                        .ok_or_else(|| DmiError::Malformed {
                            message: format!("command {i}: text must be a string"),
                        })?
                        .to_string();
                    out.push(VisitCommand::AccessInput { id, entry_ref_id, text });
                }
                None => out.push(VisitCommand::Access { id, entry_ref_id, enforced }),
            }
        } else {
            return Err(DmiError::Malformed {
                message: format!("command {i}: expected id, shortcut_key, or further_query"),
            });
        }
    }
    let queries = out.iter().filter(|c| matches!(c, VisitCommand::FurtherQuery { .. })).count();
    if queries > 0 && out.len() > queries {
        return Err(DmiError::QueryNotExclusive);
    }
    Ok(out)
}

/// A command removed by the navigation filter.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredCommand {
    /// Index in the original command array.
    pub index: usize,
    /// Human-readable reason.
    pub reason: String,
}

/// Applies the §3.4 filter: drop commands targeting non-leaf (navigational)
/// nodes — DMI owns navigation — and drop shortcut commands that
/// immediately follow a dropped command (consistency).
pub fn filter_non_leaf(
    forest: &Forest,
    commands: Vec<VisitCommand>,
) -> (Vec<VisitCommand>, Vec<FilteredCommand>) {
    let mut kept = Vec::with_capacity(commands.len());
    let mut filtered = Vec::new();
    let mut last_dropped = false;
    for (i, c) in commands.into_iter().enumerate() {
        match &c {
            VisitCommand::Access { id, enforced: true, .. } => {
                // Explicitly enforced navigation-node access bypasses the
                // filter when the id at least exists.
                if forest.node(*id as usize).is_some() {
                    kept.push(c);
                    last_dropped = false;
                } else {
                    filtered.push(FilteredCommand {
                        index: i,
                        reason: format!("#{id} does not exist"),
                    });
                    last_dropped = true;
                }
            }
            VisitCommand::Access { id, .. } | VisitCommand::AccessInput { id, .. } => {
                let leaf = forest.is_functional_leaf(*id as usize);
                if leaf {
                    kept.push(c);
                    last_dropped = false;
                } else {
                    let name = forest
                        .node(*id as usize)
                        .map(|n| n.name.clone())
                        .unwrap_or_else(|| format!("#{id}"));
                    filtered.push(FilteredCommand {
                        index: i,
                        reason: format!(
                            "'{name}' is a navigational (non-leaf) node; DMI handles navigation"
                        ),
                    });
                    last_dropped = true;
                }
            }
            VisitCommand::Shortcut { keys } => {
                if last_dropped {
                    filtered.push(FilteredCommand {
                        index: i,
                        reason: format!("shortcut '{keys}' followed a filtered command"),
                    });
                } else {
                    kept.push(c);
                }
            }
            VisitCommand::FurtherQuery { .. } => {
                kept.push(c);
                last_dropped = false;
            }
        }
    }
    (kept, filtered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ung_from_parts;
    use crate::topology::{build_forest, decycle, ForestConfig};
    use dmi_uia::ControlType as CT;

    fn forest() -> Forest {
        let mut g = ung_from_parts(
            &[("Home", CT::TabItem), ("Bold", CT::Button), ("Italic", CT::Button)],
            &[(0, 1), (0, 2)],
        );
        decycle(&mut g);
        build_forest(&g, &ForestConfig::default()).0
    }

    #[test]
    fn parse_all_command_kinds() {
        let cmds = parse_commands(
            r#"[{"id": "7"}, {"id": 3, "text": "hello"}, {"shortcut_key": "Enter"}]"#,
        )
        .unwrap();
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[0], VisitCommand::Access { id: 7, entry_ref_id: vec![], enforced: false });
        assert!(
            matches!(&cmds[1], VisitCommand::AccessInput { id: 3, text, .. } if text == "hello")
        );
        assert!(matches!(&cmds[2], VisitCommand::Shortcut { keys } if keys == "Enter"));
    }

    #[test]
    fn parse_entry_refs_scalar_or_array() {
        let cmds = parse_commands(
            r#"[{"id": 9, "entry_ref_id": ["4", 5]}, {"id": 9, "entry_ref_id": 4}]"#,
        )
        .unwrap();
        assert_eq!(
            cmds[0],
            VisitCommand::Access { id: 9, entry_ref_id: vec![4, 5], enforced: false }
        );
        assert_eq!(cmds[1], VisitCommand::Access { id: 9, entry_ref_id: vec![4], enforced: false });
    }

    #[test]
    fn further_query_is_exclusive() {
        assert!(matches!(
            parse_commands(r#"[{"further_query": [-1]}, {"id": 2}]"#),
            Err(DmiError::QueryNotExclusive)
        ));
        let ok = parse_commands(r#"[{"further_query": ["12", -1]}]"#).unwrap();
        assert_eq!(ok[0], VisitCommand::FurtherQuery { ids: vec![12, -1] });
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(parse_commands("not json").is_err());
        assert!(parse_commands(r#"{"id": 1}"#).is_err()); // not an array
        assert!(parse_commands(r#"[{"bogus": 1}]"#).is_err());
        assert!(parse_commands(r#"[{"id": -4}]"#).is_err());
    }

    #[test]
    fn filter_drops_non_leaf_and_following_shortcut() {
        let f = forest();
        let home = f.nodes.iter().find(|n| n.name == "Home").unwrap().id as u64;
        let bold = f.nodes.iter().find(|n| n.name == "Bold").unwrap().id as u64;
        let cmds = vec![
            VisitCommand::Access { id: home, entry_ref_id: vec![], enforced: false },
            VisitCommand::Shortcut { keys: "Enter".into() }, // follows filtered
            VisitCommand::Access { id: bold, entry_ref_id: vec![], enforced: false },
            VisitCommand::Shortcut { keys: "Ctrl+S".into() }, // follows kept
        ];
        let (kept, filtered) = filter_non_leaf(&f, cmds);
        assert_eq!(kept.len(), 2);
        assert!(matches!(kept[0], VisitCommand::Access { id, .. } if id == bold));
        assert_eq!(filtered.len(), 2);
        assert!(filtered[0].reason.contains("navigational"));
    }

    #[test]
    fn filter_drops_unknown_ids() {
        let f = forest();
        let (kept, filtered) = filter_non_leaf(
            &f,
            vec![VisitCommand::Access { id: 9999, entry_ref_id: vec![], enforced: false }],
        );
        assert!(kept.is_empty());
        assert_eq!(filtered.len(), 1);
    }

    #[test]
    fn enforced_access_bypasses_filter() {
        let f = forest();
        let home = f.nodes.iter().find(|n| n.name == "Home").unwrap().id as u64;
        let cmds = parse_commands(&format!(r#"[{{"id": {home}, "enforced": true}}]"#)).unwrap();
        let (kept, filtered) = filter_non_leaf(&f, cmds);
        assert_eq!(kept.len(), 1, "enforced navigation access is kept");
        assert!(filtered.is_empty());
        // A nonexistent enforced id is still filtered.
        let cmds = vec![VisitCommand::Access { id: 99999, entry_ref_id: vec![], enforced: true }];
        let (kept, filtered) = filter_non_leaf(&f, cmds);
        assert!(kept.is_empty());
        assert_eq!(filtered.len(), 1);
    }
}
