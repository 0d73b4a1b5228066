//! Offline-pipeline integration: rip → decycle → forest → descriptions,
//! checked across all three full applications' structural properties.

use dmi_core::describe;
use dmi_core::topology::TopoKind;
use dmi_integration_tests::dmi_models;

#[test]
fn forests_preserve_unique_paths_for_all_apps() {
    for kind in dmi_apps::AppKind::ALL {
        let dmi = &dmi_models()[kind.name()];
        assert!(dmi.forest.verify_unique_paths(), "{kind}: duplicate paths");
        assert!(dmi.forest.len() > 500, "{kind}: forest too small ({})", dmi.forest.len());
    }
}

#[test]
fn word_has_shared_subtrees_with_multiple_entries() {
    // The shared Colors dialog is reachable from several color menus.
    let dmi = &dmi_models()["Word"];
    let multi_entry =
        dmi.forest.shared_roots.iter().filter(|&&r| dmi.forest.references_to(r).len() > 1).count();
    assert!(multi_entry >= 1, "expected a merge-node dialog with several entries");
}

#[test]
fn entry_map_is_consistent() {
    for kind in dmi_apps::AppKind::ALL {
        let dmi = &dmi_models()[kind.name()];
        for (&r, &root) in &dmi.forest.entry_map {
            match dmi.forest.nodes[r].kind {
                TopoKind::Reference { subtree_root } => assert_eq!(subtree_root, root),
                ref other => panic!("{kind}: entry {r} is not a reference ({other:?})"),
            }
            assert!(dmi.forest.shared_roots.contains(&root));
        }
    }
}

#[test]
fn core_topology_is_cheaper_than_full() {
    for kind in dmi_apps::AppKind::ALL {
        let dmi = &dmi_models()[kind.name()];
        let full = describe::full_description(&dmi.forest, &dmi.describe);
        assert!(
            dmi.core_tokens() <= full.tokens(),
            "{kind}: core {} > full {}",
            dmi.core_tokens(),
            full.tokens()
        );
    }
}

#[test]
fn further_query_recovers_pruned_font_list() {
    let dmi = &dmi_models()["Word"];
    // The font gallery is a large enumeration: pruned from the core.
    let font_gallery =
        dmi.forest.nodes.iter().find(|n| n.name == "Font Name").expect("font gallery modeled");
    let last_font = dmi
        .forest
        .nodes
        .iter()
        .rfind(|n| n.parent == Some(font_gallery.id))
        .expect("font entries modeled");
    assert!(!dmi.core_includes(last_font.id), "font list tail should be pruned from the core");
    let expansion = dmi.further_query(&[font_gallery.id as i64]);
    assert!(expansion.contains(&last_font.name), "branch query reveals the pruned entries");
}

#[test]
fn navigation_depth_exceeds_ten_somewhere() {
    // §5.1: navigation depth exceeding 10 in the modeled apps.
    let mut max_depth = 0usize;
    for kind in dmi_apps::AppKind::ALL {
        let dmi = &dmi_models()[kind.name()];
        for n in &dmi.forest.nodes {
            // Count full path length through entries for shared subtrees.
            let mut depth = dmi.forest.path_to(n.id).len();
            if let Some(root) = dmi.forest.in_shared_subtree(n.id) {
                if let Some(&r) = dmi.forest.references_to(root).first() {
                    depth += dmi.forest.path_to(r).len();
                }
            }
            max_depth = max_depth.max(depth);
        }
    }
    assert!(max_depth >= 10, "max navigation depth {max_depth}");
}

#[test]
fn ambiguous_blue_cells_exist_and_disambiguate_by_path() {
    let dmi = &dmi_models()["Word"];
    let blues: Vec<usize> = dmi
        .forest
        .nodes
        .iter()
        .filter(|n| n.name == "Blue" && dmi.forest.is_functional_leaf(n.id))
        .map(|n| n.id)
        .collect();
    assert!(blues.len() >= 4, "only {} Blue cells", blues.len());
    // Each has a unique path even though names collide.
    let mut paths: Vec<Vec<usize>> = blues.iter().map(|&b| dmi.forest.path_to(b)).collect();
    paths.sort();
    paths.dedup();
    assert_eq!(paths.len(), blues.len());
}

#[test]
fn forest_keys_are_interned_fingerprints() {
    // ROADMAP "Forest-side key interning": every forest node carries the
    // fingerprint of its control id, computed once at build time, so the
    // executor's exact pass never re-hashes identifiers per resolve.
    for kind in dmi_apps::AppKind::ALL {
        let dmi = &dmi_models()[kind.name()];
        for n in &dmi.forest.nodes {
            assert_eq!(
                n.key,
                dmi_uia::ControlKey::of_id(&n.control),
                "{kind}: stale key on forest node {}",
                n.id
            );
        }
    }
}

#[test]
fn dmi_build_uses_esc_recovery_by_default() {
    // The offline phase inherits the ripper's §4.1 fast state restoration:
    // almost every branch recovers via Esc instead of an app restart.
    let mut s = dmi_gui::Session::new(dmi_apps::AppKind::Word.launch_small());
    let (_, stats) = dmi_core::Dmi::build(&mut s, &dmi_core::DmiBuildConfig::office("Word"));
    assert!(stats.rip.esc_recoveries > 100 * stats.rip.restarts, "{:?}", stats.rip);
    // Build leaves the session freshly restarted: one beyond the rip's own.
    assert_eq!(s.restart_count(), stats.rip.restarts + 1, "restarts tracked by the session");
    assert!(
        s.action_count() > s.restart_count() * 100,
        "restarts must not dominate the action count"
    );
}
