//! Structural signatures of an application's pristine launch image.
//!
//! The image's table of launch captures (`GuiApp::launch_captures`)
//! attests the launch image within one process (it lives beside the
//! image in memory), so it cannot survive serialization.
//! [`pristine_signature`] is the cross-process identity instead: per
//! window block of the freshly restarted base capture, a 128-bit digest
//! over relative arena position, parentage, control type, name and
//! automation id, plus the window's modality and root name. The store
//! embeds it in every artifact and its warm paths refuse a live
//! application whose signature differs.

use dmi_gui::Session;
use dmi_uia::Snapshot;

/// The digest + structure summary of one window block of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSig {
    /// Two independent 64-bit digest streams (128 bits total) over the
    /// block's relative positions, parentage, control types, names and
    /// automation ids.
    pub digest: [u64; 2],
    /// Whether the window is modal.
    pub modal: bool,
    /// The window root's display name.
    pub root_name: String,
}

/// Per-window signatures of a snapshot (see [`WindowSig`]). Block digests
/// use *relative* indices so equal window contents digest equal wherever
/// the block sits in the arena.
fn window_sigs(snap: &Snapshot) -> Vec<WindowSig> {
    // Word-at-a-time FNV-style mixing; chunk lengths are folded in so
    // zero-padding cannot alias a shorter input.
    fn eat(h: &mut [u64; 2], bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            let v = u64::from_le_bytes(w) ^ ((chunk.len() as u64) << 56);
            h[0] = (h[0] ^ v).wrapping_mul(0x100_0000_01b3);
            h[1] = (h[1] ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .rotate_left(29)
                .wrapping_mul(0xA24B_AED4_963E_E407);
        }
    }
    let ws = snap.windows();
    // Every capture walks a window's root first and registers it at the
    // window's first node, so the first window starts the arena.
    debug_assert!(ws.first().map_or(snap.is_empty(), |&s| s == 0), "a node before every window");
    ws.iter()
        .enumerate()
        .map(|(wi, &start)| {
            let end = ws.get(wi + 1).copied().unwrap_or(snap.len());
            let mut h: [u64; 2] = [0xcbf2_9ce4_8422_2325, 0x9E55_79B9_7F4A_7C15];
            eat(&mut h, &((end - start) as u64).to_le_bytes());
            for idx in start..end {
                let node = snap.node(idx);
                eat(&mut h, &((idx - start) as u64).to_le_bytes());
                let rel_parent = node
                    .parent
                    .and_then(|p| (p >= start && p < end).then_some((p - start) as u64))
                    .unwrap_or(u64::MAX);
                eat(&mut h, &rel_parent.to_le_bytes());
                let p = &node.props;
                eat(&mut h, p.control_type.as_str().as_bytes());
                eat(&mut h, b"\x1f");
                eat(&mut h, p.name.as_bytes());
                eat(&mut h, b"\x1f");
                eat(&mut h, p.automation_id.as_bytes());
            }
            WindowSig {
                digest: h,
                modal: snap.window_is_modal(wi),
                root_name: snap.node(start).props.name.clone(),
            }
        })
        .collect()
}

/// The structural signature of an application's pristine launch image:
/// restarts the session and signs the fresh base capture.
pub fn pristine_signature(session: &mut Session) -> Vec<WindowSig> {
    session.restart();
    let snap = session.snapshot();
    window_sigs(&snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_apps::AppKind;

    #[test]
    fn pristine_signature_distinguishes_versions_and_matches_itself() {
        let mut a = Session::new(AppKind::Word.launch_small_version(0));
        let mut b = Session::new(AppKind::Word.launch_small_version(0));
        let mut c = Session::new(AppKind::Word.launch_small_version(1));
        let sa = pristine_signature(&mut a);
        let sb = pristine_signature(&mut b);
        let sc = pristine_signature(&mut c);
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    /// Builds one snapshot from `(root name, child names)` windows, each
    /// window one contiguous block, the last one modal.
    fn snap_of(windows: &[(&str, &[&str])]) -> Snapshot {
        use dmi_uia::{ControlProps, ControlType};
        let mut snap = Snapshot::new();
        for (wi, (root, children)) in windows.iter().enumerate() {
            let r = snap.push(ControlProps::new(*root, ControlType::Window), None, wi);
            for child in *children {
                snap.push(ControlProps::new(*child, ControlType::Button), Some(r), wi);
            }
            if wi + 1 == windows.len() {
                snap.push_modal_window_root(r);
            } else {
                snap.push_window_root(r);
            }
        }
        snap
    }

    #[test]
    fn window_sigs_are_offset_independent_but_content_sensitive() {
        let short = window_sigs(&snap_of(&[("Main", &["A"]), ("Dialog", &["OK", "Cancel"])]));
        let long = window_sigs(&snap_of(&[("Main", &["A", "B"]), ("Dialog", &["OK", "Cancel"])]));
        let edited = window_sigs(&snap_of(&[("Main", &["A"]), ("Dialog", &["OK", "Close"])]));
        assert_eq!(short.len(), 2);
        assert_eq!(short[1], long[1], "a moved but equal block signs equal");
        assert_ne!(short[0], long[0], "a grown block signs differently");
        assert_eq!(short[0], edited[0]);
        assert_ne!(short[1].digest, edited[1].digest, "a renamed control changes the digest");
        assert!(short[1].modal && !short[0].modal);
        assert_eq!(short[1].root_name, "Dialog");
    }
}
