//! Value codecs for the domain types the store persists: UNGs, rip
//! journals, window signatures, snapshots, and pooled captures.
//!
//! Reconstruction invariants the byte-identity oracles rest on:
//!
//! - **UNG**: adjacency lists travel verbatim (`Ung::raw_parts` /
//!   `Ung::from_raw_parts`) because their per-list order is insertion
//!   order, which `serde_json::to_string` — the oracle's byte domain —
//!   observes.
//! - **Snapshot**: nodes are replayed through `Snapshot::push` in arena
//!   order. Arena order is DFS order (children ascend), so `push`
//!   rebuilds identical `children` lists; runtime ids are then restored
//!   explicitly, and window roots re-registered in ordinal order.
//! - **ControlType / PatternKind** are encoded as indices into their
//!   `ALL` tables — stable within a format version by definition; any
//!   reordering is a format break and must bump [`crate::codec::FORMAT_VERSION`].

use crate::codec::{corrupt, Dec, Enc, Interner, StoreResult};
use dmi_core::{JournalEntry, RipStats, Ung, UngNode, WindowSig};
use dmi_gui::PooledCapture;
use dmi_uia::{
    ControlId, ControlProps, ControlType, PatternKind, PatternSet, Rect, RuntimeId, Snapshot,
    ToggleState,
};
use std::sync::Arc;

fn enc_control_type(e: &mut Enc, ct: ControlType) {
    let idx = ControlType::ALL
        .iter()
        .position(|c| *c == ct)
        .expect("ControlType::ALL covers every variant");
    e.u8(idx as u8);
}

fn dec_control_type(d: &mut Dec) -> StoreResult<ControlType> {
    let idx = d.u8()? as usize;
    ControlType::ALL
        .get(idx)
        .copied()
        .ok_or_else(|| corrupt(format!("control type index {idx} out of range")))
}

fn enc_control_id(e: &mut Enc, it: &mut Interner, cid: &ControlId) {
    e.str(it, &cid.primary);
    enc_control_type(e, cid.control_type);
    e.str(it, &cid.ancestor_path);
}

fn dec_control_id(d: &mut Dec, strings: &[String]) -> StoreResult<ControlId> {
    let primary = d.str(strings)?.to_string();
    let control_type = dec_control_type(d)?;
    let ancestor_path = d.str(strings)?.to_string();
    Ok(ControlId { primary, control_type, ancestor_path })
}

pub fn enc_sigs(e: &mut Enc, it: &mut Interner, sigs: &[WindowSig]) {
    e.len(sigs.len());
    for s in sigs {
        e.u64(s.digest[0]);
        e.u64(s.digest[1]);
        e.bool(s.modal);
        e.str(it, &s.root_name);
    }
}

pub fn dec_sigs(d: &mut Dec, strings: &[String]) -> StoreResult<Vec<WindowSig>> {
    let n = d.len(21)?;
    let mut sigs = Vec::with_capacity(n);
    for _ in 0..n {
        let digest = [d.u64()?, d.u64()?];
        let modal = d.bool()?;
        let root_name = d.str(strings)?.to_string();
        sigs.push(WindowSig { digest, modal, root_name });
    }
    Ok(sigs)
}

pub fn enc_ung(e: &mut Enc, it: &mut Interner, g: &Ung) {
    let (nodes, succ, pred, root, edge_count) = g.raw_parts();
    e.len(nodes.len());
    for n in nodes {
        enc_control_id(e, it, &n.control);
        e.str(it, &n.name);
        enc_control_type(e, n.control_type);
        e.str(it, &n.help_text);
    }
    for adjacency in [succ, pred] {
        for list in adjacency {
            e.len(list.len());
            for &v in list {
                e.u32(v as u32);
            }
        }
    }
    e.u32(root as u32);
    e.u64(edge_count as u64);
}

pub fn dec_ung(d: &mut Dec, strings: &[String]) -> StoreResult<Ung> {
    let n = d.len(14)?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let control = dec_control_id(d, strings)?;
        let name = d.str(strings)?.to_string();
        let control_type = dec_control_type(d)?;
        let help_text = d.str(strings)?.to_string();
        nodes.push(UngNode { control, name, control_type, help_text });
    }
    let dec_adjacency = |d: &mut Dec| -> StoreResult<Vec<Vec<usize>>> {
        let mut adj = Vec::with_capacity(n);
        for _ in 0..n {
            let m = d.len(4)?;
            let mut list = Vec::with_capacity(m);
            for _ in 0..m {
                list.push(d.u32()? as usize);
            }
            adj.push(list);
        }
        Ok(adj)
    };
    let succ = dec_adjacency(d)?;
    let pred = dec_adjacency(d)?;
    let root = d.u32()? as usize;
    let edge_count = d.u64()? as usize;
    Ung::from_raw_parts(nodes, succ, pred, root, edge_count).map_err(corrupt)
}

pub fn enc_rip_stats(e: &mut Enc, s: &RipStats) {
    for v in [
        s.clicks,
        s.snapshots,
        s.restarts,
        s.esc_recoveries,
        s.esc_presses,
        s.blocklisted,
        s.replay_failures,
        s.windows_seen,
        s.pool_hits,
        s.pool_misses,
        s.poison_recoveries,
    ] {
        e.u64(v);
    }
}

pub fn dec_rip_stats(d: &mut Dec) -> StoreResult<RipStats> {
    Ok(RipStats {
        clicks: d.u64()?,
        snapshots: d.u64()?,
        restarts: d.u64()?,
        esc_recoveries: d.u64()?,
        esc_presses: d.u64()?,
        blocklisted: d.u64()?,
        replay_failures: d.u64()?,
        windows_seen: d.u64()?,
        pool_hits: d.u64()?,
        pool_misses: d.u64()?,
        poison_recoveries: d.u64()?,
    })
}

/// The journal's window-signature table: a rip's entries repeat a small
/// set of distinct [`WindowSig`]s across thousands of pre/post lists
/// (most explorations share the same surrounding windows), so the
/// JOURNAL section interns sigs and encodes the lists as id sequences —
/// the dominant size win of the binary format over JSON.
#[derive(Default)]
struct SigTable {
    sigs: Vec<WindowSig>,
    ids: std::collections::HashMap<(u64, u64, bool, String), u32>,
}

impl SigTable {
    fn id(&mut self, s: &WindowSig) -> u32 {
        let key = (s.digest[0], s.digest[1], s.modal, s.root_name.clone());
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.sigs.len() as u32;
        self.sigs.push(s.clone());
        self.ids.insert(key, id);
        id
    }
}

pub fn enc_journal_entries(e: &mut Enc, it: &mut Interner, entries: &[JournalEntry]) {
    // First pass: intern every sig so the table can be emitted up front.
    let mut table = SigTable::default();
    let ids: Vec<(Vec<u32>, Vec<u32>)> = entries
        .iter()
        .map(|entry| {
            (
                entry.pre.iter().map(|s| table.id(s)).collect(),
                entry.post.iter().map(|s| table.id(s)).collect(),
            )
        })
        .collect();
    enc_sigs(e, it, &table.sigs);
    e.len(entries.len());
    for (entry, (pre_ids, post_ids)) in entries.iter().zip(&ids) {
        e.len(entry.setup.len());
        for s in &entry.setup {
            e.str(it, s);
        }
        enc_control_id(e, it, &entry.cid);
        e.len(entry.path.len());
        for p in &entry.path {
            enc_control_id(e, it, p);
        }
        for list in [pre_ids, post_ids] {
            e.len(list.len());
            for &id in list {
                e.u32(id);
            }
        }
        e.len(entry.fresh.len());
        for &(w, off) in &entry.fresh {
            e.u32(w);
            e.u32(off);
        }
    }
}

pub fn dec_journal_entries(d: &mut Dec, strings: &[String]) -> StoreResult<Vec<JournalEntry>> {
    let table = dec_sigs(d, strings)?;
    let dec_sig_list = |d: &mut Dec| -> StoreResult<Vec<WindowSig>> {
        let n = d.len(4)?;
        let mut sigs = Vec::with_capacity(n);
        for _ in 0..n {
            let id = d.u32()? as usize;
            let sig = table.get(id).ok_or_else(|| {
                corrupt(format!("sig id {id} out of table range {}", table.len()))
            })?;
            sigs.push(sig.clone());
        }
        Ok(sigs)
    };
    let n = d.len(25)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let n_setup = d.len(4)?;
        let mut setup = Vec::with_capacity(n_setup);
        for _ in 0..n_setup {
            setup.push(d.str(strings)?.to_string());
        }
        let cid = dec_control_id(d, strings)?;
        let n_path = d.len(9)?;
        let mut path = Vec::with_capacity(n_path);
        for _ in 0..n_path {
            path.push(dec_control_id(d, strings)?);
        }
        let pre = dec_sig_list(d)?;
        let post = dec_sig_list(d)?;
        let n_fresh = d.len(8)?;
        let mut fresh = Vec::with_capacity(n_fresh);
        for _ in 0..n_fresh {
            fresh.push((d.u32()?, d.u32()?));
        }
        entries.push(JournalEntry { setup, cid, path, pre, post, fresh });
    }
    Ok(entries)
}

/// Node flag byte: bits 0–3 hold the four booleans, bits 4–5 the
/// `Option<ToggleState>`, bits 6–7 the `Option<bool>` expanded state.
fn enc_flags(p: &ControlProps) -> u8 {
    let mut f = 0u8;
    f |= p.enabled as u8;
    f |= (p.offscreen as u8) << 1;
    f |= (p.selected as u8) << 2;
    f |= (p.focusable as u8) << 3;
    f |= match p.toggle {
        None => 0,
        Some(ToggleState::Off) => 1,
        Some(ToggleState::On) => 2,
        Some(ToggleState::Indeterminate) => 3,
    } << 4;
    f |= match p.expanded {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    } << 6;
    f
}

/// Decoded flag byte: `(enabled, offscreen, selected, focusable, toggle,
/// expanded)`.
type Flags = (bool, bool, bool, bool, Option<ToggleState>, Option<bool>);

fn dec_flags(f: u8) -> StoreResult<Flags> {
    let toggle = match (f >> 4) & 0b11 {
        0 => None,
        1 => Some(ToggleState::Off),
        2 => Some(ToggleState::On),
        3 => Some(ToggleState::Indeterminate),
        _ => unreachable!(),
    };
    let expanded = match (f >> 6) & 0b11 {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        b => return Err(corrupt(format!("invalid expanded bits {b}"))),
    };
    Ok((f & 1 != 0, f & 2 != 0, f & 4 != 0, f & 8 != 0, toggle, expanded))
}

fn enc_patterns(e: &mut Enc, set: &PatternSet) {
    let bits = set.iter().fold(0u64, |acc, p| acc | (1u64 << (p as u32)));
    e.u64(bits);
}

fn dec_patterns(d: &mut Dec) -> StoreResult<PatternSet> {
    let bits = d.u64()?;
    if bits >> PatternKind::ALL.len() != 0 {
        return Err(corrupt(format!("unknown pattern bits {bits:#x}")));
    }
    Ok(PatternKind::ALL.iter().copied().filter(|&p| bits & (1u64 << (p as u32)) != 0).collect())
}

pub fn enc_snapshot(e: &mut Enc, it: &mut Interner, snap: &Snapshot) {
    e.len(snap.len());
    for (_, node) in snap.iter() {
        let p = &node.props;
        e.u32(node.parent.map_or(u32::MAX, |v| v as u32));
        e.u32(node.window as u32);
        e.u64(node.runtime_id.0);
        e.str(it, &p.automation_id);
        e.str(it, &p.name);
        enc_control_type(e, p.control_type);
        e.str(it, &p.class_name);
        e.str(it, &p.help_text);
        enc_patterns(e, &p.patterns);
        e.u8(enc_flags(p));
        e.str(it, &p.value);
        e.i32(p.rect.x);
        e.i32(p.rect.y);
        e.i32(p.rect.w);
        e.i32(p.rect.h);
    }
    let ws = snap.windows();
    e.len(ws.len());
    for (i, &root) in ws.iter().enumerate() {
        e.u32(root as u32);
        e.bool(snap.window_is_modal(i));
    }
}

pub fn dec_snapshot(d: &mut Dec, strings: &[String]) -> StoreResult<Snapshot> {
    let n = d.len(46)?;
    let mut snap = Snapshot::new();
    let mut runtime_ids = Vec::with_capacity(n);
    for idx in 0..n {
        let parent = match d.u32()? {
            u32::MAX => None,
            p if (p as usize) < idx => Some(p as usize),
            p => return Err(corrupt(format!("node {idx} parent {p} not yet decoded"))),
        };
        let window = d.u32()? as usize;
        let runtime_id = d.u64()?;
        let automation_id = d.str(strings)?.to_string();
        let name = d.str(strings)?.to_string();
        let control_type = dec_control_type(d)?;
        let class_name = d.str(strings)?.to_string();
        let help_text = d.str(strings)?.to_string();
        let patterns = dec_patterns(d)?;
        let (enabled, offscreen, selected, focusable, toggle, expanded) = dec_flags(d.u8()?)?;
        let value = d.str(strings)?.to_string();
        let rect = Rect { x: d.i32()?, y: d.i32()?, w: d.i32()?, h: d.i32()? };
        let props = ControlProps {
            automation_id,
            name,
            control_type,
            class_name,
            help_text,
            patterns,
            enabled,
            offscreen,
            value,
            toggle,
            selected,
            expanded,
            rect,
            focusable,
        };
        let pushed = snap.push(props, parent, window);
        debug_assert_eq!(pushed, idx);
        runtime_ids.push(runtime_id);
    }
    for (idx, rt) in runtime_ids.into_iter().enumerate() {
        snap.set_runtime_id(idx, RuntimeId(rt));
    }
    let n_windows = d.len(5)?;
    for _ in 0..n_windows {
        let root = d.u32()? as usize;
        let modal = d.bool()?;
        if root >= snap.len() {
            return Err(corrupt(format!("window root {root} out of arena range {}", snap.len())));
        }
        if modal {
            snap.push_modal_window_root(root);
        } else {
            snap.push_window_root(root);
        }
    }
    Ok(snap)
}

pub fn enc_captures(e: &mut Enc, it: &mut Interner, captures: &[PooledCapture]) {
    e.len(captures.len());
    for c in captures {
        e.u64(c.model);
        e.u64(c.hash);
        e.len(c.trace.len());
        for &fp in &c.trace {
            e.u64(fp);
        }
        e.u64(c.hits);
        enc_snapshot(e, it, &c.snap);
    }
}

pub fn dec_captures(d: &mut Dec, strings: &[String]) -> StoreResult<Vec<PooledCapture>> {
    let n = d.len(36)?;
    let mut captures = Vec::with_capacity(n);
    for _ in 0..n {
        let model = d.u64()?;
        let hash = d.u64()?;
        let n_trace = d.len(8)?;
        let mut trace = Vec::with_capacity(n_trace);
        for _ in 0..n_trace {
            trace.push(d.u64()?);
        }
        let hits = d.u64()?;
        let snap = Arc::new(dec_snapshot(d, strings)?);
        captures.push(PooledCapture { model, hash, trace, snap, hits });
    }
    Ok(captures)
}
