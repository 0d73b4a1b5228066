//! Value codecs for the domain types the store persists: UNGs, rip
//! stats, and window signatures.
//!
//! Reconstruction invariants the byte-identity oracles rest on:
//!
//! - **UNG**: adjacency lists travel verbatim (`Ung::raw_parts` /
//!   `Ung::from_raw_parts`) because their per-list order is insertion
//!   order, which `serde_json::to_string` — the oracle's byte domain —
//!   observes.
//! - **ControlType** is encoded as an index into `ControlType::ALL` —
//!   stable within a format version by definition; any reordering is a
//!   format break and must bump [`crate::codec::FORMAT_VERSION`].

use crate::codec::{corrupt, Dec, Enc, Interner, StoreResult};
use dmi_core::{RipStats, Ung, UngNode, WindowSig};
use dmi_uia::{ControlId, ControlType};

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
    })
}
