//! Adversarial determinism fuzzing: generated GUI apps, injected faults,
//! differential oracles, and minimal-reproducer shrinking.
//!
//! Every engine in this crate rests on one contract (see
//! `docs/determinism.md`): a deterministic application plus a fixed
//! action trace yields byte-identical snapshots, and therefore
//! byte-identical UNGs, no matter which recovery strategy — Esc or
//! restart — or which cache — MRU or pristine stash — served the
//! captures, and whether the rip ran alone or in a fleet. This module
//! attacks that contract from the application side:
//!
//! - [`gen`] grows random widget arenas ([`AppSpec`] — menus, dialogs,
//!   tab strips, nested popups) and wraps them in an [`AdversarialApp`]
//!   whose [`FaultPlan`] can make the app *lie*: attest a pristine token
//!   its resets don't honor, mutate widgets without bumping the epoch
//!   stamps the capture caches trust, run Esc-time side effects, or
//!   panic mid-dispatch.
//! - [`oracle`] runs the differential oracles — fleet vs solo UNG bytes,
//!   Esc recovery vs full restart, cached vs full-rebuild captures — and
//!   reports the first [`Divergence`], naming the window and control
//!   where the bytes first disagree (or the contained
//!   [`crate::error::RipError`] of a failed fleet entry).
//! - [`shrink`] delta-debugs a failing spec's op list down to a minimal
//!   reproducer while the oracle keeps failing.
//!
//! The fault classes are chosen so each one is caught by exactly the
//! layer that trusts the violated promise: a lying `pristine_token`
//! trips the cached-vs-rebuild capture oracle, unstamped relabels trip
//! the same oracle through the MRU cache, Esc side effects trip the
//! Esc-vs-restart oracle, and mid-click panics surface as
//! [`crate::RipStatus::Failed`] with the payload preserved —
//! never as a process abort.

pub mod gen;
pub mod oracle;
pub mod shrink;

/// Installs (once per process) a panic hook that suppresses the default
/// stderr report for *injected* panics — payloads containing
/// `"injected fault"`, the marker every fault generator in this module
/// and the test fixtures use — while delegating everything else to the
/// previously installed hook. Fleet and gateway threads are not covered
/// by libtest's output capture, so without this every contained-panic
/// test would spray backtraces over the test run. Call it at the top of any
/// test that injects panics; real (non-injected) panics keep reporting.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let injected = p.downcast_ref::<&str>().is_some_and(|s| s.contains("injected fault"))
                || p.downcast_ref::<String>().is_some_and(|s| s.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

pub use gen::{AdversarialApp, AppSpec, ArenaOp, FaultPlan};
pub use oracle::{
    check_cached_capture, check_esc_recovery, check_fleet, check_spec, Divergence, OracleKind,
};
pub use shrink::shrink_ops;
