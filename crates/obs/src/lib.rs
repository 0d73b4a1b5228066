//! `dmi-obs`: determinism-preserving structured tracing and tallies.
//!
//! Every layer of the engine — ripper, fleet, capture cache, serving
//! gateway, LLM batcher, persistent store — is threaded with hooks from
//! this crate. The contract that makes that safe:
//!
//! 1. **Observation only.** Hooks write to side-band buffers; nothing
//!    recorded is ever read back by the engine. Byte-identity oracles
//!    hold with tracing on (release-gated in `tests/identity.rs`).
//! 2. **Free when off.** Tracing defaults to off; every hook is one
//!    relaxed atomic load and a return — no allocation, no clock read,
//!    no lock (`tests/obs.rs` pins the "records nothing" half).
//! 3. **Two clocks.** Wall-clock spans time the real machine; virtual
//!    spans ([`vt_span`]) ride the serve path's deterministic virtual
//!    clock and are identical run to run.
//!
//! See `docs/observability.md` for the recorder design and the
//! determinism argument.

mod export;
mod recorder;

pub use recorder::{
    clear, complete_span, drain, enabled, instant, now_us, set_enabled, span, tallies, tally,
    vt_span, Cat, Clock, Event, Phase, SpanGuard, Trace, RING_CAPACITY,
};
