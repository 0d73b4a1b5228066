//! Shared fixtures for the cross-crate integration tests.

use dmi_core::{Dmi, DmiBuildConfig};
use dmi_gui::Session;
use dmi_llm::CapabilityProfile;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A capability profile that never errs (oracle executor).
pub fn perfect_profile() -> CapabilityProfile {
    let mut p = CapabilityProfile::gpt5_medium();
    p.policy_err = 0.0;
    p.dmi_mech_err = 0.0;
    p.grounding_err = 0.0;
    p.composite_err = 0.0;
    p.instruction_noise = 0.0;
    p.recover_prob = 1.0;
    p
}

/// Small-app DMI models, ripped once per test binary and shared by every
/// caller (and every gateway tenant) through the `Arc`.
pub fn dmi_models() -> &'static HashMap<&'static str, Arc<Dmi>> {
    static MODELS: OnceLock<HashMap<&'static str, Arc<Dmi>>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let mut m = HashMap::new();
        for kind in dmi_apps::AppKind::ALL {
            let mut s = Session::new(kind.launch_small());
            let (dmi, _) = Dmi::build(&mut s, &DmiBuildConfig::office(kind.name()));
            m.insert(kind.name(), Arc::new(dmi));
        }
        m
    })
}

/// A deterministic SplitMix64 stream for the seeded input fuzzers.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
