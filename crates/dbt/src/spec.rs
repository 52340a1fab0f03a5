//! The one engine choice: which of the stack's seven execution paths runs a
//! guest image.
//!
//! Every harness that executes an image — figure runs, attack mounts, the
//! fuzz oracle, benches, the detection tests — names its engine with an
//! [`EngineSpec`]. The ambient kill switches `CFED_NO_NATIVE` and
//! `CFED_NO_TIER` are read in exactly one place, [`EngineSpec::resolve`],
//! which maps a requested engine to the one this host will actually run.
//! All seven engines are guest-observably identical; the degradations only
//! trade speed.

/// Whether this build can execute natively-emitted host code at all.
const NATIVE_PLATFORM: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

/// One execution path of the stack.
///
/// The two interpreter engines run the bare machine (no translator, hence
/// no instrumentation); the five DBT engines translate through the code
/// cache. Tiered engines carry their trace compile threshold.
///
/// # Examples
///
/// ```
/// use cfed_dbt::EngineSpec;
///
/// let spec = EngineSpec::DbtTierNative(4);
/// assert_eq!(spec.label(), "dbt-tier-native");
/// assert_eq!(EngineSpec::parse("dbt-tier-native", 4), Some(spec));
/// // A host without the native backend and with the tier switched off
/// // runs the plain block-fused DBT instead.
/// assert_eq!(spec.resolve_for(false, false, true), EngineSpec::DbtFused);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineSpec {
    /// Interpreter, decode cache off.
    InterpRaw,
    /// Interpreter, pre-decoded block-fused dispatch.
    InterpFused,
    /// DBT translating into per-step cache execution.
    DbtStep,
    /// DBT with block-fused cache execution.
    DbtFused,
    /// DBT with the native x86-64 backend.
    DbtNative,
    /// Tiered DBT (traces form at this compile threshold) executing
    /// through the fused cache.
    DbtTierFused(u32),
    /// Tiered DBT executing through the native backend.
    DbtTierNative(u32),
}

impl EngineSpec {
    /// Every engine, in matrix order, with tiered engines at
    /// `tier_threshold`.
    pub fn all(tier_threshold: u32) -> [EngineSpec; 7] {
        [
            EngineSpec::InterpRaw,
            EngineSpec::InterpFused,
            EngineSpec::DbtStep,
            EngineSpec::DbtFused,
            EngineSpec::DbtNative,
            EngineSpec::DbtTierFused(tier_threshold),
            EngineSpec::DbtTierNative(tier_threshold),
        ]
    }

    /// The DBT engine with the given layers: native execution and, when
    /// `tier_threshold` is set, the trace tier.
    pub fn dbt(native: bool, tier_threshold: Option<u32>) -> EngineSpec {
        match (tier_threshold, native) {
            (Some(t), true) => EngineSpec::DbtTierNative(t),
            (Some(t), false) => EngineSpec::DbtTierFused(t),
            (None, true) => EngineSpec::DbtNative,
            (None, false) => EngineSpec::DbtFused,
        }
    }

    /// Stable label used in reports and divergence records.
    pub fn label(self) -> &'static str {
        match self {
            EngineSpec::InterpRaw => "interp-raw",
            EngineSpec::InterpFused => "interp-fused",
            EngineSpec::DbtStep => "dbt-step",
            EngineSpec::DbtFused => "dbt-fused",
            EngineSpec::DbtNative => "dbt-native",
            EngineSpec::DbtTierFused(_) => "dbt-tier-fused",
            EngineSpec::DbtTierNative(_) => "dbt-tier-native",
        }
    }

    /// The engine a [`EngineSpec::label`] names; tiered engines get
    /// `tier_threshold` (labels do not carry it).
    pub fn parse(label: &str, tier_threshold: u32) -> Option<EngineSpec> {
        EngineSpec::all(tier_threshold).into_iter().find(|e| e.label() == label)
    }

    /// Whether the engine runs the translator (every engine but the two
    /// interpreters).
    pub fn is_dbt(self) -> bool {
        !matches!(self, EngineSpec::InterpRaw | EngineSpec::InterpFused)
    }

    /// Whether translated blocks execute as host code.
    pub fn is_native(self) -> bool {
        matches!(self, EngineSpec::DbtNative | EngineSpec::DbtTierNative(_))
    }

    /// The trace compile threshold of a tiered engine.
    pub fn tier_threshold(self) -> Option<u32> {
        match self {
            EngineSpec::DbtTierFused(t) | EngineSpec::DbtTierNative(t) => Some(t),
            _ => None,
        }
    }

    /// Whether the machine keeps its pre-decoded instruction cache. The
    /// DBT fuses blocks only when the machine does, so this alone separates
    /// `dbt-step` from `dbt-fused`; the native backend needs the fused
    /// cache underneath it.
    pub fn decode_cache(self) -> bool {
        !matches!(self, EngineSpec::InterpRaw | EngineSpec::DbtStep)
    }

    /// The engine this host actually runs for `self`: the only reader of
    /// `CFED_NO_NATIVE` and `CFED_NO_TIER` (each disables its layer when
    /// set to anything but empty or `0`). See [`EngineSpec::resolve_for`].
    pub fn resolve(self) -> EngineSpec {
        let set = |var| std::env::var(var).is_ok_and(|v| !v.is_empty() && v != "0");
        self.resolve_for(NATIVE_PLATFORM, set("CFED_NO_NATIVE"), set("CFED_NO_TIER"))
    }

    /// The pure part of [`EngineSpec::resolve`]: without a native-capable
    /// `platform`, or with `no_native`, native engines fall back to their
    /// fused counterparts; with `no_tier`, tiered engines drop the trace
    /// tier. The interpreters, `dbt-step` and `dbt-fused` never change.
    pub fn resolve_for(self, platform: bool, no_native: bool, no_tier: bool) -> EngineSpec {
        if !self.is_native() && !self.is_tiered() {
            return self;
        }
        let native = self.is_native() && platform && !no_native;
        EngineSpec::dbt(native, self.tier_threshold().filter(|_| !no_tier))
    }

    /// Whether the engine runs the profile-guided trace tier.
    pub fn is_tiered(self) -> bool {
        self.tier_threshold().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_parse_back_to_their_engine() {
        let all = EngineSpec::all(4);
        for spec in all {
            assert_eq!(EngineSpec::parse(spec.label(), 4), Some(spec));
        }
        let mut labels: Vec<_> = all.iter().map(|e| e.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7, "labels are unique");
        assert_eq!(EngineSpec::parse("dbt-jit", 4), None);
    }

    #[test]
    fn resolver_degrades_each_layer_independently() {
        use EngineSpec::*;
        let t = 4;
        // (requested, [neither off, no_native, no_tier, both off])
        let table = [
            (InterpRaw, [InterpRaw; 4]),
            (InterpFused, [InterpFused; 4]),
            (DbtStep, [DbtStep; 4]),
            (DbtFused, [DbtFused; 4]),
            (DbtNative, [DbtNative, DbtFused, DbtNative, DbtFused]),
            (DbtTierFused(t), [DbtTierFused(t), DbtTierFused(t), DbtFused, DbtFused]),
            (DbtTierNative(t), [DbtTierNative(t), DbtTierFused(t), DbtNative, DbtFused]),
        ];
        for (spec, expect) in table {
            for (i, (no_native, no_tier)) in
                [(false, false), (true, false), (false, true), (true, true)].into_iter().enumerate()
            {
                assert_eq!(
                    spec.resolve_for(true, no_native, no_tier),
                    expect[i],
                    "{} no_native={no_native} no_tier={no_tier}",
                    spec.label()
                );
                // A platform without the backend behaves like `no_native`.
                assert_eq!(
                    spec.resolve_for(false, false, no_tier),
                    spec.resolve_for(true, true, no_tier)
                );
            }
        }
    }
}
