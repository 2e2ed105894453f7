//! The SIMD kernel tier: a vectorized butterfly engine behind runtime
//! feature dispatch.
//!
//! Every other kernel in the crate is scalar. This module adds a
//! register-vectorized radix-4 DIT stage as a *distinct engine*
//! ([`Radix4SimdEngine`]), the FFTW codelet idiom the planner is built
//! on: the registry offers scalar and SIMD side by side,
//! `Strategy::Measure` ranks them honestly per host, and wisdom
//! remembers the winner. The engine serves every power of two: at odd
//! `log₂ n` its radix-4 stages transform the even and the odd samples
//! as two halves of the planes, and one portable radix-2 pass joins
//! them (see [`radix4`]). Bluestein's chirp-Z convolution runs through
//! the same engine.
//!
//! # Runtime dispatch
//!
//! [`active_level`] probes the host once per call site (the underlying
//! `is_*_feature_detected!` results are cached by `std`):
//!
//! * **x86_64** — [`SimdLevel::Avx2Fma`] when both `avx2` and `fma`
//!   are detected (4 × f64 lanes);
//! * **aarch64** — [`SimdLevel::Neon`] (2 × f64 lanes, baseline on
//!   that architecture but still probed);
//! * anywhere else, or when the **`AFFT_NO_SIMD`** environment
//!   variable is set non-empty (and not `"0"`) — [`SimdLevel::Scalar`].
//!
//! The catalog's `radix4_simd` row supports a power of two `>= 16` only
//! when `active_level().is_simd()` holds, so `AFFT_NO_SIMD=1` removes it
//! from every registry (and with it from plans, wisdom keys and
//! benches) — the escape hatch for A/B measurement and for exercising
//! the scalar fallback path in CI. The engine itself clamps its level
//! to what the host really supports ([`SimdLevel::clamp_to_host`]), so
//! an engine constructed with a forced level is always sound: the
//! `unsafe` vectorized stage functions run only after the matching CPU
//! features were detected.
//!
//! # Layout: interleaved trait boundary, split planes inside
//!
//! The [`FftEngine`](crate::engine::FftEngine) contract stays
//! interleaved `C64` — callers never see the vector layout. At plan
//! time the engine allocates engine-owned split real/imag scratch
//! planes and twiddle tables in split (structure-of-arrays) form;
//! `execute_into` deinterleaves once on entry, runs every butterfly
//! stage as pure plane arithmetic (a vector complex multiply is four
//! FMAs, no shuffles), and re-interleaves once on exit. That
//! keeps the per-transform heap traffic at zero (the PR-3
//! `execute_into` idiom) and makes the vector inner loops straight
//! contiguous loads.
//!
//! `unsafe` lives only in this module's architecture back-ends (the
//! private `x86`/`neon` submodules), under the crate-level
//! `deny(unsafe_code)` + `deny(unsafe_op_in_unsafe_fn)` gates; the
//! portable scalar kernels (the private `kernels` submodule) are the
//! safe reference the vector paths are tested against (see
//! `tests/simd_equivalence.rs`), and the odd-size radix-2 pass every
//! level shares.

pub(crate) mod kernels;
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
pub(crate) mod neon;
#[allow(unsafe_code)]
pub mod radix4;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod x86;

pub use radix4::Radix4SimdEngine;

/// The vector datapath the SIMD engine plans for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// No vector unit used: the portable split-plane kernels.
    Scalar,
    /// x86_64 AVX2 + FMA: 4 × f64 lanes, fused multiply-add.
    Avx2Fma,
    /// aarch64 Advanced SIMD: 2 × f64 lanes, fused multiply-add.
    Neon,
}

impl SimdLevel {
    /// Whether this level drives a vector unit (anything but scalar).
    pub fn is_simd(self) -> bool {
        self != SimdLevel::Scalar
    }

    /// `f64` lanes per vector register at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2Fma => 4,
            SimdLevel::Neon => 2,
        }
    }

    /// Stable lowercase identifier (bench JSON, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2Fma => "avx2_fma",
            SimdLevel::Neon => "neon",
        }
    }

    /// This level if the host actually supports it, else
    /// [`SimdLevel::Scalar`] — the soundness clamp the SIMD engine
    /// applies at plan time, so a forced level can never make an
    /// `unsafe` vector kernel run on a host without the feature.
    pub fn clamp_to_host(self) -> SimdLevel {
        if self == SimdLevel::Scalar || self == detect_host() {
            self
        } else {
            SimdLevel::Scalar
        }
    }
}

/// The best vector level the host hardware supports, ignoring the
/// `AFFT_NO_SIMD` override. Feature probes are cached by `std`.
pub fn detect_host() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx2Fma;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return SimdLevel::Neon;
        }
    }
    SimdLevel::Scalar
}

/// Whether the `AFFT_NO_SIMD` environment variable suppresses the SIMD
/// tier: set non-empty and not `"0"` (the `PATH`-style reading — an
/// empty value is treated as unset, matching `$AFFT_WISDOM`).
pub fn simd_suppressed() -> bool {
    std::env::var_os("AFFT_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The level the SIMD tier actually plans with: [`detect_host`] unless
/// [`simd_suppressed`] — the one decision point the catalog row, the
/// engine and its cost model all share.
pub fn active_level() -> SimdLevel {
    if simd_suppressed() {
        SimdLevel::Scalar
    } else {
        detect_host()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_and_names_are_consistent() {
        assert_eq!(SimdLevel::Scalar.lanes(), 1);
        assert_eq!(SimdLevel::Avx2Fma.lanes(), 4);
        assert_eq!(SimdLevel::Neon.lanes(), 2);
        assert!(!SimdLevel::Scalar.is_simd());
        assert!(SimdLevel::Avx2Fma.is_simd());
        assert_eq!(SimdLevel::Avx2Fma.as_str(), "avx2_fma");
        assert_eq!(SimdLevel::Scalar.as_str(), "scalar");
    }

    #[test]
    fn clamp_never_exceeds_the_host() {
        let host = detect_host();
        for level in [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Neon] {
            let clamped = level.clamp_to_host();
            assert!(clamped == SimdLevel::Scalar || clamped == host);
        }
        assert_eq!(SimdLevel::Scalar.clamp_to_host(), SimdLevel::Scalar);
        assert_eq!(host.clamp_to_host(), host);
    }

    #[test]
    fn active_level_is_detect_host_or_scalar() {
        // Whatever the ambient environment, the invariant holds.
        let active = active_level();
        assert!(active == SimdLevel::Scalar || active == detect_host());
    }
}
