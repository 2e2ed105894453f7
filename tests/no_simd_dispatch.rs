//! Satellite: the `AFFT_NO_SIMD` escape hatch. Setting it removes the
//! SIMD tier from the registry and — critically for cached plans —
//! changes the wisdom backend-set hash, so wisdom recorded with the
//! vector engines present can never be replayed against a suppressed
//! registry.
//!
//! This file holds exactly one `#[test]` and nothing else shares its
//! process: the test mutates the process environment, and the dispatch
//! layer reads `AFFT_NO_SIMD` per call, so it must not race other
//! tests. Cargo runs each integration-test binary as its own process,
//! which is the isolation this relies on.

use afft::core::engine::EngineRegistry;
use afft::core::simd;
use afft::planner::wisdom::backend_set_hash;

fn registry_names(n: usize) -> Vec<&'static str> {
    EngineRegistry::standard(n).expect("registry").names()
}

#[test]
fn afft_no_simd_suppresses_the_tier_and_changes_the_backend_hash() {
    // Baseline: whatever the ambient environment says, an explicit "0"
    // (and absence) mean "not suppressed".
    std::env::remove_var("AFFT_NO_SIMD");
    assert!(!simd::simd_suppressed());
    std::env::set_var("AFFT_NO_SIMD", "0");
    assert!(!simd::simd_suppressed());
    let baseline = registry_names(1024);
    let baseline_hash = backend_set_hash(&baseline);
    let host_has_simd = simd::detect_host().is_simd();
    assert_eq!(
        baseline.iter().any(|n| n.ends_with("_simd")),
        host_has_simd,
        "unsuppressed registry must carry the SIMD tier iff the host detects one"
    );
    // Odd log2 n too: the tier serves every power of two from 16.
    let baseline_128 = registry_names(128);
    assert_eq!(baseline_128.contains(&"radix4_simd"), host_has_simd, "n=128: {baseline_128:?}");

    // Suppressed: the tier disappears and planning falls back cleanly.
    std::env::set_var("AFFT_NO_SIMD", "1");
    assert!(simd::simd_suppressed());
    assert_eq!(simd::active_level(), simd::SimdLevel::Scalar);
    let suppressed = registry_names(1024);
    let suppressed_hash = backend_set_hash(&suppressed);
    assert!(
        !suppressed.iter().any(|n| n.ends_with("_simd")),
        "AFFT_NO_SIMD=1 must remove every SIMD engine, got {suppressed:?}"
    );
    let suppressed_128 = registry_names(128);
    assert!(!suppressed_128.contains(&"radix4_simd"), "n=128: {suppressed_128:?}");
    if host_has_simd {
        // The wisdom key must see a different backend set, so stale
        // SIMD-era rankings cannot be replayed against this registry.
        assert_ne!(baseline_hash, suppressed_hash);
        assert_eq!(
            suppressed.len() + 1,
            baseline.len(),
            "exactly radix4_simd should disappear at n=1024"
        );
        assert_eq!(suppressed_128.len() + 1, baseline_128.len(), "n=128");
        assert_ne!(backend_set_hash(&baseline_128), backend_set_hash(&suppressed_128));
    } else {
        assert_eq!(baseline_hash, suppressed_hash);
    }

    // Unset again: detection is back in charge.
    std::env::remove_var("AFFT_NO_SIMD");
    assert_eq!(simd::active_level().is_simd(), host_has_simd);
}
