//! Satellite: the SIMD tier is a pure throughput change. The
//! `radix4_simd` engine the registry registers must match a scalar
//! reference across registry sizes and both directions, far inside the
//! engines' declared tolerance: its scalar sibling `radix4_dit` at
//! powers of four, and its own `SimdLevel::Scalar` plan at odd `log2 n`,
//! which `radix4_dit` does not serve. On hosts without a vector unit the
//! registry carries no `*_simd` engine and the sweep is vacuous; the
//! presence check pins that the tier appears exactly when detection
//! says it should.

use afft::core::engine::{EngineRegistry, FftEngine};
use afft::core::reference::max_error;
use afft::core::simd::{self, Radix4SimdEngine, SimdLevel};
use afft::core::Direction;
use afft::num::{Complex, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_signal(n: usize, seed: u64) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

#[test]
fn every_simd_engine_matches_its_scalar_sibling() {
    for n in (4..=11).map(|k| 1usize << k) {
        let mut registry = EngineRegistry::standard(n).expect("registry");
        let simd_names: Vec<&str> =
            registry.names().into_iter().filter(|name| name.ends_with("_simd")).collect();
        let expected: &[&str] = if simd::active_level().is_simd() { &["radix4_simd"] } else { &[] };
        assert_eq!(simd_names, expected, "SIMD tier at n={n}");
        if simd_names.is_empty() {
            continue;
        }
        let x = random_signal(n, 97 + n as u64);
        let mut got = vec![Complex::zero(); n];
        let mut want = vec![Complex::zero(); n];
        let mut vector = registry.take("radix4_simd").expect("simd engine");
        let (reference, mut scalar): (&str, Box<dyn FftEngine>) = if n.trailing_zeros() % 2 == 0 {
            ("radix4_dit", registry.take("radix4_dit").expect("scalar sibling"))
        } else {
            let plan = Radix4SimdEngine::with_level(n, SimdLevel::Scalar).expect("scalar plan");
            ("radix4_simd at SimdLevel::Scalar", Box::new(plan))
        };
        for dir in [Direction::Forward, Direction::Inverse] {
            vector.execute_into(&x, &mut got, dir).expect("simd execute");
            scalar.execute_into(&x, &mut want, dir).expect("scalar execute");
            let peak = want.iter().map(|c| c.abs()).fold(f64::MIN_POSITIVE, f64::max);
            let err = max_error(&got, &want) / peak;
            // Same sign algebra, different summation order: the
            // backends may differ only by FMA rounding, orders of
            // magnitude inside the 1e-8 engine tolerance.
            assert!(err < 1e-12, "radix4_simd vs {reference} at n={n} ({dir:?}): {err}");
        }
    }
}
