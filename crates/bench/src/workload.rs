//! Workload generation shared by the experiment binaries and benches.

use afft_num::{Complex, C64, Q15};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible random complex signal in `[-1, 1)^2` per component.
pub fn random_signal(n: usize, seed: u64) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

/// The same signal quantised for the fixed-point datapath at 90% of
/// full scale.
pub fn random_signal_q15(n: usize, seed: u64) -> Vec<Complex<Q15>> {
    random_signal(n, seed).iter().map(|&c| Complex::from_c64(c * 0.9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signals_are_reproducible() {
        assert_eq!(random_signal(16, 7), random_signal(16, 7));
        assert_ne!(random_signal(16, 7), random_signal(16, 8));
    }

    #[test]
    fn q15_signal_in_range() {
        for c in random_signal_q15(64, 2) {
            assert!(c.re.to_f64().abs() <= 0.9 + 1e-4);
        }
    }
}
