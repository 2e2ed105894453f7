//! End-to-end OFDM receiver test with the FFT running on the
//! *simulated ASIP*: modulate with the golden model, pass through a
//! multipath channel, demodulate on the cycle-accurate hardware,
//! equalise, and demand zero bit errors.

use afft::asip::engine::AsipEngine;
use afft::core::ofdm::{apply_fir_channel, qpsk_demap, qpsk_map, Ofdm};
use afft::num::{Complex, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 128;
const CP: usize = 32;

#[test]
fn multipath_ofdm_link_through_the_simulated_hardware() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut ofdm = Ofdm::new(N, CP).expect("ofdm plan");
    // The receiver's FFT is the ISS, planned once and reused per symbol.
    let asip = AsipEngine::new(N).expect("asip engine");
    let mut receiver = Ofdm::with_engine(Box::new(asip), CP).expect("asip receiver");
    let mut cycles = Vec::new();
    let mut demodulate = |samples: &[C64]| {
        let bins = receiver.demodulate(samples).expect("ASIP symbol");
        cycles.push(receiver.engine().cycles().expect("the ISS reports cycles"));
        bins
    };

    // A 4-tap channel inside the cyclic prefix.
    let taps = vec![
        Complex::new(0.9, 0.1),
        Complex::new(0.2, -0.25),
        Complex::new(-0.1, 0.05),
        Complex::new(0.05, 0.02),
    ];

    // Channel estimation from a pilot symbol (receiver FFT on the ASIP).
    let pilot_bits: Vec<(bool, bool)> = (0..N).map(|_| (rng.gen(), rng.gen())).collect();
    let pilot = qpsk_map(&pilot_bits);
    let tx_pilot = ofdm.modulate(&pilot).expect("modulate pilot");
    let rx_pilot = demodulate(&apply_fir_channel(&tx_pilot, &taps));
    let channel: Vec<C64> =
        rx_pilot.iter().zip(&pilot).map(|(&y, &x)| y * x.conj() * (1.0 / x.norm_sqr())).collect();

    // Data symbols.
    let mut total_bits = 0usize;
    let mut errors = 0usize;
    for _ in 0..4 {
        let bits: Vec<(bool, bool)> = (0..N).map(|_| (rng.gen(), rng.gen())).collect();
        let tx = ofdm.modulate(&qpsk_map(&bits)).expect("modulate");
        let rx_bins = demodulate(&apply_fir_channel(&tx, &taps));
        let eq = ofdm.equalize(&rx_bins, &channel);
        let decided = qpsk_demap(&eq);
        total_bits += 2 * N;
        errors += decided
            .iter()
            .zip(&bits)
            .map(|(d, b)| usize::from(d.0 != b.0) + usize::from(d.1 != b.1))
            .sum::<usize>();
    }
    assert_eq!(errors, 0, "{errors}/{total_bits} bit errors through the simulated ASIP");

    // Five symbols (pilot + 4 data) on one planned machine, each costing
    // the same modeled cycles as a fresh run.
    assert_eq!(cycles.len(), 5);
    assert!(cycles[0] > 0 && cycles.iter().all(|&c| c == cycles[0]), "{cycles:?}");
}
