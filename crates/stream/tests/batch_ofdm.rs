//! Acceptance: a stream pipeline built from a plan produces
//! *bit-identical* spectra to a sequential loop over the planned engine
//! on a 64-symbol OFDM batch, through a plan that came out of the
//! planner (and back out of wisdom).

use afft_core::engine::EngineRegistry;
use afft_core::ofdm::{qpsk_map, Ofdm};
use afft_core::Direction;
use afft_num::C64;
use afft_planner::{Plan, Planner, Strategy, Wisdom};
use afft_stream::{ChannelOp, ChannelSpec, StreamPipeline};

const N: usize = 128;
const CP: usize = 32;
const SYMBOLS: usize = 64;

/// 64 modulated OFDM symbols (CP stripped: receiver FFT input).
fn ofdm_batch() -> Vec<Vec<C64>> {
    let mut ofdm = Ofdm::new(N, CP).expect("ofdm");
    (0..SYMBOLS)
        .map(|s| {
            let bits: Vec<(bool, bool)> =
                (0..N).map(|k| ((s + k) % 3 == 0, (s * 7 + k) % 5 < 2)).collect();
            let tx = ofdm.modulate(&qpsk_map(&bits)).expect("modulate");
            tx[CP..].to_vec()
        })
        .collect()
}

/// The batch, in order, through a loop over the planner's engine.
fn sequential(planner: &Planner, plan: &Plan, batch: &[Vec<C64>]) -> Vec<Vec<C64>> {
    let mut engine = planner.engine(plan).expect("engine");
    let mut out = vec![vec![C64::zero(); N]; batch.len()];
    for (symbol, slot) in batch.iter().zip(&mut out) {
        engine.execute_into(symbol, slot, Direction::Forward).expect("transform");
    }
    out
}

/// The batch through a `workers`-strong pipeline channel on the plan.
fn pipelined(plan: &Plan, workers: usize, batch: &[Vec<C64>]) -> Vec<Vec<C64>> {
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(workers);
    let ch =
        builder.channel(ChannelSpec::from_plan(plan, ChannelOp::Transform(Direction::Forward)));
    let pipeline = builder.build().expect("pipeline");
    for symbol in batch {
        pipeline.submit(ch, symbol.clone(), vec![C64::zero(); N]).expect("accepted");
    }
    let mut out = Vec::with_capacity(batch.len());
    while let Some(done) = pipeline.recv(ch) {
        assert!(done.error.is_none());
        out.push(done.output);
    }
    out
}

#[test]
fn threaded_pool_is_bit_identical_on_a_64_symbol_ofdm_batch() {
    let mut planner = Planner::new().with_measure_reps(1);
    let plan = planner.plan(N, Strategy::Measure).expect("measure plan");
    assert_eq!(plan.ranking.len(), EngineRegistry::standard(N).expect("registry").len());

    let batch = ofdm_batch();
    let sequential = sequential(&planner, &plan, &batch);
    for workers in [2usize, 4] {
        let threaded = pipelined(&plan, workers, &batch);
        assert_eq!(sequential, threaded, "workers={workers} must be bit-identical");
    }

    // And the demodulated constellations are the transmitted ones.
    let bits0: Vec<(bool, bool)> = (0..N).map(|k| (k % 3 == 0, k % 5 < 2)).collect();
    let decided: Vec<(bool, bool)> =
        sequential[0].iter().map(|c| (c.re >= 0.0, c.im >= 0.0)).collect();
    assert_eq!(decided, bits0);
}

#[test]
fn wisdom_replayed_plan_drives_the_same_executor() {
    // Plan, serialize the wisdom, revive a fresh planner from the
    // text, and check the replayed plan builds the same engine.
    let mut planner = Planner::new();
    let plan = planner.plan(N, Strategy::Estimate).expect("plan");
    let text = planner.wisdom().serialize();

    let mut revived = Planner::new().with_wisdom(Wisdom::parse(&text));
    let replay = revived.plan(N, Strategy::Estimate).expect("replay");
    assert!(replay.from_wisdom);
    assert_eq!(replay.best().name, plan.best().name);
    assert_eq!(revived.engine(&replay).expect("engine").name(), plan.best().name);

    let batch = ofdm_batch();
    assert_eq!(sequential(&planner, &plan, &batch), pipelined(&replay, 4, &batch));
}
