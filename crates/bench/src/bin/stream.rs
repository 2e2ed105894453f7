//! Experiment E11 — sustained streaming throughput: the persistent
//! [`StreamPipeline`] worker pool versus two baseline execution shapes,
//! on a continuous symbol stream:
//!
//! * `sequential` — a loop over one planned engine's `execute_into`
//!   over the whole stream on the calling thread;
//! * `threaded/call` — per-call scoped threads, written out here as
//!   bench code: each arriving chunk spawns a [`std::thread::scope`]
//!   pool, every worker builds its own engine ([`take_engine`]) and
//!   transforms one contiguous shard of the chunk. Sized to the host
//!   with `available_parallelism` exactly like the pipeline arm, so the
//!   comparison prices the *shape* (per-call spawns vs a persistent
//!   pool), not a thread-count mismatch;
//! * `stream` — the persistent pipeline: the pool and the per-worker
//!   engines outlive the whole stream, symbols flow through the
//!   one-queue scheduler, and the payload buffers recycle through
//!   the completions (zero allocation per symbol in steady state). Its
//!   stage histograms are always recorded, so the arm prices the
//!   shipped configuration;
//! * `stream/mc` — the multi-worker contention arm: a forced 4-worker
//!   pool serving 4 channels round-robin, submissions racing the
//!   workers for the one queue lock. Exists to exercise (and publish
//!   the per-worker transform counts of) the scheduler under real
//!   cross-worker traffic even on a 1-core host, where its absolute
//!   throughput is time-slice noise and carries no acceptance bar.
//!
//! ```text
//! cargo run -p afft-bench --release --bin stream            # 4096-symbol stream
//! cargo run -p afft-bench --release --bin stream -- --smoke # CI subset
//! ```
//!
//! A full run writes `BENCH_stream.json` and a smoke run
//! `target/bench-smoke/BENCH_stream.json`, so smokes leave the committed
//! artifact alone: per-arm throughput plus the pipeline's per-channel
//! latency histograms with the queue-wait / transform / reorder-park
//! breakdown (one symbol in `SAMPLE_EVERY` sampled). Full optimized
//! runs on a multi-core host enforce one acceptance bar: the persistent pipeline must sustain at
//! least **1.2x** the per-call scoped-thread throughput at N = 256. It
//! is skipped for `--smoke`, debug builds, and single-core hosts —
//! wherever the timings are noise: on one core the pipeline arm is
//! priced by the kernel time-slicing the caller against the worker
//! (~10% run-to-run swing), and the host-sized per-call arm
//! degenerates to sequential execution, which a cross-thread pipeline
//! structurally cannot beat.

use afft_bench::row;
use afft_bench::workload::qpsk_symbol;
use afft_core::engine::{EngineRegistry, FftEngine};
use afft_core::{Direction, FftError};
use afft_num::{Complex, C64};
use afft_obs::json;
use afft_planner::{take_engine, Plan, Planner, Strategy};
use afft_stream::{ChannelSpec, StreamPipeline, StreamStats};
use std::time::Instant;

const N: usize = 256;
/// Cap on the pool size either arm asks for — enough to show the
/// shapes apart without oversubscribing small CI hosts.
const WORKERS: usize = 4;
/// Channels (and forced workers) in the multi-worker contention arm.
const MC_CHANNELS: usize = 4;
/// Symbols per scoped-thread call in the per-call arm — the
/// "frame" a streaming caller would have buffered up before paying for
/// a scoped-thread spawn. At N = 256 this is ~100 us of math per call,
/// a realistic latency budget for a symbol stream — and far too little
/// work to amortise four spawns plus four engine constructions.
const CHUNK: usize = 32;

/// Both arms size their pool to the machine (capped at [`WORKERS`]): a
/// single-core host gets one worker instead of four threads
/// time-slicing each other. The per-call arm used to hardcode 4
/// whatever the host looked like, which inflated the stream-vs-call
/// ratio on small hosts; now the two arms differ only in *shape*.
fn pool_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(WORKERS)
}

/// One per-call scoped-thread run over a chunk: `pool` workers, each
/// building its own engine and transforming a contiguous shard into its
/// slice of `out`. With one worker (or a one-symbol chunk) the chunk
/// runs on the calling thread's `engine` instead, spawning nothing.
fn threaded_call(
    engine: &mut dyn FftEngine,
    chunk: &[Vec<C64>],
    out: &mut [Vec<C64>],
    pool: usize,
) -> Result<(), FftError> {
    let workers = pool.min(chunk.len());
    if workers <= 1 {
        return chunk
            .iter()
            .zip(out)
            .try_for_each(|(x, y)| engine.execute_into(x, y, Direction::Forward));
    }
    let shard = chunk.len().div_ceil(workers);
    let name = engine.name();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunk
            .chunks(shard)
            .zip(out.chunks_mut(shard))
            .map(|(shard_in, shard_out)| {
                scope.spawn(move || -> Result<(), FftError> {
                    let mut engine = take_engine(EngineRegistry::standard, N, name)?;
                    for (x, y) in shard_in.iter().zip(shard_out) {
                        engine.execute_into(x, y, Direction::Forward)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().expect("per-call worker panicked"))
    })
}

/// The stream arm: a pipeline plus the recycling payload buffers its
/// whole-stream passes thread through the completions.
struct StreamArm {
    pipeline: StreamPipeline,
    ch: afft_stream::ChannelId,
    inputs: Vec<Vec<C64>>,
    outputs: Vec<Vec<C64>>,
    passes: usize,
}

impl StreamArm {
    fn build(
        plan: &Plan,
        pool: usize,
        stream_in: &[Vec<C64>],
    ) -> Result<StreamArm, Box<dyn std::error::Error>> {
        let mut builder =
            StreamPipeline::builder(EngineRegistry::standard).workers(pool).queue_depth(2 * CHUNK);
        let ch = builder.channel(ChannelSpec::from_plan(
            plan,
            afft_stream::ChannelOp::Transform(Direction::Forward),
        ));
        let pipeline = builder.build()?;
        Ok(StreamArm {
            pipeline,
            ch,
            inputs: stream_in.to_vec(),
            outputs: vec![vec![Complex::zero(); N]; stream_in.len()],
            passes: 0,
        })
    }

    /// Pushes the whole stream through once and returns symbols/sec.
    fn pass(&mut self) -> f64 {
        let symbols = self.inputs.len();
        let start = Instant::now();
        let mut returned_in: Vec<Vec<C64>> = Vec::with_capacity(symbols);
        let mut returned_out: Vec<Vec<C64>> = Vec::with_capacity(symbols);
        for (s, (input, output)) in self.inputs.drain(..).zip(self.outputs.drain(..)).enumerate() {
            // Blocking submit: the bounded queue is the backpressure.
            self.pipeline.submit(self.ch, input, output).expect("pipeline accepts while open");
            // Drain ready completions periodically so parked results
            // don't pile up behind the submission loop (every symbol
            // would cost a lock round-trip per symbol for nothing).
            if s % CHUNK == CHUNK - 1 {
                while let Some(done) = self.pipeline.try_recv(self.ch) {
                    returned_in.push(done.input);
                    returned_out.push(done.output);
                }
            }
        }
        while let Some(done) = self.pipeline.recv(self.ch) {
            returned_in.push(done.input);
            returned_out.push(done.output);
        }
        self.inputs = returned_in;
        self.outputs = returned_out;
        self.passes += 1;
        symbols as f64 / start.elapsed().as_secs_f64()
    }

    /// Checks bit-identity against the sequential reference and shuts
    /// the pipeline down, returning the final stats.
    fn finish(self, reference: &[Vec<C64>]) -> StreamStats {
        // In-order delivery means the recycled buffers line up 1:1 with
        // the submissions: the final pass reproduces the reference.
        assert_eq!(self.outputs, reference, "stream pipeline must be bit-identical to sequential");
        let (stats, leftover) = self.pipeline.shutdown();
        assert!(leftover.is_empty(), "every completion was delivered");
        assert_eq!(stats.submitted, (self.passes * reference.len()) as u64);
        stats
    }
}

/// The multi-worker contention arm: [`MC_CHANNELS`] channels on a
/// forced [`MC_CHANNELS`]-worker pool, fed round-robin so submissions
/// race every worker for the queue.
/// Symbol `s` of the stream goes to channel `s % MC_CHANNELS`, so the
/// per-channel in-order deliveries reassemble into the sequential
/// reference for verification.
struct McArm {
    pipeline: StreamPipeline,
    chs: Vec<afft_stream::ChannelId>,
    /// Per-channel payload pools (channel-major), recycled through the
    /// completions like the single-channel arm.
    inputs: Vec<Vec<Vec<C64>>>,
    outputs: Vec<Vec<Vec<C64>>>,
}

impl McArm {
    fn build(plan: &Plan, stream_in: &[Vec<C64>]) -> Result<McArm, Box<dyn std::error::Error>> {
        let mut builder = StreamPipeline::builder(EngineRegistry::standard)
            .workers(MC_CHANNELS)
            .queue_depth(2 * CHUNK);
        let chs: Vec<_> = (0..MC_CHANNELS)
            .map(|_| {
                builder.channel(ChannelSpec::from_plan(
                    plan,
                    afft_stream::ChannelOp::Transform(Direction::Forward),
                ))
            })
            .collect();
        let pipeline = builder.build()?;
        let mut inputs: Vec<Vec<Vec<C64>>> = vec![Vec::new(); MC_CHANNELS];
        for (s, sym) in stream_in.iter().enumerate() {
            inputs[s % MC_CHANNELS].push(sym.clone());
        }
        let outputs =
            inputs.iter().map(|chan| vec![vec![Complex::zero(); N]; chan.len()]).collect();
        Ok(McArm { pipeline, chs, inputs, outputs })
    }

    /// Pushes the whole stream through once, round-robin over the
    /// channels, and returns symbols/sec.
    fn pass(&mut self) -> f64 {
        let rounds = self.inputs[0].len();
        let symbols: usize = self.inputs.iter().map(Vec::len).sum();
        let mut returned_in: Vec<Vec<Vec<C64>>> = vec![Vec::new(); MC_CHANNELS];
        let mut returned_out: Vec<Vec<Vec<C64>>> = vec![Vec::new(); MC_CHANNELS];
        let start = Instant::now();
        for r in 0..rounds {
            for ch in 0..MC_CHANNELS {
                let (Some(input), Some(output)) = (self.inputs[ch].pop(), self.outputs[ch].pop())
                else {
                    continue;
                };
                self.pipeline.submit(self.chs[ch], input, output).expect("pipeline open");
            }
            if r % CHUNK == CHUNK - 1 {
                for ch in 0..MC_CHANNELS {
                    while let Some(done) = self.pipeline.try_recv(self.chs[ch]) {
                        returned_in[ch].push(done.input);
                        returned_out[ch].push(done.output);
                    }
                }
            }
        }
        for ch in 0..MC_CHANNELS {
            while let Some(done) = self.pipeline.recv(self.chs[ch]) {
                returned_in[ch].push(done.input);
                returned_out[ch].push(done.output);
            }
        }
        let tps = symbols as f64 / start.elapsed().as_secs_f64();
        // pop() drained the pools back-to-front; deliveries came back
        // in submission order, so reverse to restore channel order for
        // the next pass (and the final verification).
        for ch in 0..MC_CHANNELS {
            returned_in[ch].reverse();
            returned_out[ch].reverse();
        }
        self.inputs = returned_in;
        self.outputs = returned_out;
        tps
    }

    /// Verifies against the sequential reference (de-interleaving by
    /// channel) and returns the final stats with the per-worker
    /// transform counts.
    fn finish(self, reference: &[Vec<C64>]) -> StreamStats {
        for (ch, outputs) in self.outputs.iter().enumerate() {
            let expected: Vec<&Vec<C64>> = reference.iter().skip(ch).step_by(MC_CHANNELS).collect();
            assert_eq!(outputs.len(), expected.len());
            for (got, want) in outputs.iter().zip(expected) {
                assert_eq!(got, want, "mc arm channel {ch} must be bit-identical to sequential");
            }
        }
        let (stats, leftover) = self.pipeline.shutdown();
        assert!(leftover.is_empty(), "every mc completion was delivered");
        stats
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // `--stamp <secs>` pins the artifact's timestamp (reproducible CI
    // artifacts); otherwise the system clock stamps the run. A
    // malformed pin is a hard error, never a silent clock fallback.
    let stamp = afft_bench::parse_stamp(&args).map_err(std::io::Error::other)?;
    let symbols: usize = if smoke { 256 } else { 4096 };
    let reps = if smoke { 1 } else { 5 };

    // Plan once; every arm runs the same winning engine.
    let mut planner = Planner::new();
    let plan = planner.plan(N, Strategy::Estimate)?;
    let engine = plan.best().name.clone();
    let pool = pool_workers();
    println!("== streaming throughput at N = {N}: {symbols}-symbol stream on `{engine}` ==");
    println!(
        "(both arms pool = {pool} worker(s) sized to the host, contention arm forces \
         {MC_CHANNELS}, chunk = {CHUNK}, best of {reps} reps per arm)\n"
    );

    let stream_in: Vec<Vec<C64>> = (0..symbols).map(|s| qpsk_symbol(N, s as u64)).collect();

    // Reference spectra + the sequential arm share one planned engine.
    let mut engine = planner.engine(&plan)?;
    let mut reference = vec![vec![Complex::zero(); N]; symbols];
    let mut seq_tps = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        for (x, y) in stream_in.iter().zip(&mut reference) {
            engine.execute_into(x, y, Direction::Forward)?;
        }
        seq_tps = seq_tps.max(symbols as f64 / start.elapsed().as_secs_f64());
    }

    // Per-call scoped threads: every CHUNK symbols pays thread spawns
    // plus one engine construction per worker — the cost a persistent
    // pool exists to amortise.
    let mut chunk_out = vec![vec![Complex::zero(); N]; symbols];
    let mut call_tps = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        for (chunk, out) in stream_in.chunks(CHUNK).zip(chunk_out.chunks_mut(CHUNK)) {
            threaded_call(engine.as_mut(), chunk, out, pool)?;
        }
        call_tps = call_tps.max(symbols as f64 / start.elapsed().as_secs_f64());
    }
    assert_eq!(chunk_out, reference, "threaded per-call arm must match sequential");

    // The persistent pipeline over the same stream, stage histograms
    // recorded as shipped.
    let mut arm = StreamArm::build(&plan, pool, &stream_in)?;
    let mut stream_tps = 0.0f64;
    for _ in 0..reps {
        stream_tps = stream_tps.max(arm.pass());
    }
    let stream_stats = arm.finish(&reference);

    // The contention arm: a forced multi-worker pool under round-robin
    // cross-channel traffic, run for its per-worker transform counts
    // rather than for a throughput bar — on a small host its pool
    // oversubscribes the cores by design.
    let mut arm_mc = McArm::build(&plan, &stream_in)?;
    let mc_workers = arm_mc.pipeline.worker_count();
    let mut mc_tps = 0.0f64;
    for _ in 0..reps {
        mc_tps = mc_tps.max(arm_mc.pass());
    }
    let mc_stats = arm_mc.finish(&reference);

    let widths = [16usize, 14, 16];
    println!("{}", row(&["arm".into(), "symbols/s".into(), "vs threaded/call".into()], &widths));
    for (name, tps) in [
        ("sequential", seq_tps),
        ("threaded/call", call_tps),
        ("stream", stream_tps),
        ("stream/mc", mc_tps),
    ] {
        println!(
            "{}",
            row(&[name.into(), format!("{tps:.0}"), format!("{:.2}x", tps / call_tps)], &widths)
        );
    }
    println!("\npipeline after {reps} passes: {stream_stats}");
    println!(
        "contention arm ({mc_workers} workers, {MC_CHANNELS} channels): transforms per worker {:?}",
        mc_stats.worker_transforms,
    );
    let obs = &stream_stats.obs;
    println!("\nper-channel latency (stream arm):\n{obs}");

    let speedup = stream_tps / call_tps;
    println!(
        "stream vs per-call scoped threads: {speedup:.2}x sustained on a {symbols}-symbol stream"
    );

    // Machine-readable artifact, smoke included (under
    // target/bench-smoke/) — CI schema-checks both kinds.
    let doc = json::Obj::new()
        .str("bench", "stream")
        .num("stamp_unix", stamp as f64)
        .bool("smoke", smoke)
        .num("n", N as f64)
        .num("symbols", symbols as f64)
        .num("reps", reps as f64)
        .num("workers", pool as f64)
        .num("call_workers", pool as f64)
        .num("sample_every", afft_stream::SAMPLE_EVERY as f64)
        .raw(
            "arms",
            json::Obj::new()
                .num("sequential_tps", seq_tps)
                .num("threaded_call_tps", call_tps)
                .num("stream_tps", stream_tps)
                .num("stream_mc_tps", mc_tps)
                .finish(),
        )
        .num("stream_vs_call", speedup)
        .raw(
            "queue",
            json::Obj::new()
                .num("capacity", stream_stats.queue_capacity as f64)
                .num("high_water", stream_stats.queue_high_water as f64)
                .finish(),
        )
        .raw(
            "scheduler",
            json::Obj::new()
                .num("workers", mc_workers as f64)
                .num("channels", MC_CHANNELS as f64)
                .raw(
                    "worker_transforms",
                    json::arr(mc_stats.worker_transforms.iter().map(|&t| json::num(t as f64))),
                )
                .num("caller_transforms", mc_stats.caller_transforms as f64)
                .finish(),
        )
        .raw("channels", obs.to_json())
        .finish();
    let path = afft_bench::artifact_path("BENCH_stream.json", smoke)?;
    std::fs::write(&path, doc + "\n")?;
    println!("wrote {}", path.display());

    // The acceptance bar, gated like the throughput bin: only where
    // the timing means something (full run, optimized build) AND only
    // where a pool exists. On a single-core host the pipeline arm is
    // priced by the kernel time-slicing the caller against the worker
    // — measured run-to-run swing is ~10%, swamping the bar — and the
    // per-call arm runs at sequential speed, so a cross-thread
    // pipeline structurally cannot reach 1.2x of it.
    let gate = !smoke && !cfg!(debug_assertions) && pool >= 2;
    if !gate {
        println!(
            "acceptance bar skipped ({}): numbers above are reported, not gated",
            if smoke {
                "smoke run"
            } else if cfg!(debug_assertions) {
                "debug build"
            } else {
                "single-core host, pool = 1"
            }
        );
    }
    if gate && speedup < 1.2 {
        eprintln!(
            "FAIL: the persistent pipeline must sustain >= 1.2x the per-call \
             scoped-thread path at N = {N}, got {speedup:.2}x"
        );
        std::process::exit(1);
    }
    Ok(())
}
