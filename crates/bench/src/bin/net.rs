//! Experiment E12 — the price of the wire: the `afft_net` TCP serving
//! path versus direct pipeline submission, on the WiMAX-256 modulation
//! channel both run:
//!
//! * `direct` — symbols into a [`StreamPipeline`] from the same
//!   process: submit/recv with recycled buffers, no sockets anywhere;
//! * `tcp` — the same symbols through a loopback `afft_net` server:
//!   framed over a real socket, parsed by a handler thread, submitted
//!   to an identical pipeline, routed back as result frames. Runs a
//!   16-frame client window so the wire and the workers overlap.
//!
//! A third sub-run floods a deliberately shallow server (1 worker,
//! 2-deep budget, `dft_naive`) to demonstrate protocol-level load
//! shedding: the client must observe `RETRY_AFTER` refusals, and the
//! ledger — results + sheds = frames sent, results = frames the
//! pipeline accepted — must balance exactly. That balance is asserted
//! on every run, smoke included; the throughput ratio is reported but
//! carries no acceptance bar (a loopback hop has no business being as
//! fast as a function call).
//!
//! ```text
//! cargo run -p afft-bench --release --bin net            # full run
//! cargo run -p afft-bench --release --bin net -- --smoke # CI subset
//! ```
//!
//! A full run writes `BENCH_net.json` and a smoke run
//! `target/bench-smoke/BENCH_net.json`, so smokes leave the committed
//! artifact alone: both arms' frames/sec, the flood ledger, and the
//! server's own admin stats document embedded verbatim — the same JSON
//! a live `STATS` frame returns, schema-checked by CI.

use afft_core::engine::EngineRegistry;
use afft_core::Direction;
use afft_net::{NetClient, NetEvent, NetServer, RETRY_AFTER_MS};
use afft_num::{Complex, C64};
use afft_obs::json;
use afft_stream::{ChannelOp, ChannelSpec, StreamPipeline};
use std::time::Instant;

const N: usize = 256;
const CP: usize = 64;
/// Client-side submission window for the TCP arm: enough in flight to
/// overlap the wire with the workers without running into the server's
/// per-connection outstanding cap.
const WINDOW: u64 = 16;

fn qpsk_subcarriers(n: usize, seed: u64) -> Vec<C64> {
    (0..n)
        .map(|i| {
            let h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
            let re = if h & 1 == 0 { 1.0 } else { -1.0 };
            let im = if h & 2 == 0 { 1.0 } else { -1.0 };
            Complex::new(re, im) * std::f64::consts::FRAC_1_SQRT_2
        })
        .collect()
}

/// Direct arm: one pass of `frames` symbols through a plain pipeline,
/// returning frames/sec.
fn direct_pass(
    pipeline: &StreamPipeline,
    ch: afft_stream::ChannelId,
    frames: u64,
) -> Result<f64, Box<dyn std::error::Error>> {
    let mut input = qpsk_subcarriers(N, 1);
    let mut output = vec![Complex::zero(); N + CP];
    let start = Instant::now();
    for _ in 0..frames {
        pipeline.submit(ch, input, output).map_err(|e| e.to_string())?;
        let done = pipeline.recv(ch).expect("symbol completes");
        assert!(done.error.is_none());
        input = done.input;
        output = done.output;
    }
    Ok(frames as f64 / start.elapsed().as_secs_f64())
}

/// TCP arm: one pass of `frames` symbols through the loopback server
/// with a [`WINDOW`]-frame client window, returning frames/sec.
fn tcp_pass(
    client: &mut NetClient,
    ch: u16,
    frames: u64,
) -> Result<f64, Box<dyn std::error::Error>> {
    let subcarriers = qpsk_subcarriers(N, 1);
    let mut received = 0u64;
    let start = Instant::now();
    for seq in 0..frames {
        client.submit(ch, seq, &subcarriers)?;
        if seq >= WINDOW {
            match client.recv_event()? {
                NetEvent::Result { samples, .. } => {
                    assert_eq!(samples.len(), N + CP);
                    received += 1;
                }
                other => return Err(format!("tcp arm: unexpected {other:?}").into()),
            }
        }
    }
    while received < frames {
        match client.recv_event()? {
            NetEvent::Result { .. } => received += 1,
            other => return Err(format!("tcp arm: unexpected {other:?}").into()),
        }
    }
    Ok(frames as f64 / start.elapsed().as_secs_f64())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // `--stamp <secs>` pins the artifact's timestamp; a malformed pin
    // is a hard error, never a silent clock fallback.
    let stamp = afft_bench::parse_stamp(&args).map_err(std::io::Error::other)?;
    let frames: u64 = if smoke { 64 } else { 1024 };
    let reps: u64 = if smoke { 1 } else { 3 };
    let workers =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(4);
    println!("== serving overhead at N = {N}+{CP}: {frames} modulated frames per pass ==");
    println!("({workers} worker(s), window {WINDOW}, best of {reps} reps per arm)\n");

    // Direct arm: the pipeline alone.
    let mut builder =
        StreamPipeline::builder(EngineRegistry::standard).workers(workers).queue_depth(64);
    let direct_ch = builder.channel(ChannelSpec {
        n: N,
        engine: "radix4_dit".to_string(),
        op: ChannelOp::Modulate { cp: CP },
    });
    let direct = builder.build()?;
    let mut direct_tps = 0.0f64;
    for _ in 0..reps {
        direct_tps = direct_tps.max(direct_pass(&direct, direct_ch, frames)?);
    }
    let (direct_stats, leftover) = direct.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(direct_stats.delivered, reps * frames);

    // TCP arm: an identical channel behind the loopback server.
    let mut builder = NetServer::builder(EngineRegistry::standard).workers(workers).queue_depth(64);
    let tcp_ch = builder.channel(ChannelSpec {
        n: N,
        engine: "radix4_dit".to_string(),
        op: ChannelOp::Modulate { cp: CP },
    });
    let server = builder.serve("127.0.0.1:0")?;
    let mut client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let mut tcp_tps = 0.0f64;
    for _ in 0..reps {
        tcp_tps = tcp_tps.max(tcp_pass(&mut client, tcp_ch, frames)?);
    }
    // The admin stats document, captured while the server is live —
    // this exact string is embedded in the artifact below.
    client.request_stats(u64::MAX).map_err(|e| e.to_string())?;
    let admin = match client.recv_event().map_err(|e| e.to_string())? {
        NetEvent::Stats { json } => json,
        other => return Err(format!("expected Stats, got {other:?}").into()),
    };
    drop(client);
    let tcp_stats = server.shutdown();
    assert_eq!(tcp_stats.delivered, tcp_stats.submitted, "serving drain loses nothing");
    assert_eq!(tcp_stats.delivered, reps * frames);

    // Flood sub-run: a shallow slow server must shed, and the ledger
    // must balance. Same shape as the crate's loopback tests, but
    // counted into the artifact.
    let mut builder = NetServer::builder(EngineRegistry::standard).workers(1).queue_depth(2);
    let flood_ch = builder.channel(ChannelSpec::transform(512, "dft_naive", Direction::Forward));
    let flood_server = builder.serve("127.0.0.1:0")?;
    let flood_client = NetClient::connect(flood_server.local_addr()).map_err(|e| e.to_string())?;
    let (mut ftx, mut frx) = flood_client.split();
    let flood_frames = if smoke { 16u64 } else { 64 };
    let mut impulse = vec![Complex::zero(); 512];
    impulse[0] = Complex::new(1.0, 0.0);
    let writer = std::thread::spawn(move || {
        for seq in 0..flood_frames {
            ftx.submit(flood_ch, seq, &impulse).expect("flood submit");
        }
    });
    let (mut accepted, mut shed) = (0u64, 0u64);
    for _ in 0..flood_frames {
        match frx.recv_event().map_err(|e| e.to_string())? {
            NetEvent::Result { .. } => accepted += 1,
            NetEvent::RetryAfter { .. } => shed += 1,
            other => return Err(format!("flood: unexpected {other:?}").into()),
        }
    }
    writer.join().expect("flood writer");
    drop(frx);
    let flood_stats = flood_server.shutdown();
    assert!(shed >= 1, "a {flood_frames}-frame flood over a 2-deep queue must shed");
    assert_eq!(accepted + shed, flood_frames, "every flood frame gets exactly one answer");
    assert_eq!(flood_stats.submitted, accepted, "no accepted frame was lost");
    assert_eq!(flood_stats.delivered, accepted);

    let ratio = tcp_tps / direct_tps;
    println!("direct:  {direct_tps:>10.0} frames/s");
    println!("tcp:     {tcp_tps:>10.0} frames/s  ({ratio:.2}x of direct)");
    println!("flood:   {accepted} accepted + {shed} shed = {flood_frames} (ledger balanced)");

    // Machine-readable artifact, smoke included (under
    // target/bench-smoke/) — CI schema-checks both kinds.
    let doc = json::Obj::new()
        .str("bench", "net")
        .num("stamp_unix", stamp as f64)
        .bool("smoke", smoke)
        .num("n", N as f64)
        .num("cp", CP as f64)
        .num("frames", frames as f64)
        .num("reps", reps as f64)
        .num("workers", workers as f64)
        .num("window", WINDOW as f64)
        .raw(
            "arms",
            json::Obj::new().num("direct_tps", direct_tps).num("tcp_tps", tcp_tps).finish(),
        )
        .num("tcp_vs_direct", ratio)
        .raw(
            "flood",
            json::Obj::new()
                .num("frames", flood_frames as f64)
                .num("accepted", accepted as f64)
                .num("shed", shed as f64)
                .num("retry_after_ms", f64::from(RETRY_AFTER_MS))
                .finish(),
        )
        .raw("admin", admin)
        .finish();
    let path = afft_bench::artifact_path("BENCH_net.json", smoke)?;
    std::fs::write(&path, doc + "\n")?;
    println!("wrote {}", path.display());
    Ok(())
}
