//! The serving binary: an OFDM modem pool behind a TCP socket.
//!
//! Serves four channels from one worker pool — a modulator and a
//! demodulator for WiMAX 802.16 (256 subcarriers, 64-sample cyclic
//! prefix) and for MB-UWB 802.15.3a (128 subcarriers, 32-sample
//! prefix) — each on the engine an autotuning Estimate plan picked for
//! its size. Clients speak the `afft_net` frame protocol; see the
//! crate docs.
//!
//! ```text
//! afft_net [--addr HOST:PORT] [--workers N] [--queue-depth N]
//! afft_net --smoke    # in-process loopback self-test, exits 0 on pass
//! ```

use afft_core::engine::EngineRegistry;
use afft_net::{NetClient, NetEvent, NetServer};
use afft_num::Complex;
use afft_planner::{Planner, Strategy};
use afft_stream::{ChannelOp, ChannelSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "afft_net: OFDM serving binary (WiMAX-256 + UWB-128 modem pairs over TCP)\n\n\
             options:\n  \
             --addr HOST:PORT   bind address (default 127.0.0.1:4517)\n  \
             --workers N        pipeline worker threads (default 4)\n  \
             --queue-depth N    pipeline submission budget (default 64)\n  \
             --smoke            in-process loopback self-test; exits 0 on pass"
        );
        return Ok(());
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let addr = flag(&args, "--addr")?.unwrap_or_else(|| {
        // The smoke test binds an ephemeral port so parallel CI jobs
        // never collide.
        if smoke {
            "127.0.0.1:0".to_string()
        } else {
            "127.0.0.1:4517".to_string()
        }
    });
    let workers: usize = match flag(&args, "--workers")? {
        Some(v) => v.parse().map_err(|_| format!("--workers value {v:?} is not an integer"))?,
        None => 4,
    };
    let queue_depth: usize = match flag(&args, "--queue-depth")? {
        Some(v) => v.parse().map_err(|_| format!("--queue-depth value {v:?} is not an integer"))?,
        None => 64,
    };

    // Plan each symbol size once; the serving channels run the winners.
    let mut planner = Planner::new();
    let wimax = planner.plan(256, Strategy::Estimate)?;
    let uwb = planner.plan(128, Strategy::Estimate)?;

    let mut builder =
        NetServer::builder(EngineRegistry::standard).workers(workers).queue_depth(queue_depth);
    let wimax_tx = builder.channel(ChannelSpec::from_plan(&wimax, ChannelOp::Modulate { cp: 64 }));
    let wimax_rx =
        builder.channel(ChannelSpec::from_plan(&wimax, ChannelOp::Demodulate { cp: 64 }));
    let uwb_tx = builder.channel(ChannelSpec::from_plan(&uwb, ChannelOp::Modulate { cp: 32 }));
    let uwb_rx = builder.channel(ChannelSpec::from_plan(&uwb, ChannelOp::Demodulate { cp: 32 }));
    let server = builder.serve(&addr)?;

    println!(
        "afft_net serving on {} ({workers} workers, queue depth {queue_depth})\n  \
         ch {wimax_tx}/{wimax_rx}: WiMAX-256 modulate/demodulate on `{}`\n  \
         ch {uwb_tx}/{uwb_rx}:  UWB-128 modulate/demodulate on `{}`",
        server.local_addr(),
        wimax.best().name,
        uwb.best().name,
    );

    if smoke {
        return run_smoke(server, wimax_tx, wimax_rx);
    }

    // Serve until killed; the accept/delivery/handler threads do the
    // work. (Graceful drain is exercised by the library tests and the
    // smoke run — a plain SIGKILL here just drops the sockets.)
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Loopback self-test over the real socket: one WiMAX-256 symbol out
/// through modulate and back through demodulate, plus an admin stats
/// round trip, then a graceful drain.
fn run_smoke(
    server: NetServer,
    wimax_tx: u16,
    wimax_rx: u16,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut client = NetClient::connect(server.local_addr())?;
    assert_eq!(client.channels().len(), 4, "HELLO must advertise all four channels");
    assert_eq!(client.channels()[wimax_tx as usize].n, 256);

    // QPSK-ish subcarriers with a deterministic pattern; modulate.
    let subcarriers: Vec<_> = (0..256)
        .map(|i| {
            let re = if i % 2 == 0 { 1.0 } else { -1.0 };
            let im = if i % 3 == 0 { 1.0 } else { -1.0 };
            Complex::new(re, im) * std::f64::consts::FRAC_1_SQRT_2
        })
        .collect();
    client.submit(wimax_tx, 1, &subcarriers)?;
    let samples = match client.recv_event()? {
        NetEvent::Result { channel, seq, samples } => {
            assert_eq!((channel, seq), (wimax_tx, 1));
            assert_eq!(samples.len(), 256 + 64, "modulate emits N + cp samples");
            samples
        }
        other => return Err(format!("smoke: expected a modulate Result, got {other:?}").into()),
    };

    // Demodulate the noiseless samples; the bins must reproduce the
    // subcarriers to numerical precision.
    client.submit(wimax_rx, 2, &samples)?;
    match client.recv_event()? {
        NetEvent::Result { channel, seq, samples: bins } => {
            assert_eq!((channel, seq), (wimax_rx, 2));
            assert_eq!(bins.len(), 256);
            let worst = bins
                .iter()
                .zip(&subcarriers)
                .map(|(got, want)| (*got - *want).abs())
                .fold(0.0f64, f64::max);
            assert!(worst < 1e-9, "smoke: round-trip error {worst:e} too large");
        }
        other => return Err(format!("smoke: expected a demodulate Result, got {other:?}").into()),
    }

    // Admin stats: structurally sane JSON naming this server and the
    // pipeline snapshot underneath it.
    client.request_stats(3)?;
    match client.recv_event()? {
        NetEvent::Stats { json } => {
            for needle in
                ["\"server\":\"afft_net\"", "\"pipeline\":", "\"frames_in\":", "\"shed\":"]
            {
                assert!(json.contains(needle), "smoke: stats JSON missing {needle}: {json}");
            }
        }
        other => return Err(format!("smoke: expected Stats, got {other:?}").into()),
    }

    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.delivered, stats.submitted, "smoke: drain must deliver everything accepted");
    println!("smoke: PASS ({} frames served, clean drain)", stats.delivered);
    Ok(())
}

/// `--flag value` lookup; a flag present without a value is a hard
/// error, same stance as the bench harness's `--stamp`.
fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(at + 1) {
        Some(v) => Ok(Some(v.clone())),
        None => Err(format!("{name} requires a value")),
    }
}
