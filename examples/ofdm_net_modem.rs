//! The OFDM modem of `ofdm_stream_server`, moved behind a real TCP
//! socket: an in-process `afft_net` server serves WiMAX-256 and
//! UWB-128 modulate/demodulate channels, and a client drives QPSK
//! frames through AWGN **over the wire** — the full path a deployed
//! modem daemon would run, HELLO handshake to graceful drain.
//!
//! Three acts:
//!
//! 1. **Modem traffic** — frames flow client → modulate channel →
//!    (AWGN applied client-side) → demodulate channel → client, and
//!    the hard-decision demap must come back bit-perfect;
//! 2. **Load shedding** — a flood against a deliberately shallow
//!    second server shows backpressure as a *protocol* feature:
//!    `RETRY_AFTER` frames instead of an unbounded queue, with every
//!    accepted frame still answered;
//! 3. **The admin endpoint** — one `STATS` frame returns the server's
//!    counters wrapped around the full pipeline snapshot as JSON.
//!
//! ```text
//! cargo run --release --example ofdm_net_modem
//! ```

use afft::core::engine::EngineRegistry;
use afft::core::Direction;
use afft::net::{NetClient, NetEvent, NetServer, RETRY_AFTER_MS};
use afft::num::Complex;
use afft::planner::{Planner, Strategy};
use afft::stream::{ChannelOp, ChannelSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NOISE: f64 = 0.01;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2009);

    // Plan each symbol size once; the serving channels run the winners.
    let mut planner = Planner::new();
    let wimax_plan = planner.plan(256, Strategy::Estimate)?;
    let uwb_plan = planner.plan(128, Strategy::Estimate)?;

    let mut builder = NetServer::builder(EngineRegistry::standard).workers(2).queue_depth(32);
    let standards = [
        (
            "WiMAX-256",
            256usize,
            48u64,
            builder.channel(ChannelSpec::from_plan(&wimax_plan, ChannelOp::Modulate { cp: 64 })),
            builder.channel(ChannelSpec::from_plan(&wimax_plan, ChannelOp::Demodulate { cp: 64 })),
        ),
        (
            "UWB-128",
            128,
            60,
            builder.channel(ChannelSpec::from_plan(&uwb_plan, ChannelOp::Modulate { cp: 32 })),
            builder.channel(ChannelSpec::from_plan(&uwb_plan, ChannelOp::Demodulate { cp: 32 })),
        ),
    ];
    let server = builder.serve("127.0.0.1:0")?;
    println!(
        "afft_net modem up on {} (WiMAX on `{}`, UWB on `{}`)\n",
        server.local_addr(),
        wimax_plan.best().name,
        uwb_plan.best().name,
    );

    // Act 1: the modem loop, entirely over the socket. Every frame is
    // two round trips: subcarriers → time-domain samples (modulate),
    // noisy samples → bins (demodulate).
    let mut client = NetClient::connect(server.local_addr())?;
    let mut total_bits = 0usize;
    let mut bit_errors = 0usize;
    for &(name, n, frames, tx, rx) in &standards {
        let mut bits = vec![(false, false); n];
        let mut subcarriers = vec![Complex::zero(); n];
        for frame in 0..frames {
            for (slot, b) in subcarriers.iter_mut().zip(bits.iter_mut()) {
                *b = (rng.gen(), rng.gen());
                let re = if b.0 { 1.0 } else { -1.0 };
                let im = if b.1 { 1.0 } else { -1.0 };
                *slot = Complex::new(re, im) * std::f64::consts::FRAC_1_SQRT_2;
            }
            client.submit(tx, frame, &subcarriers)?;
            let NetEvent::Result { samples: mut airborne, .. } = client.recv_event()? else {
                return Err(format!("{name}: modulate frame {frame} refused").into());
            };
            for s in airborne.iter_mut() {
                *s = *s + Complex::new(rng.gen_range(-NOISE..NOISE), rng.gen_range(-NOISE..NOISE));
            }
            client.submit(rx, frame, &airborne)?;
            let NetEvent::Result { samples: bins, .. } = client.recv_event()? else {
                return Err(format!("{name}: demodulate frame {frame} refused").into());
            };
            for (bin, &sent) in bins.iter().zip(&bits) {
                total_bits += 2;
                bit_errors +=
                    usize::from((bin.re >= 0.0) != sent.0) + usize::from((bin.im >= 0.0) != sent.1);
            }
        }
        println!("{name}: {frames} frames round-tripped over TCP on channels {tx}/{rx}");
    }
    println!("demodulated: {bit_errors}/{total_bits} bit errors at noise {NOISE}");
    assert_eq!(bit_errors, 0, "QPSK at this SNR must demodulate cleanly");

    // Act 3 setup while the traffic is still on the books: the admin
    // stats frame, straight off the live server.
    client.request_stats(0)?;
    let NetEvent::Stats { json } = client.recv_event()? else {
        return Err("expected the stats document".into());
    };
    let head = json.split("\"pipeline\"").next().unwrap_or(&json);
    println!("\nadmin stats (server head): {head}...");
    drop(client);
    let stats = server.shutdown();
    println!("graceful drain: {} submitted, {} delivered\n", stats.submitted, stats.delivered);
    assert_eq!(stats.submitted, stats.delivered);

    // Act 2: load shedding as a protocol feature. One slow worker
    // behind a 2-deep budget; the flood must see RETRY_AFTER frames,
    // and the ledger must balance exactly.
    let mut builder = NetServer::builder(EngineRegistry::standard).workers(1).queue_depth(2);
    let ch = builder.channel(ChannelSpec::transform(512, "dft_naive", Direction::Forward));
    let shallow = builder.serve("127.0.0.1:0")?;
    let flood_client = NetClient::connect(shallow.local_addr())?;
    let (mut tx, mut rx) = flood_client.split();
    let flood = 24u64;
    let mut impulse = vec![Complex::zero(); 512];
    impulse[0] = Complex::new(1.0, 0.0);
    let writer = std::thread::spawn(move || {
        for seq in 0..flood {
            tx.submit(ch, seq, &impulse).expect("flood submit");
        }
    });
    let (mut accepted, mut shed) = (0u64, 0u64);
    for _ in 0..flood {
        match rx.recv_event()? {
            NetEvent::Result { .. } => accepted += 1,
            NetEvent::RetryAfter { millis, .. } => {
                shed += 1;
                debug_assert_eq!(millis, RETRY_AFTER_MS);
            }
            other => return Err(format!("flood: unexpected {other:?}").into()),
        }
    }
    writer.join().expect("flood writer");
    drop(rx);
    let flood_stats = shallow.shutdown();
    println!(
        "flood of {flood}: {accepted} accepted + {shed} shed (RETRY_AFTER) — \
         pipeline accepted {} and delivered {}",
        flood_stats.submitted, flood_stats.delivered,
    );
    assert!(shed >= 1, "a flood over a 2-deep queue must shed");
    assert_eq!(accepted + shed, flood);
    assert_eq!(flood_stats.submitted, accepted, "no accepted frame lost");
    Ok(())
}
