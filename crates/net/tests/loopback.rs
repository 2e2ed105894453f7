//! The acceptance path over real sockets: the WiMAX-256 and UWB-128
//! modem pairs round-tripping QPSK through AWGN with zero bit errors,
//! a window of pipelined frames answered through the batched delivery
//! path on a 2- and a 4-worker pool, a flood client observing protocol-level load-shedding without
//! losing an accepted frame, and the admin stats document holding up
//! to structural scrutiny.

use std::time::Duration;

use afft_core::engine::EngineRegistry;
use afft_core::ofdm::Ofdm;
use afft_core::Direction;
use afft_net::{NetClient, NetEvent, NetServer, OpKind, RETRY_AFTER_MS};
use afft_num::{Complex, C64};
use afft_planner::take_engine;
use afft_stream::{ChannelOp, ChannelSpec, SAMPLE_EVERY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NOISE: f64 = 0.01;

/// The serving binary's channel layout: WiMAX-256 and UWB-128 modem
/// pairs on one pool of `workers` with a `queue_depth` submission
/// budget. Returns (server, [wimax_tx, wimax_rx, uwb_tx, uwb_rx]).
fn modem_server(workers: usize, queue_depth: usize) -> (NetServer, [u16; 4]) {
    let mut builder =
        NetServer::builder(EngineRegistry::standard).workers(workers).queue_depth(queue_depth);
    let chans = [
        builder.channel(ChannelSpec {
            n: 256,
            engine: "radix4_dit".to_string(),
            op: ChannelOp::Modulate { cp: 64 },
        }),
        builder.channel(ChannelSpec {
            n: 256,
            engine: "radix4_dit".to_string(),
            op: ChannelOp::Demodulate { cp: 64 },
        }),
        builder.channel(ChannelSpec {
            n: 128,
            engine: "mixed_radix".to_string(),
            op: ChannelOp::Modulate { cp: 32 },
        }),
        builder.channel(ChannelSpec {
            n: 128,
            engine: "mixed_radix".to_string(),
            op: ChannelOp::Demodulate { cp: 32 },
        }),
    ];
    (builder.serve("127.0.0.1:0").expect("bind"), chans)
}

fn expect_result(client: &mut NetClient, want_channel: u16, want_seq: u64) -> Vec<C64> {
    match client.recv_event().expect("recv") {
        NetEvent::Result { channel, seq, samples } => {
            assert_eq!((channel, seq), (want_channel, want_seq));
            samples
        }
        other => panic!("expected a Result on ch {want_channel}, got {other:?}"),
    }
}

#[test]
fn wimax_and_uwb_modems_round_trip_qpsk_through_awgn_over_the_wire() {
    let (server, [wimax_tx, wimax_rx, uwb_tx, uwb_rx]) = modem_server(2, 32);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");

    // The HELLO table must describe the modem layout faithfully.
    let infos = client.channels().to_vec();
    assert_eq!(infos.len(), 4);
    assert_eq!((infos[wimax_tx as usize].n, infos[wimax_tx as usize].cp), (256, 64));
    assert_eq!(infos[wimax_tx as usize].output_len, 256 + 64);
    assert_eq!(infos[wimax_rx as usize].input_len, 256 + 64);
    assert_eq!((infos[uwb_tx as usize].n, infos[uwb_tx as usize].cp), (128, 32));

    let mut rng = StdRng::seed_from_u64(2009);
    let mut total_bits = 0usize;
    let mut bit_errors = 0usize;
    for &(name, n, tx, rx, frames) in
        &[("WiMAX-256", 256usize, wimax_tx, wimax_rx, 24u64), ("UWB-128", 128, uwb_tx, uwb_rx, 32)]
    {
        let mut bits = vec![(false, false); n];
        let mut subcarriers = vec![Complex::zero(); n];
        for frame in 0..frames {
            // Transmit: QPSK-map fresh bits, modulate over the wire.
            for (slot, b) in subcarriers.iter_mut().zip(bits.iter_mut()) {
                *b = (rng.gen(), rng.gen());
                let re = if b.0 { 1.0 } else { -1.0 };
                let im = if b.1 { 1.0 } else { -1.0 };
                *slot = Complex::new(re, im) * std::f64::consts::FRAC_1_SQRT_2;
            }
            client.submit(tx, frame, &subcarriers).expect("submit tx");
            let mut samples = expect_result(&mut client, tx, frame);

            // Channel: AWGN onto the time-domain samples.
            for s in samples.iter_mut() {
                *s = *s + Complex::new(rng.gen_range(-NOISE..NOISE), rng.gen_range(-NOISE..NOISE));
            }

            // Receive: demodulate over the wire, hard-decision demap.
            client.submit(rx, frame, &samples).expect("submit rx");
            let bins = expect_result(&mut client, rx, frame);
            assert_eq!(bins.len(), n, "{name}: demodulate returns N bins");
            for (bin, &sent) in bins.iter().zip(&bits) {
                total_bits += 2;
                bit_errors +=
                    usize::from((bin.re >= 0.0) != sent.0) + usize::from((bin.im >= 0.0) != sent.1);
            }
        }
    }
    assert_eq!(bit_errors, 0, "QPSK at noise {NOISE} must demodulate cleanly ({total_bits} bits)");
    assert!(total_bits > 0);

    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.delivered, stats.submitted, "clean drain");
    assert_eq!(stats.delivered, 2 * (24 + 32), "one tx + one rx per frame");
}

#[test]
fn pipelined_frames_round_robin_over_the_modems_are_each_answered_once() {
    for workers in [2, 4] {
        pipelined_frames(workers);
    }
}

fn pipelined_frames(workers: usize) {
    // A budget as deep as the window, so no frame is shed: every one of
    // the 64 must come back as its own RESULT.
    let (server, chans) = modem_server(workers, 64);
    let client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let infos = client.channels().to_vec();

    // Seeded inputs per frame, and the in-process reference on the
    // engine each channel advertises.
    let mut rng = StdRng::seed_from_u64(64);
    let frames = 64u64;
    let mut inputs = Vec::new();
    let mut expected = Vec::new();
    for seq in 0..frames {
        let info = &infos[chans[seq as usize % 4] as usize];
        let engine = take_engine(EngineRegistry::standard, info.n as usize, &info.engine)
            .expect("reference engine");
        let mut modem = Ofdm::with_engine(engine, info.cp as usize).expect("modem");
        let input: Vec<C64> = (0..info.input_len)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        expected.push(match info.kind {
            OpKind::Modulate => modem.modulate(&input).expect("modulate"),
            OpKind::Demodulate => modem.demodulate(&input).expect("demodulate"),
            other => panic!("not a modem channel: {other:?}"),
        });
        inputs.push(input);
    }

    // The whole window goes out before the first answer is read.
    let (mut tx, mut rx) = client.split();
    let writer = std::thread::spawn(move || {
        for (seq, input) in inputs.iter().enumerate() {
            tx.submit(chans[seq % 4], seq as u64, input).expect("submit");
        }
    });
    let mut answered = vec![false; frames as usize];
    for _ in 0..frames {
        match rx.recv_event().expect("recv") {
            NetEvent::Result { channel, seq, samples } => {
                assert!(!answered[seq as usize], "frame {seq} answered twice");
                answered[seq as usize] = true;
                assert_eq!(channel, chans[seq as usize % 4], "frame {seq} on the wrong channel");
                let want = &expected[seq as usize];
                assert_eq!(samples.len(), want.len());
                for (got, want) in samples.iter().zip(want) {
                    assert!((*got - *want).abs() < 1e-9, "frame {seq}: {got:?} vs {want:?}");
                }
            }
            other => panic!("expected a Result, got {other:?}"),
        }
    }
    writer.join().expect("writer thread");
    assert!(answered.iter().all(|a| *a));

    drop(rx);
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.delivered), (frames, frames));
}

#[test]
fn window_one_frames_run_on_the_handler_thread_and_never_reach_the_pool() {
    let (server, chans) = modem_server(2, 32);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let infos = client.channels().to_vec();

    // One frame in flight at a time, round-robin over the four modem
    // channels, each checked against the in-process reference.
    let mut rng = StdRng::seed_from_u64(1);
    let frames = 64u64;
    for seq in 0..frames {
        let ch = chans[seq as usize % 4];
        let info = &infos[ch as usize];
        let engine = take_engine(EngineRegistry::standard, info.n as usize, &info.engine)
            .expect("reference engine");
        let mut modem = Ofdm::with_engine(engine, info.cp as usize).expect("modem");
        let input: Vec<C64> = (0..info.input_len)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let want = match info.kind {
            OpKind::Modulate => modem.modulate(&input).expect("modulate"),
            OpKind::Demodulate => modem.demodulate(&input).expect("demodulate"),
            other => panic!("not a modem channel: {other:?}"),
        };
        client.submit(ch, seq, &input).expect("submit");
        assert_eq!(expect_result(&mut client, ch, seq), want, "frame {seq}");
    }

    drop(client);
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.delivered), (frames, frames));
    assert!(stats.worker_transforms.iter().all(|&t| t == 0), "a pool worker ran a frame: {stats}");
    assert_eq!(stats.caller_transforms, frames);
}

/// Parses the first `"key":<integer>` occurrence out of the flat admin
/// JSON — enough structure-awareness for a zero-dependency test.
fn json_u64(doc: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle).unwrap_or_else(|| panic!("stats JSON missing {needle}: {doc}"));
    doc[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric value for {needle}"))
}

/// The object or array that follows the first `"key":` in `doc`, up to
/// its matching close (the admin JSON has no brackets inside strings).
fn json_value<'a>(doc: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle).unwrap_or_else(|| panic!("stats JSON missing {needle}: {doc}"));
    let value = &doc[at + needle.len()..];
    let mut depth = 0;
    for (i, c) in value.char_indices() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' if depth == 1 => return &value[..=i],
            '}' | ']' => depth -= 1,
            _ => {}
        }
    }
    panic!("unterminated value for {needle}: {doc}")
}

#[test]
fn flood_client_sees_retry_after_and_loses_no_accepted_frame() {
    // One slow worker behind a 2-deep budget: a flood must trip
    // QueueFull, which the server translates to RETRY_AFTER frames.
    let mut builder = NetServer::builder(EngineRegistry::standard).workers(1).queue_depth(2);
    let ch = builder.channel(ChannelSpec::transform(512, "dft_naive", Direction::Forward));
    let server = builder.serve("127.0.0.1:0").expect("bind");

    let client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let (mut tx, mut rx) = client.split();

    // Writer floods without waiting; reader drains concurrently so the
    // flood can't deadlock on its own unread responses.
    let flood = 24u64;
    let mut payload = vec![Complex::zero(); 512];
    payload[0] = Complex::new(1.0, 0.0);
    let writer = std::thread::spawn(move || {
        for seq in 0..flood {
            tx.submit(ch, seq, &payload).expect("submit");
        }
        tx
    });
    let (mut results, mut retries) = (0u64, 0u64);
    for _ in 0..flood {
        match rx.recv_event().expect("recv") {
            NetEvent::Result { samples, .. } => {
                // The impulse's FFT is flat: cheap proof no accepted
                // frame was corrupted or cross-delivered.
                assert!(samples.iter().all(|s| (s.re - 1.0).abs() < 1e-9 && s.im.abs() < 1e-9));
                results += 1;
            }
            NetEvent::RetryAfter { channel, millis, .. } => {
                assert_eq!((channel, millis), (ch, RETRY_AFTER_MS));
                retries += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let mut tx = writer.join().expect("writer thread");
    assert!(retries >= 1, "a 24-frame flood over a 2-deep queue must shed");
    assert_eq!(results + retries, flood, "every frame gets exactly one answer");

    // The server's own ledger agrees with the client's.
    tx.request_stats(999).expect("stats");
    let doc = match rx.recv_event().expect("recv") {
        NetEvent::Stats { json } => json,
        other => panic!("expected Stats, got {other:?}"),
    };
    assert_eq!(json_u64(&doc, "shed"), retries);
    assert_eq!(json_u64(&doc, "submitted"), results, "pipeline accepted = client results");

    drop((tx, rx));
    let stats = server.shutdown();
    assert_eq!(stats.delivered, stats.submitted);
    assert_eq!(stats.delivered, results);
    assert_eq!(stats.rejected, retries, "QueueFull refusals are counted pipeline-side too");
}

#[test]
fn admin_stats_document_is_structurally_valid_json() {
    let (server, [wimax_tx, ..]) = modem_server(2, 32);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");

    // Put some traffic through first so the counters are non-trivial.
    let subcarriers = vec![Complex::new(std::f64::consts::FRAC_1_SQRT_2, 0.0); 256];
    for seq in 0..3 {
        client.submit(wimax_tx, seq, &subcarriers).expect("submit");
        expect_result(&mut client, wimax_tx, seq);
    }
    client.request_stats(7).expect("stats");
    let doc = match client.recv_event().expect("recv") {
        NetEvent::Stats { json } => json,
        other => panic!("expected Stats, got {other:?}"),
    };

    // Structural sanity: balanced braces/brackets outside strings, no
    // trailing garbage — the same bar scripts/check_bench_json.py sets
    // for the bench documents that embed this object.
    let (mut depth, mut max_depth, mut in_str, mut esc) = (0i64, 0i64, false, false);
    for c in doc.chars() {
        if in_str {
            match (esc, c) {
                (true, _) => esc = false,
                (false, '\\') => esc = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => {
                depth += 1;
                max_depth = max_depth.max(depth);
            }
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close in stats JSON");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced stats JSON");
    assert!(!in_str, "unterminated string in stats JSON");
    assert!(max_depth >= 3, "expected nested pipeline/scheduler objects, got depth {max_depth}");

    // The advertised shape: server counters wrapping the pipeline
    // snapshot with its scheduler and per-channel sections.
    for needle in [
        "\"server\":\"afft_net\"",
        "\"connections_live\":",
        "\"connections_accepted\":",
        "\"frames_in\":",
        "\"shed\":",
        "\"protocol_errors\":",
        "\"poisoned\":false",
        "\"pipeline\":{",
        "\"scheduler\":{",
        "\"per_channel\":[",
    ] {
        assert!(doc.contains(needle), "stats JSON missing {needle}: {doc}");
    }
    assert_eq!(json_u64(&doc, "channels"), 4);
    assert_eq!(json_u64(&doc, "connections_live"), 1);
    assert_eq!(json_u64(&doc, "connections_accepted"), 1);
    assert_eq!(json_u64(&doc, "submitted"), 3);
    // Three submits plus the stats request itself.
    assert_eq!(json_u64(&doc, "frames_in"), 4);

    // What the benchmark's traced run reads from each channel: the four
    // stage summaries, each with its sample count and median. Only the
    // WiMAX modulator (channel 0) carried traffic.
    let channels = json_value(json_value(&doc, "pipeline"), "channels");
    let entries: Vec<&str> = channels.split("{\"channel\":").skip(1).collect();
    assert_eq!(entries.len(), 4, "pipeline.channels: {channels}");
    for (i, entry) in entries.iter().enumerate() {
        assert!(entry.starts_with(&format!("{i},")), "channel {i} out of place: {channels}");
        let sampled = if i == 0 { 3u64.div_ceil(SAMPLE_EVERY) } else { 0 };
        for stage in ["queue_wait", "transform", "reorder_park", "latency"] {
            let summary = json_value(entry, stage);
            assert!(summary.contains("\"p50_ns\":"), "channel {i} {stage}: {summary}");
            assert_eq!(json_u64(summary, "count"), sampled, "channel {i} {stage}");
        }
    }

    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.delivered, 3);
}
