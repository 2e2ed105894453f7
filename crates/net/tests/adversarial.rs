//! Adversarial clients against a live server: malformed bytes, hostile
//! length claims, readers that stop reading, pools under concurrent
//! fire, and shutdown racing in-flight work. The server must shrug —
//! refuse cleanly, keep serving everyone else, and never lose a frame
//! it accepted.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use afft_core::engine::{Cost, EngineRegistry, EngineSpec, FftEngine};
use afft_core::{Direction, FftError};
use afft_net::proto::{self, HEADER_LEN, MAGIC, OP_SUBMIT, VERSION};
use afft_net::{NetClient, NetEvent, NetServer, NetServerBuilder, ProtoError};
use afft_num::{Complex, C64};
use afft_stream::ChannelSpec;

/// A one-channel server over a fast 64-point forward transform.
fn transform_server() -> NetServerBuilder {
    let mut builder = NetServer::builder(EngineRegistry::standard).workers(2).queue_depth(32);
    builder.channel(ChannelSpec::transform(64, "radix4_dit", Direction::Forward));
    builder
}

/// A scaled impulse: its forward FFT is flat at `amp` on every bin,
/// which makes per-client cross-talk instantly visible.
fn impulse(n: usize, amp: f64) -> Vec<C64> {
    let mut v = vec![Complex::zero(); n];
    v[0] = Complex::new(amp, 0.0);
    v
}

fn assert_flat(samples: &[C64], amp: f64) {
    for (i, s) in samples.iter().enumerate() {
        assert!((s.re - amp).abs() < 1e-9 && s.im.abs() < 1e-9, "bin {i} = {s:?}, want {amp}+0i");
    }
}

/// Reads and discards the HELLO frame on a raw socket.
fn eat_hello(stream: &mut TcpStream) {
    let header = proto::read_header(stream).expect("hello header");
    let mut buf = Vec::new();
    proto::read_payload_into(stream, &header, &mut buf).expect("hello payload");
}

#[test]
fn truncated_frame_then_disconnect_leaves_the_server_serving() {
    let server = transform_server().serve("127.0.0.1:0").expect("bind");

    // Half a header, then vanish mid-frame.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    eat_hello(&mut raw);
    raw.write_all(&MAGIC).expect("write");
    raw.write_all(&[VERSION, OP_SUBMIT, 0, 0, 7]).expect("write");
    drop(raw);

    // And again, dying one byte short of a complete header.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    eat_hello(&mut raw);
    let header = proto::encode_header(&proto::Header {
        op: OP_SUBMIT,
        channel: 0,
        seq: 1,
        payload_len: 64 * proto::BYTES_PER_SAMPLE as u32,
    });
    raw.write_all(&header[..HEADER_LEN - 1]).expect("write");
    drop(raw);

    // The server is unbothered: a fresh client round-trips cleanly.
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.submit(0, 42, &impulse(64, 3.0)).expect("submit");
    match client.recv_event().expect("recv") {
        NetEvent::Result { seq, samples, .. } => {
            assert_eq!(seq, 42);
            assert_flat(&samples, 3.0);
        }
        other => panic!("expected a Result, got {other:?}"),
    }
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.delivered, stats.submitted);
}

#[test]
fn oversized_length_prefix_is_refused_and_the_connection_closed() {
    let server = transform_server().serve("127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // Hand-craft a header claiming a 4 GiB payload on the raw socket.
    // read_header refuses at the length field — nothing is allocated
    // and no payload bytes are awaited.
    let mut hostile = Vec::with_capacity(HEADER_LEN);
    hostile.extend_from_slice(&MAGIC);
    hostile.push(VERSION);
    hostile.push(OP_SUBMIT);
    hostile.extend_from_slice(&0u16.to_le_bytes());
    hostile.extend_from_slice(&9u64.to_le_bytes());
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    eat_hello(&mut raw);
    raw.write_all(&hostile).expect("write");

    // The hostile connection gets a definitive ERROR naming the cap,
    // then EOF: the stream cannot be resynchronised after a length lie.
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let header = proto::read_header(&mut raw).expect("error frame header");
    assert_eq!(header.op, proto::OP_ERROR);
    let mut payload = Vec::new();
    proto::read_payload_into(&mut raw, &header, &mut payload).expect("error frame payload");
    let message = String::from_utf8_lossy(&payload).into_owned();
    assert!(message.contains("exceeds"), "error should name the cap: {message}");
    match proto::read_header(&mut raw) {
        Err(ProtoError::Io(_)) => {}
        other => panic!("expected EOF after the refusal, got {other:?}"),
    }

    // The well-behaved connection on the same server still works.
    client.submit(0, 5, &impulse(64, 2.0)).expect("submit");
    match client.recv_event().expect("recv") {
        NetEvent::Result { seq, samples, .. } => {
            assert_eq!(seq, 5);
            assert_flat(&samples, 2.0);
        }
        other => panic!("expected a Result, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.delivered, stats.submitted);
}

#[test]
fn slow_reader_is_shed_at_its_outstanding_cap() {
    // A deliberately slow engine and a 2-frame outstanding cap: a
    // client that fires without reading must see RETRY_AFTER, and
    // every accepted frame must still complete.
    let mut builder = NetServer::builder(EngineRegistry::standard)
        .workers(1)
        .queue_depth(32)
        .max_conn_outstanding(2);
    builder.channel(ChannelSpec::transform(512, "dft_naive", Direction::Forward));
    let server = builder.serve("127.0.0.1:0").expect("bind");

    let client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let (mut tx, mut rx) = client.split();
    let burst = 8u64;
    for seq in 0..burst {
        tx.submit(0, seq, &impulse(512, 1.0)).expect("submit");
    }
    let (mut results, mut retries) = (0u64, 0u64);
    for _ in 0..burst {
        match rx.recv_event().expect("recv") {
            NetEvent::Result { samples, .. } => {
                assert_flat(&samples, 1.0);
                results += 1;
            }
            NetEvent::RetryAfter { millis, .. } => {
                assert!(millis > 0);
                retries += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(retries >= 1, "an unread burst of {burst} over a cap of 2 must shed");
    assert_eq!(results + retries, burst, "every frame gets exactly one answer");

    // Resubmitting the shed frames at a polite pace drains cleanly.
    for seq in 0..retries {
        tx.submit(0, 100 + seq, &impulse(512, 1.0)).expect("submit");
        match rx.recv_event().expect("recv") {
            NetEvent::Result { seq: got, .. } => assert_eq!(got, 100 + seq),
            other => panic!("unexpected {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.delivered, stats.submitted);
    assert_eq!(stats.delivered, burst, "8 accepted in total: 8 - shed + resubmits");
}

#[test]
fn concurrent_clients_share_one_pool_without_crosstalk() {
    let server = Arc::new(transform_server().workers(4).serve("127.0.0.1:0").expect("bind"));
    let delivered = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..4u64)
        .map(|id| {
            let addr = server.local_addr();
            let delivered = Arc::clone(&delivered);
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
                let amp = (id + 1) as f64;
                for frame in 0..16u64 {
                    let seq = id * 1000 + frame;
                    client.submit(0, seq, &impulse(64, amp)).expect("submit");
                    match client.recv_event().expect("recv") {
                        NetEvent::Result { seq: got, samples, .. } => {
                            assert_eq!(got, seq, "answers stay on the submitting connection");
                            assert_flat(&samples, amp);
                            delivered.fetch_add(1, Ordering::SeqCst);
                        }
                        other => panic!("client {id}: unexpected {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    assert_eq!(delivered.load(Ordering::SeqCst), 64);
    let server = Arc::into_inner(server).expect("sole owner");
    let stats = server.shutdown();
    assert_eq!(stats.delivered, 64);
    assert_eq!(stats.delivered, stats.submitted);
}

#[test]
fn submits_racing_shutdown_on_an_idle_channel_are_all_answered() {
    // A trickle of frames on a channel that is idle between them, with
    // shutdown landing somewhere in the trickle: every frame the
    // pipeline accepted, however late, must still come back.
    for round in 0..50u64 {
        let mut builder = NetServer::builder(EngineRegistry::standard).workers(1);
        builder.channel(ChannelSpec::transform(64, "radix4_dit", Direction::Forward));
        let server = builder.serve("127.0.0.1:0").expect("bind");
        let client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let (mut tx, mut rx) = client.split();
        let writer = std::thread::spawn(move || {
            for seq in 0..24u64 {
                if tx.submit(0, seq, &impulse(64, 1.0)).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(250));
            }
        });
        let reader = std::thread::spawn(move || {
            let mut results = 0u64;
            loop {
                match rx.recv_event() {
                    Ok(NetEvent::Result { samples, .. }) => {
                        assert_flat(&samples, 1.0);
                        results += 1;
                    }
                    Ok(NetEvent::ServerError { .. } | NetEvent::RetryAfter { .. }) => {}
                    Ok(other) => panic!("unexpected {other:?}"),
                    // EOF (or a reset): the server has hung up.
                    Err(_) => return results,
                }
            }
        });
        std::thread::sleep(Duration::from_micros(500 + 400 * (round % 10)));
        let stats = server.shutdown();
        writer.join().expect("writer thread");
        let results = reader.join().expect("reader thread");
        assert_eq!(results, stats.submitted, "round {round}: accepted frames went unanswered");
        assert_eq!(stats.delivered, stats.submitted, "round {round}");
    }
}

#[test]
fn shutdown_with_frames_in_flight_loses_no_accepted_work() {
    // Slow engine, shallow queue: the burst is guaranteed to still be
    // in flight (and partly shed) when shutdown lands.
    let mut builder = NetServer::builder(EngineRegistry::standard).workers(1).queue_depth(4);
    builder.channel(ChannelSpec::transform(512, "dft_naive", Direction::Forward));
    let server = builder.serve("127.0.0.1:0").expect("bind");

    let client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let (mut tx, mut rx) = client.split();
    let burst = 16u64;
    for seq in 0..burst {
        tx.submit(0, seq, &impulse(512, 1.0)).expect("submit");
    }
    // Let the frames land in the server's socket buffer, then pull the
    // plug while the pipeline is mid-burst.
    std::thread::sleep(Duration::from_millis(100));
    let reader = std::thread::spawn(move || {
        let (mut results, mut retries, mut errors) = (0u64, 0u64, 0u64);
        loop {
            match rx.recv_event() {
                Ok(NetEvent::Result { samples, .. }) => {
                    assert_flat(&samples, 1.0);
                    results += 1;
                }
                Ok(NetEvent::RetryAfter { .. }) => retries += 1,
                Ok(NetEvent::ServerError { .. }) => errors += 1,
                Ok(other) => panic!("unexpected {other:?}"),
                // EOF: the drain is complete and the server hung up.
                Err(ProtoError::Io(_)) => return (results, retries, errors),
                Err(e) => panic!("protocol error: {e}"),
            }
        }
    });
    let stats = server.shutdown();
    let (results, retries, errors) = reader.join().expect("reader thread");

    // The ledger must balance: every frame was answered exactly once,
    // and every frame the pipeline accepted came back as a Result.
    assert_eq!(results + retries + errors, burst, "every frame gets exactly one answer");
    assert_eq!(
        results, stats.submitted,
        "accepted work must all be delivered (shed {retries}, refused {errors})"
    );
    assert_eq!(stats.delivered, stats.submitted);
}

/// A backend that panics on any non-zero symbol: the build-time warmup
/// on a zero symbol passes, then real traffic detonates it.
struct FragileEngine {
    n: usize,
}

impl FftEngine for FragileEngine {
    fn name(&self) -> &str {
        "fragile"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        _dir: Direction,
    ) -> Result<(), FftError> {
        assert!(input.iter().all(|c| c.re == 0.0 && c.im == 0.0), "fragile engine exploded");
        output.fill(Complex::zero());
        Ok(())
    }
}

fn fragile_registry(n: usize) -> Result<EngineRegistry, FftError> {
    Ok(EngineRegistry::new(n).with(EngineSpec {
        name: "fragile",
        supports: |_| true,
        build: |n| Ok(Box::new(FragileEngine { n })),
        cost: |_| Cost::Host(0.0, None),
    }))
}

#[test]
fn a_backend_panic_on_the_reading_thread_poisons_the_server_but_answers_every_frame() {
    let mut builder = NetServer::builder(fragile_registry).workers(1);
    builder.channel(ChannelSpec::transform(64, "fragile", Direction::Forward));
    let server = builder.serve("127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");

    // A zero symbol passes.
    client.submit(0, 1, &vec![Complex::zero(); 64]).expect("submit");
    match client.recv_event().expect("recv") {
        NetEvent::Result { seq, samples, .. } => assert_eq!((seq, samples.len()), (1, 64)),
        other => panic!("expected a Result, got {other:?}"),
    }
    // The detonating frame is alone on its connection, so it runs on
    // the handler thread. The handler survives to answer it, and every
    // frame after it, with ERROR.
    for seq in [2, 3, 4] {
        client.submit(0, seq, &impulse(64, 1.0)).expect("submit");
        match client.recv_event().expect("recv") {
            NetEvent::ServerError { seq: got, message, .. } => {
                assert_eq!(got, seq);
                assert!(message.contains("poisoned"), "{message}");
            }
            other => panic!("frame {seq}: expected an ERROR, got {other:?}"),
        }
    }
    client.request_stats(5).expect("stats");
    match client.recv_event().expect("recv") {
        NetEvent::Stats { json } => assert!(json.contains("\"poisoned\":true"), "{json}"),
        other => panic!("expected Stats, got {other:?}"),
    }

    // Hanging up frees the connection; the server still drains.
    drop(client);
    let began = Instant::now();
    while !server.stats_json().contains("\"connections_live\":0") {
        assert!(began.elapsed() < Duration::from_secs(10), "{}", server.stats_json());
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.completed, stats.caller_transforms), (2, 1, 1));
}
